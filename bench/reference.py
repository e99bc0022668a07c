"""Independent hyperbolic packing kernel for building inputs and checking outputs.

The formulas are the paper's, written again from scratch, so the benchmark's
inputs are identical on every version of the program and its correctness checks
do not trust the code under test:

    cosh l_ij = cosh r_i cosh r_j + I_ij sinh r_i sinh r_j
    cos a_m   = (cosh l_j cosh l_k - cosh l_m) / (sinh l_j sinh l_k)
    K_v       = 2 pi - sum of the angles at v

A face violating a strict triangle inequality is degenerate and contributes the
angles (pi, 0, 0), pi at the corner opposite its longest side.
"""

from __future__ import annotations

import json
from itertools import combinations
from pathlib import Path

import numpy as np


class Mesh:
    """Faces of a closed surface with their canonical edge list."""

    def __init__(self, faces):
        self.faces = np.asarray(faces, dtype=np.int64)
        self.vertex_count = int(self.faces.max()) + 1
        pairs = {tuple(sorted((int(f[j]), int(f[k])))) for f in self.faces
                 for j, k in ((0, 1), (1, 2), (0, 2))}
        self.edges = np.array(sorted(pairs), dtype=np.int64)
        index = {tuple(e): i for i, e in enumerate(self.edges.tolist())}
        self.opposite = np.array(
            [[index[tuple(sorted((int(f[(m + 1) % 3]), int(f[(m + 2) % 3]))))]
              for m in range(3)] for f in self.faces],
            dtype=np.int64,
        )
        self.neighbours = [set() for _ in range(self.vertex_count)]
        for i, j in self.edges.tolist():
            self.neighbours[i].add(j)
            self.neighbours[j].add(i)


def torus_faces(n: int) -> list[tuple[int, int, int]]:
    """The n x n periodic grid with diagonals, vertex (i, j) numbered i*n + j."""
    vid = lambda i, j: (i % n) * n + (j % n)
    faces = []
    for i in range(n):
        for j in range(n):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i, j + 1), vid(i + 1, j + 1)
            faces += [(a, b, d), (a, d, c)]
    return faces


def face_lengths(mesh: Mesh, inversive: np.ndarray, radii: np.ndarray) -> np.ndarray:
    ri, rj = radii[mesh.edges[:, 0]], radii[mesh.edges[:, 1]]
    # cosh l - 1 without cancellation
    excess = (np.sinh(0.5 * (ri + rj)) ** 2 + np.sinh(0.5 * (ri - rj)) ** 2
              + inversive * np.sinh(ri) * np.sinh(rj))
    lengths = np.log1p(excess + np.sqrt(excess * (excess + 2.0)))
    return lengths[mesh.opposite]


def degenerate_faces(mesh: Mesh, inversive, radii) -> np.ndarray:
    x = face_lengths(mesh, inversive, radii)
    return (x[:, 0] + x[:, 1] <= x[:, 2]) | (x[:, 0] + x[:, 2] <= x[:, 1]) | (x[:, 1] + x[:, 2] <= x[:, 0])


def curvature(mesh: Mesh, inversive, radii) -> np.ndarray:
    """Extended curvature per vertex."""
    x = face_lengths(mesh, inversive, radii)
    angles = np.empty_like(x)
    for m in range(3):
        j, k = (m + 1) % 3, (m + 2) % 3
        cos = (np.cosh(x[:, j]) * np.cosh(x[:, k]) - np.cosh(x[:, m])) / (
            np.sinh(x[:, j]) * np.sinh(x[:, k]))
        angles[:, m] = np.arccos(np.clip(cos, -1.0, 1.0))
    bad = degenerate_faces(mesh, inversive, radii)
    if bad.any():
        rows = np.nonzero(bad)[0]
        angles[rows] = 0.0
        angles[rows, x[rows].argmax(axis=1)] = np.pi
    sums = np.bincount(mesh.faces.ravel(), weights=angles.ravel(), minlength=mesh.vertex_count)
    return 2.0 * np.pi - sums


def log_uniform(rng: np.random.Generator, low: float, high: float, size: int) -> np.ndarray:
    return np.exp(rng.uniform(np.log(low), np.log(high), size))


def sample_radii(rng, mesh, inversive, low, high, degenerate: bool, tries: int = 100000):
    """Rejection-sample radii whose metric is admissible (or, if asked, not)."""
    for _ in range(tries):
        radii = log_uniform(rng, low, high, mesh.vertex_count)
        if bool(degenerate_faces(mesh, inversive, radii).any()) == degenerate:
            return radii
    raise RuntimeError("rejection sampling of radii did not succeed")


def write_surface(path: Path, mesh: Mesh, inversive, radii) -> None:
    doc = {
        "format": 1,
        "background": "hyperbolic",
        "faces": mesh.faces.tolist(),
        "inversive": [{"edge": [int(i), int(j)], "value": float(v)}
                      for (i, j), v in zip(mesh.edges.tolist(), inversive)],
        "radii": [float(r) for r in radii],
    }
    Path(path).write_text(json.dumps(doc) + "\n", encoding="utf-8")


def write_json(path: Path, key: str, values) -> None:
    Path(path).write_text(json.dumps({"format": 1, key: values}) + "\n", encoding="utf-8")


def read_radii(path: Path) -> np.ndarray:
    return np.asarray(json.loads(Path(path).read_text(encoding="utf-8"))["radii"], dtype=float)


def default_subsets(vertex_count: int, cap: int | None):
    """The check command's documented enumeration policy: every nonempty proper
    subset up to 16 vertices, size <= 3 beyond, or size <= cap when given."""
    if cap is None:
        cap = vertex_count - 1 if vertex_count <= 16 else 3
    for size in range(1, min(cap, vertex_count - 1) + 1):
        yield from combinations(range(vertex_count), size)


def is_connected(mesh: Mesh, subset) -> bool:
    members = set(subset)
    seen, todo = set(), [next(iter(members))]
    while todo:
        v = todo.pop()
        if v not in seen:
            seen.add(v)
            todo.extend(mesh.neighbours[v] & members)
    return seen == members


def connected_count(mesh: Mesh, subsets) -> tuple[int, int]:
    """(connected subsets, all subsets) over an iterable of vertex subsets."""
    total = connected = 0
    for s in subsets:
        total += 1
        connected += is_connected(mesh, s)
    return connected, total
