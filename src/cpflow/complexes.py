"""Combinatorics of closed triangulated surfaces.

A :class:`SurfaceComplex` stores the face-vertex incidence structure of a
closed surface together with the derived edge list, incidence maps and Euler
characteristic.  Vertices are dense integers ``0..N-1`` and edges are
canonicalized as ``(min, max)`` pairs so that map keys and file formats are
deterministic.  Only closed surfaces are accepted: every edge must lie in
exactly two faces and the faces around each vertex must form a single cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import BadFaceError, DisconnectedLinkError, NonManifoldError


@dataclass(frozen=True)
class SurfaceComplex:
    """Immutable incidence structure of a closed triangulated surface.

    Attributes
    ----------
    vertex_count : int
        Number of vertices N.
    faces : (F, 3) int array
        Vertex triples, each row sorted ascending, rows in lexicographic order.
    edges : (E, 2) int array
        Canonical (min, max) vertex pairs in lexicographic order.
    edge_index : dict
        Maps a canonical pair (i, j) to its row in ``edges``.
    edge_faces : (E, 2) int array
        The two faces incident to each edge.
    vertex_degree : (N,) int array
        Valence of each vertex.
    euler_characteristic : int
        N - E + F.
    face_opposite_edges : (F, 3) int array
        ``face_opposite_edges[f, m]`` is the edge of face f opposite its m-th
        vertex, i.e. the edge joining the other two vertices.
    face_edge_tables : three C-ordered (F, 3) int arrays
        ``face_opposite_edges`` and its columns shifted by one and by two:
        [f, m] holds the edge of face f opposite its vertex m, m + 1, m + 2.
    """

    vertex_count: int
    faces: np.ndarray
    edges: np.ndarray
    edge_index: dict
    edge_faces: np.ndarray
    vertex_degree: np.ndarray
    euler_characteristic: int
    face_opposite_edges: np.ndarray
    face_edge_tables: tuple

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def face_count(self) -> int:
        return len(self.faces)

    def edge_id(self, i: int, j: int) -> int:
        """Row of edge {i, j} in the canonical edge order."""
        key = (i, j) if i < j else (j, i)
        return self.edge_index[key]


def _split_links(ids: np.ndarray, twin: np.ndarray, first_corner: np.ndarray) -> np.ndarray:
    """Vertex ids, with repeats, whose faces form more than one cycle.

    ``ids`` holds the faces in dense vertex ids, ``twin`` pairs the two
    half-edges 3f + m of each edge (m the opposite slot), and
    ``first_corner`` gives each vertex's smallest corner index 3f + m.

    Every edge lies in two faces, so the corners at a vertex form disjoint
    cycles: a corner's two neighbours sit across its face's two edges through
    the vertex.  A dart is a corner with one of those edges as its exit; the
    successor of a dart is the corner across that edge, leaving by its other
    edge through the vertex.  Doubling the successor pointers spreads the
    smallest corner index around each cycle in O(log max-degree) passes, and a
    vertex has a single cycle iff all of its corners end with its first corner.
    """
    # Dart 2h + k - 1 leaves by half-edge h = 3f + m from the corner at slot
    # (m + k) % 3 of face f, for k = 1, 2.
    n_half = twin.size
    half = np.repeat(np.arange(n_half), 2)
    face, slot = np.divmod(half, 3)
    corner_slot = (slot + np.tile([1, 2], n_half)) % 3
    vertex = ids[face, corner_slot]
    # In the face across, the vertex sits at one end of the shared edge; the
    # dart leaves by the half-edge opposite the third slot.
    across, across_slot = np.divmod(twin[half], 3)
    end = (across_slot + 1) % 3
    at = np.where(ids[across, end] == vertex, end, (across_slot + 2) % 3)
    exit_slot = 3 - at - across_slot
    successor = 2 * (3 * across + exit_slot) + (at - exit_slot) % 3 - 1

    label = 3 * face + corner_slot
    reach, longest = 1, np.bincount(ids.ravel()).max()
    while reach < longest:
        label = np.minimum(label, label[successor])
        successor = successor[successor]
        reach *= 2
    return vertex[label != first_corner[vertex]]


def build_complex(faces: Sequence[Sequence[int]]) -> SurfaceComplex:
    """Build and validate a closed triangulated surface from vertex triples.

    Vertex labels must be exactly ``0..N-1``.  Each error names the first
    offending face, edge or vertex, in the order of the checks below.

    Raises
    ------
    BadFaceError
        A face has a repeated vertex or a negative vertex index.
    NonManifoldError
        Some edge is not in exactly two faces, or a face is duplicated.
    DisconnectedLinkError
        Some vertex label in ``0..max`` is unused, or the faces around some
        vertex do not form a single cycle.
    """
    if len(faces) == 0:
        raise BadFaceError("face list is empty")
    faces = list(faces)
    sizes = np.fromiter(map(len, faces), np.int64, len(faces))
    ragged = np.flatnonzero(sizes != 3)
    n_ok = int(ragged[0]) if ragged.size else len(faces)
    rows = np.fromiter(map(int, chain.from_iterable(faces[:n_ok])), np.int64, 3 * n_ok)
    rows = np.sort(rows.reshape(n_ok, 3), axis=1)

    repeated = (rows[:, 0] == rows[:, 1]) | (rows[:, 1] == rows[:, 2])
    bad = np.flatnonzero(repeated | (rows[:, 0] < 0))
    if bad.size:
        f = bad[0]
        problem = "has a repeated vertex" if repeated[f] else "has a negative vertex index"
        raise BadFaceError(f"face {faces[f]!r} {problem}")
    if n_ok < len(faces):
        raise BadFaceError(f"face {faces[n_ok]!r} does not have three vertices")

    order = np.lexsort(rows.T[::-1])  # stable, so repeats follow their first copy
    face_arr = rows[order]
    repeats = order[1:][np.all(face_arr[1:] == face_arr[:-1], axis=1)]
    if repeats.size:
        row = tuple(rows[repeats.min()].tolist())
        raise NonManifoldError(f"face {row} appears more than once")

    # Dense ids 0..n-1 in label order, so that unused labels cannot inflate
    # any per-vertex array before they are reported.
    labels, first_corner, ids = np.unique(face_arr, return_index=True, return_inverse=True)
    ids = ids.reshape(face_arr.shape)
    n_vertices = len(labels)

    # Half-edge (f, m) is the edge of face f opposite its m-th vertex.
    keys = ids[:, [1, 0, 0]] * n_vertices + ids[:, [2, 2, 1]]
    edge_keys, half_edges, counts = np.unique(
        keys.ravel(), return_inverse=True, return_counts=True
    )
    edge_arr = np.column_stack(np.divmod(edge_keys, n_vertices))
    bad = np.flatnonzero(counts != 2)
    if bad.size:
        detail = ", ".join(
            f"{(a, b)} in {c} faces"
            for (a, b), c in zip(labels[edge_arr[bad]].tolist(), counts[bad].tolist())
        )
        raise NonManifoldError(f"not a closed surface: {detail}")

    pairs = np.argsort(half_edges, kind="stable").reshape(-1, 2)
    twin = np.empty_like(half_edges)
    twin[pairs[:, 0]], twin[pairs[:, 1]] = pairs[:, 1], pairs[:, 0]
    unused = np.flatnonzero(labels != np.arange(n_vertices))
    split = _split_links(ids, twin, first_corner)
    if unused.size and (not split.size or unused[0] < labels[split.min()]):
        raise DisconnectedLinkError(f"vertex {int(unused[0])} has no incident faces")
    if split.size:
        raise DisconnectedLinkError(
            f"link of vertex {int(labels[split.min()])} is not a single cycle"
        )

    # Every label is used from here on, so the dense ids are the labels.
    edge_faces = pairs // 3
    opposite = half_edges.reshape(face_arr.shape)
    # opposite[:, idx] yields an F-ordered array; C-ordered tables gather faster.
    tables = (opposite, *(np.ascontiguousarray(opposite[:, idx]) for idx in ([1, 2, 0], [2, 0, 1])))
    degree = np.bincount(edge_arr.ravel(), minlength=n_vertices)
    for arr in (face_arr, edge_arr, edge_faces, degree, *tables):
        arr.setflags(write=False)

    return SurfaceComplex(
        vertex_count=n_vertices,
        faces=face_arr,
        edges=edge_arr,
        edge_index=dict(zip(zip(*edge_arr.T.tolist()), range(len(edge_arr)))),
        edge_faces=edge_faces,
        vertex_degree=degree,
        euler_characteristic=n_vertices - len(edge_arr) + len(face_arr),
        face_opposite_edges=opposite,
        face_edge_tables=tables,
    )


def normalize_subset(complex: SurfaceComplex, subset: Iterable[int]) -> frozenset:
    """Validate a nonempty proper vertex subset and return it as a frozenset."""
    members = frozenset(int(v) for v in subset)
    if not members:
        raise ValueError("vertex subset is empty")
    if not all(0 <= v < complex.vertex_count for v in members):
        raise ValueError("vertex subset references unknown vertices")
    if len(members) >= complex.vertex_count:
        raise ValueError("vertex subset must be a proper subset of the vertices")
    return members


def _subcomplex_counts(complex: SurfaceComplex, members: frozenset) -> tuple[int, int, int]:
    nv = len(members)
    ne = int(sum(1 for i, j in complex.edges if int(i) in members and int(j) in members))
    nf = int(sum(1 for face in complex.faces if all(int(v) in members for v in face)))
    return nv, ne, nf


def subcomplex_euler(complex: SurfaceComplex, subset: Iterable[int]) -> int:
    """Euler characteristic of the subcomplex induced by a vertex subset.

    Counts vertices in the subset, edges with both endpoints in it and faces
    with all three vertices in it.
    """
    members = normalize_subset(complex, subset)
    nv, ne, nf = _subcomplex_counts(complex, members)
    return nv - ne + nf


def link_pairs(
    complex: SurfaceComplex, subset: Iterable[int]
) -> list[tuple[tuple[int, int], int]]:
    """All (edge, vertex) pairs forming a triangle with the vertex in the subset.

    A pair qualifies when the edge's endpoints are both outside the subset,
    the vertex is inside it, and the edge plus vertex span a face.  Found by
    direct filtering over every (face, corner) incidence.
    """
    members = normalize_subset(complex, subset)
    pairs = []
    for face in complex.faces:
        for m in range(3):
            v = int(face[m])
            if v not in members:
                continue
            a, b = (int(w) for w in face if w != v)
            if a in members or b in members:
                continue
            pairs.append(((a, b), v))
    pairs.sort()
    return pairs


# ---------------------------------------------------------------------------
# Stock complexes used by tests, docs and the acceptance suite.
# ---------------------------------------------------------------------------

def tetrahedron() -> SurfaceComplex:
    """Boundary complex of the 3-simplex: N=4, E=6, F=4, chi=2."""
    return build_complex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def octahedron() -> SurfaceComplex:
    """The octahedron: N=6, E=12, F=8, chi=2, every vertex of degree 4."""
    return build_complex(
        [
            (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1),
            (5, 2, 1), (5, 3, 2), (5, 4, 3), (5, 1, 4),
        ]
    )


def icosahedron() -> SurfaceComplex:
    """The icosahedron: N=12, E=30, F=20, chi=2, every vertex of degree 5."""
    return build_complex(
        [
            (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
            (1, 6, 2), (2, 6, 7), (2, 7, 3), (3, 7, 8), (3, 8, 4),
            (4, 8, 9), (4, 9, 5), (5, 9, 10), (5, 10, 1), (1, 10, 6),
            (6, 11, 7), (7, 11, 8), (8, 11, 9), (9, 11, 10), (10, 11, 6),
        ]
    )


def triangulated_torus(rows: int = 3, cols: int = 3) -> SurfaceComplex:
    """Torus from an rows x cols periodic grid with diagonals, chi=0.

    Needs rows, cols >= 3 so the quotient stays a simplicial complex.
    """
    if rows < 3 or cols < 3:
        raise ValueError("torus grid needs at least 3 rows and 3 columns")
    vid = lambda i, j: (i % rows) * cols + (j % cols)
    faces = []
    for i in range(rows):
        for j in range(cols):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i, j + 1), vid(i + 1, j + 1)
            faces.append((a, b, d))
            faces.append((a, d, c))
    return build_complex(faces)


def genus2_surface() -> SurfaceComplex:
    """A genus-2 surface (chi=-2, N=15) as the connected sum of two tori.

    Remove one face from each 3x3 grid torus and identify the two boundary
    triangles vertex by vertex.
    """
    glue_face = [0, 3, 4]  # a face of the grid torus, removed from both copies
    first = [f for f in triangulated_torus(3, 3).faces.tolist() if f != glue_face]
    # Second copy: glued vertices keep their labels, the rest are shifted up.
    others = [v for v in range(9) if v not in glue_face]
    relabel = {v: v for v in glue_face} | {v: 9 + k for k, v in enumerate(others)}
    second = [[relabel[v] for v in f] for f in first]
    return build_complex(first + second)
