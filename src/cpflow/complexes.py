"""Combinatorics of closed triangulated surfaces.

A :class:`SurfaceComplex` stores the face-vertex incidence structure of a
closed surface together with the derived edge list, incidence maps and Euler
characteristic.  Vertices are dense integers ``0..N-1`` and edges are
canonicalized as ``(min, max)`` pairs so that map keys and file formats are
deterministic.  Only closed surfaces are accepted: every edge must lie in
exactly two faces and the faces around each vertex must form a single cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from numbers import Real
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
        Canonical (min, max) vertex pairs in lexicographic order; only the
        triangle's double (``_DOUBLE_TRIANGLE``) lists them in slot order
        instead, edge m opposite vertex m.
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
    edge_index : dict
        Maps a canonical pair (i, j) to its row in ``edges``; built on first
        read, as no hot path needs it.
    """

    vertex_count: int
    faces: np.ndarray
    edges: np.ndarray
    edge_faces: np.ndarray
    vertex_degree: np.ndarray
    euler_characteristic: int
    face_opposite_edges: np.ndarray
    face_edge_tables: tuple

    @cached_property
    def edge_index(self) -> dict:
        return dict(zip(zip(*self.edges.T.tolist()), range(len(self.edges))))

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


#: Dart 2h + k, k = 0, 1, leaves by half-edge h = 3f + m from the corner at
#: slot (m + 1 + k) % 3 of face f: the slot of each of a face's six darts.
_DART_SLOTS = np.array([1, 2, 2, 0, 0, 1])

#: [a, e]: the dart, among the six of face g, that leaves the corner reached
#: across half-edge 3g + a, where e = 0 for the corner at slot (a + 1) % 3
#: and e = 1 for the one at slot (a + 2) % 3: it leaves by the half-edge
#: opposite the third slot.
_SUCCESSOR = np.array([[5, 2], [1, 4], [3, 0]])


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
    flat = ids.ravel()
    label = (3 * np.arange(len(ids))[:, None] + _DART_SLOTS).ravel()
    # Dart 2h sits at the end of edge h that dart 2 twin[h] sits at, or at
    # the other end; dart 2h + 1 sits at the end dart 2h does not.
    first = flat[label[0::2]]
    end = (first[twin] != first).view(np.int8)
    across, slot = np.divmod(twin, 3)
    successor = np.repeat(6 * across, 2)
    successor[0::2] += _SUCCESSOR[slot, end]
    successor[1::2] += _SUCCESSOR[slot, 1 - end]
    del first, end, across, slot  # not held through the doubling loop

    reach, longest = 1, np.bincount(flat).max()
    while reach < longest:
        np.minimum(label, label[successor], out=label)
        successor = successor[successor]
        reach *= 2
    # Each dart's label is a corner of its own vertex.
    vertex = flat[label]
    return vertex[label != first_corner[vertex]]


def _is_integer(v) -> bool:
    """Whether ``v`` is a Python or numpy integer; booleans are not."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_positive_finite(v) -> bool:
    """Whether ``v`` is a Python or numpy real number in (0, inf); booleans,
    strings and other objects are not."""
    return isinstance(v, Real) and not isinstance(v, bool) and 0 < v < math.inf


def build_complex(faces: Sequence[Sequence[int]]) -> SurfaceComplex:
    """Build and validate a closed triangulated surface from vertex triples.

    Vertex labels must be integers, Python or numpy, and exactly
    ``0..N-1``.  Each error names the first offending face, edge or vertex,
    in the order of the checks below.

    Raises
    ------
    BadFaceError
        The face list is empty, a vertex label is not an integer (booleans,
        floats and strings are refused), or a face has a repeated vertex, a
        negative vertex index or not three vertices.
    NonManifoldError
        Some edge is not in exactly two faces, or a face is duplicated.
    DisconnectedLinkError
        Some vertex label in ``0..max`` is unused, or the faces around some
        vertex do not form a single cycle.
    """
    faces = list(faces)
    if not set(map(type, chain.from_iterable(faces))) <= {int}:
        for face in faces:
            if not all(map(_is_integer, face)):
                raise BadFaceError(f"face {face!r} has a vertex label that is not an integer")
    return _build_complex(faces)


def _build_complex(faces: list) -> SurfaceComplex:
    """``build_complex`` after its label check, for a caller that has
    already checked that every vertex label is an integer."""
    if len(faces) == 0:
        raise BadFaceError("face list is empty")
    sizes = np.fromiter(map(len, faces), np.int64, len(faces))
    ragged = np.flatnonzero(sizes != 3)
    n_ok = int(ragged[0]) if ragged.size else len(faces)
    rows = np.fromiter(chain.from_iterable(faces[:n_ok]), np.int64, 3 * n_ok)
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

    # Half-edge 3f + m is the edge of face f opposite its m-th vertex.  One
    # stable sort of their keys groups each edge's half-edges in face order.
    keys = (ids[:, [1, 0, 0]] * n_vertices + ids[:, [2, 2, 1]]).ravel()
    by_edge = np.argsort(keys, kind="stable")
    keys = keys[by_edge]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    counts = np.diff(starts, append=keys.size)
    edge_arr = np.column_stack(np.divmod(keys[starts], n_vertices))
    bad = np.flatnonzero(counts != 2)
    if bad.size:
        detail = ", ".join(
            f"{(a, b)} in {c} faces"
            for (a, b), c in zip(labels[edge_arr[bad]].tolist(), counts[bad].tolist())
        )
        raise NonManifoldError(f"not a closed surface: {detail}")

    # Every edge has two half-edges: edge k holds by_edge[2k] and by_edge[2k + 1].
    pairs = by_edge.reshape(-1, 2)
    twin = np.empty_like(by_edge)
    twin[by_edge] = pairs[:, ::-1].ravel()
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
    opposite = np.empty_like(by_edge)
    opposite[by_edge] = np.arange(by_edge.size) >> 1
    opposite = opposite.reshape(face_arr.shape)
    # opposite[:, idx] yields an F-ordered array; C-ordered tables gather faster.
    tables = (opposite, *(np.ascontiguousarray(opposite[:, idx]) for idx in ([1, 2, 0], [2, 0, 1])))
    degree = np.bincount(edge_arr.ravel(), minlength=n_vertices)
    for arr in (face_arr, edge_arr, edge_faces, degree, *tables):
        arr.setflags(write=False)

    return SurfaceComplex(
        vertex_count=n_vertices,
        faces=face_arr,
        edges=edge_arr,
        edge_faces=edge_faces,
        vertex_degree=degree,
        euler_characteristic=n_vertices - len(edge_arr) + len(face_arr),
        face_opposite_edges=opposite,
        face_edge_tables=tables,
    )


def normalize_subset(vertex_count: int, subset: Iterable[int]) -> frozenset:
    """The one subset rule: a nonempty subset of ``0..vertex_count-1``, all
    of it allowed, whose members are integers, Python or numpy, not
    booleans, floats or strings; returned as a frozenset of ints, else
    ValueError."""
    members = list(subset)
    if not all(map(_is_integer, members)):
        raise ValueError("vertex subset members must be integers")
    members = frozenset(map(int, members))
    if not members:
        raise ValueError("vertex subset is empty")
    if not all(0 <= v < vertex_count for v in members):
        raise ValueError(f"vertex subset {sorted(members)} references unknown vertices")
    return members


def _subcomplex_counts(complex: SurfaceComplex, members: frozenset) -> tuple[int, int, int]:
    nv = len(members)
    ne = sum(1 for i, j in complex.edges.tolist() if i in members and j in members)
    nf = sum(1 for face in complex.faces.tolist() if all(v in members for v in face))
    return nv, ne, nf


def subcomplex_euler(complex: SurfaceComplex, subset: Iterable[int]) -> int:
    """Euler characteristic of the subcomplex induced by a vertex subset.

    Counts vertices in the subset, edges with both endpoints in it and faces
    with all three vertices in it.
    """
    members = normalize_subset(complex.vertex_count, subset)
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
    members = normalize_subset(complex.vertex_count, subset)
    pairs = []
    for face in complex.faces.tolist():
        for v in face:
            if v not in members:
                continue
            a, b = (w for w in face if w != v)
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


def _frozen(rows) -> np.ndarray:
    arr = np.array(rows, dtype=np.int64)
    arr.setflags(write=False)
    return arr


# Two copies of face (0, 1, 2) glued along their three edges: a sphere whose
# curvature at vertex m is 2 pi minus twice the triangle's angle m.  Built
# directly because build_complex refuses a repeated face.  The one complex
# whose edges are not in lexicographic order: edge m joins the two slots
# other than m, lower slot first, so it lies opposite slot m and a lone
# triangle's per-slot values (inversive, excess, lengths) are its per-edge ones.
_DOUBLE_TABLES = tuple(_frozen([row] * 2) for row in ([0, 1, 2], [1, 2, 0], [2, 0, 1]))
_DOUBLE_TRIANGLE = SurfaceComplex(
    vertex_count=3,
    faces=_frozen([[0, 1, 2]] * 2),
    edges=_frozen([[1, 2], [0, 2], [0, 1]]),
    edge_faces=_frozen([[0, 1]] * 3),
    vertex_degree=_frozen([2, 2, 2]),
    euler_characteristic=2,
    face_opposite_edges=_DOUBLE_TABLES[0],
    face_edge_tables=_DOUBLE_TABLES,
)
