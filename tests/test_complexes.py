from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpflow import (
    BadFaceError,
    DisconnectedLinkError,
    NonManifoldError,
    build_complex,
    genus2_surface,
    icosahedron,
    link_pairs,
    octahedron,
    subcomplex_euler,
    tetrahedron,
    triangulated_torus,
)
from cpflow.complexes import _DOUBLE_TRIANGLE, _subcomplex_counts, normalize_subset

from conftest import flip_edges


def test_tetrahedron_counts(tetra):
    assert tetra.vertex_count == 4
    assert tetra.edge_count == 6
    assert tetra.face_count == 4
    assert tetra.euler_characteristic == 2


def test_octahedron_counts(octa):
    assert octa.euler_characteristic == 2
    assert np.all(octa.vertex_degree == 4)
    assert octa.face_count == 8


def test_icosahedron_counts(icosa):
    assert icosa.euler_characteristic == 2
    assert np.all(icosa.vertex_degree == 5)


def test_torus_counts(torus):
    assert torus.euler_characteristic == 0
    assert np.all(torus.vertex_degree == 6)


def test_genus2_counts(genus2):
    assert genus2.euler_characteristic == -2
    assert genus2.vertex_count == 15
    assert sorted(set(genus2.vertex_degree.tolist())) == [6, 10]


@pytest.mark.parametrize("complex_name", ["tetra", "octa", "icosa", "torus", "genus2"])
def test_closed_surface_identity(complex_name, request):
    complex = request.getfixturevalue(complex_name)
    assert 3 * complex.face_count == 2 * complex.edge_count
    assert np.all(complex.edge_faces >= 0)
    # chi of the full complex computed by the subset counting routine
    nv, ne, nf = _subcomplex_counts(complex, frozenset(range(complex.vertex_count)))
    assert nv - ne + nf == complex.euler_characteristic


def test_duplicate_face_rejected():
    with pytest.raises(NonManifoldError):
        build_complex([(0, 1, 2), (0, 1, 2)])
    with pytest.raises(NonManifoldError):
        build_complex([(0, 1, 2), (2, 1, 0)])


def test_open_surface_rejected():
    with pytest.raises(NonManifoldError):
        build_complex([(0, 1, 2), (0, 1, 3), (0, 2, 3)])


def test_bad_faces_rejected():
    with pytest.raises(BadFaceError):
        build_complex([(0, 0, 1), (0, 1, 2), (0, 2, 3), (1, 2, 3)])
    with pytest.raises(BadFaceError):
        build_complex([(-1, 0, 1)])
    with pytest.raises(BadFaceError):
        build_complex([])


@pytest.mark.parametrize("label", [3.9, True, "1", 3.0, None])
def test_non_integer_labels_rejected(label):
    faces = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, label), (1, 2, 3.5)]
    with pytest.raises(BadFaceError) as err:
        build_complex(faces)
    assert str(err.value) == f"face {(1, 2, label)!r} has a vertex label that is not an integer"


def test_numpy_integer_labels_accepted(tetra):
    faces = [tuple(np.int32(v) for v in face) for face in tetra.faces.tolist()]
    assert build_complex(faces).faces.tolist() == tetra.faces.tolist()
    assert build_complex(tetra.faces).faces.tolist() == tetra.faces.tolist()


def test_pinched_vertex_rejected():
    # Two tetrahedra sharing only vertex 0: the link of 0 is two cycles.
    first = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    second = [(0, 4, 5), (0, 4, 6), (0, 5, 6), (4, 5, 6)]
    with pytest.raises(DisconnectedLinkError):
        build_complex(first + second)


def test_unused_vertex_rejected():
    with pytest.raises(DisconnectedLinkError):
        build_complex([(0, 1, 2), (0, 1, 4), (0, 2, 4), (1, 2, 4)])


def test_huge_vertex_label_reported_before_any_per_vertex_work():
    big = 10**12
    with pytest.raises(DisconnectedLinkError, match="^vertex 3 has no incident faces$"):
        build_complex([(0, 1, 2), (0, 1, big), (0, 2, big), (1, 2, big)])


def _reference_complex(faces):
    """The loop-by-loop construction that ``build_complex`` vectorizes.

    Same checks in the same order with the same messages; returns every
    array of the complex as nested lists.
    """
    if len(faces) == 0:
        raise BadFaceError("face list is empty")
    for face in faces:
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in face):
            raise BadFaceError(f"face {face!r} has a vertex label that is not an integer")
    rows = []
    for face in faces:
        triple = tuple(int(v) for v in face)
        if len(triple) != 3:
            raise BadFaceError(f"face {face!r} does not have three vertices")
        if len(set(triple)) != 3:
            raise BadFaceError(f"face {face!r} has a repeated vertex")
        if min(triple) < 0:
            raise BadFaceError(f"face {face!r} has a negative vertex index")
        rows.append(tuple(sorted(triple)))
    seen = set()
    for row in rows:
        if row in seen:
            raise NonManifoldError(f"face {row} appears more than once")
        seen.add(row)
    rows.sort()

    edge_faces = {}
    for f, (a, b, c) in enumerate(rows):
        for edge in ((a, b), (a, c), (b, c)):
            edge_faces.setdefault(edge, []).append(f)
    bad = sorted((edge, len(fs)) for edge, fs in edge_faces.items() if len(fs) != 2)
    if bad:
        detail = ", ".join(f"{edge} in {count} faces" for edge, count in bad)
        raise NonManifoldError(f"not a closed surface: {detail}")
    edges = sorted(edge_faces)
    index = {edge: k for k, edge in enumerate(edges)}

    n = max(row[2] for row in rows) + 1
    for v in range(n):
        link = [tuple(w for w in row if w != v) for row in rows if v in row]
        if not link:
            raise DisconnectedLinkError(f"vertex {v} has no incident faces")
        neighbours = {}
        for a, b in link:
            neighbours.setdefault(a, []).append(b)
            neighbours.setdefault(b, []).append(a)
        # Every edge lies in two faces, so the link is a union of cycles.
        start, (prev, cur), steps = link[0][0], link[0], 1
        while cur != start:
            a, b = neighbours[cur]
            prev, cur, steps = cur, (b if a == prev else a), steps + 1
        if steps != len(link):
            raise DisconnectedLinkError(f"link of vertex {v} is not a single cycle")

    return {
        "vertex_count": n,
        "faces": [list(row) for row in rows],
        "edges": [list(edge) for edge in edges],
        "edge_index": index,
        "edge_faces": [sorted(edge_faces[edge]) for edge in edges],
        "vertex_degree": [sum(v in edge for edge in edges) for v in range(n)],
        "euler_characteristic": n - len(edges) + len(rows),
        "face_opposite_edges": [
            [index[(b, c)], index[(a, c)], index[(a, b)]] for a, b, c in rows
        ],
    }


def _as_lists(complex):
    out = {"vertex_count": complex.vertex_count, "edge_index": complex.edge_index,
           "euler_characteristic": complex.euler_characteristic}
    for name in ("faces", "edges", "edge_faces", "vertex_degree", "face_opposite_edges"):
        arr = getattr(complex, name)
        assert arr.dtype == np.int64 and not arr.flags.writeable
        out[name] = arr.tolist()
    return out


def _klein_bottle(rows, cols):
    """A rows x cols grid with diagonals, glued top to bottom as the torus
    is and left to right with the rows reversed: a Klein bottle, chi = 0."""
    def vid(i, j):
        if j == cols:
            i, j = -i, 0
        return (i % rows) * cols + j

    return build_complex([
        face
        for i in range(rows) for j in range(cols)
        for a, b, c, d in [(vid(i, j), vid(i + 1, j), vid(i, j + 1), vid(i + 1, j + 1))]
        for face in ((a, b, d), (a, d, c))
    ])


# The 6-vertex projective plane (the hemi-icosahedron), chi = 1.
RP2 = build_complex([
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
    (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3),
])

# The last two are not orientable: no orientation of their faces agrees
# across every edge, which the dart successors must not assume.
STOCK = [tetrahedron(), octahedron(), icosahedron(), triangulated_torus(3, 4), genus2_surface(),
         RP2, _klein_bottle(3, 4)]


def _orientable(complex):
    """Whether the faces can be given cyclic orders in which the two faces of
    every edge run it in opposite directions: spread an order from face 0
    across the edges and look for a clash."""
    faces = complex.faces.tolist()
    edge_faces = {}
    for f, face in enumerate(faces):
        for m in range(3):
            edge_faces.setdefault(frozenset(face[:m] + face[m + 1:]), []).append(f)

    def steps(cycle):
        return set(zip(cycle, cycle[1:] + cycle[:1]))

    cycles, stack = {0: faces[0]}, [0]
    while stack:
        f = stack.pop()
        for a, b in steps(cycles[f]):
            (g,) = set(edge_faces[frozenset((a, b))]) - {f}
            want = faces[g] if (b, a) in steps(faces[g]) else faces[g][::-1]
            if g not in cycles:
                cycles[g] = want
                stack.append(g)
            elif steps(cycles[g]) != steps(want):
                return False
    return True


def test_stock_bases_cover_both_orientabilities():
    assert [_orientable(c) for c in STOCK] == [True] * 5 + [False] * 2
    assert [c.euler_characteristic for c in STOCK[-2:]] == [1, 0]


@st.composite
def _surfaces(draw):
    """A stock surface after random edge flips, in shuffled face order, with
    rotated in-face vertex order and relabelled vertices."""
    base = draw(st.sampled_from(STOCK))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    faces = flip_edges(base.faces, rng, draw(st.integers(0, 3 * base.face_count)))
    label = rng.permutation(base.vertex_count).tolist()
    faces = [[label[v] for v in face] for face in faces]
    faces = [face[k:] + face[:k] for face, k in zip(faces, rng.integers(0, 3, len(faces)))]
    rng.shuffle(faces)
    return base, faces


@settings(max_examples=60)
@given(_surfaces())
def test_build_complex_on_random_surfaces(case):
    base, faces = case
    complex = build_complex(faces)
    assert _as_lists(complex) == _reference_complex(faces)

    edges, opposite = complex.edges, complex.face_opposite_edges
    assert np.all(np.bincount(opposite.ravel()) == 2)
    for f, face in enumerate(complex.faces.tolist()):
        for m in range(3):
            assert edges[opposite[f, m]].tolist() == face[:m] + face[m + 1:]
        for e in opposite[f]:
            assert f in complex.edge_faces[e]
    assert np.all(edges[:, 0] < edges[:, 1])
    assert [tuple(e) for e in edges.tolist()] == sorted(map(tuple, edges.tolist()))
    assert len(set(map(tuple, edges.tolist()))) == complex.edge_count
    assert complex.edge_index == {tuple(e): k for k, e in enumerate(edges.tolist())}
    n, e, f = complex.vertex_count, complex.edge_count, complex.face_count
    assert complex.euler_characteristic == n - e + f == base.euler_characteristic
    assert complex.vertex_degree.sum() == 2 * e


def _drop(faces, rng):
    return faces[:-1]


def _duplicate(faces, rng):
    out = list(faces)
    for f in rng.choice(len(faces), size=2, replace=False):
        out.insert(rng.integers(len(out) + 1), list(faces[f])[::-1])
    return out


def _repeat(faces, rng):
    out = [list(face) for face in faces]
    for f in rng.choice(len(out), size=2, replace=False):
        out[f][0] = out[f][1]
    return out


def _negate(faces, rng):
    out = [list(face) for face in faces]
    for f in rng.choice(len(out), size=2, replace=False):
        out[f][rng.integers(3)] = -1
    return _repeat(out, rng)


def _mislabel(faces, rng):
    """One label in each of two faces turned into a float, a boolean or a string."""
    out = _repeat(faces, rng)
    for f in rng.choice(len(out), size=2, replace=False):
        m = rng.integers(3)
        out[f][m] = [float(out[f][m]) + 0.5, True, str(out[f][m])][rng.integers(3)]
    return out


def _pinch(faces, rng):
    """Two copies glued at one vertex, whose link is then two cycles."""
    n = max(map(max, faces)) + 1
    shared = faces[0][0]
    second = [[v if v == shared else v + n for v in face] for face in faces]
    return faces + second


@settings(max_examples=60)
@given(
    _surfaces(),
    st.sampled_from([
        (_drop, NonManifoldError),
        (_duplicate, NonManifoldError),
        (_repeat, BadFaceError),
        (_negate, BadFaceError),
        (_mislabel, BadFaceError),
        (_pinch, DisconnectedLinkError),
    ]),
    st.integers(0, 2**32 - 1),
)
def test_build_complex_rejects_mutations(case, mutation, seed):
    _, faces = case
    mutate, error = mutation
    faces = mutate(faces, np.random.default_rng(seed))
    with pytest.raises(error) as got:
        build_complex(faces)
    with pytest.raises(error) as expected:
        _reference_complex(faces)
    assert str(got.value) == str(expected.value)


def test_edges_canonical_and_indexed(tetra):
    assert tetra.edges.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
    for k, (i, j) in enumerate(tetra.edges):
        assert tetra.edge_id(int(i), int(j)) == k
        assert tetra.edge_id(int(j), int(i)) == k


def test_the_double_triangle_lists_edge_m_opposite_slot_m():
    # Two copies of face (0, 1, 2); edge m joins the other two slots, lower
    # slot first, so a lone triangle's per-slot values are per-edge values.
    double = _DOUBLE_TRIANGLE
    assert double.faces.tolist() == [[0, 1, 2]] * 2
    assert double.edges.tolist() == [sorted({0, 1, 2} - {m}) for m in range(3)]
    assert (double.edges[:, 0] < double.edges[:, 1]).all()
    opposite, after_next, after_prev = double.face_edge_tables
    assert opposite is double.face_opposite_edges
    for f, face in enumerate(double.faces.tolist()):
        for m in range(3):
            assert double.edges[opposite[f, m]].tolist() == face[:m] + face[m + 1:]
            assert after_next[f, m] == opposite[f, (m + 1) % 3]
            assert after_prev[f, m] == opposite[f, (m + 2) % 3]
    for e, pair in enumerate(double.edges.tolist()):
        assert sorted(double.edge_faces[e].tolist()) == [
            f for f, face in enumerate(double.faces.tolist()) if set(pair) <= set(face)]
    assert double.vertex_degree.tolist() == np.bincount(double.faces.ravel()).tolist()
    chi = double.vertex_count - double.edge_count + double.face_count
    assert double.euler_characteristic == chi == 2


def test_subcomplex_euler_examples(tetra):
    assert subcomplex_euler(tetra, {0}) == 1
    assert subcomplex_euler(tetra, {0, 1}) == 1
    # direct count: 3 vertices, 3 edges, 1 face
    assert subcomplex_euler(tetra, {0, 1, 2}) == 3 - 3 + 1 == 1


def test_subset_validation(tetra):
    n = tetra.vertex_count
    for bad in (set(), {0, 1, 2, 3}, {0, 7}, [1.7], ["1"], [True], [np.float64(1.0)]):
        with pytest.raises(ValueError):
            normalize_subset(n, bad)
    assert normalize_subset(n, np.array([2, 0], dtype=np.int64)) == {0, 2}
    assert all(type(v) is int for v in normalize_subset(n, np.arange(3)))


def test_link_pairs_examples(tetra):
    assert link_pairs(tetra, {0}) == [((1, 2), 0), ((1, 3), 0), ((2, 3), 0)]
    assert link_pairs(tetra, {0, 1}) == [((2, 3), 0), ((2, 3), 1)]
    assert link_pairs(tetra, {0, 1, 2}) == []


def _brute_force_link_pairs(complex, members):
    """Independent definition: scan all (edge, vertex) combinations."""
    face_set = {tuple(sorted(f)) for f in complex.faces.tolist()}
    pairs = []
    for i, j in complex.edges.tolist():
        if i in members or j in members:
            continue
        for v in members:
            if tuple(sorted((i, j, v))) in face_set:
                pairs.append(((i, j), v))
    return sorted(pairs)


@pytest.mark.parametrize("complex_name", ["octa", "genus2"])
def test_link_pairs_match_brute_force(complex_name, request, rng):
    complex = request.getfixturevalue(complex_name)
    n = complex.vertex_count
    for _ in range(30):
        size = int(rng.integers(1, n))
        members = frozenset(rng.choice(n, size=size, replace=False).tolist())
        assert link_pairs(complex, members) == _brute_force_link_pairs(complex, members)


def test_link_pairs_all_singletons(octa):
    # every singleton link has exactly degree-many pairs
    for v in range(octa.vertex_count):
        pairs = link_pairs(octa, {v})
        assert len(pairs) == octa.vertex_degree[v]
        assert all(vertex == v for _, vertex in pairs)


def test_subcomplex_euler_brute_force(genus2, rng):
    for _ in range(20):
        size = int(rng.integers(1, genus2.vertex_count))
        members = set(rng.choice(genus2.vertex_count, size=size, replace=False).tolist())
        edges = sum(1 for i, j in genus2.edges.tolist() if i in members and j in members)
        faces = sum(
            1 for f in genus2.faces.tolist() if all(v in members for v in f)
        )
        assert subcomplex_euler(genus2, members) == len(members) - edges + faces
