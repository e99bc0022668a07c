"""Property tests of the length/angle/curvature kernel on generated surfaces.

Inputs are the stock complexes and random edge flips of them, in both
backgrounds, with radii log-uniform in [1e-12, 50] and inversive distances
in [0, 5]: tiny, huge and degenerate triangles all occur.  The fused
curvature pass is checked bit for bit against the unfused chain it replaced,
kept here as the reference, and for continuity where faces degenerate.  The
Jacobian blocks are checked against the per-face chain they came from, and
for the symmetry and definiteness of a Hessian.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpflow import (
    Background,
    BoundaryError,
    CPFlowError,
    DomainError,
    PackingMetric,
    RangeError,
    angle_jacobian_u,
    build_complex,
    edge_length,
    extended_angles,
    extended_curvature,
    gauss_bonnet_defect,
    genus2_surface,
    icosahedron,
    octahedron,
    tetrahedron,
    triangulated_torus,
)
from cpflow.curvature import _jacobian_blocks, make_curvature_evaluator
from cpflow.packing import (
    _edge_lengths_arrays,
    face_lengths,
    radii_to_u_array,
    triangle_inequality_violations,
    u_to_radii_array,
)

from conftest import flip_edges

HYP = Background.HYPERBOLIC
EUC = Background.EUCLIDEAN
STOCK = [tetrahedron(), octahedron(), icosahedron(), genus2_surface(), triangulated_torus(3, 3)]


@st.composite
def _cases(draw):
    """A surface, a background and a metric given by its u-coordinates."""
    base = draw(st.sampled_from(STOCK))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    complex = build_complex(flip_edges(base.faces, rng, draw(st.integers(0, 2 * base.face_count))))
    background = draw(st.sampled_from([HYP, EUC]))
    radii = np.exp(rng.uniform(np.log(1e-12), np.log(50.0), complex.vertex_count))
    inversive = rng.uniform(0.0, 5.0, complex.edge_count)
    return complex, background, inversive, radii


def _metric_at_u(background, inversive, radii):
    """u of the radii, and the metric at exactly the radii that u maps to."""
    u = radii_to_u_array(radii, background)
    return u, PackingMetric(background, inversive, u_to_radii_array(u, background))


@settings(max_examples=60)
@given(_cases())
def test_evaluator_equals_extended_curvature(case):
    complex, background, inversive, radii = case
    u, metric = _metric_at_u(background, inversive, radii)
    values, degenerate = make_curvature_evaluator(complex, background, inversive)(u)
    curv = extended_curvature(complex, metric)
    assert np.array_equal(values, curv.values)
    assert np.array_equal(degenerate, curv.degenerate)


@settings(max_examples=60)
@given(_cases())
def test_degenerate_mask_is_the_triangle_inequality(case):
    complex, background, inversive, radii = case
    metric = PackingMetric(background, inversive, radii)
    curv = extended_curvature(complex, metric)
    expected = triangle_inequality_violations(face_lengths(complex, metric))
    assert np.array_equal(curv.degenerate, expected)
    assert curv.extended == bool(expected.any())


@settings(max_examples=60)
@given(_cases())
def test_gauss_bonnet_defect_vanishes(case):
    complex, background, inversive, radii = case
    defect = gauss_bonnet_defect(complex, PackingMetric(background, inversive, radii))
    # arccos near +-1 resolves an angle only to about sqrt(2 eps) ~ 2e-8, so a
    # thin face can carry that much per angle; the sum is exact otherwise.
    assert abs(defect) <= 3 * np.sqrt(2 * np.finfo(float).eps) * complex.face_count


@settings(max_examples=60)
@given(_cases())
def test_u_round_trip(case):
    _, background, _, radii = case
    u = radii_to_u_array(radii, background)
    assert np.all(np.isfinite(u))
    back = u_to_radii_array(u, background)
    assert np.max(np.abs(back - radii) / radii) <= 1e-12
    assert np.max(np.abs(radii_to_u_array(back, background) - u) / np.abs(u)) <= 1e-12


def _angles(background, radii, inversive):
    lengths = [
        edge_length(background, radii[(m + 1) % 3], radii[(m + 2) % 3], inversive[m])
        for m in range(3)
    ]
    return extended_angles(background, lengths)


def test_small_hyperbolic_triangles_are_euclidean():
    # Hyperbolic geometry at scale t is euclidean up to O(t^2), so the angles
    # of the radii t * r must be the euclidean angles of r to rounding.
    rng = np.random.default_rng(7)
    compared = 0
    for _ in range(1000):
        radii = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 3))
        inversive = rng.uniform(0.0, 5.0, 3)
        flat = _angles(EUC, radii, inversive)
        for t in (1e-8, 1e-12):
            small = _angles(HYP, t * radii, inversive)
            if small.degenerate != flat.degenerate:
                continue
            assert np.max(np.abs(small.values - flat.values)) <= 1e-12
            compared += 1
    assert compared >= 1900


# ---------------------------------------------------------------------------
# The fused curvature pass against the unfused chain it replaced
# ---------------------------------------------------------------------------

_NEXT, _PREV = [1, 2, 0], [2, 0, 1]


def _reference_radii(u, background):
    if background is EUC:
        return np.exp(u)
    if (u >= 0).any():
        raise DomainError("hyperbolic u-coordinates must be negative")
    radii = np.log1p(2.0 * np.exp(u) / (-np.expm1(u)))
    if (radii <= 0).any():
        raise DomainError("radius underflow: u-coordinate too negative")
    return radii


def _reference_curvature(complex, background, radii, inversive):
    """Per-edge lengths, then (F, 3) gathers, the cosine-law ratio, clamped
    arccos, the triangle-inequality mask, the (pi, 0, 0) pin and bincount:
    (K, degenerate mask, total area)."""
    ri, rj = radii[complex.edges[:, 0]], radii[complex.edges[:, 1]]
    if background is EUC:
        sq = (ri - rj) ** 2 + 2.0 * (1.0 + inversive) * ri * rj
        if not np.all((sq > 0) & (sq < np.inf)):
            raise DomainError("euclidean edge length is not defined (l^2 <= 0 or not finite)")
        lengths, excess = np.sqrt(sq), 0.5 * sq
    else:
        if (np.maximum(ri, rj) > 350.0).any():
            raise RangeError("radii above 350 would overflow cosh/sinh")
        with np.errstate(over="ignore"):
            excess = (
                np.sinh(0.5 * (ri + rj)) ** 2
                + np.sinh(0.5 * (ri - rj)) ** 2
                + inversive * np.sinh(ri) * np.sinh(rj)
            )
        if not np.all(excess > 0):
            raise DomainError("hyperbolic edge length is not defined (cosh l - 1 not > 0)")
        if (excess > np.cosh(350.0) - 1.0).any():
            raise RangeError("lengths above 350 would overflow cosh/sinh")
        lengths = np.log1p(excess + np.sqrt(excess * (excess + 2.0)))

    lam = background.area_weight
    opposite = complex.face_opposite_edges
    face_lengths_, e = lengths[opposite], excess[opposite]
    x = np.sqrt(e * (lam * e + 2.0))
    e_j, e_k = e[:, _NEXT], e[:, _PREV]
    cos = (e_j + e_k + lam * e_j * e_k - e) / (x[:, _NEXT] * x[:, _PREV])
    angles = np.arccos(np.clip(cos, -1.0, 1.0))
    x0, x1, x2 = face_lengths_.T
    degenerate = (x0 + x1 <= x2) | (x0 + x2 <= x1) | (x1 + x2 <= x0)
    rows = np.nonzero(degenerate)[0]
    angles[rows] = 0.0
    angles[rows, face_lengths_[rows].argmax(axis=1)] = np.pi
    values = 2.0 * np.pi - np.bincount(
        complex.faces.ravel(), weights=angles.ravel(), minlength=complex.vertex_count
    )
    area = float(np.maximum(0.0, np.pi - angles.sum(axis=1)).sum()) if lam else 0.0
    return values, degenerate, area


@st.composite
def _permissive_cases(draw):
    """``_cases``, and in a third of them inversive distances in (-1, 0)."""
    complex, background, inversive, radii = draw(_cases())
    if draw(st.integers(0, 2)) == 0:
        inversive = -np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(
            0.0, 1.0, complex.edge_count
        )
    return complex, background, inversive, radii


def _outcome(compute):
    """The arrays ``compute()`` returns, or the type and message of its CPFlowError."""
    try:
        return [np.asarray(value) for value in compute()]
    except CPFlowError as exc:
        return [type(exc), str(exc)]


def _assert_same(got, expected):
    assert len(got) == len(expected)
    assert all(np.array_equal(a, b) for a, b in zip(got, expected))


@settings(max_examples=50)
@given(_permissive_cases(), st.sampled_from(["none", "u0", "floor", "radius", "edge"]))
def test_fused_kernel_equals_unfused_chain(case, spoil):
    complex, background, inversive, radii = case
    if spoil == "radius":
        radii[0] = 400.0
    elif spoil == "edge":  # two radii of 200 make an edge of length >= 400
        radii[complex.edges[0]] = 200.0
        inversive = np.abs(inversive)
    u = radii_to_u_array(radii, background)
    if spoil == "u0":
        u[0] = 0.0
    elif spoil == "floor":
        u[0] = -800.0

    evaluate = make_curvature_evaluator(complex, background, inversive)
    _assert_same(
        _outcome(lambda: evaluate(u)),
        _outcome(lambda: _reference_curvature(
            complex, background, _reference_radii(u, background), inversive)[:2]),
    )
    if spoil in ("u0", "floor"):
        return
    metric = PackingMetric(background, inversive, radii, permissive=True)

    def extended():
        curv = extended_curvature(complex, metric)
        return curv.values, curv.degenerate, curv.total_area

    _assert_same(
        _outcome(extended),
        _outcome(lambda: _reference_curvature(complex, background, radii, inversive)),
    )


def test_face_edge_tables_are_c_ordered_int64():
    for complex in STOCK:
        tables = complex.face_edge_tables
        assert tables[0] is complex.face_opposite_edges
        for table, shift in zip(tables, range(3)):
            assert table.dtype == np.int64 and table.flags.c_contiguous
            assert not table.flags.writeable
            assert np.array_equal(table, np.roll(complex.face_opposite_edges, -shift, axis=1))


@st.composite
def _large_radius_cases(draw):
    """A hyperbolic metric on a surface with radii log-uniform in [10, 350]
    at some vertices and in [0.1, 5] at the rest, and I in [0, 1]."""
    base = draw(st.sampled_from(STOCK))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    complex = build_complex(flip_edges(base.faces, rng, draw(st.integers(0, 2 * base.face_count))))
    radii = np.exp(rng.uniform(np.log(0.1), np.log(5.0), complex.vertex_count))
    large = rng.random(complex.vertex_count) < draw(st.floats(0.0, 0.5))
    radii[large] = np.exp(rng.uniform(np.log(10.0), np.log(350.0), np.count_nonzero(large)))
    return complex, rng.uniform(0.0, 1.0, complex.edge_count), radii


@settings(max_examples=40)
@given(_large_radius_cases())
def test_radii_up_to_the_size_limit(case):
    # Up to the size limit both paths compute the same finite curvature; an
    # edge beyond it is refused by both with the same RangeError.
    complex, inversive, radii = case
    evaluate = make_curvature_evaluator(complex, HYP, inversive)
    metric = PackingMetric(HYP, inversive, radii)
    got = _outcome(lambda: evaluate(radii_to_u_array(radii, HYP), radii)[:1])
    _assert_same(got, _outcome(lambda: [extended_curvature(complex, metric).values]))
    if isinstance(got[0], type):
        assert got[0] is RangeError
        return
    assert np.isfinite(got[0]).all()
    defect = gauss_bonnet_defect(complex, metric)
    assert abs(defect) <= 3 * np.sqrt(2 * np.finfo(float).eps) * complex.face_count


@pytest.mark.parametrize(
    "radius, message",
    [(350.0, "lengths above 350"), (np.nextafter(350.0, np.inf), "radii above 350")],
)
def test_the_size_limit_itself(radius, message):
    # A radius of exactly 350 is allowed, but its edges are longer than 350.
    complex, inversive, radii = tetrahedron(), np.zeros(6), np.array([radius, 1.0, 1.0, 1.0])
    evaluate = make_curvature_evaluator(complex, HYP, inversive)
    with pytest.raises(RangeError, match=message):
        evaluate(radii_to_u_array(radii, HYP), radii)
    with pytest.raises(RangeError, match=message):
        extended_curvature(complex, PackingMetric(HYP, inversive, radii))


@st.composite
def _segments(draw):
    """A u-segment on genus2, the octahedron or torus 4x4: endpoints with
    radii log-uniform in [1e-3, 20], inversive distances in [0, 5]."""
    complex = draw(st.sampled_from([genus2_surface(), octahedron(), triangulated_torus(4, 4)]))
    background = draw(st.sampled_from([HYP, EUC]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    radii = np.exp(rng.uniform(np.log(1e-3), np.log(20.0), (2, complex.vertex_count)))
    inversive = rng.uniform(0.0, 5.0, complex.edge_count)
    return complex, background, inversive, radii_to_u_array(radii, background)


@settings(max_examples=40)
@given(_segments())
def test_curvature_is_continuous_across_the_degenerate_boundary(segment):
    complex, background, inversive, (u0, u1) = segment
    evaluate = make_curvature_evaluator(complex, background, inversive)

    def at(s):
        return evaluate(u0 + s * (u1 - u0))

    grid = np.linspace(0.0, 1.0, 9)
    for lo, hi in zip(grid[:-1], grid[1:]):
        (k_lo, mask_lo), (k_hi, mask_hi) = at(lo), at(hi)
        if np.array_equal(mask_lo, mask_hi):
            continue
        # Bisect to a bracket of width <= 2^-50 whose ends differ in the mask.
        while hi - lo > 2.0**-50:
            mid = 0.5 * (lo + hi)
            k_mid, mask_mid = at(mid)
            if np.array_equal(mask_mid, mask_lo):
                lo, k_lo = mid, k_mid
            else:
                hi, k_hi = mid, k_mid
        assert np.max(np.abs(k_hi - k_lo)) <= 1e-5


# ---------------------------------------------------------------------------
# Jacobian blocks against the per-face chain they came from
# ---------------------------------------------------------------------------

#: [m, a] -> the third slot of {m, a, b} = {0, 1, 2} off the diagonal
_THIRD = -np.add.outer(np.arange(3), np.arange(3)) % 3
_DIAGONAL = np.eye(3, dtype=bool)


def _reference_jacobian_blocks(complex, background, radii, inversive):
    """(F, 3, 3) blocks of dK/du from (F, 3) corner radii: each face's edges
    recomputed on their own, the edge opposite slot m running from slot
    m + 1 to slot m + 2, then the chain d(theta)/dx . dx/du."""
    r, inv = radii[complex.faces], inversive[complex.face_opposite_edges]
    corner = 3 * np.arange(len(r))[:, None]
    lengths, e, x = _edge_lengths_arrays(background, r.ravel(), corner + _NEXT, corner + _PREV, inv)
    x0, x1, x2 = lengths.T
    if ((x0 + x1 <= x2) | (x0 + x2 <= x1) | (x1 + x2 <= x0)).any():
        raise BoundaryError("a face is degenerate")
    e_j, e_k = e[:, _NEXT], e[:, _PREV]
    cos = (e_j + e_k + background.area_weight * e_j * e_k - e) / (x[:, _NEXT] * x[:, _PREV])
    sin_sq = 1.0 - cos**2
    if (sin_sq <= 0).any():
        raise BoundaryError("a face is too close to the degenerate boundary")
    d = x / (x[:, _NEXT] * x[:, _PREV] * np.sqrt(sin_sq))
    dtheta_dx = d[:, :, None] * np.where(_DIAGONAL, 1.0, -cos[:, _THIRD])
    s, c = (np.sinh(r), np.cosh(r)) if background is HYP else (r, np.ones_like(r))
    s_a, c_a = s[:, None, :], c[:, None, :]
    dx_dr = (s_a * c[:, _THIRD] + inv[:, :, None] * c_a * s[:, _THIRD]) / x[:, :, None]
    blocks = -(dtheta_dx @ np.where(_DIAGONAL, 0.0, dx_dr * s_a))
    if not np.isfinite(blocks).all():
        raise BoundaryError("a face is too close to the degenerate boundary")
    return blocks


@st.composite
def _jacobian_cases(draw):
    """A surface, a background, radii log-uniform in [1e-3, 5] and I in [0, 1]."""
    base = draw(st.sampled_from(STOCK))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    complex = build_complex(flip_edges(base.faces, rng, draw(st.integers(0, 2 * base.face_count))))
    background = draw(st.sampled_from([HYP, EUC]))
    radii = np.exp(rng.uniform(np.log(1e-3), np.log(5.0), complex.vertex_count))
    inversive = rng.uniform(0.0, 1.0, complex.edge_count)
    return complex, background, radii, inversive


@settings(max_examples=40)
@given(_jacobian_cases())
def test_jacobian_blocks_match_the_per_face_chain(case):
    complex, background, radii, inversive = case
    try:
        expected = _reference_jacobian_blocks(complex, background, radii, inversive)
    except CPFlowError as exc:
        with pytest.raises(type(exc)):
            _jacobian_blocks(complex, background, radii, inversive)
        return
    blocks = _jacobian_blocks(complex, background, radii, inversive)
    assert np.max(np.abs(blocks - expected)) <= 1e-10 * np.max(np.abs(expected))


@settings(max_examples=40)
@given(_jacobian_cases())
def test_jacobian_blocks_are_symmetric_and_definite(case):
    # dK/du is a Hessian: each face's block is symmetric, positive definite
    # in hyperbolic background and, by scaling invariance, positive
    # semidefinite with the all-ones kernel in euclidean background.
    complex, background, radii, inversive = case
    blocks = _jacobian_blocks(complex, background, radii, inversive)
    scale = np.abs(blocks).max(axis=(1, 2))[:, None]
    assert np.all(np.abs(blocks - blocks.transpose(0, 2, 1)).max(axis=2) <= 1e-8 * scale)
    smallest = np.linalg.eigvalsh(0.5 * (blocks + blocks.transpose(0, 2, 1)))[:, :1]
    if background is HYP:
        assert np.all(smallest > 0)
    else:
        assert np.all(np.abs(blocks.sum(axis=2)) <= 1e-9 * scale)
        assert np.all(smallest >= -1e-9 * scale)


@pytest.mark.xfail(
    strict=True,
    reason="open FOUND in CHANGES.md: the chain dtheta/dx . dx/du loses the "
    "diagonal at a large radius between tiny neighbours",
)
def test_jacobian_of_a_large_radius_between_tiny_neighbours():
    # The reference value is a 60-digit finite difference of the angle.
    jac = angle_jacobian_u(HYP, [1.04e-3, 4.89e-3, 17.7], [0.635, 1.836, 0.167])
    assert jac[2, 2] == pytest.approx(-5.011593e-3, rel=1e-6)
