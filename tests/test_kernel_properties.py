"""Property tests of the length/angle/curvature kernel on generated surfaces.

Inputs are the stock complexes and random edge flips of them, in both
backgrounds, with radii log-uniform in [1e-12, 50] and inversive distances
in [0, 5]: tiny, huge and degenerate triangles all occur.  The fused
curvature pass is checked bit for bit against the unfused chain it replaced,
kept here as the reference, and for continuity where faces degenerate.  The
per-corner angle derivatives, expanded into blocks, are checked against the
per-face chain rule they replaced, for the symmetry (bit for bit) and
definiteness of a Hessian, against central differences of the evaluator,
and for refusing every degenerate face by name.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest
from hypothesis import assume, given, note, settings
from hypothesis import strategies as st

from cpflow import (
    Background,
    BoundaryError,
    CPFlowError,
    DomainError,
    PackingMetric,
    PotentialContext,
    RangeError,
    UCoords,
    angle_jacobian_u,
    build_complex,
    curvature_jacobian,
    degenerate_threshold_radius,
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
from cpflow.angles import angle_jacobians_batch, extended_angles_batch
from cpflow.curvature import make_curvature_evaluator
from cpflow.potential import _crossings, _face_states
from cpflow.packing import (
    U_COORDINATE_FLOOR,
    _U_SIZE_LIMIT,
    _edge_lengths_arrays,
    _radius_factors,
    _u_band,
    _u_factors,
    all_edge_lengths,
    radii_to_u_array,
    triangle_inequality_violations,
    u_to_radii_array,
)

from conftest import angle_jacobian_blocks, flip_edges

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


def _cross_path_bound(complex):
    """How far the evaluator's K from u may lie from extended_curvature's at
    the radii of u, per vertex.  The hyperbolic factors of the two paths
    differ by ulps, which the arccos of a thin face's cosine near +-1 turns
    into up to about sqrt(2 eps) per angle.  On 6,000 random metrics as
    ``_cases`` draws them the largest difference was 5.7e-8; on the worst
    six a 60-digit evaluation put each path up to 7.1e-8 from the exact
    curvature at its own point, and those two exact values within 3.6e-15
    of each other."""
    return 3.0 * np.sqrt(2.0 * np.finfo(float).eps) * complex.vertex_degree


@settings(max_examples=60)
@given(_cases())
def test_evaluator_equals_extended_curvature(case):
    # Euclidean, both paths take r = e^u and agree bit for bit; hyperbolic,
    # the evaluator reads its factors from u, and the masks agree and K to
    # rounding.
    complex, background, inversive, radii = case
    u, metric = _metric_at_u(background, inversive, radii)
    values, degenerate = make_curvature_evaluator(complex, background, inversive)(u)
    curv = extended_curvature(complex, metric)
    assert np.array_equal(degenerate, curv.degenerate)
    if background is EUC:
        assert np.array_equal(values, curv.values)
    else:
        assert np.all(np.abs(values - curv.values) <= _cross_path_bound(complex))


@settings(max_examples=60)
@given(_cases())
def test_degenerate_mask_is_the_triangle_inequality(case):
    complex, background, inversive, radii = case
    metric = PackingMetric(background, inversive, radii)
    curv = extended_curvature(complex, metric)
    expected = triangle_inequality_violations(
        all_edge_lengths(complex, metric)[complex.face_opposite_edges]
    )
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


def _reference_u_factors(u, background):
    """r = e^u (euclidean), or (cosh r - 1, sinh r) from x = e^u as
    (x P, 2x / (1 - x^2)) with 1 - x^2 = -expm1(2u) (hyperbolic)."""
    if background is EUC:
        if (u > np.log(np.finfo(float).max)).any():
            raise DomainError("radius overflow: u-coordinate too large")
        r = np.exp(u)
        if (r <= 0).any():
            raise DomainError("radius underflow: u-coordinate too negative")
        return r
    if (u >= 0).any():
        raise DomainError("hyperbolic u-coordinates must be negative")
    x = np.exp(u)
    if (x <= 0).any():
        raise DomainError("radius underflow: u-coordinate too negative")
    if (u > -2.0 * np.exp(-350.0)).any():  # ln tanh(175) = ln(1 - 2e^-350 / (1 + e^-350))
        raise RangeError("radii above 350 would overflow cosh/sinh")
    p = 2.0 * x / -np.expm1(2.0 * u)
    return x * p, p


def _reference_radius_factors(radii, background):
    """r (euclidean), or (2 sinh^2(r/2), sinh r) (hyperbolic)."""
    if background is EUC:
        return radii
    if (radii > 350.0).any():
        raise RangeError("radii above 350 would overflow cosh/sinh")
    half = np.sinh(0.5 * radii)
    return 2.0 * half * half, np.sinh(radii)


def _reference_curvature(complex, background, factors, inversive):
    """Per-edge excesses from per-vertex factors, then (F, 3) gathers, the
    cosine-law numerator and denominator, their ratio, clamped arccos, the
    numerator mask, the (pi, 0, 0) pin and bincount: (K, degenerate mask,
    total area)."""
    i, j = complex.edges.T
    if background is EUC:
        ri, rj = factors[i], factors[j]
        with np.errstate(over="ignore"):
            sq = (ri - rj) ** 2 + 2.0 * (1.0 + inversive) * ri * rj
        if not np.all((sq > 0) & (sq < np.inf)):
            raise DomainError("euclidean edge length is not defined (l^2 <= 0 or not finite)")
        excess = 0.5 * sq
    else:
        t, p = factors
        with np.errstate(over="ignore"):
            excess = (t[i] + t[j]) + t[i] * t[j] + inversive * p[i] * p[j]
        if not np.all(excess > 0):
            raise DomainError("hyperbolic edge length is not defined (cosh l - 1 not > 0)")
        if (excess > np.cosh(350.0) - 1.0).any():
            raise RangeError("lengths above 350 would overflow cosh/sinh")

    lam = background.area_weight
    e = excess[complex.face_opposite_edges]
    x = np.sqrt(e * (lam * e + 2.0))
    e_j, e_k = e[:, _NEXT], e[:, _PREV]
    num = e_j + e_k + lam * e_j * e_k - e
    den = x[:, _NEXT] * x[:, _PREV]
    angles = np.arccos(np.clip(num / den, -1.0, 1.0))
    violated = num <= -den
    degenerate = violated.any(axis=1)
    rows = np.nonzero(degenerate)[0]
    angles[rows] = 0.0
    angles[rows, violated[rows].argmax(axis=1)] = np.pi
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


def _assert_kernel_is_the_chain(complex, background, inversive, u, radii=None):
    """The evaluator at u, and ``extended_curvature`` at the radii if given,
    equal the unfused chain bit for bit or raise its error type and message."""
    evaluate = make_curvature_evaluator(complex, background, inversive)
    _assert_same(
        _outcome(lambda: evaluate(u)),
        _outcome(lambda: _reference_curvature(
            complex, background, _reference_u_factors(u, background), inversive)[:2]),
    )
    if radii is None:
        return
    metric = PackingMetric(background, inversive, radii, permissive=True)

    def extended():
        curv = extended_curvature(complex, metric)
        return curv.values, curv.degenerate, curv.total_area

    _assert_same(
        _outcome(extended),
        _outcome(lambda: _reference_curvature(
            complex, background, _reference_radius_factors(radii, background), inversive)),
    )


#: spoils at the edges of the evaluator's u-band, where it stops leaving out
#: the stages' screens: (edge, direction of the one-ulp step)
_BAND_EDGES = {"lo-inside": (0, np.inf), "lo-outside": (0, -np.inf),
               "hi-inside": (1, -np.inf), "hi-outside": (1, np.inf)}
_SPOILS = ["none", "u0", "floor", "radius", "edge", "nan", "-inf", "negative-I", "huge-I",
           *_BAND_EDGES]


@settings(max_examples=12)
@given(_permissive_cases())
def test_fused_kernel_equals_unfused_chain(case):
    # Every spoil, in both backgrounds, on each drawn surface and metric.
    complex, _, drawn_inversive, drawn_radii = case
    for background, spoil in itertools.product([HYP, EUC], _SPOILS):
        note(f"spoil {spoil!r} in {background}")
        inversive, radii = drawn_inversive.copy(), drawn_radii.copy()
        if spoil == "radius":
            radii[0] = 400.0
        elif spoil == "edge":  # two radii of 200 make an edge of length >= 400
            radii[complex.edges[0]] = 200.0
            inversive = np.abs(inversive)
        elif spoil == "negative-I":
            # I P_i P_j cancels the rest of the excess to 0.0 at equal radii of 2
            inversive[0], radii[complex.edges[0]] = np.nextafter(-1.0, 0.0), 2.0
        elif spoil == "huge-I":
            inversive[0] = 1e300
        band = _u_band(background, inversive)
        if spoil in ("negative-I", "huge-I"):
            assert (band[0] > band[1]) == (background is HYP)
        u = radii_to_u_array(radii, background)
        if spoil == "u0":
            u[0] = 0.0
        elif spoil == "floor":
            u[0] = -800.0
        elif spoil in ("nan", "-inf"):
            u[0] = float(spoil)
        elif spoil in _BAND_EDGES:
            if band[0] > band[1]:
                continue
            edge, step = _BAND_EDGES[spoil]
            u[0] = np.nextafter(band[edge], step)
        # (from radii, an undefined length's message names its edge, which the chain's does not)
        on_radii = spoil not in ("u0", "floor", "nan", "-inf", "negative-I", *_BAND_EDGES)
        _assert_kernel_is_the_chain(complex, background, inversive, u, radii if on_radii else None)


def test_u_band_of_the_stock_inversive_distances():
    # The band's floor is the Newton floor; its ceiling is ln tanh(r*/2),
    # r* = (350 - log1p(I_max)) / 2 - 2, or in euclidean background
    # (ln(max double) - log1p(2 (1 + I_max))) / 2 - 2.
    inversive = np.array([0.0, 0.5, 1.0])
    r_star = (350.0 - np.log1p(1.0)) / 2 - 2
    assert _u_band(HYP, inversive) == (U_COORDINATE_FLOOR, radii_to_u_array(np.array([r_star]), HYP)[0])
    lo, hi = _u_band(EUC, inversive)
    assert lo == U_COORDINATE_FLOOR and hi == pytest.approx(0.5 * (709.782712893384 - np.log(5.0)) - 2)
    # empty where 2 (1 + I_max) overflows
    lo, hi = _u_band(EUC, np.array([1.7e308]))
    assert lo > hi


def _threshold_tetrahedron():
    """The tetrahedron with I = 3 on edge {2, 3} and 0 elsewhere, radius 1
    at vertices 0, 2 and 3, and the largest radius and u-coordinate of
    vertex 1 at which the kernel marks face {1, 2, 3} degenerate, from radii
    and from u (which round differently)."""
    complex = tetrahedron()
    inversive = np.zeros(complex.edge_count)
    inversive[complex.edge_id(2, 3)] = 3.0
    root = degenerate_threshold_radius(1.0, 1.0, 0.0, 0.0, 3.0)
    evaluate = make_curvature_evaluator(complex, HYP, inversive)
    u = radii_to_u_array(np.ones(complex.vertex_count), HYP)
    lo, hi = radii_to_u_array(np.array([0.5 * root, 2.0 * root]), HYP)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        u[1] = mid
        lo, hi = (mid, hi) if evaluate(u)[1].any() else (lo, mid)
    return complex, inversive, root, lo


@pytest.mark.parametrize("case", [
    "size-limit", "past-size-limit", "subnormal-x", "underflow",
    "below-threshold", "threshold", "above-threshold",
])
def test_kernel_screens_are_exact_at_their_edges(case):
    # Each stage decides by one min/max screen that nothing can be refused
    # or degenerate, and runs the exact checks only when it fails.  At the
    # screens' edges the kernel still equals the unfused chain bit for bit.
    complex, inversive, root, u_root = _threshold_tetrahedron()
    radii = np.ones(complex.vertex_count)
    if case in ("size-limit", "past-size-limit"):
        # I = -0.9 keeps edges from a radius of 350 below the size limit
        inversive = np.full(complex.edge_count, -0.9)
        radii[0] = 350.0 if case == "size-limit" else np.nextafter(350.0, np.inf)
        u = radii_to_u_array(np.ones(complex.vertex_count), HYP)
        u[0] = _U_SIZE_LIMIT if case == "size-limit" else np.nextafter(_U_SIZE_LIMIT, 0.0)
        assert case != "size-limit" or radii_to_u_array(radii, HYP)[0] == _U_SIZE_LIMIT
    elif case in ("subnormal-x", "underflow"):
        u = radii_to_u_array(radii, HYP)
        u[0] = -720.0 if case == "subnormal-x" else -746.0
        assert (0.0 < np.exp(u[0]) < np.finfo(float).tiny) == (case == "subnormal-x")
        radii = None
    else:
        step = {"below-threshold": -np.inf, "threshold": None, "above-threshold": np.inf}[case]
        radii[1] = root if step is None else np.nextafter(root, step)
        u = radii_to_u_array(np.ones(complex.vertex_count), HYP)
        u[1] = u_root if step is None else np.nextafter(u_root, step)
        # face {1, 2, 3} alone is degenerate up to the threshold, from radii and from u
        expected = [face == [1, 2, 3] and step != np.inf
                    for face in np.sort(complex.faces, axis=1).tolist()]
        metric = PackingMetric(HYP, inversive, radii)
        assert extended_curvature(complex, metric).degenerate.tolist() == expected
        evaluate = make_curvature_evaluator(complex, HYP, inversive)
        assert evaluate(u)[1].tolist() == expected
    _assert_kernel_is_the_chain(complex, HYP, inversive, u, radii)


@pytest.mark.parametrize("far_end", ["admissible", "past-size-limit"])
def test_face_states_on_a_parameter_grid_are_the_chain(far_end):
    # _face_states stacks a 2-D (faces, points) grid of parameters s into the
    # stages, whose screens reduce over every element.  Along a segment
    # through the threshold they are the chain's mask at every point; with
    # an edge past the size limit at the far end they raise the chain's
    # error there.
    complex, inversive, _, u_root = _threshold_tetrahedron()
    u_from = radii_to_u_array(np.ones(complex.vertex_count), HYP)
    u_from[1] = u_root - 0.5
    u_to = u_from.copy()
    if far_end == "admissible":
        u_to[1] = u_root + 0.5
    else:  # radii of 200 at both ends of edge {2, 3}
        u_to[[2, 3]] = radii_to_u_array(np.array([200.0, 200.0]), HYP)
    direction, faces = u_to - u_from, np.arange(complex.face_count)
    grid = np.linspace(0.0, 1.0, 9) ** np.arange(1, complex.face_count + 1)[:, None]

    def chain(s):
        factors = _reference_u_factors(u_from + s * direction, HYP)
        return _reference_curvature(complex, HYP, factors, inversive)[1]

    states = _face_states(PotentialContext(complex, inversive, UCoords(u_from, HYP)),
                          u_from, direction, faces)
    if far_end == "admissible":
        expected = [[chain(s)[f] for s in row] for f, row in zip(faces, grid)]
        assert states(grid).tolist() == expected
        assert np.array(expected).any() and not np.array(expected).all()
    else:
        _assert_same(_outcome(lambda: [states(grid)]), _outcome(lambda: [chain(1.0)]))
        assert isinstance(_outcome(lambda: [chain(1.0)])[0], type)


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
    # Up to the size limit the evaluator from u and extended_curvature from
    # the radii compute the same finite curvature, to rounding; an edge
    # beyond it is refused by both with the same RangeError.
    complex, inversive, radii = case
    evaluate = make_curvature_evaluator(complex, HYP, inversive)
    metric = PackingMetric(HYP, inversive, radii)

    def extended():
        curv = extended_curvature(complex, metric)
        return curv.values, curv.degenerate

    got, expected = _outcome(lambda: evaluate(radii_to_u_array(radii, HYP))), _outcome(extended)
    if isinstance(expected[0], type):
        assert got == expected and got[0] is RangeError
        return
    assert np.isfinite(got[0]).all()
    assert np.array_equal(got[1], expected[1])
    assert np.all(np.abs(got[0] - expected[0]) <= _cross_path_bound(complex))
    defect = gauss_bonnet_defect(complex, metric)
    assert abs(defect) <= 3 * np.sqrt(2 * np.finfo(float).eps) * complex.face_count


@pytest.mark.parametrize(
    "radius, message",
    [(350.0, "lengths above 350"), (np.nextafter(350.0, np.inf), "radii above 350")],
)
def test_the_size_limit_itself(radius, message):
    # A radius of exactly 350 is allowed, but its edges are longer than 350;
    # the next double is refused, from its u as from the radius itself.
    complex, inversive, radii = tetrahedron(), np.zeros(6), np.array([radius, 1.0, 1.0, 1.0])
    evaluate = make_curvature_evaluator(complex, HYP, inversive)
    with pytest.raises(RangeError, match=message):
        evaluate(radii_to_u_array(radii, HYP))
    with pytest.raises(RangeError, match=message):
        extended_curvature(complex, PackingMetric(HYP, inversive, radii))


@pytest.mark.parametrize("inversive", [1e5, 35449.34566935989])
def test_huge_inversive_distance_is_refused_without_a_warning(inversive):
    # At radii 350, I P_i P_j overflows for I = 1e5, and stays finite up to
    # max double / (2 sinh^2 350) = 35449.3...  Either way the edge is
    # refused, and an overflow warning would be an error under pytest.
    evaluate = make_curvature_evaluator(tetrahedron(), HYP, np.full(6, inversive))
    radii = np.array([350.0, 350.0, np.nextafter(350.0, 0.0), 349.5])
    with pytest.raises(RangeError, match="lengths above 350"):
        evaluate(radii_to_u_array(radii, HYP))


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


@st.composite
def _crossing_segments(draw):
    """A u-segment on a stock or edge-flipped surface in either background:
    endpoints with radii log-uniform in [1e-3, 20], I in [0, 5]."""
    base = draw(st.sampled_from(STOCK))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    complex = build_complex(flip_edges(base.faces, rng, draw(st.integers(0, 2 * base.face_count))))
    background = draw(st.sampled_from([HYP, EUC]))
    radii = np.exp(rng.uniform(np.log(1e-3), np.log(20.0), (2, complex.vertex_count)))
    inversive = rng.uniform(0.0, 5.0, complex.edge_count)
    return complex, background, inversive, radii_to_u_array(radii, background)


@settings(max_examples=40)
@given(_crossing_segments())
def test_face_states_are_the_evaluator_mask(segment):
    # The crossing search's states are the evaluator's degenerate-face mask:
    # on a grid, and next to each crossing it locates.
    complex, background, inversive, (u0, u1) = segment
    ctx = PotentialContext(complex, inversive, UCoords(u0, background))
    direction, faces = u1 - u0, np.arange(complex.face_count)

    def masks(points):
        return np.array([ctx._evaluate(u0 + s * direction)[1] for s in points])

    grid = np.linspace(0.0, 1.0, 33)
    on_grid = masks(grid)
    assume((on_grid != on_grid[0]).any())
    _, roots, _ = _crossings(ctx, u0, direction, faces, 0.0, 1.0, 0.0)
    points = np.concatenate([grid, roots, np.nextafter(roots, 0.0), np.nextafter(roots, 1.0)])
    states = _face_states(ctx, u0, direction, faces)(np.tile(points, (len(faces), 1)))
    assert np.array_equal(states.T, masks(points))


# ---------------------------------------------------------------------------
# Jacobian blocks against the per-face chain rule they replaced
# ---------------------------------------------------------------------------

#: [m, a] -> the third slot of {m, a, b} = {0, 1, 2} off the diagonal
_THIRD = -np.add.outer(np.arange(3), np.arange(3)) % 3
_DIAGONAL = np.eye(3, dtype=bool)


def _jacobian_blocks(complex, background, factors, inversive):
    """(F, 3, 3) blocks: [f, p, q] is face f's share of dK/du at (faces[f, p],
    faces[f, q]), the negated per-corner angle derivatives that
    ``curvature._hessian`` sums, expanded into blocks."""
    edges = _edge_lengths_arrays(background, factors, *complex.edges.T, inversive)
    return -angle_jacobian_blocks(*angle_jacobians_batch(
        background, factors, inversive, edges, complex.edges.T, complex.face_edge_tables
    ))


def _reference_jacobian_blocks(complex, background, radii, inversive):
    """(F, 3, 3) blocks of dK/du from (F, 3) corner radii: each face's edges
    recomputed on their own, the edge opposite slot m running from slot
    m + 1 to slot m + 2, then the chain d(theta)/dx . dx/du."""
    r, inv = radii[complex.faces], inversive[complex.face_opposite_edges]
    corner = 3 * np.arange(len(r))[:, None]
    factors = _radius_factors(background, r.ravel())
    e, x = _edge_lengths_arrays(background, factors, corner + _NEXT, corner + _PREV, inv)
    e_j, e_k = e[:, _NEXT], e[:, _PREV]
    num = e_j + e_k + background.area_weight * e_j * e_k - e
    den = x[:, _NEXT] * x[:, _PREV]
    if (num <= -den).any():
        raise BoundaryError("a face is degenerate")
    cos = num / den
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
    factors = _radius_factors(background, radii)
    try:
        expected = _reference_jacobian_blocks(complex, background, radii, inversive)
    except CPFlowError as exc:
        with pytest.raises(type(exc)):
            _jacobian_blocks(complex, background, factors, inversive)
        return
    blocks = _jacobian_blocks(complex, background, factors, inversive)
    assert np.max(np.abs(blocks - expected)) <= 1e-10 * np.max(np.abs(expected))


@settings(max_examples=40)
@given(_jacobian_cases())
def test_jacobian_blocks_are_symmetric_and_definite(case):
    # dK/du is a Hessian: each face's block is symmetric, positive definite
    # in hyperbolic background and, by scaling invariance, positive
    # semidefinite with the all-ones kernel in euclidean background.  The
    # factors come from u, as in the Newton direction.
    complex, background, radii, inversive = case
    factors = _u_factors(background, radii_to_u_array(radii, background))
    blocks = _jacobian_blocks(complex, background, factors, inversive)
    scale = np.abs(blocks).max(axis=(1, 2))[:, None]
    assert np.all(np.abs(blocks - blocks.transpose(0, 2, 1)).max(axis=2) <= 1e-8 * scale)
    smallest = np.linalg.eigvalsh(0.5 * (blocks + blocks.transpose(0, 2, 1)))[:, :1]
    if background is HYP:
        assert np.all(smallest > 0)
    else:
        assert np.all(np.abs(blocks.sum(axis=2)) <= 1e-9 * scale)
        assert np.all(smallest >= -1e-9 * scale)


def _scattered_jacobian(complex, blocks):
    """dK/du as the 9F scatter summed it before the Hessian assembly: each
    block entry [f, p, q] added at (faces[f, p], faces[f, q])."""
    n, faces = complex.vertex_count, complex.faces
    cells = np.repeat(faces, 3, axis=1) * n + np.tile(faces, 3)
    return np.bincount(cells.ravel(), weights=blocks.ravel(), minlength=n * n).reshape(n, n)


@settings(max_examples=40)
@given(_jacobian_cases())
def test_assembled_hessian_matches_the_block_scatter(case):
    # The N diagonal and 2E edge entries of the assembly, scattered into the
    # dense matrix, equal the 9F scatter's within 1e-14 of its largest entry;
    # each entry sums the same block entries in the same face order.
    complex, background, radii, inversive = case
    metric = PackingMetric(background, inversive, radii)
    factors = _radius_factors(background, radii)
    try:
        blocks = _jacobian_blocks(complex, background, factors, inversive)
    except BoundaryError:
        with pytest.raises(BoundaryError):
            curvature_jacobian(complex, metric)
        return
    expected = _scattered_jacobian(complex, blocks)
    assert np.max(np.abs(curvature_jacobian(complex, metric) - expected)) <= 1e-14 * np.max(
        np.abs(expected)
    )


@settings(max_examples=40)
@given(_jacobian_cases())
def test_jacobians_equal_their_transposes_bit_for_bit(case):
    # Each pair of corners takes one coupling, mirrored: a face's block and
    # the assembled dK/du are symmetric bit for bit, not only to rounding.
    complex, background, radii, inversive = case
    try:
        jacobian = curvature_jacobian(complex, PackingMetric(background, inversive, radii))
    except BoundaryError:
        return
    assert np.array_equal(jacobian, jacobian.T)
    for face, opposite in zip(complex.faces[:4], complex.face_opposite_edges):
        block = angle_jacobian_u(background, radii[face], inversive[opposite])
        assert np.array_equal(block, block.T)


@settings(max_examples=20)
@given(_jacobian_cases())
def test_hessian_columns_match_central_differences_of_the_evaluator(case):
    # Three columns of H = dK/du at u against (K(u + h e_q) - K(u - h e_q)) / 2h
    # of the evaluator, h = 1e-6, at admissible points whose faces all stay
    # admissible at both ends.
    complex, background, radii, inversive = case
    u = radii_to_u_array(radii, background)
    ctx = PotentialContext(complex, inversive, UCoords(u, background))
    try:
        hessian = curvature_jacobian(complex, PackingMetric(background, inversive, radii))
    except BoundaryError:
        return
    h = 1e-6
    for q in np.random.default_rng(complex.face_count).choice(complex.vertex_count, 3, False):
        step = np.zeros(complex.vertex_count)
        step[q] = h
        (k_plus, plus), (k_minus, minus) = ctx._evaluate(u + step), ctx._evaluate(u - step)
        assume(not plus.any() and not minus.any())
        column = (k_plus - k_minus) / (2.0 * h)
        assert np.max(np.abs(column - hessian[:, q])) <= 1e-6 * np.max(np.abs(hessian))


@settings(max_examples=40)
@given(_jacobian_cases(), st.floats(1.0, 5.0))
def test_every_degenerate_face_is_refused_and_named(case, inversive_scale):
    # I up to 5 makes faces degenerate; every face that the kernel's mask
    # calls degenerate is among the faces the BoundaryError names.
    complex, background, radii, inversive = case
    inversive = inversive * inversive_scale
    factors = _radius_factors(background, radii)
    edges = _edge_lengths_arrays(background, factors, *complex.edges.T, inversive)
    degenerate = extended_angles_batch(background, *edges, complex.face_edge_tables)[1]
    assume(degenerate.any())
    with pytest.raises(BoundaryError, match=r"in faces \[[0-9, ]+\]$") as raised:
        angle_jacobians_batch(
            background, factors, inversive, edges, complex.edges.T, complex.face_edge_tables
        )
    named = json.loads(str(raised.value).rsplit("in faces ", 1)[1])
    assert set(np.flatnonzero(degenerate).tolist()) <= set(named)
    with pytest.raises(BoundaryError, match=r"in faces \[[0-9, ]+\]$"):
        curvature_jacobian(complex, PackingMetric(background, inversive, radii))


@pytest.mark.xfail(
    strict=True,
    raises=BoundaryError,
    reason="open FOUND in CHANGES.md: at a large radius between tiny neighbours "
    "the 2e-10 angle at the large vertex rounds to 0, so angle_jacobians_batch "
    "raises BoundaryError (angle derivatives are undefined on or next to the "
    "degenerate boundary in faces [0, 1], the two faces of the triangle's double "
    "that angle_jacobian_u differentiates) on an admissible face",
)
def test_jacobian_of_a_large_radius_between_tiny_neighbours():
    # The reference value is a 60-digit finite difference of the angle.
    jac = angle_jacobian_u(HYP, [1.04e-3, 4.89e-3, 17.7], [0.635, 1.836, 0.167])
    assert jac[2, 2] == pytest.approx(-5.011593e-3, rel=1e-6)
