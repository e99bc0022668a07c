from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cpflow.packing as packing_module
from cpflow import (
    Background,
    ConfigError,
    DomainError,
    PackingMetric,
    RangeError,
    UCoords,
    all_edge_lengths,
    curvature,
    curvature_jacobian,
    edge_length,
    extended_curvature,
    from_u,
    gauss_bonnet_defect,
    inversive_from_length,
    is_admissible,
    to_u,
)
from cpflow.curvature import make_curvature_evaluator
from cpflow.packing import (
    U_COORDINATE_FLOOR,
    _edge_lengths_arrays,
    _radius_factors,
    _u_factors,
    check_radii,
    radii_to_u_array,
    u_to_radii_array,
)

from conftest import random_metric

HYP = Background.HYPERBOLIC
EUC = Background.EUCLIDEAN


def test_edge_length_examples():
    assert edge_length(EUC, 3.0, 4.0, 0.0) == pytest.approx(5.0, abs=1e-15)
    assert edge_length(EUC, 1.0, 1.0, 1.0) == pytest.approx(2.0, abs=1e-15)
    # inversive distance 1 means tangency: hyperbolic lengths add
    for r_i, r_j in [(0.3, 1.7), (1.0, 1.0), (2.5, 0.01)]:
        assert edge_length(HYP, r_i, r_j, 1.0) == pytest.approx(r_i + r_j, rel=1e-14)


def test_all_edge_lengths_symmetric_cases(tetra):
    lengths = all_edge_lengths(tetra, PackingMetric(EUC, np.zeros(6), np.ones(4)))
    assert lengths == pytest.approx(np.full(6, np.sqrt(2.0)), rel=1e-15)

    lengths = all_edge_lengths(tetra, PackingMetric(HYP, np.ones(6), np.ones(4)))
    assert lengths == pytest.approx(np.full(6, 2.0), rel=1e-14)

    # direct evaluation of the textbook formula as oracle
    lengths = all_edge_lengths(tetra, PackingMetric(HYP, np.zeros(6), np.ones(4)))
    expected = np.arccosh(np.cosh(1.0) ** 2)
    assert lengths == pytest.approx(np.full(6, expected), rel=1e-14)


def test_edge_length_matches_naive_formula(rng):
    for _ in range(200):
        r_i, r_j = np.exp(rng.uniform(np.log(0.05), np.log(20.0), 2))
        inv = rng.uniform(0.0, 4.0)
        naive = np.arccosh(
            np.cosh(r_i) * np.cosh(r_j) + inv * np.sinh(r_i) * np.sinh(r_j)
        )
        assert edge_length(HYP, r_i, r_j, inv) == pytest.approx(naive, rel=1e-12)
        naive_e = np.sqrt(r_i**2 + r_j**2 + 2 * r_i * r_j * inv)
        assert edge_length(EUC, r_i, r_j, inv) == pytest.approx(naive_e, rel=1e-14)


def test_edge_length_stable_at_tiny_radii():
    # the naive arccosh form loses half its digits here; the kernel must not
    r = 1e-8
    got = edge_length(HYP, r, r, 1.0)
    assert got == pytest.approx(2 * r, rel=1e-10)
    got = edge_length(HYP, r, r, 0.0)
    assert got == pytest.approx(np.sqrt(2) * r, rel=1e-6)


def test_edge_length_floor():
    # Exact down to the radius at the u-coordinate floor; below ~1.5e-154 the
    # excess ~ r^2 goes subnormal, and from ~1e-162 it underflows to 0.
    r = u_to_radii_array(np.array([U_COORDINATE_FLOOR]), HYP)[0]
    assert r == pytest.approx(1.03e-130, rel=1e-3)
    assert edge_length(HYP, r, r, 0.5) == pytest.approx(np.sqrt(3.0) * r, rel=4e-16)
    off = edge_length(HYP, 1e-160, 1e-160, 0.5) / (np.sqrt(3.0) * 1e-160) - 1.0
    assert 1e-6 < abs(off) < 1e-5
    for r in (1e-162, 1e-170):
        with pytest.raises(DomainError, match="not defined"):
            edge_length(HYP, r, r, 0.5)


@pytest.mark.skipif(
    np.finfo(np.longdouble).nmant <= np.finfo(float).nmant,
    reason="np.longdouble is no wider than float here",
)
def test_excess_from_vertex_factors_matches_the_two_sinh_form(rng):
    # cosh l - 1 from per-vertex sinh^2(r/2) and sinh r, against a longdouble
    # sinh^2((r_i + r_j)/2) + sinh^2((r_i - r_j)/2) + I sinh r_i sinh r_j.
    radii = np.exp(rng.uniform(np.log(1e-6), np.log(50.0), (2, 20000)))
    inversive = rng.uniform(0.0, 5.0, 20000)
    tail = np.arange(20000)
    factors = _radius_factors(HYP, radii.ravel())
    excess, _ = _edge_lengths_arrays(HYP, factors, tail, tail + 20000, inversive)
    r_i, r_j = radii.astype(np.longdouble)
    half = np.longdouble(0.5)
    expected = (
        np.sinh(half * (r_i + r_j)) ** 2
        + np.sinh(half * (r_i - r_j)) ** 2
        + inversive.astype(np.longdouble) * np.sinh(r_i) * np.sinh(r_j)
    )
    ulps = np.abs(excess - expected) / np.spacing(expected.astype(float))
    assert ulps.max() <= 8


@pytest.mark.parametrize("radii", [(1.0, 1.0), (350.0, 350.0), (300.0, 1e-170)])
def test_huge_inversive_distance_is_a_range_error(radii):
    # I P_i P_j overflows to inf, with no RuntimeWarning (an error under pytest)
    with pytest.raises(RangeError, match="lengths above 350"):
        edge_length(HYP, *radii, 1e308)


def test_edge_length_monotone(rng):
    for background in (EUC, HYP):
        for _ in range(50):
            r_i, r_j = np.exp(rng.uniform(np.log(0.2), np.log(3.0), 2))
            inv = rng.uniform(0.0, 3.0)
            base = edge_length(background, r_i, r_j, inv)
            assert edge_length(background, r_i * 1.01, r_j, inv) > base
            assert edge_length(background, r_i, r_j * 1.01, inv) > base
            assert edge_length(background, r_i, r_j, inv + 0.01) > base


def test_inversive_recovery(rng):
    for background in (EUC, HYP):
        for _ in range(100):
            r_i, r_j = np.exp(rng.uniform(np.log(0.2), np.log(3.0), 2))
            inv = rng.uniform(0.0, 3.0)
            length = edge_length(background, r_i, r_j, inv)
            if background is EUC:
                assert length > abs(r_i - r_j)
            recovered = inversive_from_length(background, r_i, r_j, length)
            assert recovered == pytest.approx(inv, rel=1e-12, abs=1e-12)


def test_metric_validation():
    with pytest.raises(DomainError):
        PackingMetric(HYP, np.zeros(6), np.array([1.0, -1.0, 1.0, 1.0]))
    with pytest.raises(DomainError):
        PackingMetric(HYP, np.full(6, -0.5), np.ones(4))
    # permissive flag admits inversive in (-1, 0) but never <= -1
    PackingMetric(HYP, np.full(6, -0.5), np.ones(4), permissive=True)
    with pytest.raises(DomainError):
        PackingMetric(HYP, np.full(6, -1.0), np.ones(4), permissive=True)


def test_check_radii_is_the_radius_rule(tetra):
    values = [1.0, 2, 0.5, 3.0]
    radii = check_radii(values, tetra)
    assert radii.dtype == float and radii.tolist() == values
    assert not radii.flags.writeable
    for count in (3, 5):
        with pytest.raises(ConfigError, match="radii array of length"):
            check_radii(np.ones(count), tetra)
    with pytest.raises(DomainError, match="one-dimensional"):
        check_radii(np.ones((4, 1)), tetra)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="finite"):
            check_radii([1.0, bad])
    for bad in (0.0, -1.0):
        with pytest.raises(DomainError, match="positive"):
            check_radii([1.0, bad])


@pytest.mark.parametrize("background", [HYP, EUC])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_radius_is_refused_everywhere(background, bad):
    # the scalar helpers, the u-coordinate change and the metric share one rule
    for entry in (
        lambda: edge_length(background, bad, 1.0, 0.5),
        lambda: inversive_from_length(background, 1.0, bad, 1.0),
        lambda: radii_to_u_array(np.array([1.0, bad]), background),
        lambda: PackingMetric(background, np.zeros(6), [1.0, bad, 1.0, 1.0]),
    ):
        with pytest.raises(DomainError, match="radii must be finite"):
            entry()


@pytest.mark.parametrize(
    "background, r_i, r_j, length",
    [(HYP, np.nan, 1.0, 1.0), (EUC, 1.0, 1.0, np.nan), (EUC, 1.0, 1.0, np.inf)],
)
def test_inversive_from_length_refuses_non_finite_input(background, r_i, r_j, length):
    with pytest.raises(DomainError):
        inversive_from_length(background, r_i, r_j, length)


def test_checked_metric_is_not_checked_again(tetra, monkeypatch):
    # a PackingMetric checks its values once, when it is built; the entry
    # points that take one compare its shapes with the complex and no more
    metric = PackingMetric(HYP, np.full(6, 0.5), np.ones(4))

    def refuse(*args, **kwargs):
        raise AssertionError("a checked metric was checked again")

    monkeypatch.setattr(packing_module, "check_inversive", refuse)
    monkeypatch.setattr(packing_module, "check_radii", refuse)
    for entry in (extended_curvature, curvature, gauss_bonnet_defect, is_admissible,
                  all_edge_lengths, curvature_jacobian):
        entry(tetra, metric)


def test_range_guard():
    with pytest.raises(RangeError):
        edge_length(HYP, 400.0, 1.0, 0.0)


def test_undefined_length_names_its_edge(tetra):
    # Edge (0, 1) is longer than the size limit, but the whole pass fails
    # first on edge (2, 3), whose cosh l - 1 underflows to 0.
    metric = PackingMetric(HYP, np.ones(6), np.array([200.0, 200.0, 1e-200, 1e-200]))
    message = "hyperbolic edge length is not defined (cosh l - 1 not > 0)"
    for entry in (extended_curvature, is_admissible, all_edge_lengths):
        with pytest.raises(DomainError) as raised:
            entry(tetra, metric)
        assert str(raised.value) == "edge (2, 3): " + message
    evaluate = make_curvature_evaluator(tetra, HYP, metric.inversive)
    with pytest.raises(DomainError) as raised:
        evaluate(radii_to_u_array(metric.radii, HYP))
    assert str(raised.value) == message


def test_admissible_always_for_small_inversive(tetra, rng):
    # inversive distances in [0, 1] never break triangle inequalities
    for _ in range(50):
        metric = random_metric(tetra, rng, HYP, (0.05, 20.0), (0.0, 1.0))
        ok, violations = is_admissible(tetra, metric)
        assert ok and violations == []


def test_admissibility_matches_brute_force(tetra, rng):
    for _ in range(100):
        metric = random_metric(tetra, rng, HYP, (0.1, 5.0), (0.0, 3.0))
        ok, violations = is_admissible(tetra, metric)
        lengths = all_edge_lengths(tetra, metric)[tetra.face_opposite_edges]
        expect = []
        for f, (x0, x1, x2) in enumerate(lengths):
            sides = sorted((x0, x1, x2))
            if sides[0] + sides[1] <= sides[2]:
                expect.append(f)
        assert violations == expect
        assert ok == (not expect)


def test_violating_face_reported(tetra):
    # big inversive distance on edge (2, 3) with small opposite radii
    inversive = np.zeros(6)
    inversive[tetra.edge_id(2, 3)] = 30.0
    metric = PackingMetric(HYP, inversive, np.array([0.1, 0.1, 1.0, 1.0]))
    ok, violations = is_admissible(tetra, metric)
    assert not ok
    # faces {0,2,3} and {1,2,3} contain the long edge
    assert violations == [2, 3]


def test_u_examples():
    u = radii_to_u_array(np.array([1.0]), HYP)
    assert u[0] == pytest.approx(np.log(np.tanh(0.5)), rel=1e-15)
    assert radii_to_u_array(np.array([1.0]), EUC)[0] == 0.0


def test_u_round_trip(rng):
    radii = np.exp(rng.uniform(np.log(1e-3), np.log(50.0), 1000))
    for background in (EUC, HYP):
        back = u_to_radii_array(radii_to_u_array(radii, background), background)
        assert np.max(np.abs(back - radii) / radii) <= 1e-14


def test_u_round_trip_large_radii():
    # ln tanh(r/2) collapses to 0 in naive evaluation beyond r ~ 38
    radii = np.array([40.0, 100.0, 300.0])
    u = radii_to_u_array(radii, HYP)
    assert np.all(u < 0)
    back = u_to_radii_array(u, HYP)
    assert back == pytest.approx(radii, rel=1e-13)


@settings(max_examples=10)
@given(st.integers(0, 2**32 - 1))
def test_vertex_factors_from_u_match_the_sinh_forms(seed):
    # (T, P) from x = e^u against 2 sinh^2(r/2) and sinh r at r =
    # u_to_radii_array(u), over u from U_COORDINATE_FLOOR (r = 1e-130) up
    # to -1e-150 (r = 346).  Both stay within 4 (1 + r) ulps: the radius
    # carries a relative rounding of an ulp, which sinh r and sinh^2(r/2)
    # amplify r-fold; a 50-digit check puts the factors from u within 1.3
    # ulps of the exact values and the sinh forms up to 119 ulps off.
    rng = np.random.default_rng(seed)
    u = -np.exp(rng.uniform(np.log(1e-150), np.log(-U_COORDINATE_FLOOR), 2000))
    radii = u_to_radii_array(u, HYP)
    bound = 4.0 * (1.0 + radii) * np.finfo(float).eps
    for got, expected in zip(_u_factors(HYP, u), _radius_factors(HYP, radii)):
        assert np.all(np.abs(got - expected) <= bound * expected)
    assert np.array_equal(_u_factors(EUC, u), u_to_radii_array(u, EUC))


@pytest.mark.parametrize(
    "background, r_i, r_j, length",
    [(EUC, 1.0, 1.0, 1e308), (EUC, 1e-200, 1e-200, 1.0), (HYP, 1e-200, 1e-200, 1.0)],
)
def test_inversive_from_length_refuses_an_unrepresentable_result(background, r_i, r_j, length):
    # I is about 5e615, 5e399 and 5.4e399: not finite in double precision,
    # and refused without an arithmetic error or warning on the way.
    with pytest.raises(RangeError, match="inversive distance is not finite"):
        inversive_from_length(background, r_i, r_j, length)


def test_euclidean_overflow_is_refused_without_a_warning(tetra):
    # An overflowing euclidean length is a DomainError, with no numpy
    # RuntimeWarning on the way (an error under this suite's filter).
    with pytest.raises(DomainError, match="euclidean edge length is not defined"):
        edge_length(EUC, 1e200, 1e200, 0.0)
    metric = PackingMetric(EUC, np.zeros(6), np.full(4, 1e308))
    with pytest.raises(DomainError, match="euclidean edge length is not defined"):
        extended_curvature(tetra, metric)


def test_from_u_validation(tetra):
    metric = PackingMetric(HYP, np.zeros(6), np.ones(4))
    u = to_u(metric)
    again = from_u(u, metric.inversive)
    assert again.radii == pytest.approx(metric.radii, rel=1e-15)
    with pytest.raises(DomainError):
        u_to_radii_array(np.array([0.0]), HYP)
    with pytest.raises(DomainError):
        u_to_radii_array(np.array([-800.0]), HYP)


@pytest.mark.parametrize("u, message", [
    (800.0, "radius overflow: u-coordinate too large"),
    (-800.0, "radius underflow: u-coordinate too negative"),
])
def test_euclidean_u_out_of_range_is_refused_without_a_warning(u, message):
    # e^800 overflows and e^-800 underflows to a zero radius: both are the
    # DomainErrors of _u_factors, with no numpy warning on the way.
    values = np.array([0.0, u, 1.0])
    with pytest.raises(DomainError, match=message):
        u_to_radii_array(values, EUC)
    with pytest.raises(DomainError, match=message):
        from_u(UCoords(values, EUC), np.zeros(3))
