from __future__ import annotations

import numpy as np
import pytest

from cpflow import (
    Background,
    DomainError,
    PackingMetric,
    RangeError,
    all_edge_lengths,
    edge_length,
    extended_curvature,
    from_u,
    inversive_from_length,
    is_admissible,
    to_u,
)
from cpflow.curvature import make_curvature_evaluator
from cpflow.packing import radii_to_u_array, u_to_radii_array

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
        evaluate(radii_to_u_array(metric.radii, HYP), metric.radii)
    assert str(raised.value) == message


def test_admissible_always_for_small_inversive(tetra, rng):
    # inversive distances in [0, 1] never break triangle inequalities
    for _ in range(50):
        metric = random_metric(tetra, rng, HYP, (0.05, 20.0), (0.0, 1.0))
        ok, violations = is_admissible(tetra, metric)
        assert ok and violations == []


def test_admissibility_matches_brute_force(tetra, rng):
    from cpflow.packing import face_lengths

    for _ in range(100):
        metric = random_metric(tetra, rng, HYP, (0.1, 5.0), (0.0, 3.0))
        ok, violations = is_admissible(tetra, metric)
        lengths = face_lengths(tetra, metric)
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


def test_from_u_validation(tetra):
    metric = PackingMetric(HYP, np.zeros(6), np.ones(4))
    u = to_u(metric)
    again = from_u(u, metric.inversive)
    assert again.radii == pytest.approx(metric.radii, rel=1e-15)
    with pytest.raises(DomainError):
        u_to_radii_array(np.array([0.0]), HYP)
    with pytest.raises(DomainError):
        u_to_radii_array(np.array([-800.0]), HYP)
