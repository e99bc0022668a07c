from __future__ import annotations

import itertools

import numpy as np
import pytest

from cpflow import (
    Background,
    ConfigError,
    DomainError,
    NotAdmissibleError,
    PackingMetric,
    check_curvature_bounds,
    check_zero_curvature_obstructions,
    curvature,
    degeneration_limit_table,
    edge_length,
    extended_curvature,
    newton_solve,
    subset_lower_bound,
    triangle_angle_space,
    triangle_from_angles,
)
import cpflow.obstructions as obstructions_module
from cpflow.obstructions import _triangle_angles, enumerate_subsets
from cpflow.packing import (
    UCoords,
    radii_to_u_array,
    triangle_inequality_violations,
)
from cpflow.potential import PotentialContext

from conftest import random_admissible_metric, random_metric

HYP = Background.HYPERBOLIC


def test_subset_lower_bound_examples(tetra):
    # one vertex of the tetrahedron has three link pairs
    assert subset_lower_bound(tetra, np.zeros(6), {0}) == pytest.approx(np.pi / 2)
    assert subset_lower_bound(tetra, np.ones(6), {0}) == pytest.approx(-np.pi)
    # three vertices: the link is empty and the subcomplex is a disk
    assert subset_lower_bound(tetra, np.zeros(6), {0, 1, 2}) == pytest.approx(2 * np.pi)


def test_enumerate_subsets_counts(tetra, octa):
    assert len(enumerate_subsets(tetra)) == 2**4 - 2 == 14
    assert len(enumerate_subsets(octa)) == 2**6 - 2 == 62
    brute = [
        frozenset(c)
        for size in range(1, 6)
        for c in itertools.combinations(range(6), size)
    ]
    assert sorted(map(sorted, enumerate_subsets(octa))) == sorted(map(sorted, brute))
    assert all(len(s) <= 2 for s in enumerate_subsets(octa, max_size=2))


def test_curvature_bounds_tetrahedron(tetra):
    metric = PackingMetric(HYP, np.zeros(6), np.ones(4))
    report = check_curvature_bounds(tetra, metric)
    assert len(report.records) == 14
    assert report.verdict
    assert all(record.margin > 0 for record in report.records)
    singleton = next(r for r in report.records if r.subset == (0,))
    assert singleton.bound == pytest.approx(np.pi / 2)
    assert singleton.observed > np.pi / 2


def test_curvature_bounds_random_metrics(octa, rng):
    for _ in range(10):
        metric = random_admissible_metric(octa, rng)
        report = check_curvature_bounds(octa, metric)
        assert report.verdict
        assert len(report.records) == 62


def test_curvature_bounds_genus2_capped(genus2, rng):
    # larger complex: sampled verification over all subsets of size <= 3
    for _ in range(3):
        metric = random_admissible_metric(genus2, rng, HYP, (0.3, 3.0), (0.0, 2.0))
        report = check_curvature_bounds(genus2, metric, subset_cap=3)
        expected = sum(
            len(list(itertools.combinations(range(15), k))) for k in (1, 2, 3)
        )
        assert len(report.records) == expected
        assert report.verdict


def test_curvature_bounds_preconditions(octa, rng):
    euclid = random_admissible_metric(octa, rng, Background.EUCLIDEAN, (0.5, 2.0), (0.0, 1.0))
    with pytest.raises(ConfigError):
        check_curvature_bounds(octa, euclid)
    negative = PackingMetric(HYP, np.full(12, -0.5), np.ones(6), permissive=True)
    with pytest.raises(DomainError):
        check_curvature_bounds(octa, negative)
    bad_inv = np.zeros(12)
    bad_inv[0] = 30.0
    squeezed = PackingMetric(HYP, bad_inv, np.full(6, 0.05))
    with pytest.raises(NotAdmissibleError):
        check_curvature_bounds(octa, squeezed)


def test_closure_inequality_unrestricted(tetra, rng):
    # extended curvature sums never drop below the subset bounds
    subsets = enumerate_subsets(tetra)
    for _ in range(50):
        metric = random_metric(tetra, rng)
        values = extended_curvature(tetra, metric).values
        for members in subsets:
            bound = subset_lower_bound(tetra, metric.inversive, members)
            assert values[sorted(members)].sum() >= bound - 1e-9


def test_zero_curvature_necessary_tetrahedron(tetra):
    # the three-vertex subsets have empty links and positive bounds, so the
    # necessary condition fails: no admissible zero-curvature metric exists
    report = check_zero_curvature_obstructions(tetra, np.ones(6))
    assert not report.verdict
    failing = [r for r in report.records if r.margin <= 0]
    assert {r.subset for r in failing} >= {(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)}
    # singletons pass: 3 pairs each contributing pi
    singleton = next(r for r in report.records if r.subset == (0,))
    assert singleton.bound == pytest.approx(-np.pi)
    assert singleton.margin > 0


def test_zero_curvature_necessary_consistent_with_solver(genus2):
    # tangency packing on the genus-2 surface: a zero-curvature metric
    # exists (found by Newton), so every necessary condition must hold
    inversive = np.ones(genus2.edge_count)
    report = check_zero_curvature_obstructions(genus2, inversive, subset_cap=2)
    assert report.verdict
    seed = UCoords(
        radii_to_u_array(np.full(genus2.vertex_count, 1.0), HYP), HYP
    )
    u_star, solve_report = newton_solve(
        PotentialContext(genus2, inversive, seed), seed, tol=1e-10
    )
    assert solve_report.residual <= 1e-10


def test_degeneration_limit_single_vertex(tetra):
    table = degeneration_limit_table(tetra, np.zeros(6), {0}, np.ones(4))
    assert table.limit == pytest.approx(np.pi / 2)
    assert abs(table.final_gap) <= 1e-3
    gaps = [abs(row.gap) for row in table.rows]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_degeneration_limit_adjacent_pair(tetra):
    table = degeneration_limit_table(tetra, np.zeros(6), {0, 1}, np.ones(4))
    assert table.limit == pytest.approx(
        subset_lower_bound(tetra, np.zeros(6), {0, 1})
    )
    assert abs(table.final_gap) <= 1e-3


def test_degeneration_limit_generic(octa, rng):
    inversive = rng.uniform(0.0, 0.9, octa.edge_count)
    base = np.exp(rng.uniform(np.log(0.5), np.log(2.0), octa.vertex_count))
    table = degeneration_limit_table(octa, inversive, {0, 5}, base)
    assert abs(table.final_gap) <= 1e-3


# ---------------------------------------------------------------------------
# single-triangle angle space
# ---------------------------------------------------------------------------

def test_angle_space_tangency_box():
    space = triangle_angle_space(np.zeros(3))
    assert space.upper_bounds == pytest.approx(np.full(3, np.pi / 2))
    assert space.contains((0.5, 0.5, 0.5))
    assert not space.contains((np.pi / 3, np.pi / 3, np.pi / 3))  # sum is pi
    assert not space.contains((1.6, 0.1, 0.1))  # exceeds the box


def test_angle_space_sampler(rng):
    space = triangle_angle_space((0.2, 1.3, 2.5))
    samples = space.sample(rng, 200)
    assert samples.shape == (200, 3)
    for row in samples:
        assert space.contains(row)


def test_forward_images_in_space(rng):
    for _ in range(100):
        inversive = rng.uniform(0.0, 2.0, 3)
        radii = np.exp(rng.uniform(np.log(0.3), np.log(3.0), 3))
        lengths = np.array(
            [
                edge_length(HYP, radii[(m + 1) % 3], radii[(m + 2) % 3], inversive[m])
                for m in range(3)
            ]
        )
        if triangle_inequality_violations(lengths.reshape(1, 3))[0]:
            continue
        angles = _triangle_angles(radii, inversive)
        assert triangle_angle_space(inversive).contains(angles)


def test_extended_angle_bound_all_radii(rng):
    # 0 <= angle_m <= pi - clamped_arccos(I_m) for every positive radius
    # triple, degenerate configurations included
    from cpflow import clamped_arccos

    for _ in range(300):
        inversive = rng.uniform(0.0, 3.0, 3)
        radii = np.exp(rng.uniform(np.log(0.05), np.log(10.0), 3))
        angles = _triangle_angles(radii, inversive)
        bounds = np.pi - clamped_arccos(inversive)
        assert np.all(angles >= 0.0)
        assert np.all(angles <= bounds + 1e-12)


def test_triangle_from_angles_round_trip(rng):
    done = 0
    while done < 25:
        inversive = rng.uniform(0.0, 2.0, 3)
        radii = np.exp(rng.uniform(np.log(0.3), np.log(3.0), 3))
        lengths = np.array(
            [
                edge_length(HYP, radii[(m + 1) % 3], radii[(m + 2) % 3], inversive[m])
                for m in range(3)
            ]
        )
        if triangle_inequality_violations(lengths.reshape(1, 3))[0]:
            continue
        target = _triangle_angles(radii, inversive)
        recovered = triangle_from_angles(inversive, target)
        assert np.max(np.abs(recovered - radii)) <= 1e-7
        assert np.max(np.abs(_triangle_angles(recovered, inversive) - target)) <= 1e-9
        done += 1


def test_triangle_from_angles_symmetric():
    inversive = np.full(3, 0.5)
    target = np.full(3, 0.6)
    radii = triangle_from_angles(inversive, target)
    assert radii == pytest.approx(np.full(3, radii[0]), rel=1e-9)


def test_triangle_from_angles_rejects_outside():
    space_bounds = triangle_angle_space(np.zeros(3)).upper_bounds
    with pytest.raises(DomainError):
        triangle_from_angles(np.zeros(3), space_bounds * 1.01)


def test_triangle_from_angles_lets_programming_errors_through(monkeypatch):
    # Only the Newton step's numerical failures end a restart; a fault in
    # the code must surface instead of reading as "ran out of restarts".
    def broken(*args):
        raise TypeError("broken angle Jacobian")

    monkeypatch.setattr(obstructions_module, "angle_jacobian_u", broken)
    with pytest.raises(TypeError, match="broken angle Jacobian"):
        triangle_from_angles(np.full(3, 0.5), np.full(3, 0.6))


def test_radii_blow_up_toward_space_boundary():
    # walking the target toward the angle-sum boundary sends radii to 0
    inversive = np.zeros(3)
    maxima = []
    for closeness in (0.6, 0.9, 0.99):
        target = np.full(3, closeness * np.pi / 3)
        radii = triangle_from_angles(inversive, target)
        maxima.append(radii.max())
    assert maxima[0] > maxima[1] > maxima[2]
