from __future__ import annotations

import itertools

import numpy as np
import pytest

from cpflow import (
    Background,
    ConfigError,
    DomainError,
    MaxIterationsError,
    NotAdmissibleError,
    NotFoundError,
    PackingMetric,
    TriangleAngleSpace,
    check_curvature_bounds,
    check_zero_curvature_obstructions,
    curvature,
    degeneration_limit_table,
    edge_length,
    extended_curvature,
    gauss_bonnet_defect,
    newton_solve,
    subset_lower_bound,
    triangle_from_angles,
    triangulated_torus,
)
import cpflow.obstructions as obstructions_module
import cpflow.potential as potential_module
from cpflow.angles import extended_angles_batch
from cpflow.complexes import _DOUBLE_TRIANGLE
from cpflow.obstructions import enumerate_subsets
from cpflow.packing import (
    UCoords,
    _edge_lengths_arrays,
    _radius_factors,
    radii_to_u_array,
    triangle_inequality_violations,
)
from cpflow.potential import PotentialContext

from conftest import random_admissible_metric, random_metric

HYP = Background.HYPERBOLIC


def _triangle_angles(radii, inversive):
    """Inner angles of the hyperbolic triangle with these radii, inversive
    distance m on the edge opposite vertex m, through the curvature kernel's
    own length and angle stages on the triangle's double, whose edge m lies
    opposite slot m."""
    edges = _edge_lengths_arrays(HYP, _radius_factors(HYP, radii), *_DOUBLE_TRIANGLE.edges.T,
                                 np.asarray(inversive, dtype=float))
    return extended_angles_batch(HYP, *edges, _DOUBLE_TRIANGLE.face_edge_tables)[0][0]


def test_subset_lower_bound_examples(tetra):
    # one vertex of the tetrahedron has three link pairs
    assert subset_lower_bound(tetra, np.zeros(6), {0}) == pytest.approx(np.pi / 2)
    assert subset_lower_bound(tetra, np.ones(6), {0}) == pytest.approx(-np.pi)
    # three vertices: the link is empty and the subcomplex is a disk
    assert subset_lower_bound(tetra, np.zeros(6), {0, 1, 2}) == pytest.approx(2 * np.pi)
    # numpy integer members are vertices too
    members = np.array([0, 2], dtype=np.int64)
    expected = subset_lower_bound(tetra, np.ones(6), {0, 2})
    assert subset_lower_bound(tetra, np.ones(6), members) == expected
    assert _zero_report(tetra, np.ones(6), members).records[0].bound == expected


def _zero_report(complex, inversive, subset):
    return check_zero_curvature_obstructions(complex, inversive, subsets=[subset])


@pytest.mark.parametrize("entry", [subset_lower_bound, _zero_report])
@pytest.mark.parametrize(
    "inversive, subset, error",
    [
        ([np.nan, 1.0, 1.0, 1.0, 1.0, 1.0], {0}, DomainError),
        (np.ones(7), {0}, ConfigError),
        (np.ones(6), [1.7], ValueError),
        (np.ones(6), ["1"], ValueError),
        (np.ones(6), [True], ValueError),
    ],
    ids=["inversive-nan", "inversive-one-too-many", "member-fraction", "member-string",
         "member-boolean"],
)
def test_subset_bounds_refuse_bad_inputs(tetra, entry, inversive, subset, error):
    with pytest.raises(error):
        entry(tetra, inversive, subset)


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


def test_default_subsets_above_the_exhaustive_limit(rng):
    # torus 6x6 has 36 vertices, above the limit of 16, so the default
    # enumerates the subsets of at most DEFAULT_SUBSET_CAP = 3 vertices
    torus = triangulated_torus(6, 6)
    inversive = rng.uniform(0.0, 3.0, torus.edge_count)
    report = check_zero_curvature_obstructions(torus, inversive)
    assert len(report.records) == 7806
    assert report == check_zero_curvature_obstructions(torus, inversive, subset_cap=3)


def test_explicit_subsets_refuse_a_cap_and_an_empty_list(octa):
    inversive = np.ones(octa.edge_count)
    with pytest.raises(ConfigError, match="not both"):
        check_zero_curvature_obstructions(octa, inversive, [[0], [1, 2]], subset_cap=1)
    metric = PackingMetric(HYP, inversive, np.ones(6))
    for entry, first in ((check_zero_curvature_obstructions, inversive),
                         (check_curvature_bounds, metric)):
        with pytest.raises(ConfigError, match="no subsets"):
            entry(octa, first, subsets=[])
        with pytest.raises(ConfigError, match="no subsets"):
            entry(octa, first, subsets=iter(()))


@pytest.mark.parametrize("cap", [0, -1, 2.5, 2.0, "2", True, np.float64(2.0)])
def test_subset_cap_is_an_integer_of_at_least_one(octa, cap):
    # booleans, floats and strings are refused even where they compare like a cap
    with pytest.raises(ConfigError, match="subset cap must be"):
        check_zero_curvature_obstructions(octa, np.ones(octa.edge_count), subset_cap=cap)


@pytest.mark.parametrize("cap", [0, -1, 2.5, "2", True, np.float64(2.0)])
def test_enumerate_subsets_takes_the_subset_cap_rule(tetra, cap):
    with pytest.raises(ConfigError, match="subset cap must be"):
        enumerate_subsets(tetra, cap)


def test_enumerate_subsets_lists_the_reports_subsets_in_order(genus2):
    report = check_zero_curvature_obstructions(genus2, np.ones(genus2.edge_count), subset_cap=3)
    assert enumerate_subsets(genus2, np.int64(3)) == list(map(frozenset, report.subset_lists()))


def test_subset_cap_may_be_a_numpy_integer(octa):
    inversive = np.ones(octa.edge_count)
    assert (check_zero_curvature_obstructions(octa, inversive, subset_cap=np.int64(2))
            == check_zero_curvature_obstructions(octa, inversive, subset_cap=2))


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


def test_degeneration_limit_refuses_base_radii_of_the_wrong_length(genus2):
    # genus2 has 15 vertices
    with pytest.raises(ConfigError, match="radii array of length 5"):
        degeneration_limit_table(genus2, np.ones(genus2.edge_count), [0, 1], np.ones(5))


@pytest.mark.parametrize("factors", [[], iter(())])
def test_degeneration_limit_refuses_no_shrink_factors(tetra, factors):
    # an empty table would have no final_gap
    with pytest.raises(ConfigError, match="no shrink factors"):
        degeneration_limit_table(tetra, np.zeros(6), {0}, np.ones(4), factors)


@pytest.mark.parametrize("factor", ["a", True, 0.0, -0.5, np.nan, np.inf, None])
def test_degeneration_limit_refuses_a_shrink_factor_that_is_not_positive(tetra, factor):
    with pytest.raises(ConfigError, match="shrink factors must be finite and positive"):
        degeneration_limit_table(tetra, np.zeros(6), {0}, np.ones(4), [0.5, factor])


def test_degeneration_limit_generic(octa, rng):
    inversive = rng.uniform(0.0, 0.9, octa.edge_count)
    base = np.exp(rng.uniform(np.log(0.5), np.log(2.0), octa.vertex_count))
    table = degeneration_limit_table(octa, inversive, {0, 5}, base)
    assert abs(table.final_gap) <= 1e-3


# ---------------------------------------------------------------------------
# single-triangle angle space
# ---------------------------------------------------------------------------

def test_angle_space_tangency_box():
    space = TriangleAngleSpace(np.zeros(3))
    assert space.upper_bounds == pytest.approx(np.full(3, np.pi / 2))
    assert space.contains((0.5, 0.5, 0.5))
    assert not space.contains((np.pi / 3, np.pi / 3, np.pi / 3))  # sum is pi
    assert not space.contains((1.6, 0.1, 0.1))  # exceeds the box


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_angle_space_refuses_non_finite_inversive(value):
    with pytest.raises(DomainError, match="finite"):
        TriangleAngleSpace((0.5, value, 0.5))
    with pytest.raises(DomainError, match="finite"):
        triangle_from_angles((0.5, value, 0.5), np.full(3, 0.6))


def test_angle_space_sampler(rng):
    space = TriangleAngleSpace((0.2, 1.3, 2.5))
    samples = space.sample(rng, 200)
    assert samples.shape == (200, 3)
    for row in samples:
        assert space.contains(row)


@pytest.mark.parametrize("count", [0, -1])
def test_angle_space_sampler_refuses_a_count_below_one(rng, count):
    with pytest.raises(ConfigError, match="at least 1"):
        TriangleAngleSpace((0.2, 1.3, 2.5)).sample(rng, count)


@pytest.mark.parametrize("count", [2.5, 3.0, "3", True, np.float64(3.0)])
def test_angle_space_sampler_refuses_a_count_that_is_not_an_integer(rng, count):
    with pytest.raises(ConfigError, match="sample count must be an integer"):
        TriangleAngleSpace((0.2, 1.3, 2.5)).sample(rng, count)


def test_angle_space_sampler_takes_a_numpy_count(rng):
    assert TriangleAngleSpace((0.2, 1.3, 2.5)).sample(rng, np.int64(4)).shape == (4, 3)


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
        assert TriangleAngleSpace(inversive).contains(angles)


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


def test_triangle_from_angles_recovers_every_admissible_draw():
    # The first 150 admissible triangles of this stream, radii spanning three
    # decades: every one is an interior target, so every one is realizable.
    rng = np.random.default_rng(0)
    done = 0
    while done < 150:
        inversive = rng.uniform(0.0, 2.0, 3)
        radii = np.exp(rng.uniform(np.log(0.01), np.log(10.0), 3))
        lengths = [
            edge_length(HYP, radii[(m + 1) % 3], radii[(m + 2) % 3], inversive[m])
            for m in range(3)
        ]
        if triangle_inequality_violations(np.reshape(lengths, (1, 3)))[0]:
            continue
        target = _triangle_angles(radii, inversive)
        recovered = triangle_from_angles(inversive, target)
        assert np.max(np.abs(_triangle_angles(recovered, inversive) - target)) <= 1e-9
        done += 1


def test_double_triangle_curvature_is_twice_the_angle_defect(rng):
    # Two copies of a triangle glued along their edges: K_m = 2 pi - 2 theta_m.
    for _ in range(5):
        inversive = rng.uniform(0.0, 2.0, 3)
        radii = np.exp(rng.uniform(np.log(0.1), np.log(5.0), 3))
        metric = PackingMetric(HYP, inversive, radii)
        values = extended_curvature(_DOUBLE_TRIANGLE, metric).values
        expected = 2.0 * np.pi - 2.0 * _triangle_angles(radii, inversive)
        assert np.max(np.abs(values - expected)) <= 1e-14
        assert abs(gauss_bonnet_defect(_DOUBLE_TRIANGLE, metric)) <= 1e-12


def test_triangle_from_angles_symmetric():
    inversive = np.full(3, 0.5)
    target = np.full(3, 0.6)
    radii = triangle_from_angles(inversive, target)
    assert radii == pytest.approx(np.full(3, radii[0]), rel=1e-9)


def test_triangle_from_angles_rejects_outside():
    space_bounds = TriangleAngleSpace(np.zeros(3)).upper_bounds
    with pytest.raises(DomainError):
        triangle_from_angles(np.zeros(3), space_bounds * 1.01)


def test_triangle_from_angles_lets_programming_errors_through(monkeypatch):
    # Only the solver's numerical failures read as NotFoundError; a fault in
    # the code must surface instead.
    def broken(*args):
        raise TypeError("broken angle Jacobian")

    monkeypatch.setattr(potential_module, "_hessian", broken)
    with pytest.raises(TypeError, match="broken angle Jacobian"):
        triangle_from_angles(np.full(3, 0.5), np.full(3, 0.6))


def test_triangle_from_angles_turns_an_exhausted_budget_into_not_found(monkeypatch):
    def exhausted(*args, **kwargs):
        raise MaxIterationsError("budget exhausted")

    monkeypatch.setattr(obstructions_module, "newton_solve", exhausted)
    with pytest.raises(NotFoundError, match="budget exhausted"):
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
