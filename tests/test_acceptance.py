"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned in the assertions below.  Run with

    pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np
import pytest

from cpflow import (
    Background,
    FlowConfig,
    PackingMetric,
    TriangleAngleSpace,
    curvature,
    curvature_jacobian,
    degeneration_limit_table,
    edge_length,
    extended_angles,
    extended_curvature,
    gauss_bonnet_defect,
    genus2_surface,
    icosahedron,
    is_admissible,
    newton_solve,
    octahedron,
    potential_gradient,
    potential_value,
    residual,
    run_flow,
    stability_certificate,
    subset_lower_bound,
    tetrahedron,
    triangle_from_angles,
)
from cpflow.angles import angle_jacobians_batch
from cpflow.cli import main as cli_main
from cpflow.io import save_surface, save_target
from cpflow.packing import (
    UCoords,
    _metric_edge_arrays,
    _radius_factors,
    radii_to_u_array,
    triangle_inequality_violations,
    u_to_radii_array,
)
from cpflow.potential import PotentialContext

from conftest import angle_jacobian_blocks, proper_subsets

HYP = Background.HYPERBOLIC
EUC = Background.EUCLIDEAN


@contextmanager
def criterion(number: int, title: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} {title}: FAIL")
        raise
    print(f"ACCEPTANCE {number:>2} {title}: PASS ({time.perf_counter() - start:.1f} s)")


def _u(radii, background=HYP):
    return UCoords(radii_to_u_array(np.asarray(radii, float), background), background)


def _random_radii(rng, n, low=0.1, high=5.0):
    return np.exp(rng.uniform(np.log(low), np.log(high), n))


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def genus2():
    return genus2_surface()


@pytest.fixture(scope="module")
def rigidity_runs(genus2):
    """Criterion 4 setup, reused by criteria 5 and 6: prescribed flows and
    Newton solves from 10 random starts toward a sampled target metric.
    The wall time of all 20 solves is returned so criterion 4 can enforce
    its runtime budget on the work itself, not just the verification."""
    begin = time.perf_counter()
    rng = np.random.default_rng(404)
    n = genus2.vertex_count
    inversive = rng.uniform(0.0, 1.0, genus2.edge_count)
    radii_bar = _random_radii(rng, n, 0.5, 2.0)
    target = curvature(genus2, PackingMetric(HYP, inversive, radii_bar)).values

    runs = []
    for _ in range(10):
        start = _u(_random_radii(rng, n, 0.5, 2.0))
        config = FlowConfig(
            variant="prescribed", target=target, tolerance=1e-10,
            max_time=2000.0, record_potential=True,
        )
        flow_result = run_flow(genus2, inversive, start, config)
        ctx = PotentialContext(genus2, inversive, start, target)
        newton_u, newton_report = newton_solve(ctx, start, tol=1e-11, max_iter=200)
        runs.append((start, flow_result, newton_u, newton_report))
    elapsed = time.perf_counter() - begin
    return genus2, inversive, radii_bar, target, runs, elapsed


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_gauss_bonnet_identity():
    with criterion(1, "total-curvature identity"):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        complexes = [tetrahedron(), octahedron(), icosahedron(), genus2_surface()]
        for complex in complexes:
            for k in range(100):
                background = HYP if k % 2 else EUC
                metric = PackingMetric(
                    background,
                    rng.uniform(0.0, 3.0, complex.edge_count),
                    _random_radii(rng, complex.vertex_count),
                )
                assert abs(gauss_bonnet_defect(complex, metric)) <= 1e-9
        assert time.perf_counter() - start < 10.0


def test_criterion_02_extension_consistency():
    with criterion(2, "extension consistency"):
        rng = np.random.default_rng(202)
        checked = 0
        while checked < 1000:
            background = HYP if checked % 2 else EUC
            lengths = np.exp(rng.uniform(np.log(0.2), np.log(3.0), 3))
            sides = np.sort(lengths)
            if sides[0] + sides[1] <= sides[2] * (1 + 1e-6):
                continue
            checked += 1
            got = extended_angles(background, lengths)
            assert not got.degenerate
            classical = np.empty(3)
            for m in range(3):
                j, k = (m + 1) % 3, (m + 2) % 3
                if background is EUC:
                    ratio = (lengths[j] ** 2 + lengths[k] ** 2 - lengths[m] ** 2) / (
                        2 * lengths[j] * lengths[k]
                    )
                else:
                    ratio = (
                        np.cosh(lengths[j]) * np.cosh(lengths[k]) - np.cosh(lengths[m])
                    ) / (np.sinh(lengths[j]) * np.sinh(lengths[k]))
                classical[m] = np.arccos(ratio)
            assert np.max(np.abs(got.values - classical)) <= 1e-12

        # one-sided limits across the degenerate boundary along random rays;
        # the inside branch approaches like sqrt(eps), so extrapolate it
        for ray in range(100):
            background = HYP if ray % 2 else EUC
            xj, xk = np.exp(rng.uniform(np.log(0.2), np.log(3.0), 2))
            bound = xj + xk
            eps = 1e-10 * bound
            inside = (
                2.0 * extended_angles(background, (bound - eps / 4, xj, xk)).values
                - extended_angles(background, (bound - eps, xj, xk)).values
            )
            outside = extended_angles(background, (bound + eps, xj, xk)).values
            assert np.max(np.abs(inside - outside)) <= 1e-6


def test_criterion_03_jacobian_contracts(genus2):
    with criterion(3, "angle/curvature Jacobian contracts"):
        start = time.perf_counter()
        rng = np.random.default_rng(303)
        octa = octahedron()
        step = 1e-6
        for trial in range(50):
            complex = octa if trial % 2 else genus2
            while True:
                metric = PackingMetric(
                    HYP,
                    rng.uniform(0.0, 2.0, complex.edge_count),
                    _random_radii(rng, complex.vertex_count, 0.3, 3.0),
                )
                if is_admissible(complex, metric)[0]:
                    break
            face_jacs = angle_jacobian_blocks(*angle_jacobians_batch(
                HYP,
                _radius_factors(HYP, metric.radii),
                metric.inversive,
                _metric_edge_arrays(complex, metric),
                complex.edges.T,
                complex.face_edge_tables,
            ))
            for jac in face_jacs:
                assert np.max(np.abs(jac - jac.T)) <= 1e-9
                assert np.linalg.eigvalsh(jac).max() < 0

            assembled = curvature_jacobian(complex, metric)
            assert np.max(np.abs(assembled - assembled.T)) <= 1e-9
            assert np.linalg.eigvalsh(assembled)[0] > 0

            u = radii_to_u_array(metric.radii, HYP)
            fd = np.empty_like(assembled)
            for q in range(complex.vertex_count):
                up, um = u.copy(), u.copy()
                up[q] += step
                um[q] -= step
                k_p = extended_curvature(
                    complex, metric.with_radii(u_to_radii_array(up, HYP))
                ).values
                k_m = extended_curvature(
                    complex, metric.with_radii(u_to_radii_array(um, HYP))
                ).values
                fd[:, q] = (k_p - k_m) / (2 * step)
            assert np.max(np.abs(assembled - fd)) / np.max(np.abs(fd)) <= 1e-6
        assert time.perf_counter() - start < 30.0


def test_criterion_04_rigidity_round_trip(rigidity_runs):
    with criterion(4, "rigidity round trip"):
        genus2, inversive, radii_bar, target, runs, solve_seconds = rigidity_runs
        for _, flow_result, newton_u, newton_report in runs:
            assert flow_result.status == "converged"
            flow_radii = u_to_radii_array(flow_result.final_u.values, HYP)
            newton_radii = u_to_radii_array(newton_u.values, HYP)
            assert np.max(np.abs(flow_radii - radii_bar)) <= 1e-6
            assert np.max(np.abs(newton_radii - radii_bar)) <= 1e-6
            assert np.max(np.abs(flow_radii - newton_radii)) <= 1e-7
        assert solve_seconds < 120.0


def test_criterion_05_exponential_convergence(rigidity_runs):
    with criterion(5, "exponential convergence"):
        genus2, inversive, _, target, runs, _ = rigidity_runs
        for _, flow_result, _, _ in runs:
            report = stability_certificate(
                genus2, inversive, flow_result.final_u,
                trace=flow_result.trace, target=target,
            )
            assert report.certified
            assert report.fitted_rate is not None and report.fitted_rate > 0
            assert report.fit_r_squared >= 0.99


def test_criterion_06_potential_properties(rigidity_runs):
    with criterion(6, "potential properties"):
        genus2, inversive, _, target, runs, _ = rigidity_runs
        n = genus2.vertex_count
        rng = np.random.default_rng(606)

        # gradient identity against central finite differences
        basepoint = _u(np.full(n, 1.0))
        ctx = PotentialContext(genus2, inversive, basepoint, target)
        step = 1e-6
        for _ in range(2):
            u = _u(_random_radii(rng, n, 0.6, 1.8))
            grad = potential_gradient(ctx, u)
            for i in range(n):
                up, um = u.values.copy(), u.values.copy()
                up[i] += step
                um[i] -= step
                fd = (
                    potential_value(ctx, UCoords(up, HYP))
                    - potential_value(ctx, UCoords(um, HYP))
                ) / (2 * step)
                assert abs(fd - grad[i]) <= 1e-6 * max(1.0, abs(grad[i]))

        # midpoint convexity on 200 random segment triples
        zero_ctx = PotentialContext(genus2, inversive, basepoint)
        lambdas = (0.25, 0.5, 0.75)
        for k in range(200):
            u_a = _u(_random_radii(rng, n, 0.5, 2.0))
            u_b = _u(_random_radii(rng, n, 0.5, 2.0))
            lam = lambdas[k % 3]
            phi_a = potential_value(zero_ctx, u_a)
            phi_b = potential_value(zero_ctx, u_b)
            mid = UCoords(lam * u_a.values + (1 - lam) * u_b.values, HYP)
            assert potential_value(zero_ctx, mid) <= lam * phi_a + (1 - lam) * phi_b + 1e-8

        # potential non-increasing along the criterion-4 flow traces
        for _, flow_result, _, _ in runs:
            values = [s.potential for s in flow_result.trace]
            assert all(v is not None for v in values)
            assert all(b <= a + 1e-8 for a, b in zip(values, values[1:]))

        # properness: strictly increasing along rays from a zero-curvature
        # metric toward the boundary of the u-domain
        tangency = np.ones(genus2.edge_count)
        seed = _u(np.full(n, 1.0))
        u_star, _ = newton_solve(
            PotentialContext(genus2, tangency, seed), seed, tol=1e-12
        )
        ray_ctx = PotentialContext(genus2, tangency, u_star)
        for _ in range(10):
            direction = rng.normal(0, 1, n)
            direction /= np.linalg.norm(direction)
            positive = direction > 0
            reach = (
                np.min(-u_star.values[positive] / direction[positive])
                if positive.any()
                else np.inf
            )
            ts = (
                reach * (1.0 - 0.5 ** np.arange(1, 7))
                if np.isfinite(reach)
                else 2.0 ** np.arange(0, 6)
            )
            values = [
                potential_value(ray_ctx, UCoords(u_star.values + t * direction, HYP))
                for t in ts
            ]
            assert all(b > a for a, b in zip(values[1:], values[2:]))


def test_criterion_07_obstruction_suite(genus2):
    with criterion(7, "obstruction suite"):
        start = time.perf_counter()
        rng = np.random.default_rng(707)
        for complex, expected in ((tetrahedron(), 14), (octahedron(), 62)):
            subsets = proper_subsets(complex.vertex_count)
            assert len(subsets) == expected
            produced = 0
            while produced < 50:
                metric = PackingMetric(
                    HYP,
                    rng.uniform(0.0, 3.0, complex.edge_count),
                    _random_radii(rng, complex.vertex_count),
                )
                if not is_admissible(complex, metric)[0]:
                    continue
                produced += 1
                values = curvature(complex, metric).values
                for members in subsets:
                    bound = subset_lower_bound(complex, metric.inversive, members)
                    assert values[sorted(members)].sum() - bound > 0

            for _ in range(50):
                metric = PackingMetric(
                    HYP,
                    rng.uniform(0.0, 3.0, complex.edge_count),
                    _random_radii(rng, complex.vertex_count),
                )
                values = extended_curvature(complex, metric).values
                for members in subsets:
                    bound = subset_lower_bound(complex, metric.inversive, members)
                    assert values[sorted(members)].sum() >= bound - 1e-9

        pairs = [
            (tetrahedron(), np.zeros(6), {0}),
            (tetrahedron(), np.zeros(6), {0, 1}),
            (octahedron(), np.full(12, 0.5), {0}),
            (octahedron(), np.full(12, 0.5), {0, 5}),
            (genus2, rng.uniform(0.0, 0.9, genus2.edge_count), {0, 1, 2}),
        ]
        for complex, inversive, members in pairs:
            table = degeneration_limit_table(
                complex, inversive, members, np.ones(complex.vertex_count)
            )
            assert table.rows[-1].factor == 1e-6
            assert abs(table.final_gap) <= 1e-3
        assert time.perf_counter() - start < 60.0


def test_criterion_08_triangle_diffeomorphism():
    with criterion(8, "single-triangle diffeomorphism"):
        rng = np.random.default_rng(808)
        done = 0
        while done < 200:
            inversive = rng.uniform(0.0, 2.0, 3)
            radii = _random_radii(rng, 3, 0.3, 3.0)
            lengths = np.array(
                [
                    edge_length(HYP, radii[(m + 1) % 3], radii[(m + 2) % 3], inversive[m])
                    for m in range(3)
                ]
            )
            if triangle_inequality_violations(lengths.reshape(1, 3))[0]:
                continue
            done += 1
            angles = extended_angles(HYP, lengths).values
            assert TriangleAngleSpace(inversive).contains(angles)
            recovered = triangle_from_angles(inversive, angles)
            assert np.max(np.abs(recovered - radii)) <= 1e-7


def test_criterion_09_max_principle_and_nonpositive_start(genus2):
    with criterion(9, "max-principle monitoring"):
        rng = np.random.default_rng(909)
        n = genus2.vertex_count
        for _ in range(10):
            inversive = rng.uniform(0.0, 1.0, genus2.edge_count)
            start = _u(_random_radii(rng, n, 0.5, 2.0))
            result = run_flow(
                genus2, inversive, start,
                FlowConfig(variant="extended", max_time=60.0, record_potential=False),
            )
            tops = [s.curvature_max for s in result.trace]
            bottoms = [s.curvature_min for s in result.trace]
            assert all(b <= a + 1e-8 for a, b in zip(tops, tops[1:]))
            assert all(b >= a - 1e-8 for a, b in zip(bottoms, bottoms[1:]))

        # nonpositive-curvature start: the zero-target flow must converge
        tangency = np.ones(genus2.edge_count)
        seed = _u(np.full(n, 1.0))
        ctx = PotentialContext(genus2, tangency, seed, np.full(n, -0.3))
        u_neg, _ = newton_solve(ctx, seed, tol=1e-12)
        values = curvature(
            genus2, PackingMetric(HYP, tangency, u_to_radii_array(u_neg.values, HYP))
        ).values
        assert np.all(values <= 0)
        result = run_flow(
            genus2, tangency, u_neg,
            FlowConfig(variant="extended", tolerance=1e-9, max_time=2000.0,
                       record_potential=False),
        )
        assert result.status == "converged"
        assert residual(genus2, tangency, result.final_u) <= 1e-9


def test_criterion_10_determinism(genus2, rigidity_runs, tmp_path, monkeypatch):
    with criterion(10, "determinism"):
        monkeypatch.chdir(tmp_path)
        _, inversive, radii_bar, target, _, _ = rigidity_runs
        save_surface(tmp_path / "g2.json", genus2, HYP, inversive,
                     np.full(genus2.vertex_count, 1.0))
        save_target(tmp_path / "target.json", target)
        args = [
            "flow", "g2.json", "--variant", "prescribed",
            "--target-file", "target.json", "--trace", "trace.csv",
            "--tol", "1e-10", "--manifest", "m.json",
        ]
        assert cli_main(args) == 0
        first_trace = (tmp_path / "trace.csv").read_bytes()
        first_manifest = (tmp_path / "m.json").read_bytes()
        assert cli_main(args) == 0
        assert (tmp_path / "trace.csv").read_bytes() == first_trace
        assert (tmp_path / "m.json").read_bytes() == first_manifest

        # halving the step moves the converged fixed point by <= 1e-8
        start = _u(np.full(genus2.vertex_count, 1.0))
        finals = []
        for dt in (0.05, 0.025):
            config = FlowConfig(
                variant="prescribed", target=target, step=dt, tolerance=1e-10,
                max_time=2000.0, record_potential=False,
            )
            result = run_flow(genus2, inversive, start, config)
            assert result.status == "converged"
            finals.append(result.final_u.values)
        assert np.max(np.abs(finals[0] - finals[1])) <= 1e-8
