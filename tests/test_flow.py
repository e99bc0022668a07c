from __future__ import annotations

import importlib

import numpy as np
import pytest

from cpflow import (
    Background,
    ConfigError,
    FlowConfig,
    PackingMetric,
    curvature,
    curvature_jacobian,
    is_admissible,
    newton_solve,
    potential_gradient,
    potential_value,
    residual,
    run_flow,
    stability_certificate,
    to_u,
)
from cpflow.packing import UCoords, radii_to_u_array, u_to_radii_array
from cpflow.potential import PotentialContext, segment_integral

from conftest import random_admissible_metric

HYP = Background.HYPERBOLIC
EUC = Background.EUCLIDEAN


def _u(radii, background=HYP):
    return UCoords(radii_to_u_array(np.asarray(radii, float), background), background)


@pytest.fixture(scope="module")
def zero_curvature_genus2():
    """Zero-curvature tangency metric on the genus-2 complex (exists and is
    unique; found once by Newton and reused)."""
    from cpflow import genus2_surface

    complex = genus2_surface()
    inversive = np.ones(complex.edge_count)
    start = _u(np.full(complex.vertex_count, 1.0))
    ctx = PotentialContext(complex, inversive, start)
    u_star, report = newton_solve(ctx, start, tol=1e-12, max_iter=100)
    assert report.residual <= 1e-12
    return complex, inversive, u_star


def test_config_validation(genus2):
    inversive = np.ones(genus2.edge_count)
    u0 = _u(np.ones(genus2.vertex_count))
    with pytest.raises(ConfigError):
        run_flow(genus2, inversive, u0, FlowConfig(variant="nope"))
    with pytest.raises(ConfigError):
        run_flow(genus2, inversive, u0, FlowConfig(variant="prescribed"))
    with pytest.raises(ConfigError):
        run_flow(
            genus2, inversive, u0,
            FlowConfig(variant="extended", target=np.zeros(genus2.vertex_count)),
        )
    with pytest.raises(ConfigError):
        run_flow(genus2, inversive, u0, FlowConfig(step=-0.1))
    with pytest.raises(ConfigError):
        run_flow(genus2, inversive, u0, FlowConfig(sample_every=0))
    for name in ("step", "max_time", "tolerance", "divergence_radius_cap"):
        for value in (0.0, float("inf"), float("nan")):
            with pytest.raises(ConfigError):
                run_flow(genus2, inversive, u0, FlowConfig(**{name: value}))
    with pytest.raises(ConfigError):
        run_flow(
            genus2, inversive, u0,
            FlowConfig(variant="prescribed", target=np.zeros(3)),
        )
    with pytest.raises(ConfigError):
        run_flow(genus2, inversive[:-1], u0, FlowConfig())
    long_u0 = _u(np.ones(genus2.vertex_count + 2))
    for record in (True, False):
        with pytest.raises(ConfigError):
            run_flow(genus2, inversive, long_u0, FlowConfig(record_potential=record))


def _context(complex, inversive, target):
    return PotentialContext(complex, inversive, _u(np.ones(complex.vertex_count)), target)


def _flow(complex, inversive, u, target):
    run_flow(complex, inversive, u, FlowConfig(variant="prescribed", target=target, max_time=0.1))


def _certificate(complex, inversive, u, target):
    stability_certificate(complex, inversive, u, target=target)


def _value(complex, inversive, u, target):
    potential_value(_context(complex, inversive, target), u)


def _gradient(complex, inversive, u, target):
    potential_gradient(_context(complex, inversive, target), u)


def _segment(complex, inversive, u, target):
    ctx = _context(complex, inversive, target)
    segment_integral(ctx, ctx.basepoint.values, u.values)


def _newton(complex, inversive, u, target):
    newton_solve(_context(complex, inversive, target), u)


@pytest.mark.parametrize("n_u, n_target", [(14, 15), (16, 15), (15, 1), (15, 16)])
@pytest.mark.parametrize(
    "entry", [_flow, residual, _certificate, _value, _gradient, _segment, _newton]
)
def test_point_or_target_of_the_wrong_size_is_refused(genus2, entry, n_u, n_target):
    # genus2 has 15 vertices; the other arguments fit it
    u = _u(np.ones(n_u))
    with pytest.raises(ConfigError):
        entry(genus2, np.ones(genus2.edge_count), u, np.zeros(n_target))


def test_fixed_point_start(zero_curvature_genus2):
    complex, inversive, u_star = zero_curvature_genus2
    result = run_flow(complex, inversive, u_star, FlowConfig(variant="extended"))
    assert result.status == "converged"
    assert result.trace[-1].t <= 2.0  # three samples at default cadence
    assert np.max(np.abs(result.final_u.values - u_star.values)) <= 1e-8


def test_residual_definitions(genus2, rng):
    from cpflow import extended_curvature

    metric = random_admissible_metric(genus2, rng, HYP, (0.5, 2.0), (0.0, 1.0))
    u = to_u(metric)
    values = extended_curvature(genus2, metric).values
    # recomputation passes through the u round trip, hence the tolerance
    assert residual(genus2, metric.inversive, u) == pytest.approx(
        np.max(np.abs(values)), rel=1e-12
    )
    assert residual(genus2, metric.inversive, u, target=values) <= 1e-12
    with pytest.raises(ConfigError):
        residual(genus2, metric.inversive[:-1], u)


def test_prescribed_recovery_and_integrator_independence(genus2, rng):
    metric = random_admissible_metric(genus2, rng, HYP, (0.6, 1.8), (0.0, 1.0))
    target = curvature(genus2, metric).values
    start = _u(np.full(genus2.vertex_count, 0.9))

    results = {}
    for integrator, dt in (("rk4", 0.05), ("rk4", 0.025), ("euler", 0.01)):
        config = FlowConfig(
            variant="prescribed", target=target, integrator=integrator, step=dt,
            tolerance=1e-10, max_time=1000.0, record_potential=False,
        )
        result = run_flow(genus2, metric.inversive, start, config)
        assert result.status == "converged"
        assert result.residuals()[-1] <= 1e-10  # measured against the run's target
        results[(integrator, dt)] = result.final_u.values
        recovered = u_to_radii_array(result.final_u.values, HYP)
        assert np.max(np.abs(recovered - metric.radii)) <= 1e-6

    # fixed points are integrator- and step-independent
    assert np.max(np.abs(results[("rk4", 0.05)] - results[("rk4", 0.025)])) <= 1e-8
    assert np.max(np.abs(results[("rk4", 0.05)] - results[("euler", 0.01)])) <= 1e-7


def test_flow_newton_agreement(genus2, rng):
    metric = random_admissible_metric(genus2, rng, HYP, (0.6, 1.8), (0.0, 1.0))
    target = curvature(genus2, metric).values
    start = _u(np.full(genus2.vertex_count, 1.1))
    config = FlowConfig(
        variant="prescribed", target=target, tolerance=1e-10, max_time=1000.0,
        record_potential=False,
    )
    flow_u = run_flow(genus2, metric.inversive, start, config).final_u
    ctx = PotentialContext(genus2, metric.inversive, start, target)
    newton_u, _ = newton_solve(ctx, start, tol=1e-11)
    assert np.max(np.abs(flow_u.values - newton_u.values)) <= 1e-7


def test_potential_monotone_along_flow(genus2, rng):
    metric = random_admissible_metric(genus2, rng, HYP, (0.6, 1.8), (0.0, 1.0))
    target = curvature(genus2, metric).values
    start = _u(np.full(genus2.vertex_count, 0.8))
    config = FlowConfig(variant="prescribed", target=target, tolerance=1e-9,
                        max_time=500.0)
    result = run_flow(genus2, metric.inversive, start, config)
    potentials = [s.potential for s in result.trace]
    assert all(p is not None for p in potentials)
    assert potentials[0] == 0.0
    assert all(b <= a + 1e-8 for a, b in zip(potentials, potentials[1:]))


def test_max_principle_monitoring(zero_curvature_genus2, rng):
    # inversive distances in [0, 1]: running max of curvature never rises,
    # running min never falls
    complex, _, _ = zero_curvature_genus2
    for _ in range(3):
        metric = random_admissible_metric(complex, rng, HYP, (0.5, 2.0), (0.0, 1.0))
        result = run_flow(
            complex, metric.inversive, to_u(metric),
            FlowConfig(variant="extended", max_time=60.0, record_potential=False),
        )
        tops = [s.curvature_max for s in result.trace]
        bottoms = [s.curvature_min for s in result.trace]
        assert all(b <= a + 1e-8 for a, b in zip(tops, tops[1:]))
        assert all(b >= a - 1e-8 for a, b in zip(bottoms, bottoms[1:]))
        assert all(x >= 0 for x in tops) and all(x <= 0 for x in bottoms)


def test_radii_bounded_along_zero_target_runs(zero_curvature_genus2, rng):
    # zero-target runs on a complex that carries a zero-curvature metric:
    # sampled radii stay positive, finite and below the divergence cap
    complex, inversive, _ = zero_curvature_genus2
    for _ in range(3):
        start_radii = np.exp(rng.uniform(np.log(0.3), np.log(3.0), complex.vertex_count))
        result = run_flow(
            complex, inversive, _u(start_radii),
            FlowConfig(variant="extended", max_time=200.0, record_potential=False),
        )
        assert result.status == "converged"  # in particular, never diverged
        for sample in result.trace:
            radii = u_to_radii_array(sample.u, HYP)
            assert np.all(np.isfinite(radii))
            assert np.all(radii > 0)
            assert radii.max() <= 300.0


def test_nonpositive_start_converges_to_zero_curvature(zero_curvature_genus2):
    complex, inversive, u_star = zero_curvature_genus2
    n = complex.vertex_count
    start = _u(np.full(n, 1.0))
    ctx = PotentialContext(complex, inversive, start, np.full(n, -0.3))
    u_neg, _ = newton_solve(ctx, start, tol=1e-12)
    values = curvature(complex, u_metric := _metric(complex, inversive, u_neg)).values
    assert np.all(values <= 0)

    result = run_flow(
        complex, inversive, u_neg,
        FlowConfig(variant="extended", tolerance=1e-9, max_time=1000.0,
                   record_potential=False),
    )
    assert result.status == "converged"
    assert residual(complex, inversive, result.final_u) <= 1e-9
    assert np.max(np.abs(result.final_u.values - u_star.values)) <= 1e-6


def _metric(complex, inversive, u):
    return PackingMetric(HYP, inversive, u_to_radii_array(u.values, HYP))


def test_classical_aborts_at_boundary(tetra):
    inversive = np.zeros(6)
    inversive[tetra.edge_id(2, 3)] = 3.0
    metric = PackingMetric(HYP, inversive, np.array([0.8, 1.0, 1.0, 1.0]))
    base = curvature(tetra, metric).values
    target = base.copy()
    target[0] -= 2.0  # push vertex 0 through its degenerate threshold
    config = FlowConfig(variant="classical", target=target, step=0.01,
                        max_time=50.0, record_potential=False)
    result = run_flow(tetra, inversive, to_u(metric), config)
    assert result.status == "left_admissible"
    assert result.trace[-1].t > 0
    # the same push under the extension keeps going
    config_ext = FlowConfig(variant="prescribed", target=target, step=0.01,
                            max_time=5.0, record_potential=False)
    extended = run_flow(tetra, inversive, to_u(metric), config_ext)
    assert extended.status in ("max_time_reached", "converged")
    assert extended.trace[-1].t > result.trace[-1].t


def test_supercritical_target_radii_increase(octa):
    # target curvatures above 2 pi force every radius to grow without bound
    inversive = np.ones(octa.edge_count)
    target = np.full(octa.vertex_count, 2 * np.pi + 1.0)
    config = FlowConfig(variant="prescribed", target=target, max_time=3.0,
                        sample_every=5, record_potential=False,
                        divergence_radius_cap=50.0)
    result = run_flow(octa, inversive, _u(np.ones(6)), config)
    radii = [u_to_radii_array(s.u, HYP) for s in result.trace]
    for before, after in zip(radii, radii[1:]):
        assert np.all(after > before)
    assert result.status in ("diverged", "max_time_reached")


def test_divergence_cap(octa):
    inversive = np.ones(octa.edge_count)
    target = np.full(octa.vertex_count, 2 * np.pi + 1.0)
    config = FlowConfig(variant="prescribed", target=target, max_time=500.0,
                        record_potential=False, divergence_radius_cap=20.0)
    result = run_flow(octa, inversive, _u(np.ones(6)), config)
    assert result.status == "diverged"
    final_radii = u_to_radii_array(result.final_u.values, HYP)
    assert np.all(final_radii <= 20.0)  # final state is the last valid one


def test_trace_shape_and_cadence(zero_curvature_genus2, rng):
    complex, inversive, _ = zero_curvature_genus2
    metric = random_admissible_metric(complex, rng, HYP, (0.7, 1.5), (0.0, 1.0))
    config = FlowConfig(variant="extended", max_time=2.0, sample_every=7,
                        record_potential=False)
    result = run_flow(complex, inversive, to_u(metric), config)
    assert result.trace[0].t == 0.0
    steps = config.step
    for sample in result.trace[:-1]:
        assert sample.t == pytest.approx(round(sample.t / steps) * steps)
    assert result.trace[-1].t == pytest.approx(result.iterations * steps)
    assert len(result.trace[0].u) == complex.vertex_count
    assert len(result.trace[0].curvature) == complex.vertex_count


def test_stability_certificate_hyperbolic(zero_curvature_genus2):
    complex, inversive, u_star = zero_curvature_genus2
    start_radii = u_to_radii_array(u_star.values, HYP) * 1.15
    result = run_flow(
        complex, inversive, _u(start_radii),
        FlowConfig(variant="extended", tolerance=1e-11, max_time=500.0,
                   sample_every=5, record_potential=False),
    )
    assert result.status == "converged"
    report = stability_certificate(
        complex, inversive, result.final_u, trace=result.trace
    )
    assert report.certified
    assert report.smallest_eigenvalue > 0
    assert not report.euclidean_gauge_projected
    assert report.fitted_rate is not None and report.fitted_rate > 0
    assert report.fit_r_squared >= 0.99
    # the decay rate matches the smallest curvature-Jacobian eigenvalue
    assert report.fitted_rate == pytest.approx(report.smallest_eigenvalue, rel=0.2)


def test_euclidean_flow_converges_to_flat_metric(torus, rng):
    # the flat tangency metric on the torus attracts nearby metrics; the
    # scale direction is neutral, so convergence is up to scaling
    inversive = np.ones(torus.edge_count)
    u0 = UCoords(rng.uniform(-0.3, 0.3, torus.vertex_count), EUC)
    result = run_flow(
        torus, inversive, u0,
        FlowConfig(variant="extended", tolerance=1e-10, max_time=500.0,
                   record_potential=False),
    )
    assert result.status == "converged"
    assert residual(torus, inversive, result.final_u) <= 1e-10


def test_permissive_inversive_flow_runs(torus):
    # inversive distances in (-1, 0) carry no convergence claims, but the
    # flow machinery must still run on them
    metric = PackingMetric(
        HYP, np.full(torus.edge_count, -0.4), np.ones(torus.vertex_count),
        permissive=True,
    )
    result = run_flow(
        torus, metric.inversive, to_u(metric),
        FlowConfig(variant="extended", max_time=5.0, record_potential=False),
    )
    assert result.status in ("max_time_reached", "converged")
    assert np.all(np.isfinite(result.final_u.values))


def test_stability_certificate_euclidean_gauge(torus):
    # flat tangency metric on the torus: curvature zero, Jacobian singular
    # along the scaling direction, definite on its complement
    metric = PackingMetric(EUC, np.ones(torus.edge_count), np.ones(torus.vertex_count))
    values = curvature(torus, metric).values
    assert np.max(np.abs(values)) <= 1e-12
    report = stability_certificate(torus, metric.inversive, to_u(metric))
    assert report.euclidean_gauge_projected
    assert report.certified


def test_huge_step_reported_as_divergence(genus2):
    # a ridiculous step size throws the state out of the representable
    # domain; the run reports divergence instead of crashing
    inversive = np.ones(genus2.edge_count)
    u0 = _u(np.full(genus2.vertex_count, 2.0))
    config = FlowConfig(variant="extended", step=1e6, max_time=2e6,
                        record_potential=False, divergence_radius_cap=1e12)
    result = run_flow(genus2, inversive, u0, config)
    assert result.status == "diverged"
    assert np.all(np.isfinite(result.final_u.values))


def test_euclidean_certificate_is_the_smallest_eigenvalue_off_the_gauge(torus, rng):
    # Reference: the Jacobian restricted to an orthonormal basis of the
    # complement of the all-ones direction.
    n = torus.vertex_count
    basis = np.linalg.qr(np.column_stack([np.ones(n), np.eye(n)[:, :-1]]))[0][:, 1:]
    checked = 0
    while checked < 8:
        metric = PackingMetric(
            EUC, rng.uniform(-0.9, 1.0, torus.edge_count),
            np.exp(rng.uniform(np.log(0.5), np.log(2.0), n)), permissive=True,
        )
        if not is_admissible(torus, metric)[0]:
            continue
        jac = curvature_jacobian(torus, metric)
        expected = np.linalg.eigvalsh(basis.T @ jac @ basis)[0]
        report = stability_certificate(torus, metric.inversive, to_u(metric))
        assert report.euclidean_gauge_projected
        assert abs(report.smallest_eigenvalue - expected) <= 1e-12 * np.abs(jac).max()
        checked += 1


def test_each_step_maps_u_to_radii_once(genus2, monkeypatch):
    # The divergence-cap check hands its radii to the step's curvature
    # evaluation, so u -> radii runs once per curvature evaluation.
    # The package re-exports the function `curvature`, which hides the module.
    curvature_module = importlib.import_module("cpflow.curvature")
    flow_module = importlib.import_module("cpflow.flow")
    potential_module = importlib.import_module("cpflow.potential")

    calls = {"radii": 0, "evals": 0}
    to_radii, make_evaluator = u_to_radii_array, curvature_module.make_curvature_evaluator

    def counted_radii(*args):
        calls["radii"] += 1
        return to_radii(*args)

    def counted_evaluator(*args):
        evaluate = make_evaluator(*args)

        def counted(*inner):
            calls["evals"] += 1
            return evaluate(*inner)

        return counted

    for module in (curvature_module, flow_module):
        monkeypatch.setattr(module, "u_to_radii_array", counted_radii)
    monkeypatch.setattr(potential_module, "make_curvature_evaluator", counted_evaluator)
    rng = np.random.default_rng(3)
    metric = random_admissible_metric(genus2, rng, inversive_range=(0.0, 1.0))
    config = FlowConfig(max_time=2.0, record_potential=False)
    result = run_flow(genus2, metric.inversive, to_u(metric), config)
    assert result.iterations == 40
    assert calls["evals"] == 1 + 4 * result.iterations
    assert calls["radii"] == calls["evals"]
