from __future__ import annotations

import importlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpflow import (
    Background,
    BoundaryError,
    ConfigError,
    DomainError,
    FlowConfig,
    PackingMetric,
    QuadratureError,
    StepError,
    build_complex,
    curvature,
    curvature_jacobian,
    gauss_bonnet_defect,
    genus2_surface,
    icosahedron,
    is_admissible,
    newton_solve,
    potential_gradient,
    potential_value,
    residual,
    run_flow,
    stability_certificate,
    to_u,
    triangulated_torus,
)
import cpflow.flow as flow_module
from cpflow.io import write_trace_csv
from cpflow.packing import (
    U_COORDINATE_FLOOR,
    UCoords,
    _u_band,
    from_u,
    radii_to_u_array,
    u_to_radii_array,
)
from cpflow.potential import PotentialContext, segment_integral

from conftest import flip_edges, random_admissible_metric, segment_reference

HYP = Background.HYPERBOLIC
EUC = Background.EUCLIDEAN


def _u(radii, background=HYP):
    return UCoords(radii_to_u_array(np.asarray(radii, float), background), background)


@pytest.fixture(scope="module")
def zero_curvature_genus2():
    """Zero-curvature tangency metric on the genus-2 complex (exists and is
    unique; found once by Newton and reused)."""
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
    # a step count is a Python or numpy integer, not a float, string or bool
    for value in (2.5, 2.0, "3", True, np.float64(2.0)):
        with pytest.raises(ConfigError, match="sample_every"):
            run_flow(genus2, inversive, u0, FlowConfig(sample_every=value, max_time=0.1))
    run = run_flow(genus2, inversive, u0, FlowConfig(sample_every=np.int64(2), max_time=0.1))
    assert [sample.t for sample in run.trace] == [0.0, 0.1]
    for name in ("step", "max_time", "tolerance", "divergence_radius_cap"):
        for value in (0.0, float("inf"), float("nan")):
            with pytest.raises(ConfigError):
                run_flow(genus2, inversive, u0, FlowConfig(**{name: value}))
    # numpy numbers and booleans are settings like Python ones
    run = run_flow(genus2, inversive, u0, FlowConfig(
        step=np.float64(0.05), max_time=np.int64(1), tolerance=np.float32(1e-9),
        divergence_radius_cap=np.float64(300.0), record_potential=np.bool_(False),
    ))
    assert run.trace[-1].t == 1.0 and run.trace[-1].potential is None
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


@pytest.mark.parametrize(
    "setting",
    [
        *({name: value} for name in ("step", "max_time", "tolerance", "divergence_radius_cap")
          for value in ("0.05", True, None, 1j)),
        {"record_potential": "no"}, {"record_potential": 1}, {"record_potential": None},
    ],
    ids=lambda setting: "{}={!r}".format(*next(iter(setting.items()))),
)
def test_flow_settings_refuse_values_of_another_type(genus2, setting):
    inversive = np.ones(genus2.edge_count)
    u0 = _u(np.ones(genus2.vertex_count))
    (name,) = setting
    with pytest.raises(ConfigError, match=name):
        run_flow(genus2, inversive, u0, FlowConfig(**setting))


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


@pytest.mark.parametrize("n_u", [14, 16])
@pytest.mark.parametrize(
    "entry", [_flow, residual, _certificate, _value, _gradient, _segment, _newton]
)
def test_point_of_the_wrong_size_is_refused_as_a_misfit(genus2, entry, n_u):
    # the message every (complex, array) input shares names the complex
    edges = genus2.edge_count
    message = f"does not fit a complex with 15 vertices and {edges} edges"
    with pytest.raises(ConfigError, match=message):
        entry(genus2, np.ones(edges), _u(np.ones(n_u)), np.zeros(15))


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


def _degenerate_start(complex, rng):
    """Inputs of a flow through the degenerate boundary, drawn as the
    benchmark draws its degenerate ones: I in [0, 3], an admissible target
    metric with radii in [1, 5] and a start with radii in [0.1, 5] that is not."""
    inversive = rng.uniform(0.0, 3.0, complex.edge_count)

    def radii(low, high, admissible):
        while True:
            r = np.exp(rng.uniform(np.log(low), np.log(high), complex.vertex_count))
            if is_admissible(complex, PackingMetric(HYP, inversive, r))[0] == admissible:
                return r

    target = curvature(complex, PackingMetric(HYP, inversive, radii(1.0, 5.0, True))).values
    return inversive, _u(radii(0.1, 5.0, False)), target


def test_degenerate_crossing_flow_keeps_its_potential(genus2, monkeypatch):
    inversive, start, target = _degenerate_start(genus2, np.random.default_rng(5))
    config = FlowConfig(variant="prescribed", target=target, max_time=2000.0)
    nodes = _count_quadrature_nodes(monkeypatch)
    result = run_flow(genus2, inversive, start, config)
    # Adaptive Simpson took 2,588 nodes, Romberg without the split at the
    # crossings 3,666 and with it 368; Clenshaw-Curtis with it takes 112.
    assert nodes[0] <= 2588
    assert result.status == "converged"
    assert is_admissible(genus2, from_u(result.final_u, inversive))[0]
    potentials = [s.potential for s in result.trace]
    assert all(p is not None for p in potentials)
    assert all(b <= a + 1e-8 for a, b in zip(potentials, potentials[1:]))
    # every segment against a deep reference, 100 times tighter than 1e-9
    ctx = PotentialContext(genus2, inversive, start, target)
    for a, b in zip(result.trace, result.trace[1:]):
        reference = segment_reference(ctx, a.u, b.u, 1e-11)
        assert abs((b.potential - a.potential) - reference) <= 1e-9


def _retry_run(genus2, monkeypatch, failing):
    """Trace potentials of one flow with segment_integral raising
    QuadratureError where ``failing(sample, tolerance)`` says, and its calls."""
    flow_module = importlib.import_module("cpflow.flow")
    calls = []

    def integral(ctx, u_from, u_to, tolerance, **kwargs):
        calls.append(tolerance)
        if failing(calls.count(1e-10) - 1, tolerance):
            raise QuadratureError("forced failure")
        return segment_integral(ctx, u_from, u_to, tolerance, **kwargs)

    monkeypatch.setattr(flow_module, "segment_integral", integral)
    metric = random_admissible_metric(genus2, np.random.default_rng(3), HYP, (0.6, 1.8), (0.0, 1.0))
    config = FlowConfig(variant="prescribed", target=curvature(genus2, metric).values,
                        max_time=10.0)
    result = run_flow(genus2, metric.inversive, _u(np.full(genus2.vertex_count, 0.8)), config)
    return result, calls


def test_trace_potential_retries_then_goes_blank(genus2, monkeypatch, tmp_path):
    plain, _ = _retry_run(genus2, monkeypatch, lambda sample, tol: False)
    expected = [s.potential for s in plain.trace]
    assert len(expected) > 5 and None not in expected

    # only 1e-10 fails at sample 3: the 1e-8 retry still gives it a potential
    retried, calls = _retry_run(genus2, monkeypatch, lambda sample, tol: sample == 3 and tol == 1e-10)
    assert calls[:6] == [1e-10, 1e-10, 1e-10, 1e-10, 1e-8, 1e-10]
    potentials = [s.potential for s in retried.trace]
    assert potentials[:3] == expected[:3]
    assert all(abs(p - q) <= 1e-8 for p, q in zip(potentials, expected))

    # both fail at sample 3: it and every later sample have no potential
    blank, calls = _retry_run(genus2, monkeypatch, lambda sample, tol: sample == 3)
    assert calls == [1e-10, 1e-10, 1e-10, 1e-10, 1e-8]
    potentials = [s.potential for s in blank.trace]
    assert potentials[:3] == expected[:3]
    assert potentials[3:] == [None] * (len(potentials) - 3)

    # and the trace CSV leaves their last field empty
    path = tmp_path / "trace.csv"
    write_trace_csv(path, genus2.vertex_count, blank.trace)
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    assert [row.rsplit(",", 1)[1] for row in rows[:3]] == [repr(p) for p in expected[:3]]
    assert all(row.endswith(",") for row in rows[3:])


def _count_quadrature_nodes(monkeypatch) -> list:
    """From now on, count into the returned one-entry list the curvature
    evaluations that flows make inside segment_integral."""
    flow_module = importlib.import_module("cpflow.flow")
    potential_module = importlib.import_module("cpflow.potential")
    depth, nodes = [0], [0]
    factory, integral = potential_module.make_curvature_evaluator, flow_module.segment_integral

    def counting_factory(*args):
        evaluate = factory(*args)

        def counted(*a):
            nodes[0] += depth[0] > 0
            return evaluate(*a)

        return counted

    def counted_integral(*args, **kwargs):
        depth[0] += 1
        try:
            return integral(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(potential_module, "make_curvature_evaluator", counting_factory)
    monkeypatch.setattr(flow_module, "segment_integral", counted_integral)
    return nodes


def _quadrature_nodes(monkeypatch, complex, rng):
    """Quadrature nodes of one prescribed flow's trace potential, toward a
    random admissible metric (I in [0, 1])."""
    nodes = _count_quadrature_nodes(monkeypatch)
    metric = random_admissible_metric(complex, rng, HYP, (0.5, 2.0), (0.0, 1.0))
    start = _u(np.exp(rng.uniform(np.log(0.5), np.log(2.0), complex.vertex_count)))
    config = FlowConfig(variant="prescribed", target=curvature(complex, metric).values)
    result = run_flow(complex, metric.inversive, start, config)
    assert result.status == "converged"
    assert all(s.potential is not None for s in result.trace)
    return nodes[0]


def test_trace_quadrature_node_ceiling(genus2, monkeypatch):
    # Quadrature nodes of the trace potential, a deterministic count.  Adaptive
    # Simpson took 196 on genus2 and 351 on the 10 x 10 torus; the ceiling is
    # 60 % of that (Romberg with the segment ends reused took 58 and 93,
    # Clenshaw-Curtis takes 42 and 61).
    assert _quadrature_nodes(monkeypatch, genus2, np.random.default_rng(2)) <= 0.6 * 196
    torus = triangulated_torus(10, 10)
    assert _quadrature_nodes(monkeypatch, torus, np.random.default_rng(2)) <= 0.6 * 351


#: trace potentials and quadrature nodes of three flows as adaptive Romberg gave them
_TRACE_POTENTIALS = json.loads((Path(__file__).parent / "data" / "trace_potentials.json").read_text())


def _pinned_flows(genus2):
    """The three pinned flows, drawn with seed 4: a prescribed flow on the
    12 x 12 torus, an extended flow on genus2 and a prescribed genus2 flow
    from a degenerate start, whose potential crosses the boundary."""
    torus = triangulated_torus(12, 12)
    rng = np.random.default_rng(4)
    metric = random_admissible_metric(torus, rng, HYP, (0.5, 2.0), (0.0, 1.0))
    start = _u(np.exp(rng.uniform(np.log(0.5), np.log(2.0), torus.vertex_count)))
    yield "torus12-prescribed", torus, metric.inversive, start, FlowConfig(
        variant="prescribed", target=curvature(torus, metric).values)
    rng = np.random.default_rng(4)
    inversive = rng.uniform(0.0, 1.0, genus2.edge_count)
    start = _u(np.exp(rng.uniform(np.log(0.5), np.log(2.0), genus2.vertex_count)))
    yield "genus2-extended", genus2, inversive, start, FlowConfig(variant="extended")
    inversive, start, target = _degenerate_start(genus2, np.random.default_rng(4))
    assert not is_admissible(genus2, from_u(start, inversive))[0]
    yield "genus2-degenerate", genus2, inversive, start, FlowConfig(
        variant="prescribed", target=target, max_time=2000.0)


def test_trace_potentials_are_pinned(genus2, monkeypatch):
    # Clenshaw-Curtis moves each trace potential only in its last digits
    # against the Romberg values pinned here (2.6e-12 or less when recorded),
    # and takes at most 60 % of Romberg's 980 quadrature nodes (402 when
    # recorded).
    nodes = _count_quadrature_nodes(monkeypatch)
    for name, complex, inversive, start, config in _pinned_flows(genus2):
        pinned = _TRACE_POTENTIALS[name]
        result = run_flow(complex, inversive, start, config)
        assert result.status == pinned["status"] == "converged"
        potentials = [s.potential for s in result.trace]
        assert len(potentials) == len(pinned["potentials"])
        assert np.max(np.abs(np.subtract(potentials, pinned["potentials"]))) <= 1e-10
    assert name == "genus2-degenerate"
    assert is_admissible(genus2, from_u(result.final_u, inversive))[0]
    assert nodes[0] <= 0.6 * sum(flow["quadrature_nodes"] for flow in _TRACE_POTENTIALS.values())


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
    # the same push under the extension keeps going
    config_ext = FlowConfig(variant="prescribed", target=target, step=0.01,
                            max_time=5.0, record_potential=False)
    extended = run_flow(tetra, inversive, to_u(metric), config_ext)
    assert extended.status in ("max_time_reached", "converged")
    # RK4 leaves at a stage point, Euler at the step's end point
    for integrator in ("rk4", "euler"):
        config = FlowConfig(variant="classical", target=target, integrator=integrator,
                            step=0.01, max_time=50.0, record_potential=False)
        result = run_flow(tetra, inversive, to_u(metric), config)
        assert result.status == "left_admissible"
        assert 0 < result.trace[-1].t < extended.trace[-1].t


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
    # a step passes cap 5; below cap 20 an RK4 stage leaves the u-domain first
    for cap in (5.0, 20.0):
        config = FlowConfig(variant="prescribed", target=target, max_time=500.0,
                            record_potential=False, divergence_radius_cap=cap)
        result = run_flow(octa, inversive, _u(np.ones(6)), config)
        assert result.status == "diverged"
        final_radii = u_to_radii_array(result.final_u.values, HYP)
        assert np.all(final_radii <= cap)  # final state is the last valid one


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


@pytest.mark.parametrize("entry", [residual, stability_certificate])
@pytest.mark.parametrize("u_0, message", [
    (-800.0, "radius underflow: u-coordinate too negative"),
    (800.0, "radius overflow: u-coordinate too large"),
])
def test_euclidean_u_whose_radius_is_not_a_positive_double_is_refused(torus, entry, u_0, message):
    # e^-800 underflows to a zero radius and e^800 overflows: both are
    # refused, with no numpy RuntimeWarning (an error under this suite's
    # filter) on the way.
    u = np.zeros(torus.vertex_count)
    u[0] = u_0
    with pytest.raises(DomainError, match=f"^{message}$"):
        entry(torus, np.ones(torus.edge_count), UCoords(u, EUC))


@pytest.mark.parametrize("background", [HYP, EUC])
def test_divergence_cap_in_u_is_the_radius_cap(background):
    # u > _u_cap(cap) exactly where the radius of u is above the cap, away
    # from rounding at the cap itself; for caps above about 745, where
    # ln tanh(cap/2) rounds to 0, no u < 0 is past the cap and no finite
    # radius is either.  Hyperbolic u cover radii from 1e-130 up to about
    # 691, where u_to_radii_array stays finite.
    if background is HYP:
        u = -np.logspace(np.log10(300.0), -300.0, 4001)
    else:
        u = np.linspace(-300.0, 300.0, 4001)
    radii = u_to_radii_array(u, background)
    for cap in (1e-100, 1e-3, 0.5, 1.0, 20.0, 300.0, 350.0, 650.0, 745.0, 746.0, 1e12, 1e300):
        bound = flow_module._u_cap(background, cap)
        if background is HYP and cap >= 746.0:
            assert bound == 0.0
        clear = np.abs(radii / cap - 1.0) > 1e-12
        assert np.array_equal((u > bound)[clear], (radii > cap)[clear])


def test_huge_step_reported_as_divergence(genus2):
    # a ridiculous step size throws the state out of the representable
    # domain; the run reports divergence instead of crashing
    inversive = np.ones(genus2.edge_count)
    u0 = _u(np.full(genus2.vertex_count, 2.0))
    for integrator, step in (("rk4", 1e6), ("euler", 1e6), ("rk4", 1e308)):
        config = FlowConfig(variant="extended", integrator=integrator, step=step,
                            max_time=min(2.0 * step, 1e308), record_potential=False,
                            divergence_radius_cap=1e12)
        result = run_flow(genus2, inversive, u0, config)
        assert result.status == "diverged"
        assert np.all(np.isfinite(result.final_u.values))
    # an Euler step that overflows is a non-finite state, not a numpy warning
    config = FlowConfig(variant="extended", integrator="euler", step=1e308,
                        max_time=1e308, record_potential=False)
    with pytest.raises(StepError, match="non-finite state"):
        run_flow(genus2, inversive, u0, config)


@pytest.mark.parametrize("background, radius, landing, cap, verdict", [
    (HYP, 1.0, np.inf, 300.0, "non-finite"),
    (EUC, 1.0, np.inf, 300.0, "non-finite"),
    (HYP, 1.0, 0.5, 300.0, "diverged"),
    (HYP, 1.0, U_COORDINATE_FLOOR - 1.0, 300.0, "diverged"),
    (HYP, 1.0, -0.1, 2.0, "diverged"),  # ln tanh(1) = -0.27
    (EUC, 1.0, 1.0, 2.0, "diverged"),  # ln 2 = 0.69
    (HYP, 1.0, -1.0, 300.0, "goes on"),
    (EUC, 1e-150, -350.0, 300.0, "goes on"),  # the floor is hyperbolic only
], ids=["hyp-non-finite", "euc-non-finite", "hyp-positive", "hyp-below-floor", "hyp-past-cap",
        "euc-past-cap", "hyp-in-domain", "euc-below-hyperbolic-floor"])
def test_one_euler_step_verdicts(genus2, background, radius, landing, cap, verdict):
    # One Euler step toward the target K(u0) + push lands at u0 + step * push,
    # up to rounding.  A non-finite state raises StepError before any
    # divergence check; a step out of the u-domain or past the cap ends the
    # run as diverged at the last valid state; an in-domain step goes on.
    inversive = np.ones(genus2.edge_count)
    u0 = _u(np.full(genus2.vertex_count, radius), background)
    step = 10.0 if landing == np.inf else 1.0
    push = 1e308 if landing == np.inf else landing - u0.values
    target = curvature(genus2, from_u(u0, inversive)).values + push
    config = FlowConfig(variant="prescribed", target=target, integrator="euler", step=step,
                        max_time=step, record_potential=False, divergence_radius_cap=cap)
    if verdict == "non-finite":
        with pytest.raises(StepError, match="non-finite state at t=10"):
            run_flow(genus2, inversive, u0, config)
        return
    result = run_flow(genus2, inversive, u0, config)
    if verdict == "diverged":
        assert (result.status, result.iterations) == ("diverged", 0)
        assert np.array_equal(result.final_u.values, u0.values)
    else:
        assert (result.status, result.iterations) == ("max_time_reached", 1)
        assert np.allclose(result.final_u.values, landing, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("background, cap, edge, verdict", [
    (HYP, 300.0, "floor", "diverged"),
    (EUC, 300.0, "floor", "goes on"),
    (HYP, 2.0, "cap", "goes on"),
    (HYP, 2.0, "past the cap", "diverged"),
    (EUC, 2.0, "cap", "goes on"),
    (EUC, 2.0, "past the cap", "diverged"),
    (HYP, 300.0, "band top", "goes on"),
    (HYP, 300.0, "past the band top", "goes on"),
    (EUC, 1e200, "past the band top", "goes on"),
], ids=["hyp-at-floor", "euc-at-floor", "hyp-at-cap-below-band", "hyp-past-cap-below-band",
        "euc-at-cap-below-band", "euc-past-cap-below-band", "hyp-at-band-top",
        "hyp-above-band-below-cap", "euc-above-band-below-cap"])
def test_zero_steps_on_the_screen_edges(genus2, background, cap, edge, verdict):
    # The flow's screen and the evaluator's u-band test read one min and max
    # of each step.  A run whose target is the evaluator's own K at u0 takes
    # steps of exactly 0, so every step lands on u0, whose vertex 0 sits on
    # an edge: the hyperbolic floor, the radius cap (below the u-band's top
    # radius at cap 2), or the band's top (below the cap at 300 and 1e200).
    inversive = np.ones(genus2.edge_count)
    u_cap, band_top = flow_module._u_cap(background, cap), _u_band(background, inversive)[1]
    u0 = radii_to_u_array(np.ones(genus2.vertex_count), background)
    u0[0] = {"floor": U_COORDINATE_FLOOR, "cap": u_cap,
             "past the cap": np.nextafter(u_cap, np.inf), "band top": band_top,
             "past the band top": np.nextafter(band_top, np.inf)}[edge]
    start = UCoords(u0, background)
    target = PotentialContext(genus2, inversive, start)._evaluate(u0)[0]
    config = FlowConfig(variant="prescribed", target=target, max_time=0.05,
                        record_potential=False, divergence_radius_cap=cap)
    result = run_flow(genus2, inversive, start, config)
    expected = ("diverged", 0) if verdict == "diverged" else ("max_time_reached", 1)
    assert (result.status, result.iterations) == expected
    assert np.array_equal(result.final_u.values, u0)


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


def test_flow_steps_map_no_u_to_radii(genus2, monkeypatch):
    # The evaluator reads its factors from u and the divergence cap is
    # compared in u, so a run forms no radii: u_to_radii_array is left to
    # outputs and from_u.
    # The package re-exports the function `curvature`, which hides the module.
    curvature_module = importlib.import_module("cpflow.curvature")
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

    for name in ("packing", "angles", "curvature", "flow", "potential", "obstructions"):
        module = importlib.import_module(f"cpflow.{name}")
        if hasattr(module, "u_to_radii_array"):
            monkeypatch.setattr(module, "u_to_radii_array", counted_radii)
    monkeypatch.setattr(potential_module, "make_curvature_evaluator", counted_evaluator)
    rng = np.random.default_rng(3)
    metric = random_admissible_metric(genus2, rng, inversive_range=(0.0, 1.0))
    config = FlowConfig(max_time=2.0, record_potential=False)
    result = run_flow(genus2, metric.inversive, to_u(metric), config)
    assert result.iterations == 40
    assert calls["evals"] == 1 + 4 * result.iterations
    assert calls["radii"] == 0


# ---------------------------------------------------------------------------
# Rigidity on generated surfaces
# ---------------------------------------------------------------------------

_RIGIDITY_BASES = [genus2_surface(), triangulated_torus(4, 4)]


@st.composite
def _rigidity_cases(draw):
    """A flipped genus-2 or 4 x 4 torus surface, I ~ U[0, 1], and a start and
    a target metric with radii log-uniform in [0.3, 2]."""
    base = draw(st.sampled_from(_RIGIDITY_BASES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    complex = build_complex(flip_edges(base.faces, rng, draw(st.integers(0, 2 * base.face_count))))
    inversive = rng.uniform(0.0, 1.0, complex.edge_count)
    start, radii_bar = np.exp(rng.uniform(np.log(0.3), np.log(2.0), (2, complex.vertex_count)))
    return complex, inversive, _u(start), radii_bar


@settings(max_examples=12)
@given(_rigidity_cases())
def test_prescribed_flow_and_newton_agree(case):
    # Rigidity: a metric is determined by its curvature, so the prescribed
    # flow and Newton's method reach the same u from the same start.
    complex, inversive, start, radii_bar = case
    target = curvature(complex, PackingMetric(HYP, inversive, radii_bar)).values
    config = FlowConfig(variant="prescribed", target=target, tolerance=1e-10,
                        max_time=2000.0, record_potential=False)
    result = run_flow(complex, inversive, start, config)
    assert result.status == "converged"
    ctx = PotentialContext(complex, inversive, start, target)
    newton_u, _ = newton_solve(ctx, start, tol=1e-11)
    assert np.max(np.abs(newton_u.values - result.final_u.values)) <= 1e-9


@st.composite
def _trace_cases(draw):
    """A flipped genus-2 or 4 x 4 torus surface, I ~ U[0, 1], and a start
    with radii log-uniform in [0.05, 5]."""
    base = draw(st.sampled_from(_RIGIDITY_BASES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    complex = build_complex(flip_edges(base.faces, rng, draw(st.integers(0, 2 * base.face_count))))
    inversive = rng.uniform(0.0, 1.0, complex.edge_count)
    return complex, inversive, _u(np.exp(rng.uniform(np.log(0.05), np.log(5.0), complex.vertex_count)))


@settings(max_examples=12)
@given(_trace_cases())
def test_extended_traces_keep_the_maximum_principle_and_gauss_bonnet(case):
    # Along the extended flow the largest positive curvature never grows and
    # the most negative never shrinks from one sample to the next, and the
    # Gauss-Bonnet identity holds at every sample.
    complex, inversive, start = case
    config = FlowConfig(variant="extended", max_time=20.0, sample_every=5, record_potential=False)
    trace = run_flow(complex, inversive, start, config).trace
    assert len(trace) > 2
    highs = np.array([sample.curvature_max for sample in trace])
    lows = np.array([sample.curvature_min for sample in trace])
    assert np.all(np.diff(highs) <= 0.0) and np.all(np.diff(lows) >= 0.0)
    for sample in trace:
        metric = from_u(UCoords(sample.u, HYP), inversive)
        assert abs(gauss_bonnet_defect(complex, metric)) <= 1e-12


# ---------------------------------------------------------------------------
# Stability certificate against the radii path
# ---------------------------------------------------------------------------

_CERTIFICATE_BASES = [genus2_surface(), triangulated_torus(6, 6), icosahedron()]


@st.composite
def _certificate_cases(draw):
    """A flipped genus-2, 6 x 6 torus or icosahedron surface, a background,
    I ~ U[0, 1] and the u of radii log-uniform in [0.3, 2]."""
    base = draw(st.sampled_from(_CERTIFICATE_BASES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    complex = build_complex(flip_edges(base.faces, rng, draw(st.integers(0, 2 * base.face_count))))
    background = draw(st.sampled_from([HYP, EUC]))
    inversive = rng.uniform(0.0, 1.0, complex.edge_count)
    radii = np.exp(rng.uniform(np.log(0.3), np.log(2.0), complex.vertex_count))
    return complex, inversive, _u(radii, background)


def _radii_path_eigenvalue(complex, inversive, u):
    """The smallest eigenvalue of dK/du as computed on the radii of u: the
    curvature Jacobian of ``from_u``'s metric, with the certificate's
    euclidean rank-one lift of the all-ones kernel above the spectrum."""
    jac = curvature_jacobian(complex, from_u(u, inversive, permissive=True))
    if u.background is EUC:
        jac += (1.0 + np.abs(jac).sum(axis=1).max()) / complex.vertex_count
    return float(np.linalg.eigvalsh(jac)[0])


@settings(max_examples=20)
@given(_certificate_cases())
def test_certificate_matches_the_radii_path(case):
    # The certificate reads dK/du on the factors of u, which differ from
    # those of the radii of u by rounding only.
    complex, inversive, u = case
    expected = _radii_path_eigenvalue(complex, inversive, u)
    report = stability_certificate(complex, inversive, u)
    assert abs(report.smallest_eigenvalue - expected) <= 1e-12 * abs(expected)
    assert report.certified == (expected > 0)


@pytest.mark.parametrize("background", [HYP, EUC])
def test_certificate_refuses_a_degenerate_point(octa, background):
    # one edge's large inversive distance between small radii degenerates its faces
    inversive = np.zeros(octa.edge_count)
    inversive[0] = 30.0
    u = _u(np.full(octa.vertex_count, 0.05), background)
    with pytest.raises(BoundaryError):
        _radii_path_eigenvalue(octa, inversive, u)
    with pytest.raises(BoundaryError, match="degenerate boundary in faces"):
        stability_certificate(octa, inversive, u)
