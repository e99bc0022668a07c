from __future__ import annotations

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cpflow import (
    Background,
    ConfigError,
    MaxIterationsError,
    NoDescentError,
    PackingMetric,
    QuadratureError,
    build_complex,
    curvature,
    curvature_jacobian,
    extended_curvature,
    genus2_surface,
    icosahedron,
    is_admissible,
    newton_solve,
    octahedron,
    potential_gradient,
    potential_value,
    tetrahedron,
    triangulated_torus,
)
from cpflow import potential
from cpflow.packing import UCoords, radii_to_u_array, u_to_radii_array
from cpflow.potential import (
    _ARMIJO_SLOPE_FRACTION,
    PotentialContext,
    _CC_NODES,
    _CC_WEIGHTS,
    _adaptive_clenshaw_curtis,
    _Budget,
    _line_search,
    _newton_direction,
    segment_integral,
)

from conftest import flip_edges, random_admissible_metric, segment_reference

HYP = Background.HYPERBOLIC
EUC = Background.EUCLIDEAN


def _u(radii, background=HYP):
    return UCoords(radii_to_u_array(np.asarray(radii, float), background), background)


def _random_u(rng, n, low=0.4, high=2.2):
    return _u(np.exp(rng.uniform(np.log(low), np.log(high), n)))


@pytest.fixture(scope="module")
def ctx_genus2():
    from cpflow import genus2_surface

    complex = genus2_surface()
    rng = np.random.default_rng(99)
    inversive = rng.uniform(0.0, 1.0, complex.edge_count)
    basepoint = _u(np.full(complex.vertex_count, 1.0))
    return PotentialContext(complex, inversive, basepoint)


def test_value_at_basepoint(ctx_genus2):
    assert potential_value(ctx_genus2, ctx_genus2.basepoint) == 0.0


def test_short_segment_matches_riemann_sum(ctx_genus2, rng):
    # refine-and-compare oracle: a dense midpoint sum over the same segment
    n = ctx_genus2.complex.vertex_count
    u_from = _random_u(rng, n)
    direction = rng.normal(0, 0.02, n)
    u_to = UCoords(u_from.values + direction, HYP)
    quad = segment_integral(ctx_genus2, u_from.values, u_to.values)
    ts = (np.arange(2000) + 0.5) / 2000
    total = 0.0
    for t in ts:
        point = u_from.values + t * direction
        k = extended_curvature(
            ctx_genus2.complex,
            PackingMetric(HYP, ctx_genus2.inversive, u_to_radii_array(point, HYP)),
        ).values
        total += float(k @ direction) / 2000
    assert quad == pytest.approx(total, abs=1e-7)


def test_path_independence(ctx_genus2, rng):
    n = ctx_genus2.complex.vertex_count
    for _ in range(5):
        u_a, u_b, u_c = (_random_u(rng, n) for _ in range(3))
        direct = segment_integral(ctx_genus2, u_a.values, u_b.values)
        two_leg = segment_integral(ctx_genus2, u_a.values, u_c.values) + \
            segment_integral(ctx_genus2, u_c.values, u_b.values)
        assert abs(direct - two_leg) <= 1e-8


def test_gradient_is_curvature_minus_target(ctx_genus2, rng):
    n = ctx_genus2.complex.vertex_count
    u = _random_u(rng, n)
    grad = potential_gradient(ctx_genus2, u)
    metric = PackingMetric(HYP, ctx_genus2.inversive, u_to_radii_array(u.values, HYP))
    expected = extended_curvature(ctx_genus2.complex, metric).values
    assert grad == pytest.approx(expected, rel=1e-12)


def test_gradient_matches_finite_differences(ctx_genus2, rng):
    n = ctx_genus2.complex.vertex_count
    u = _random_u(rng, n, 0.7, 1.5)
    grad = potential_gradient(ctx_genus2, u)
    step = 1e-6
    for i in range(0, n, 4):
        up, um = u.values.copy(), u.values.copy()
        up[i] += step
        um[i] -= step
        fd = (
            potential_value(ctx_genus2, UCoords(up, HYP))
            - potential_value(ctx_genus2, UCoords(um, HYP))
        ) / (2 * step)
        assert fd == pytest.approx(grad[i], rel=1e-6, abs=1e-8)


def test_midpoint_convexity(ctx_genus2, rng):
    n = ctx_genus2.complex.vertex_count
    for _ in range(20):
        u_a, u_b = (_random_u(rng, n) for _ in range(2))
        phi_a = potential_value(ctx_genus2, u_a)
        phi_b = potential_value(ctx_genus2, u_b)
        for lam in (0.25, 0.5, 0.75):
            mid = UCoords(lam * u_a.values + (1 - lam) * u_b.values, HYP)
            phi_mid = potential_value(ctx_genus2, mid)
            assert phi_mid <= lam * phi_a + (1 - lam) * phi_b + 1e-8


def test_newton_round_trip(genus2, rng):
    metric = random_admissible_metric(genus2, rng, HYP, (0.5, 2.0), (0.0, 1.0))
    target = curvature(genus2, metric).values
    start = _random_u(rng, genus2.vertex_count)
    ctx = PotentialContext(genus2, metric.inversive, start, target)
    u_star, report = newton_solve(ctx, start, tol=1e-11)
    recovered = u_to_radii_array(u_star.values, HYP)
    assert np.max(np.abs(recovered - metric.radii)) <= 1e-8
    assert report.residual <= 1e-11
    assert report.iterations <= 40


def test_newton_starts_agree(genus2, rng):
    # the realizing metric is unique, so different starts land together
    metric = random_admissible_metric(genus2, rng, HYP, (0.5, 2.0), (0.0, 1.0))
    target = curvature(genus2, metric).values
    solutions = []
    for _ in range(2):
        start = _random_u(rng, genus2.vertex_count)
        ctx = PotentialContext(genus2, metric.inversive, start, target)
        u_star, _ = newton_solve(ctx, start, tol=1e-11)
        solutions.append(u_star.values)
    assert np.max(np.abs(solutions[0] - solutions[1])) <= 1e-7


def test_newton_zero_iterations_at_solution(genus2, rng):
    metric = random_admissible_metric(genus2, rng, HYP, (0.5, 2.0), (0.0, 1.0))
    target = curvature(genus2, metric).values
    from cpflow import to_u

    solution = to_u(metric)
    ctx = PotentialContext(genus2, metric.inversive, solution, target)
    u_star, report = newton_solve(ctx, solution, tol=1e-9)
    assert report.iterations == 0
    assert u_star.values.tolist() == solution.values.tolist()


def test_newton_rejects_bad_configs(genus2):
    n = genus2.vertex_count
    inversive = np.ones(genus2.edge_count)
    u_euclid = UCoords(np.zeros(n), EUC)
    ctx = PotentialContext(genus2, inversive, u_euclid)
    with pytest.raises(ConfigError):
        newton_solve(ctx, u_euclid)
    u_hyp = _u(np.ones(n))
    ctx = PotentialContext(genus2, inversive, u_hyp, np.full(n, 2 * np.pi))
    with pytest.raises(ConfigError):
        newton_solve(ctx, u_hyp)
    ctx = PotentialContext(genus2, inversive, u_hyp)
    for budget in [{"max_iter": -1}, {"tol": 0.0}, {"tol": -1e-10}, {"tol": float("nan")}]:
        with pytest.raises(ConfigError):
            newton_solve(ctx, u_hyp, **budget)
    for max_iter in (2.5, 2.0, "3", True, np.float64(2.0)):
        with pytest.raises(ConfigError, match="max_iter must be an integer"):
            newton_solve(ctx, u_hyp, max_iter=max_iter)
    with pytest.raises(MaxIterationsError, match="in 0 iterations"):
        newton_solve(ctx, u_hyp, max_iter=np.int64(0))


@pytest.mark.parametrize("tol", ["1e-10", True, None, 1j, [1e-10]], ids=repr)
def test_newton_solve_refuses_a_tolerance_that_is_not_a_number(genus2, tol):
    u = _u(np.ones(genus2.vertex_count))
    ctx = PotentialContext(genus2, np.ones(genus2.edge_count), u)
    with pytest.raises(ConfigError, match="tol must be a finite and positive number"):
        newton_solve(ctx, u, tol=tol)


def test_newton_budget_exhausted(genus2, rng):
    # a realizable target from a far start needs more than one iteration
    metric = random_admissible_metric(genus2, rng, HYP, (0.5, 2.0), (0.0, 1.0))
    target = curvature(genus2, metric).values
    start = _u(np.full(genus2.vertex_count, 20.0))
    ctx = PotentialContext(genus2, metric.inversive, start, target)
    with pytest.raises(MaxIterationsError, match="in 1 iterations") as err:
        newton_solve(ctx, start, tol=1e-11, max_iter=1)
    report = err.value.report
    assert report.iterations == 1
    assert report.newton_steps + report.gradient_steps == 1
    assert report.residual > 1e-11
    last = err.value.last_u
    assert last.background is HYP
    assert not np.array_equal(last.values, start.values)


def test_newton_unreachable_target(genus2):
    # a target below every subset bound cannot be realized; the minimum
    # does not exist and the iterates run toward the boundary
    n = genus2.vertex_count
    inversive = np.ones(genus2.edge_count)
    start = _u(np.full(n, 1.0))
    ctx = PotentialContext(genus2, inversive, start, np.full(n, -10.0))
    with pytest.raises((MaxIterationsError, NoDescentError)) as err:
        newton_solve(ctx, start, tol=1e-10, max_iter=60)

    # the iterates escaped toward the boundary of the u-domain
    last = err.value.last_u
    assert np.linalg.norm(last.values) > 2 * np.linalg.norm(start.values)

    # a zero-curvature metric exists here (tangency packing), so the
    # zero-target potential is proper: it climbs along the escape ray
    # (sampled on the near half of the ray; further out the geometry mixes
    # scales beyond what the quadrature resolves)
    zero_ctx = PotentialContext(genus2, inversive, start)
    direction = last.values - start.values
    values = [
        potential_value(zero_ctx, UCoords(start.values + t * direction, HYP))
        for t in (0.1, 0.2, 0.3, 0.4, 0.5)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] > 2 * max(1.0, values[0])


def test_potential_proper_along_rays(genus2):
    # from the zero-curvature metric the potential increases strictly along
    # every ray toward the domain boundary
    n = genus2.vertex_count
    inversive = np.ones(genus2.edge_count)
    seed = _u(np.full(n, 1.0))
    u_star, _ = newton_solve(PotentialContext(genus2, inversive, seed), seed, tol=1e-12)
    ctx = PotentialContext(genus2, inversive, u_star)

    rng = np.random.default_rng(7)
    for _ in range(10):
        direction = rng.normal(0, 1, n)
        direction /= np.linalg.norm(direction)
        # distance to the boundary u = 0 along this ray (may be infinite)
        positive = direction > 0
        reach = np.min(-u_star.values[positive] / direction[positive]) if positive.any() else np.inf
        if np.isfinite(reach):
            ts = reach * (1.0 - 0.5 ** np.arange(1, 7))
        else:
            ts = 2.0 ** np.arange(0, 6)
        values = [
            potential_value(ctx, UCoords(u_star.values + t * direction, HYP))
            for t in ts
        ]
        assert all(b > a for a, b in zip(values[1:], values[2:]))
        assert values[-1] > values[0] >= 0.0


def test_euclidean_potential_computes(octa, rng):
    metric = random_admissible_metric(octa, rng, EUC, (0.5, 2.0), (0.0, 1.0))
    from cpflow import to_u

    basepoint = to_u(metric)
    ctx = PotentialContext(octa, metric.inversive, basepoint)
    shifted = UCoords(basepoint.values + 0.05, EUC)
    value = potential_value(ctx, shifted)
    grad = potential_gradient(ctx, shifted)
    assert np.isfinite(value)
    assert np.all(np.isfinite(grad))


def test_clenshaw_curtis_nodes_are_nested_and_symmetric():
    n = len(_CC_NODES) - 1
    assert n == 1 << potential._CC_LEVELS
    levels = [_CC_NODES[:: n >> level] for level in range(potential._CC_LEVELS + 1)]
    for coarse, fine in zip(levels, levels[1:]):
        assert fine[::2] == coarse  # each level holds every node of the one before
    assert (_CC_NODES[0], _CC_NODES[n // 2], _CC_NODES[n]) == (0.0, 0.5, 1.0)
    assert all(_CC_NODES[n - j] == 1.0 - _CC_NODES[j] for j in range(n // 2))
    assert list(_CC_NODES) == sorted(set(_CC_NODES))
    exact = [(1.0 - math.cos(j * math.pi / n)) / 2 for j in range(n + 1)]
    assert np.max(np.abs(np.subtract(_CC_NODES, exact))) <= 4e-16


def test_clenshaw_curtis_weights_integrate_polynomials_exactly():
    n = len(_CC_NODES) - 1
    for level, weights in enumerate(_CC_WEIGHTS):
        nodes = _CC_NODES[:: n >> level]
        assert len(weights) == len(nodes) == (1 << level) + 1
        assert weights == weights[::-1]
        assert math.fsum(weights) == pytest.approx(1.0, abs=4e-16)
        # exact to rounding up to degree 2^l, on monomials and a fixed polynomial
        for degree in range((1 << level) + 1):
            integral = math.fsum(w * x**degree for w, x in zip(weights, nodes))
            assert integral == pytest.approx(1.0 / (degree + 1), abs=4e-16)
        coefficients = np.random.default_rng(level).uniform(-1.0, 1.0, (1 << level) + 1)
        integral = math.fsum(w * np.polyval(coefficients, x) for w, x in zip(weights, nodes))
        exact = float(np.polyval(np.polyint(coefficients), 1.0))
        assert integral == pytest.approx(exact, abs=1e-14)


def test_adaptive_clenshaw_curtis_basics():
    assert _adaptive_clenshaw_curtis(lambda s: s * s, 1e-12) == pytest.approx(1 / 3, abs=1e-12)
    assert _adaptive_clenshaw_curtis(np.cos, 1e-12) == pytest.approx(np.sin(1.0), abs=1e-12)
    # square-root kink converges with the default depth cap and budget
    value = _adaptive_clenshaw_curtis(lambda s: np.sqrt(abs(s - 0.3)), 1e-10)
    exact = (0.3 ** 1.5 + 0.7 ** 1.5) * 2 / 3
    assert value == pytest.approx(exact, abs=1e-9)
    with pytest.raises(QuadratureError, match="depth cap"):
        _adaptive_clenshaw_curtis(lambda s: np.sqrt(abs(s - 0.3)), 1e-10, max_depth=8)
    with pytest.raises(QuadratureError, match="evaluation budget"):
        _adaptive_clenshaw_curtis(lambda s: np.sqrt(abs(s - 0.3)), 1e-10, budget=_Budget(500))


def test_clenshaw_curtis_reuses_the_given_ends_and_middles():
    # Every node of a bisected integral is evaluated once: the given ends
    # are not evaluated again, and the children reuse their parent's ends
    # and middle.  (At 1e-10 the pieces next to the kink get so narrow that
    # their outermost nodes round onto their ends.)
    def kink(s):
        return math.sqrt(abs(s - 0.3))

    points = []

    def recorded(s):
        points.append(s)
        return kink(s)

    value = _adaptive_clenshaw_curtis(recorded, 1e-8, ends=(kink(0.0), kink(1.0)))
    assert len(points) == len(set(points)) > 10 * len(_CC_NODES)
    assert 0.0 not in points and 1.0 not in points
    assert value == _adaptive_clenshaw_curtis(kink, 1e-8)


def test_segment_tolerance_must_be_positive(ctx_genus2):
    u = ctx_genus2.basepoint.values
    for tolerance in (0.0, -1e-10, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            segment_integral(ctx_genus2, u, u - 0.1, tolerance)


def _crossing_segments(complex, background, rng, count):
    """Short segments of u-space along which a face crosses the degenerate
    boundary, as in the angle continuity test: I in [0, 3], centred on the
    first crossing between an admissible and a degenerate metric."""
    segments = []
    while len(segments) < count:
        inversive = rng.uniform(0.0, 3.0, complex.edge_count)
        ends = {}
        for _ in range(4000):
            radii = np.exp(rng.uniform(np.log(0.1), np.log(5.0), complex.vertex_count))
            admissible = is_admissible(complex, PackingMetric(background, inversive, radii))[0]
            ends.setdefault(admissible, radii_to_u_array(radii, background))
            if len(ends) == 2:
                break
        else:
            continue
        u_in, u_out = ends[True], ends[False]
        ctx = PotentialContext(complex, inversive, UCoords(u_in, background))
        lo, hi = 0.0, 1.0
        while hi - lo > 1e-3:
            mid = 0.5 * (lo + hi)
            if ctx._evaluate(u_in + mid * (u_out - u_in))[1].any():
                hi = mid
            else:
                lo = mid
        direction = u_out - u_in
        span = max(lo - 0.03, 0.0), min(hi + 0.03, 1.0)  # inside the convex u-domain
        segments.append((inversive, *(u_in + s * direction for s in span)))
    return segments


@pytest.mark.parametrize("background", [EUC, HYP])
def test_split_segment_matches_deep_reference(genus2, background):
    rng = np.random.default_rng(31)
    for inversive, u_from, u_to in _crossing_segments(genus2, background, rng, 2):
        ctx = PotentialContext(genus2, inversive, UCoords(u_from, background))
        # the ends differ on at least one face, so the segment is split
        assert (ctx._evaluate(u_from)[1] != ctx._evaluate(u_to)[1]).any()
        value = segment_integral(ctx, u_from, u_to, 1e-10)
        assert abs(value - segment_reference(ctx, u_from, u_to, 1e-12)) <= 1e-10


def _counting(ctx):
    """Count the context's evaluations from now on."""
    evaluate, calls = ctx._evaluate, []

    def counted(*args):
        calls.append(None)
        return evaluate(*args)

    object.__setattr__(ctx, "_evaluate", counted)
    return calls


@pytest.mark.parametrize("crossing", [False, True])
def test_segment_ends_are_reused(genus2, crossing):
    rng = np.random.default_rng(5)
    if crossing:
        inversive, u_from, u_to = _crossing_segments(genus2, HYP, rng, 1)[0]
    else:
        inversive = rng.uniform(0.0, 1.0, genus2.edge_count)
        u_from = _random_u(rng, genus2.vertex_count).values
        u_to = u_from + rng.normal(0, 0.05, genus2.vertex_count)
    ctx = PotentialContext(genus2, inversive, UCoords(u_from, HYP))
    ends = (ctx._evaluate(u_from), ctx._evaluate(u_to))
    calls = _counting(ctx)
    plain = segment_integral(ctx, u_from, u_to)
    plain_calls = len(calls)
    calls.clear()
    reused = segment_integral(ctx, u_from, u_to, ends=ends)
    assert reused == plain  # bit for bit
    assert len(calls) == plain_calls - 2
    calls.clear()
    assert segment_integral(ctx, u_from, u_to, ends=(ends[0], None)) == plain
    assert len(calls) == plain_calls - 1


# ---------------------------------------------------------------------------
# Newton direction against the dense Hessian
# ---------------------------------------------------------------------------

STOCK = [tetrahedron(), octahedron(), icosahedron(), genus2_surface(), triangulated_torus(3, 3)]
#: N = 144, above potential._DENSE_VERTEX_LIMIT: conjugate gradients decides
LARGE = [triangulated_torus(12, 12)]


@st.composite
def _surfaces(draw, bases=STOCK, max_flips=None):
    """A surface of ``bases``, or one after random edge flips (by default up
    to twice its face count), and a numpy generator."""
    base = draw(st.sampled_from(bases))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    flips = draw(st.integers(0, 2 * base.face_count if max_flips is None else max_flips))
    return build_complex(flip_edges(base.faces, rng, flips)), rng


def _log_uniform_radii(rng, n):
    return np.exp(rng.uniform(np.log(1e-3), np.log(5.0), n))


def _dense_direction(jac, grad):
    """The dense reference: Cholesky tests positivity on the same mu ladder."""
    n = len(grad)
    mu = 0.0
    while True:
        try:
            np.linalg.cholesky(jac + mu * np.eye(n))
        except np.linalg.LinAlgError:
            mu = 1e-10 if mu == 0.0 else mu * 10.0
            if mu > 1e-2:
                return None
            continue
        return np.linalg.solve(jac + mu * np.eye(n), -grad)


def _direction(complex, inversive, radii, grad):
    u = radii_to_u_array(radii, HYP)
    ctx = PotentialContext(complex, inversive, UCoords(u, HYP))
    return _newton_direction(ctx, u, grad)


def _redrawn_until_admissible(complex, inversive, radii, redraw):
    """The metric after ``redraw`` replaced the inversive distances of the
    edges of each violating face, until none violates."""
    while True:
        metric = PackingMetric(HYP, inversive, radii, permissive=True)
        ok, bad = is_admissible(complex, metric)
        if ok:
            return metric
        edges = np.unique(complex.face_opposite_edges[bad])
        inversive = inversive.copy()
        inversive[edges] = redraw(inversive[edges])


def _check_direction_matches_dense_solve(complex, rng):
    radii = _log_uniform_radii(rng, complex.vertex_count)
    # Redraw I in [0, 1] on the edges of violating faces; a face whose three
    # inversive distances lie in [0, 1] satisfies the triangle inequalities.
    metric = _redrawn_until_admissible(
        complex, rng.uniform(0.0, 3.0, complex.edge_count), radii,
        lambda inversive: rng.uniform(0.0, np.minimum(inversive, 1.0)),
    )
    jac = curvature_jacobian(complex, metric)
    assert np.max(np.abs(jac - jac.T)) <= 1e-9 * np.max(np.abs(jac))
    np.linalg.cholesky(jac)  # positive definite

    grad = rng.normal(size=complex.vertex_count)
    direction = _direction(complex, metric.inversive, radii, grad)
    expected = np.linalg.solve(jac, -grad)
    assert np.linalg.norm(direction - expected) <= 1e-10 * np.linalg.norm(expected)


def _check_ladders_end_alike(complex, rng, metric, radii):
    # permissive I < 0 can make the Hessian indefinite; the regularization
    # ladder must end where the dense Cholesky ladder ends
    jac = curvature_jacobian(complex, metric)
    assume(np.linalg.eigvalsh(jac)[0] < 0)

    grad = rng.normal(size=complex.vertex_count)
    direction = _direction(complex, metric.inversive, radii, grad)
    expected = _dense_direction(jac, grad)
    if expected is None:
        assert direction is None
    else:
        assert direction is not None
        assert np.linalg.norm(direction - expected) <= 1e-8 * np.linalg.norm(expected)


@settings(max_examples=40)
@given(_surfaces())
def test_newton_direction_matches_dense_solve(case):
    _check_direction_matches_dense_solve(*case)


@settings(max_examples=4)
@given(_surfaces(LARGE, max_flips=64))
def test_newton_direction_matches_dense_solve_above_the_dense_limit(case):
    _check_direction_matches_dense_solve(*case)


@settings(max_examples=40)
@given(_surfaces())
def test_newton_direction_on_indefinite_hessian(case):
    complex, rng = case
    radii = _log_uniform_radii(rng, complex.vertex_count)
    inversive = rng.uniform(-0.99, 0.0, complex.edge_count)
    metric = PackingMetric(HYP, inversive, radii, permissive=True)
    assume(is_admissible(complex, metric)[0])
    _check_ladders_end_alike(complex, rng, metric, radii)


@settings(max_examples=4)
@given(_surfaces(LARGE, max_flips=64), st.floats(0.02, 0.2))
def test_newton_direction_on_indefinite_hessian_above_the_dense_limit(case, negative_share):
    # I < 0 on every edge leaves almost no large surface admissible; here a
    # share of the edges has I in [-0.99, 0], halved on violating faces.
    complex, rng = case
    radii = _log_uniform_radii(rng, complex.vertex_count)
    inversive = np.where(
        rng.random(complex.edge_count) < negative_share,
        rng.uniform(-0.99, 0.0, complex.edge_count),
        rng.uniform(0.0, 1.0, complex.edge_count),
    )
    metric = _redrawn_until_admissible(
        complex, inversive, radii, lambda inversive: np.maximum(inversive, 0.5 * inversive)
    )
    _check_ladders_end_alike(complex, rng, metric, radii)


def test_newton_direction_is_dense_up_to_the_limit():
    # At or below _DENSE_VERTEX_LIMIT vertices Cholesky decides the step and
    # conjugate gradients is never called; above it, the reverse.
    def refused(*args):
        raise AssertionError("called on the wrong side of the vertex limit")

    for complex, dense in ((triangulated_torus(10, 10), True), (triangulated_torus(10, 11), False)):
        assert (complex.vertex_count <= potential._DENSE_VERTEX_LIMIT) == dense
        rng = np.random.default_rng(complex.vertex_count)
        radii = _log_uniform_radii(rng, complex.vertex_count)
        inversive = rng.uniform(0.0, 1.0, complex.edge_count)
        grad = rng.normal(size=complex.vertex_count)
        with pytest.MonkeyPatch.context() as patch:
            if dense:
                patch.setattr(potential, "_conjugate_gradient", refused)
            else:
                patch.setattr(np.linalg, "cholesky", refused)
            assert _direction(complex, inversive, radii, grad) is not None


#: counts and radii of two Newton paths as the chain-rule angle Jacobians gave them
_NEWTON_PATHS = json.loads((Path(__file__).parent / "data" / "newton_paths.json").read_text())


@pytest.mark.parametrize("name, complex, seed", [
    ("genus2", genus2_surface(), 2801),  # N = 15: Cholesky on the dense matrix
    ("torus12", triangulated_torus(12, 12), 2802),  # N = 144: conjugate gradients
], ids=["genus2-dense", "torus12-cg"])
def test_newton_path_is_pinned(name, complex, seed):
    # The per-corner derivative kernel changes dK/du only by rounding, so
    # Newton takes the same steps to the same radii as before it.
    rng = np.random.default_rng(seed)
    n = complex.vertex_count
    inversive = rng.uniform(0.0, 1.0, complex.edge_count)
    radii_bar = np.exp(rng.uniform(np.log(0.5), np.log(2.0), n))
    target = curvature(complex, PackingMetric(HYP, inversive, radii_bar)).values
    start = _u(np.exp(rng.uniform(np.log(0.05), np.log(5.0), n)))
    u_star, report = newton_solve(PotentialContext(complex, inversive, start, target), start,
                                  tol=1e-11)
    pinned = _NEWTON_PATHS[name]
    counts = (report.iterations, report.newton_steps, report.gradient_steps)
    assert counts == (pinned["iterations"], pinned["newton_steps"], pinned["gradient_steps"])
    assert np.max(np.abs(u_to_radii_array(u_star.values, HYP) - pinned["radii"])) <= 1e-12


def test_newton_solve_at_scale():
    # N = 6400, where one dense N x N matrix of floats takes 328 MB
    complex = triangulated_torus(80, 80)
    n = complex.vertex_count
    rng = np.random.default_rng(11)
    inversive = rng.uniform(0.0, 1.0, complex.edge_count)
    radii_bar = np.exp(rng.uniform(np.log(0.5), np.log(2.0), n))
    target = curvature(complex, PackingMetric(HYP, inversive, radii_bar)).values
    start = _u(np.exp(rng.uniform(np.log(0.5), np.log(2.0), n)))
    ctx = PotentialContext(complex, inversive, start, target)

    tracemalloc.start()
    try:
        u_star, report = newton_solve(ctx, start, tol=1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.residual <= 1e-10
    assert peak < 64 * 2**20
    assert np.max(np.abs(u_to_radii_array(u_star.values, HYP) - radii_bar)) <= 1e-8


# ---------------------------------------------------------------------------
# Line search: Armijo by convexity
# ---------------------------------------------------------------------------

def _searched(ctx, u, direction):
    """``_line_search`` from u along ``direction``: its accepted (trial,
    evaluation) or None, the slope g(0), and the far ends of the segments it
    integrated."""
    integrated = []

    def recording(context, u_from, u_to, *args, **kwargs):
        integrated.append(u_to)
        return segment_integral(context, u_from, u_to, *args, **kwargs)

    at_u = ctx._evaluate(u)
    grad = at_u[0] - ctx.target
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(potential, "segment_integral", recording)
        accepted = _line_search(ctx, u, direction, grad, float(np.abs(grad).max()), at_u)
    return accepted, float(grad @ direction), integrated


def _line_with_minimum(complex, rng, radius_range, inversive_high, stretch, permissive=False):
    """A context on ``complex`` whose potential is least, along the line from
    a random u toward a random u_min, at u_min (the target is K(u_min)), with
    the line's direction (u_min - u) * stretch."""
    low, high = np.log(radius_range[0]), np.log(radius_range[1])
    u_from, u_min = (
        radii_to_u_array(np.exp(rng.uniform(low, high, complex.vertex_count)), HYP)
        for _ in range(2)
    )
    inversive = rng.uniform(-0.5 if permissive else 0.0, inversive_high, complex.edge_count)
    target = PotentialContext(complex, inversive, UCoords(u_min, HYP))._evaluate(u_min)[0]
    ctx = PotentialContext(complex, inversive, UCoords(u_from, HYP), target)
    return ctx, u_from, stretch * (u_min - u_from)


def test_convexity_accepts_only_armijo_steps():
    # Phi(u + s d) - Phi(u) <= s g(s) <= c s g(0) for every trial accepted
    # without an integral, checked against a deep reference, on stock and
    # flipped surfaces; stretches above 1 put the first trials past the line's
    # minimum, and the wide radii make faces cross the degenerate boundary.
    shortcuts, crossing, smooth = 0, 0, 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        base = STOCK[seed % 5]
        complex = build_complex(flip_edges(base.faces, rng, seed % 3 * base.face_count))
        wide = seed < 7
        ctx, u, direction = _line_with_minimum(
            complex, rng, (0.01, 10.0) if wide else (0.5, 2.0), 2.0 if wide else 1.0,
            (0.5, 0.9, 1.6, 3.0)[seed % 4],
        )
        accepted, slope, integrated = _searched(ctx, u, direction)
        trial, at_trial = accepted
        if any(np.array_equal(trial, end) for end in integrated):
            continue
        s = next(0.5**k for k in range(60) if np.array_equal(u + 0.5**k * direction, trial))
        g_s = float((at_trial[0] - ctx.target) @ direction)
        assert g_s <= _ARMIJO_SLOPE_FRACTION * slope
        decrease = segment_reference(ctx, u, trial, 1e-8)
        assert decrease <= s * g_s + 1e-6
        assert decrease <= _ARMIJO_SLOPE_FRACTION * s * slope + 1e-6
        shortcuts += 1
        if (ctx._evaluate(u)[1] != at_trial[1]).any():
            crossing += 1
        elif not at_trial[1].any():
            smooth += 1
    assert shortcuts >= 7 and crossing >= 3 and smooth >= 2


def test_negative_inversive_distances_still_integrate(genus2):
    # With some I < 0 convexity is not known, so even a trial before the
    # line's minimum is decided by the integral; with |I| it is not.
    rng = np.random.default_rng(8)
    ctx, u, direction = _line_with_minimum(genus2, rng, (0.5, 2.0), 1.0, 0.5, permissive=True)
    assert (ctx.inversive < 0).any()
    accepted, _, integrated = _searched(ctx, u, direction)
    assert any(np.array_equal(accepted[0], end) for end in integrated)

    convex = PotentialContext(genus2, np.abs(ctx.inversive), ctx.basepoint, ctx.target)
    accepted, _, integrated = _searched(convex, u, direction)
    assert accepted is not None and not integrated


def test_most_newton_line_searches_need_no_integral(genus2):
    # A seeded genus2 solve: if the convexity test stops deciding the line
    # search, nearly every search integrates again (5 of 6 here).
    rng = np.random.default_rng(0)
    metric = random_admissible_metric(genus2, rng, HYP, (0.2, 3.0), (0.0, 1.0))
    start = _u(np.exp(rng.uniform(np.log(0.05), np.log(5.0), genus2.vertex_count)))
    ctx = PotentialContext(genus2, metric.inversive, start, curvature(genus2, metric).values)
    searches, integrals = [], []

    def counted(record, function):
        def call(*args, **kwargs):
            record.append(None)
            return function(*args, **kwargs)

        return call

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(potential, "_line_search", counted(searches, _line_search))
        patch.setattr(potential, "segment_integral", counted(integrals, segment_integral))
        _, report = newton_solve(ctx, start, tol=1e-11)
    assert report.residual <= 1e-11
    assert len(searches) >= 4
    assert 2 * len(integrals) <= len(searches)
