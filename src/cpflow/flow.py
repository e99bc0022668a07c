"""Time integration of the combinatorial Ricci flow in u-coordinates.

Three variants of the same ODE u' = target - K(u):

* ``classical``  evaluates the classical curvature, so the run aborts with
  status ``left_admissible`` as soon as a face degenerates;
* ``extended``   evaluates the extended curvature with a zero target, so
  degenerate faces deform right through the boundary;
* ``prescribed`` is the extended flow toward a prescribed target.

The stepper is a fixed-step classical RK4 (the field is smooth inside the
admissible region and only continuous at the degenerate boundary, where
high-order methods lose their order anyway); Euler is available for
cross-checks.  Runs are deterministic given the configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexes import SurfaceComplex
from .curvature import _not_admissible, curvature_jacobian, make_curvature_evaluator
from .errors import (
    ConfigError,
    DomainError,
    NotAdmissibleError,
    QuadratureError,
    StepError,
)
from .packing import (
    Background,
    PackingMetric,
    U_COORDINATE_FLOOR,
    UCoords,
    u_to_radii_array,
)
from .potential import PotentialContext, segment_integral

VARIANTS = ("classical", "extended", "prescribed")
INTEGRATORS = ("euler", "rk4")

#: consecutive in-tolerance samples required before declaring convergence
_SUSTAINED_SAMPLES = 3


@dataclass
class FlowConfig:
    """Parameters of one flow run."""

    variant: str = "extended"
    target: np.ndarray | None = None
    integrator: str = "rk4"
    step: float = 0.05
    max_time: float = 500.0
    tolerance: float = 1e-9
    sample_every: int = 10
    divergence_radius_cap: float = 300.0
    record_potential: bool = True


@dataclass(frozen=True)
class FlowSample:
    """One trace row.

    ``curvature_max``/``curvature_min`` are the per-sample extrema of the
    curvature with 0 included, the quantities whose monotonicity along a
    run expresses the discrete maximum principle.  ``potential`` is the
    accumulated potential line integral relative to the start point, or
    None when its quadrature failed.
    """

    t: float
    u: np.ndarray
    curvature: np.ndarray
    curvature_max: float  # max(K_1..K_N, 0)
    curvature_min: float  # min(K_1..K_N, 0)
    potential: float | None


@dataclass(frozen=True)
class FlowResult:
    status: str  # converged | max_time_reached | left_admissible | diverged | error
    final_u: UCoords
    trace: tuple
    iterations: int

    def residuals(self, target: np.ndarray | None = None) -> np.ndarray:
        """Max-norm curvature residual at every trace sample."""
        tgt = 0.0 if target is None else np.asarray(target)
        return np.array(
            [float(np.max(np.abs(s.curvature - tgt))) for s in self.trace]
        )


def _validate_config(config: FlowConfig, n_vertices: int) -> np.ndarray:
    if config.variant not in VARIANTS:
        raise ConfigError(f"unknown variant {config.variant!r}")
    if config.integrator not in INTEGRATORS:
        raise ConfigError(f"unknown integrator {config.integrator!r}")
    for name in ("step", "max_time", "tolerance", "divergence_radius_cap"):
        if not 0 < getattr(config, name) < math.inf:
            raise ConfigError(f"{name} must be finite and positive")
    if config.sample_every < 1:
        raise ConfigError("sample_every must be a positive integer")
    if config.variant == "prescribed" and config.target is None:
        raise ConfigError("prescribed flow requires a target curvature")
    if config.variant == "extended" and config.target is not None:
        raise ConfigError("extended flow has a zero target; use variant='prescribed'")
    if config.target is None:
        return np.zeros(n_vertices)
    target = np.asarray(config.target, dtype=float)
    if target.shape != (n_vertices,):
        raise ConfigError("target length does not match the vertex count")
    if not np.all(np.isfinite(target)):
        raise ConfigError("target curvatures must be finite")
    return target


def residual(
    complex: SurfaceComplex,
    inversive: np.ndarray,
    u: UCoords,
    target: np.ndarray | None = None,
) -> float:
    """Max-norm residual max_i |K_i(u) - target_i| of the extended curvature."""
    values, _ = make_curvature_evaluator(complex, u.background, inversive)(u.values)
    tgt = np.zeros_like(values) if target is None else np.asarray(target, dtype=float)
    return float(np.max(np.abs(values - tgt)))


def run_flow(
    complex: SurfaceComplex,
    inversive: np.ndarray,
    u0: UCoords,
    config: FlowConfig,
) -> FlowResult:
    """Integrate u' = target - K(u) from u0 until convergence or cutoff.

    Stops when the residual stays within tolerance for three consecutive
    samples (converged), the time budget runs out (max_time_reached), a
    classical run hits the degenerate boundary (left_admissible), or the
    radii escape in either direction, past the divergence cap or below
    representable precision (diverged).  Raises StepError on a non-finite
    state.
    """
    target = _validate_config(config, complex.vertex_count)
    if len(u0.values) != complex.vertex_count:
        raise ConfigError("u0 does not match the vertex count")
    background = u0.background
    classical = config.variant == "classical"
    evaluate = make_curvature_evaluator(complex, background, inversive)

    def curvature_values(u_arr: np.ndarray) -> np.ndarray:
        values, degenerate = evaluate(u_arr)
        if classical and degenerate.any():
            raise _not_admissible(degenerate)
        return values

    ctx = (
        PotentialContext(complex, inversive, u0, target)
        if config.record_potential
        else None
    )

    dt = config.step
    n_steps = max(1, math.ceil(config.max_time / dt - 1e-12))
    u = u0.values.copy()
    k_now = curvature_values(u)  # classical: validates the start point
    trace: list[FlowSample] = []
    in_tolerance_streak = 0
    status = None
    step_index = 0

    # Trace potentials accumulate segment integrals between consecutive
    # samples; by closedness of the curvature 1-form this equals the
    # straight-segment potential from u0, and the short segments keep the
    # quadrature shallow even when the run crosses degeneration kinks.
    potential_state = {"value": 0.0, "anchor": u0.values.copy(), "dead": ctx is None}

    def sample_potential() -> float | None:
        if potential_state["dead"]:
            return None
        for tol in (1e-10, 1e-8):
            try:
                delta = segment_integral(ctx, potential_state["anchor"], u, tol)
            except QuadratureError:
                continue
            potential_state["value"] += delta
            potential_state["anchor"] = u.copy()
            return potential_state["value"]
        potential_state["dead"] = True
        return None

    def record() -> None:
        trace.append(
            FlowSample(
                t=step_index * dt,
                u=u.copy(),
                curvature=k_now.copy(),
                curvature_max=float(max(k_now.max(), 0.0)),
                curvature_min=float(min(k_now.min(), 0.0)),
                potential=sample_potential(),
            )
        )

    def advance(u_arr: np.ndarray, k1: np.ndarray) -> np.ndarray:
        if config.integrator == "euler":
            return u_arr + dt * (target - k1)
        f1 = target - k1
        f2 = target - curvature_values(u_arr + 0.5 * dt * f1)
        f3 = target - curvature_values(u_arr + 0.5 * dt * f2)
        f4 = target - curvature_values(u_arr + dt * f3)
        return u_arr + dt / 6.0 * (f1 + 2.0 * f2 + 2.0 * f3 + f4)

    while True:
        if step_index % config.sample_every == 0:
            record()
            if float(np.max(np.abs(k_now - target))) <= config.tolerance:
                in_tolerance_streak += 1
                if in_tolerance_streak >= _SUSTAINED_SAMPLES:
                    status = "converged"
                    break
            else:
                in_tolerance_streak = 0
        if step_index >= n_steps:
            status = "max_time_reached"
            break

        try:
            u_next = advance(u, k_now)
        except NotAdmissibleError:
            status = "left_admissible"
            break
        except DomainError:
            # Radii collapsed below representable precision mid-stage.
            status = "diverged"
            break
        if not np.isfinite(u_next).all():
            raise StepError(f"non-finite state at t={(step_index + 1) * dt:g}")
        if background is Background.HYPERBOLIC and (
            (u_next >= 0).any() or (u_next <= U_COORDINATE_FLOOR).any()
        ):
            status = "diverged"
            break
        radii = u_to_radii_array(u_next, background)
        if (radii > config.divergence_radius_cap).any():
            status = "diverged"
            break

        try:
            k_next = curvature_values(u_next)
        except NotAdmissibleError:
            status = "left_admissible"
            break
        u, k_now = u_next, k_next
        step_index += 1

    if step_index % config.sample_every != 0 or not trace or trace[-1].t != step_index * dt:
        record()

    return FlowResult(
        status=status,
        final_u=UCoords(u, background),
        trace=tuple(trace),
        iterations=step_index,
    )


# ---------------------------------------------------------------------------
# Stability certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityReport:
    """Linearization eigenvalue check plus an optional decay-rate fit."""

    smallest_eigenvalue: float
    certified: bool
    euclidean_gauge_projected: bool
    fitted_rate: float | None = None
    fit_r_squared: float | None = None
    fit_samples: int = 0


def _ones_complement_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the complement of (1,...,1), via a Householder
    reflection carrying the first coordinate axis onto the ones direction."""
    v = np.ones(n) / math.sqrt(n)
    w = v.copy()
    w[0] -= 1.0
    norm = np.linalg.norm(w)
    if norm < 1e-15:
        return np.eye(n)[:, 1:]
    w /= norm
    reflector = np.eye(n) - 2.0 * np.outer(w, w)
    return reflector[:, 1:]


def stability_certificate(
    complex: SurfaceComplex,
    inversive: np.ndarray,
    u_star: UCoords,
    trace: tuple | None = None,
    target: np.ndarray | None = None,
) -> StabilityReport:
    """Certify local exponential stability of a flow fixed point.

    Checks that the curvature Jacobian at u_star is positive definite (so
    the flow linearization is negative definite).  In euclidean background
    the Jacobian is singular along the all-ones scaling direction, so the
    check runs on its orthogonal complement.  When a trace is supplied the
    asymptotic decay rate is estimated by a least-squares fit of the log
    residual over the trace tail.
    """
    inv = np.asarray(inversive, dtype=float)
    metric = PackingMetric(
        u_star.background, inv, u_to_radii_array(u_star.values, u_star.background),
        permissive=bool(np.any(inv < 0)),
    )
    jac = curvature_jacobian(complex, metric)
    projected = u_star.background is Background.EUCLIDEAN
    if projected:
        basis = _ones_complement_basis(complex.vertex_count)
        eigs = np.linalg.eigvalsh(basis.T @ jac @ basis)
    else:
        eigs = np.linalg.eigvalsh(jac)
    smallest = float(eigs[0])

    fitted_rate = fit_r2 = None
    n_fit = 0
    if trace is not None and len(trace) >= 4:
        tgt = np.zeros(complex.vertex_count) if target is None else np.asarray(target)
        ts, logs = [], []
        for sample in trace:
            res = float(np.max(np.abs(sample.curvature - tgt)))
            if res > 1e-13:
                ts.append(sample.t)
                logs.append(math.log(res))
        tail = max(5, len(ts) // 3)
        ts, logs = np.array(ts[-tail:]), np.array(logs[-tail:])
        if len(ts) >= 3 and ts[-1] > ts[0]:
            slope, intercept = np.polyfit(ts, logs, 1)
            predicted = slope * ts + intercept
            ss_res = float(np.sum((logs - predicted) ** 2))
            ss_tot = float(np.sum((logs - logs.mean()) ** 2))
            fitted_rate = -float(slope)
            fit_r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
            n_fit = len(ts)

    return StabilityReport(
        smallest_eigenvalue=smallest,
        certified=smallest > 0,
        euclidean_gauge_projected=projected,
        fitted_rate=fitted_rate,
        fit_r_squared=fit_r2,
        fit_samples=n_fit,
    )
