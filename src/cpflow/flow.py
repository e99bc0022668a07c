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

from .complexes import SurfaceComplex, _is_integer, _is_positive_finite
from .curvature import _dense_hessian, _not_admissible
from .errors import (
    ConfigError,
    DomainError,
    NotAdmissibleError,
    QuadratureError,
    StepError,
)
from .packing import Background, UCoords, _u_domain
from .potential import PotentialContext, potential_gradient, segment_integral

VARIANTS = ("classical", "extended", "prescribed")
INTEGRATORS = ("rk4", "euler")

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
    target: np.ndarray  # the run's validated target curvature, zeros if none was given

    def residuals(self) -> np.ndarray:
        """Max-norm curvature residual against the target at every trace sample."""
        return np.array(
            [float(np.max(np.abs(s.curvature - self.target))) for s in self.trace]
        )


def _validate_config(config: FlowConfig) -> None:
    if config.variant not in VARIANTS:
        raise ConfigError(f"unknown variant {config.variant!r}")
    if config.integrator not in INTEGRATORS:
        raise ConfigError(f"unknown integrator {config.integrator!r}")
    for name in ("step", "max_time", "tolerance", "divergence_radius_cap"):
        if not _is_positive_finite(getattr(config, name)):
            raise ConfigError(f"{name} must be a finite and positive number")
    if not isinstance(config.record_potential, (bool, np.bool_)):
        raise ConfigError("record_potential must be a boolean")
    if not _is_integer(config.sample_every) or config.sample_every < 1:
        raise ConfigError("sample_every must be a positive integer")
    if config.variant == "prescribed" and config.target is None:
        raise ConfigError("prescribed flow requires a target curvature")
    if config.variant == "extended" and config.target is not None:
        raise ConfigError("extended flow has a zero target; use variant='prescribed'")


def residual(
    complex: SurfaceComplex,
    inversive: np.ndarray,
    u: UCoords,
    target: np.ndarray | None = None,
) -> float:
    """Max-norm residual max_i |K_i(u) - target_i| of the extended curvature."""
    ctx = PotentialContext(complex, inversive, u, target)
    return float(np.max(np.abs(potential_gradient(ctx, u))))


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
    _validate_config(config)
    # The context checks the inversive distances, u0 and the target; its
    # evaluator is the run's only one, for the steps and the trace potential.
    ctx = PotentialContext(complex, inversive, u0, config.target)
    target, background = ctx.target, ctx.background
    classical = config.variant == "classical"
    # A step whose min and max lie in (floor, ceiling] is finite, in the
    # domain and within the cap; a finite step outside has diverged.  The
    # evaluator's u-band test reads the same min and max.
    floor, ceiling = _u_domain(background, config.divergence_radius_cap)

    evaluate = ctx._evaluate
    if classical:
        def evaluate(u_arr: np.ndarray, extrema=None) -> tuple:
            evaluation = ctx._evaluate(u_arr, extrema)
            if np.count_nonzero(evaluation[1]):
                raise _not_admissible(evaluation[1])
            return evaluation

    dt = config.step
    n_steps = max(1, math.ceil(config.max_time / dt - 1e-12))
    euler = config.integrator == "euler"
    # the step's factors as 0-d arrays (see packing._TWO), each the value
    # that 0.5 * dt * f, dt / 6.0 * f and 2.0 * f multiply by
    h, half_h, sixth_h, two = (np.array(c) for c in (dt, 0.5 * dt, dt / 6.0, 2.0))
    u = u0.values.copy()
    now = evaluate(u)  # (K, degenerate mask) at u; classical: validates the start point
    trace: list[FlowSample] = []
    in_tolerance_streak = 0

    # Trace potentials accumulate segment integrals between consecutive
    # samples; by closedness of the curvature 1-form this equals the
    # straight-segment potential from u0.  Each segment reuses the
    # evaluations at its ends, the anchor's and the current one, and
    # segment_integral splits it where a face crosses the degenerate
    # boundary.  None once both quadrature tolerances have failed.
    potential = 0.0 if config.record_potential else None
    anchor, at_anchor = u.copy(), now

    def record(step_index: int) -> None:
        nonlocal potential, anchor, at_anchor
        if potential is not None:
            for tol in (1e-10, 1e-8):
                try:
                    potential += segment_integral(ctx, anchor, u, tol, ends=(at_anchor, now))
                except QuadratureError:
                    continue
                anchor, at_anchor = u.copy(), now
                break
            else:
                potential = None
        k_now = now[0]
        trace.append(
            FlowSample(
                t=step_index * dt,
                u=u.copy(),
                curvature=k_now.copy(),
                curvature_max=float(max(k_now.max(), 0.0)),
                curvature_min=float(min(k_now.min(), 0.0)),
                potential=potential,
            )
        )

    # A stage's u + h f may overflow to inf, which the screen below refuses.
    with np.errstate(over="ignore"):
        for step_index in range(n_steps + 1):
            if step_index % config.sample_every == 0:
                record(step_index)
                in_tolerance = float(np.max(np.abs(now[0] - target))) <= config.tolerance
                in_tolerance_streak = in_tolerance_streak + 1 if in_tolerance else 0
                if in_tolerance_streak >= _SUSTAINED_SAMPLES:
                    status = "converged"
                    break
            if step_index == n_steps:
                status = "max_time_reached"
                break

            f1 = target - now[0]
            # A refusal by any evaluation of the step, a stage's or its own, ends the run.
            try:
                if euler:
                    u_next = u + h * f1
                else:
                    f2 = target - evaluate(u + half_h * f1)[0]
                    f3 = target - evaluate(u + half_h * f2)[0]
                    f4 = target - evaluate(u + h * f3)[0]
                    u_next = u + sixth_h * (f1 + two * f2 + two * f3 + f4)
                extrema = np.minimum.reduce(u_next), np.maximum.reduce(u_next)
                if not (extrema[0] > floor and extrema[1] <= ceiling):
                    if not np.isfinite(u_next).all():
                        raise StepError(f"non-finite state at t={(step_index + 1) * dt:g}")
                    status = "diverged"
                    break
                now = evaluate(u_next, extrema)
            except NotAdmissibleError:
                status = "left_admissible"
                break
            except DomainError:
                # The kernel refused a point past the ends of u-space, in either direction.
                status = "diverged"
                break
            u = u_next

    if step_index % config.sample_every != 0:
        record(step_index)

    return FlowResult(
        status=status,
        final_u=UCoords(u, background),
        trace=tuple(trace),
        iterations=step_index,
        target=target,
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
    check runs on its orthogonal complement, by a rank-one lift of that
    direction above the spectrum.  When a trace is supplied the
    asymptotic decay rate is estimated by a least-squares fit of the log
    residual over the trace tail.
    """
    ctx = PotentialContext(complex, inversive, u_star, target)
    jac = _dense_hessian(*ctx._hessian(u_star.values))
    projected = u_star.background is Background.EUCLIDEAN
    if projected:
        # Lift the all-ones kernel to c = 1 + the Gershgorin bound, above the
        # spectrum; the complement of the ones direction keeps its eigenvalues.
        jac += (1.0 + np.abs(jac).sum(axis=1).max()) / complex.vertex_count
    smallest = float(np.linalg.eigvalsh(jac)[0])

    fitted_rate = fit_r2 = None
    n_fit = 0
    if trace is not None and len(trace) >= 4:
        ts, logs = [], []
        for sample in trace:
            res = float(np.max(np.abs(sample.curvature - ctx.target)))
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
