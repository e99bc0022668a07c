"""Line-integral curvature potential and Newton descent on it.

The potential is the integral of the closed 1-form sum_i (K_i - Kbar_i) du_i
from a basepoint to u.  Because the curvature 1-form is closed and the
u-domain is convex (all of R^N for euclidean, the negative orthant for
hyperbolic), the straight segment between any two points stays in the
domain and the integral is path independent.  The gradient is K - Kbar
exactly, the Hessian on the smooth region is the curvature Jacobian, and
in hyperbolic background with inversive distances >= 0 the potential is
convex, which is what makes the Newton solver below globally reliable for
admissible targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .complexes import SurfaceComplex
from .curvature import _jacobian_blocks, make_curvature_evaluator
from .errors import (
    BoundaryError,
    ConfigError,
    MaxIterationsError,
    NoDescentError,
    QuadratureError,
)
from .packing import (
    Background,
    U_COORDINATE_FLOOR,
    UCoords,
    u_to_radii_array,
)

_ARMIJO_SLOPE_FRACTION = 1e-4
_MIN_STEP_FRACTION = 1e-12

#: conjugate gradients stops at this residual norm relative to the right side
_CG_TOLERANCE = 1e-13
#: and counts the matrix as not positive definite after this many steps
_CG_MAX_ITERATIONS = 2000


@dataclass(frozen=True)
class PotentialContext:
    """Complex, inversive distances, basepoint and target of one potential.

    A zero target gives the plain curvature potential; a nonzero target
    gives the prescribed-curvature potential used by the Newton solver.
    Every entry point that takes a complex and u-coordinates checks them
    here: the inversive distances, basepoint and target (one finite value
    per vertex) on construction, each further point by ``_point``.
    """

    complex: SurfaceComplex
    inversive: np.ndarray
    basepoint: UCoords
    target: np.ndarray | None = None

    def __post_init__(self):
        inv = np.asarray(self.inversive, dtype=float)
        object.__setattr__(self, "inversive", inv)
        # Validates the inversive distances once, for every later evaluation.
        evaluate = make_curvature_evaluator(self.complex, self.background, inv)
        object.__setattr__(self, "_evaluate", evaluate)
        self._point(self.basepoint)
        n = self.complex.vertex_count
        tgt = np.zeros(n) if self.target is None else np.asarray(self.target, dtype=float)
        if tgt.shape != (n,) or not np.isfinite(tgt).all():
            raise ConfigError(f"target must have {n} finite values")
        object.__setattr__(self, "target", tgt)

    @property
    def background(self) -> Background:
        return self.basepoint.background

    def _point(self, u: UCoords | np.ndarray) -> np.ndarray:
        """The values of a point of this context's u-space, given as UCoords
        or as raw values; ConfigError for another background or length."""
        if isinstance(u, UCoords):
            if u.background is not self.background:
                raise ConfigError("u-coordinates and context use different backgrounds")
            u = u.values
        values = np.asarray(u, dtype=float)
        if values.shape != (self.complex.vertex_count,):
            raise ConfigError(f"u-coordinates must have {self.complex.vertex_count} values")
        return values


def _adaptive_simpson(
    f, tolerance: float, max_depth: int = 60, max_evals: int = 50000
) -> float:
    """Integrate f over [0, 1] by adaptive Simpson with Richardson update.

    The depth cap is sized for integrands with square-root kinks (the
    curvature along a segment crossing a degeneration boundary), which
    need about 50 levels at tolerance 1e-10 under per-split halving.  The
    evaluation budget turns integrands that are noisy above tolerance
    (geometry at wildly mixed scales) into a clean failure instead of an
    exponentially large refinement tree.
    """
    evals = 0

    def feval(x):
        nonlocal evals
        evals += 1
        if evals > max_evals:
            raise QuadratureError(
                "adaptive quadrature exceeded its evaluation budget"
            )
        return f(x)

    def recurse(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = feval(lm), feval(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = left + right - whole
        if abs(err) <= 15.0 * tol:
            return left + right + err / 15.0
        if depth <= 0:
            raise QuadratureError(
                "adaptive quadrature hit its depth cap before reaching tolerance"
            )
        half = 0.5 * tol
        return recurse(a, m, fa, flm, fm, left, half, depth - 1) + recurse(
            m, b, fm, frm, fb, right, half, depth - 1
        )

    fa, fm, fb = feval(0.0), feval(0.5), feval(1.0)
    whole = (fa + 4.0 * fm + fb) / 6.0
    return recurse(0.0, 1.0, fa, fm, fb, whole, tolerance, max_depth)


def segment_integral(
    ctx: PotentialContext,
    u_from: np.ndarray,
    u_to: np.ndarray,
    tolerance: float = 1e-10,
) -> float:
    """Potential difference along the straight segment from u_from to u_to."""
    u_from, u_to = ctx._point(u_from), ctx._point(u_to)
    direction = u_to - u_from
    if not direction.any():
        return 0.0

    def integrand(s: float) -> float:
        k, _ = ctx._evaluate(u_from + s * direction)
        return float((k - ctx.target) @ direction)

    return _adaptive_simpson(integrand, tolerance)


def potential_value(ctx: PotentialContext, u: UCoords, tolerance: float = 1e-10) -> float:
    """Potential at u relative to the context basepoint (0 at the basepoint)."""
    return segment_integral(ctx, ctx.basepoint.values, ctx._point(u), tolerance)


def potential_gradient(ctx: PotentialContext, u: UCoords) -> np.ndarray:
    """Gradient of the potential at u; exactly curvature minus target."""
    return ctx._evaluate(ctx._point(u))[0] - ctx.target


@dataclass
class NewtonReport:
    """What happened during one newton_solve run."""

    iterations: int = 0
    residual: float = np.inf
    newton_steps: int = 0
    gradient_steps: int = 0
    residual_history: list = field(default_factory=list)


def _newton_direction(ctx: PotentialContext, u: np.ndarray, grad: np.ndarray):
    """Regularized Newton direction, or None when the Hessian is unusable.

    Solves (H + mu I) d = -grad for H = dK/du given by its per-face blocks,
    never as an N x N matrix.  mu climbs 0, 1e-10, 1e-9, ... while conjugate
    gradients finds H + mu I not positive definite, and gives up above 1e-2.
    """
    radii = u_to_radii_array(u, ctx.background)
    try:
        blocks = _jacobian_blocks(ctx.complex, ctx.background, radii, ctx.inversive)
    except BoundaryError:
        return None
    mu = 0.0
    while mu <= 1e-2:
        direction = _conjugate_gradient(blocks, ctx.complex.faces, mu, -grad)
        if direction is not None:
            return direction
        mu = 1e-10 if mu == 0.0 else mu * 10.0
    return None


def _conjugate_gradient(blocks, faces, mu, rhs):
    """Solve (H + mu I) x = rhs by Jacobi-preconditioned conjugate gradients.

    H is the sum of the per-face ``blocks`` placed at the ``faces``' vertices.
    Returns None when H + mu I shows itself not positive definite: a diagonal
    entry <= 0, a direction p with p.Ap <= 0, a non-finite value, or no
    convergence to relative residual _CG_TOLERANCE in _CG_MAX_ITERATIONS steps.
    """
    corners = faces.ravel()
    diagonal = np.bincount(corners, np.einsum("fpp->fp", blocks).ravel(), len(rhs)) + mu
    if not (diagonal > 0).all():
        return None
    x, r = np.zeros_like(rhs), rhs.copy()
    z = r / diagonal
    p, rz = z, float(r @ z)
    stop = _CG_TOLERANCE**2 * float(r @ r)
    for _ in range(_CG_MAX_ITERATIONS):
        if float(r @ r) <= stop:
            return x if np.isfinite(x).all() else None
        products = np.einsum("fpq,fq->fp", blocks, p[faces]).ravel()
        ap = np.bincount(corners, products, len(rhs)) + mu * p
        pap = float(p @ ap)
        if not pap > 0.0:  # also catches NaN
            return None
        x += rz / pap * p
        r -= rz / pap * ap
        z = r / diagonal
        rz, rz_last = float(r @ z), rz
        p = z + rz / rz_last * p
    return None


def _domain_ok(background: Background, u: np.ndarray) -> bool:
    if not np.isfinite(u).all():
        return False
    if background is Background.HYPERBOLIC:
        return bool((u < 0).all() and (u > U_COORDINATE_FLOOR).all())
    return True


def _line_search(ctx, u, direction, grad, residual):
    """Backtracking step along a descent direction.

    The Armijo test runs on potential differences integrated along the
    step segment, with the quadrature tolerance scaled to the decrease
    being resolved (integrating near degeneration kinks to 1e-12 would be
    needlessly deep).  Once the expected decrease falls below quadrature
    resolution, acceptance switches to a plain residual decrease.
    """
    slope = float(grad @ direction)
    if slope >= 0.0:
        return None
    s = 1.0
    while s >= _MIN_STEP_FRACTION:
        trial = u + s * direction
        if _domain_ok(ctx.background, trial):
            scale = abs(s * slope)
            if scale < 1e-9:
                k_trial, _ = ctx._evaluate(trial)
                if float(np.max(np.abs(k_trial - ctx.target))) < residual:
                    return trial
            else:
                quad_tol = max(1e-12, scale * 1e-3)
                try:
                    delta = segment_integral(ctx, u, trial, quad_tol)
                except QuadratureError:
                    delta = None
                if delta is not None and delta <= _ARMIJO_SLOPE_FRACTION * s * slope + 2.0 * quad_tol:
                    return trial
        s *= 0.5
    return None


def newton_solve(
    ctx: PotentialContext,
    u_init: UCoords,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> tuple[UCoords, NewtonReport]:
    """Minimize the prescribed-curvature potential by damped Newton descent.

    Hyperbolic background only, and every target curvature must be below
    2*pi.  On success the returned u realizes the target within ``tol`` in
    the max norm.  Raises NoDescentError when neither the Newton nor the
    gradient direction yields a descent step, and MaxIterationsError when
    the iteration budget runs out (the typical outcome for targets no
    metric can realize, where the iterates run off toward the boundary);
    both exceptions carry the last iterate and the report as ``last_u``
    and ``report`` attributes so callers can inspect the escape.
    """
    if ctx.background is not Background.HYPERBOLIC:
        raise ConfigError("newton_solve requires hyperbolic background")
    if np.any(ctx.target >= 2.0 * np.pi):
        raise ConfigError("every target curvature must be < 2*pi")
    u = ctx._point(u_init).copy()
    if max_iter < 0 or not 0 < tol < np.inf:
        raise ConfigError("max_iter must be >= 0 and tol must be finite and positive")

    report = NewtonReport()
    for iteration in range(max_iter + 1):
        grad = ctx._evaluate(u)[0] - ctx.target
        residual = float(np.max(np.abs(grad)))
        report.iterations = iteration
        report.residual = residual
        report.residual_history.append(residual)
        if residual <= tol:
            return UCoords(u, ctx.background), report
        if iteration == max_iter:
            break

        accepted = None
        direction = _newton_direction(ctx, u, grad)
        if direction is not None:
            accepted = _line_search(ctx, u, direction, grad, residual)
            if accepted is not None:
                report.newton_steps += 1
        if accepted is None:
            accepted = _line_search(ctx, u, -grad, grad, residual)
            if accepted is None:
                raise _solver_failure(
                    NoDescentError(f"no descent step found at residual {residual:.3e}"),
                    u, ctx.background, report,
                )
            report.gradient_steps += 1
        u = accepted

    raise _solver_failure(
        MaxIterationsError(
            f"newton_solve did not reach tol={tol:g} in {max_iter} iterations "
            f"(residual {report.residual:.3e})"
        ),
        u, ctx.background, report,
    )


def _solver_failure(error, u, background, report):
    error.last_u = UCoords(u, background)
    error.report = report
    return error
