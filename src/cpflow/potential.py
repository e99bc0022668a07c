"""Line-integral curvature potential and Newton descent on it.

The potential is the integral of the closed 1-form sum_i (K_i - Kbar_i) du_i
from a basepoint to u.  Because the curvature 1-form is closed and the
u-domain is convex (all of R^N for euclidean, the negative orthant for
hyperbolic), the straight segment between any two points stays in the
domain and the integral is path independent.  The gradient is K - Kbar
exactly, the Hessian on the smooth region is the curvature Jacobian, and
in hyperbolic background with inversive distances >= 0 the potential is
convex, which is what makes the Newton solver below globally reliable for
admissible targets.  There the slope g(s) = (K(u + s d) - Kbar) . d is
nondecreasing, so Phi(u + s d) - Phi(u) <= s g(s), and the line search
accepts a trial with g(s) <= c g(0) by Armijo's rule without integrating.

Every potential difference is the integral of (K - Kbar) . d along a
segment u_from + s d, s in [0, 1], by one rule: adaptive Clenshaw-Curtis
on nested Chebyshev points (``_adaptive_clenshaw_curtis``), which
converges geometrically on an analytic integrand.  The integrand is smooth
except where a face crosses the degenerate boundary.  There an extended
angle behaves like the square root of the distance to the crossing, which
no polynomial rule resolves, and bisection toward it costs about 2,100
nodes at tolerance 1e-10.  ``segment_integral`` therefore watches the
degenerate-face masks of its evaluations.  Where two of them differ, it
locates each flipping face's crossing from that face's three edges alone,
splits the segment there, and integrates each piece with a crossing at an
end in t, s = a + (b - a)(3t^2 - 2t^3), whose flat ends make the square
root smooth.  A segment without a crossing stays one piece, without the
substitution, which would triple its nodes.  Callers pass the evaluations
they already hold at the segment's ends, so a short smooth segment costs
a handful of nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angles import extended_angles_batch
from .complexes import _DOUBLE_TRIANGLE, SurfaceComplex, _is_integer, _is_positive_finite
from .curvature import _dense_hessian, _hessian, make_curvature_evaluator
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
    _edge_lengths_arrays,
    _misfit,
    _u_factors,
    check_inversive,
)

_ARMIJO_SLOPE_FRACTION = 1e-4
_MIN_STEP_FRACTION = 1e-12

#: bisections below one piece, and evaluations per integral, before QuadratureError
_MAX_DEPTH = 60
_MAX_EVALS = 50000
#: a crossing is located to within _ROOT_SCALE * tolerance^(2/3) in s, as a
#: square-root kink that close to the end of a piece moves its integral by
#: about that width^1.5; crossings closer than that are one cut, and one that
#: close to an end of its piece is that end
_ROOT_SCALE = 1e-2
#: crossings are searched on this many points per step, for at most this
#: many steps (32^12 = 2^60 narrows any bracket in [0, 1] to rounding)
_ROOT_POINTS = 31
_ROOT_STEPS = 12

#: conjugate gradients stops at this residual norm relative to the right side
_CG_TOLERANCE = 1e-13
#: and counts the matrix as not positive definite after this many steps
_CG_MAX_ITERATIONS = 2000
#: Newton directions on at most this many vertices solve a dense Hessian by
#: Cholesky; above it, conjugate gradients costs less
_DENSE_VERTEX_LIMIT = 100


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
        # Read-only, so the Hessian sees the values the evaluator checked.
        inv = check_inversive(self.inversive, self.complex, permissive=True)
        object.__setattr__(self, "inversive", inv)
        evaluate = make_curvature_evaluator(self.complex, self.background, inv)
        object.__setattr__(self, "_evaluate", evaluate)
        # The paper's extension: the potential is convex for I >= 0 in hyperbolic background.
        convex = self.background is Background.HYPERBOLIC and not (inv < 0).any()
        object.__setattr__(self, "_convex", convex)
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
            raise _misfit(f"u-coordinates of shape {values.shape}", self.complex)
        return values

    def _hessian(self, u: np.ndarray):
        """dK/du at the u-values u: ``curvature._hessian`` on their ``_u_factors``."""
        factors = _u_factors(self.background, u)
        return _hessian(self.complex, self.background, factors, self.inversive)


class _Budget:
    """Evaluations left to one integral, shared by all of its pieces."""

    def __init__(self, evaluations: int = _MAX_EVALS):
        self.left = evaluations

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise QuadratureError("adaptive quadrature exceeded its evaluation budget")


def _clenshaw_curtis_rule(levels: int):
    """Nested Clenshaw-Curtis nodes and weights on [0, 1].

    Returns the nodes x_j = (1 - cos(j pi / n))/2 = sin(j pi / 2n)^2 of
    n = 2^levels intervals, with the ends exactly 0 and 1, the middle
    exactly 1/2 and x_(n-j) = 1 - x_j, and for each level l <= levels the
    weights of its nodes, every (n / 2^l)-th of them.
    """
    n = 1 << levels
    below = [math.sin(j * math.pi / (2 * n)) ** 2 for j in range(n // 2)]
    nodes = (*below, 0.5, *(1.0 - x for x in reversed(below)))
    weights = []
    for level in range(levels + 1):
        m = 1 << level
        # w_k = (c_k / 2m)(1 - sum_j b_j cos(2 pi j k / m) / (4 j^2 - 1)), with
        # c_k = 1 at the ends and 2 inside, b_j = 1 at j = m/2 and 2 below it;
        # the upper half mirrors the lower, so that w_(m-k) = w_k exactly
        lower = [
            (1 if k == 0 else 2) / (2 * m) * math.fsum(
                [1.0] + [-(1 if 2 * j == m else 2) * math.cos(2 * math.pi * (j * k % m) / m)
                         / (4 * j * j - 1) for j in range(1, m // 2 + 1)]
            )
            for k in range(m // 2 + 1)
        ]
        weights.append((*lower, *reversed(lower[: (m + 1) // 2])))
    return nodes, tuple(weights)


#: Clenshaw-Curtis levels per piece before it is bisected; level l has 2^l
#: intervals, and the last adds 16 nodes
_CC_LEVELS = 5
_CC_NODES, _CC_WEIGHTS = _clenshaw_curtis_rule(_CC_LEVELS)


def _adaptive_clenshaw_curtis(
    f, tolerance: float, ends=(None, None), budget: _Budget | None = None,
    max_depth: int = _MAX_DEPTH,
) -> float:
    """Integrate f over [0, 1] by adaptive nested Clenshaw-Curtis quadrature.

    Level l of a piece evaluates the 2^(l-1) nodes of the 2^l-interval
    Chebyshev grid that level l - 1 lacks; the piece is accepted when two
    successive levels agree within its tolerance.  After _CC_LEVELS levels
    it is bisected with half the tolerance each, the children reusing its
    ends and middle.  ``ends`` holds f(0) and f(1) where the caller
    already has them.  Every evaluation made here is charged to ``budget``
    (a fresh one of _MAX_EVALS evaluations if None); QuadratureError when
    it runs out or a piece would need more than ``max_depth`` bisections.
    """
    budget = _Budget() if budget is None else budget

    def feval(x: float) -> float:
        budget.spend()
        return f(x)

    f0, f1 = (feval(x) if given is None else given for x, given in zip((0.0, 1.0), ends))
    return _clenshaw_curtis_piece(feval, 0.0, 1.0, f0, f1, tolerance, max_depth)


def _clenshaw_curtis_piece(f, a, b, fa, fb, tol, depth) -> float:
    """Nested Clenshaw-Curtis on [a, b] from f(a) = fa and f(b) = fb."""
    width = b - a
    n = 1 << _CC_LEVELS
    values = [fa] + [0.0] * (n - 1) + [fb]
    previous = 0.5 * width * (fa + fb)
    for level in range(1, _CC_LEVELS + 1):
        stride = n >> level
        for j in range(stride, n, 2 * stride):
            values[j] = f(a + width * _CC_NODES[j])
        estimate = width * math.fsum(w * v for w, v in zip(_CC_WEIGHTS[level], values[::stride]))
        if abs(estimate - previous) <= tol:
            return estimate
        previous = estimate
    if depth <= 0:
        raise QuadratureError("adaptive quadrature hit its depth cap before reaching tolerance")
    m, fm = a + width * 0.5, values[n // 2]
    return _clenshaw_curtis_piece(f, a, m, fa, fm, 0.5 * tol, depth - 1) + _clenshaw_curtis_piece(
        f, m, b, fm, fb, 0.5 * tol, depth - 1
    )


class _Crossing(Exception):
    """Raised inside a piece whose evaluations disagree on some faces."""

    def __init__(self, s_known: float, s_new: float, faces: np.ndarray):
        super().__init__()
        self.s_known, self.s_new, self.faces = s_known, s_new, faces


def _face_states(ctx, u_from, direction, faces):
    """Whether each of ``faces`` is degenerate at u_from + s direction, as a
    function of an (faces, points) array of parameters s: the mask of
    ``extended_angles_batch``, each (face, point) as the double's first face."""
    vertices = ctx.complex.faces[faces][:, None]  # (faces, 1, 3 slots)
    u_corners, d_corners = u_from[vertices], direction[vertices]
    inversive = ctx.inversive[ctx.complex.face_opposite_edges[faces]][:, None]

    def states(s: np.ndarray) -> np.ndarray:
        # u_from[v] + s d[v], as the evaluator computes it at s; copy c holds
        # the vertices and the edges 3c, 3c + 1 and 3c + 2
        u = (u_corners + s[:, :, None] * d_corners).ravel()
        copies = np.arange(0, len(u), 3)[:, None]
        inv = np.broadcast_to(inversive, s.shape + (3,)).ravel()
        ends = [(copies + end).ravel() for end in _DOUBLE_TRIANGLE.edges.T]
        edges = _edge_lengths_arrays(ctx.background, _u_factors(ctx.background, u), *ends, inv)
        tables = [copies + table[0] for table in _DOUBLE_TRIANGLE.face_edge_tables]
        return extended_angles_batch(ctx.background, *edges, tables)[1].reshape(s.shape)

    return states


def _crossings(ctx, u_from, direction, faces, s_a, s_b, width):
    """Where ``faces`` cross the degenerate boundary between s_a and s_b.

    Each step evaluates the faces' ``_face_states`` at the ends and
    _ROOT_POINTS interior points of every bracket at once, as so small an
    array costs about what one point does, and keeps the first cell where
    the state changes, until the brackets are narrower than ``width``.
    Returns the faces whose state differs at the ends with the midpoints
    of their brackets, and the faces whose state does not.
    """
    face_states = _face_states(ctx, u_from, direction, faces)
    lo, hi = np.full(len(faces), min(s_a, s_b)), np.full(len(faces), max(s_a, s_b))
    rows, fractions = np.arange(len(faces)), np.arange(_ROOT_POINTS + 2) / (_ROOT_POINTS + 1)
    flips = None
    for _ in range(_ROOT_STEPS):
        grid = lo[:, None] + (hi - lo)[:, None] * fractions
        states = face_states(grid)
        if flips is None:
            flips = states[:, 0] != states[:, -1]
            hi[~flips] = lo[~flips]
        # the first grid point past the crossing; none once rounding merges them
        changed = states != states[:, :1]
        first = changed.argmax(axis=1)
        narrow = flips & changed.any(axis=1)
        lo = np.where(narrow, grid[rows, first - 1], lo)
        hi = np.where(narrow, grid[rows, first], hi)
        if not (hi - lo > width).any():
            break
    return faces[flips], 0.5 * (lo + hi)[flips], faces[~flips]


def segment_integral(
    ctx: PotentialContext,
    u_from: np.ndarray,
    u_to: np.ndarray,
    tolerance: float = 1e-10,
    *,
    ends=(None, None),
) -> float:
    """Potential difference along the straight segment from u_from to u_to.

    ``ends`` holds what the context's evaluator returned at u_from and at
    u_to, a (curvature, degenerate-face mask) pair, where the caller already
    has it, and None for an end to evaluate here; the value is the same
    either way.  The segment is split where a face crosses the degenerate
    boundary, which shows as evaluations whose masks differ; each piece
    with such a kinked end is integrated in t, s = a + (b - a)(3t^2 - 2t^3),
    whose flat ends turn the angles' square-root behaviour smooth.
    """
    u_from, u_to = ctx._point(u_from), ctx._point(u_to)
    if not _is_positive_finite(tolerance):
        raise ConfigError("quadrature tolerance must be a finite and positive number")
    direction = u_to - u_from
    if not direction.any():
        return 0.0
    budget = _Budget()
    known = []
    for point, given in zip((u_from, u_to), ends):
        if given is None:
            budget.spend()
            given = ctx._evaluate(point)
        known.append(given)
    (k_from, mask_from), (k_to, mask_to) = known

    def value(k: np.ndarray) -> float:
        return float((k - ctx.target) @ direction)

    def piece(a: float, b: float, ignore: np.ndarray) -> float:
        reference = []

        def check(s: float, mask: np.ndarray) -> None:
            if not reference:
                reference.append((s, mask, mask.tobytes()))
                return
            s_known, known_mask, known_bytes = reference[0]
            if mask.tobytes() != known_bytes:  # cheaper than an array compare
                flipped = (mask != known_mask) & ~ignore
                if flipped.any():
                    raise _Crossing(s_known, s, np.flatnonzero(flipped))

        def node(s: float) -> float:
            k, mask = ctx._evaluate(u_from + s * direction)
            check(s, mask)
            return value(k)

        if a == 0.0:
            check(0.0, mask_from)
        if b == 1.0:
            check(1.0, mask_to)
        if a == 0.0 and b == 1.0:
            return _adaptive_clenshaw_curtis(node, tolerance, (value(k_from), value(k_to)), budget)
        span = b - a

        def substituted(t: float) -> float:
            s = min(a + span * (t * t * (3.0 - 2.0 * t)), b)
            return node(s) * 6.0 * span * t * (1.0 - t)

        return _adaptive_clenshaw_curtis(substituted, tolerance * span, (0.0, 0.0), budget)

    # The pieces run between consecutive cuts; an interior cut is a crossing,
    # so both pieces next to it have a kinked end.
    cuts = [0.0, 1.0]
    root_width = _ROOT_SCALE * tolerance ** (2.0 / 3.0)
    total, i = 0.0, 0
    ignore = np.zeros(len(mask_from), dtype=bool)
    while i + 1 < len(cuts):
        a, b = cuts[i], cuts[i + 1]
        try:
            total += piece(a, b, ignore)
        except _Crossing as crossing:
            flipping, roots, stray = _crossings(
                ctx, u_from, direction, crossing.faces, crossing.s_known, crossing.s_new, root_width
            )
            # A face whose crossing is an end of this piece, or which the
            # search does not see flip, differs by rounding at a cut.
            inside = (roots - a > root_width) & (b - roots > root_width)
            ignore[stray] = ignore[flipping[~inside]] = True
            new = []
            for root in sorted(roots[inside].tolist()):
                if root - (new[-1] if new else a) > root_width:
                    new.append(root)
            cuts[i + 1 : i + 1] = new
            continue
        i += 1
        ignore[:] = False
    return total


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


def _newton_direction(ctx: PotentialContext, u: np.ndarray, grad: np.ndarray):
    """Regularized Newton direction, or None when the Hessian is unusable.

    Solves (H + mu I) d = -grad for H = dK/du, its per-face blocks summed
    once into N diagonal and 2E edge entries.  mu climbs 0, 1e-10, 1e-9, ...
    while H + mu I shows itself not positive definite, and gives up above
    1e-2.  On at most _DENSE_VERTEX_LIMIT vertices H is formed as a matrix,
    and Cholesky decides each mu; on more, conjugate gradients on the
    entries decides it, and no N x N matrix is formed.
    """
    try:
        hessian = ctx._hessian(u)
    except BoundaryError:
        return None
    dense = _dense_hessian(*hessian) if len(grad) <= _DENSE_VERTEX_LIMIT else None
    mu = 0.0
    while mu <= 1e-2:
        if dense is None:
            direction = _conjugate_gradient(*hessian, mu, -grad)
        else:
            direction = _cholesky_solve(dense, mu, -grad)
        if direction is not None:
            return direction
        mu = 1e-10 if mu == 0.0 else mu * 10.0
    return None


def _cholesky_solve(matrix, mu, rhs):
    """Solve (matrix + mu I) x = rhs, or None when the shifted matrix shows
    itself not positive definite: the Cholesky factorization fails, the
    solve finds it singular, or x is not finite."""
    shifted = matrix + mu * np.eye(len(rhs)) if mu else matrix
    try:
        np.linalg.cholesky(shifted)
        x = np.linalg.solve(shifted, rhs)
    except np.linalg.LinAlgError:
        return None
    return x if np.isfinite(x).all() else None


def _conjugate_gradient(diagonal, rows, cols, couplings, mu, rhs):
    """Solve (H + mu I) x = rhs by Jacobi-preconditioned conjugate gradients.

    H is given by ``PotentialContext._hessian``'s entries: its ``diagonal``, and
    H[rows[k], cols[k]] = couplings[k] for both orientations of every edge.
    Returns None when H + mu I shows itself not positive definite: a diagonal
    entry <= 0, a direction p with p.Ap <= 0, a non-finite value, or no
    convergence to relative residual _CG_TOLERANCE in _CG_MAX_ITERATIONS steps.
    """
    n = len(rhs)
    diagonal = diagonal + mu
    if not (diagonal > 0).all():
        return None
    x, r = np.zeros_like(rhs), rhs.copy()
    z = r / diagonal
    p, rz = z, float(r @ z)
    stop = _CG_TOLERANCE**2 * float(r @ r)
    for _ in range(_CG_MAX_ITERATIONS):
        if float(r @ r) <= stop:
            return x if np.isfinite(x).all() else None
        ap = np.bincount(rows, couplings * p[cols], n) + diagonal * p
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


def _line_search(ctx, u, direction, grad, residual, at_u):
    """Backtracking step along a descent direction.

    On a convex context a trial whose slope g(s) = (K - Kbar) . d is at most
    c g(0) passes the Armijo test exactly, as the potential's decrease is at
    most s g(s) there.  Other trials, past the line's minimum or on a
    context with some I < 0, run the test on potential differences
    integrated along the step segment, with the quadrature tolerance scaled
    to the decrease being resolved (integrating near degeneration kinks to
    1e-12 would be needlessly deep).  Once the expected decrease falls below
    quadrature resolution, acceptance switches to a plain residual decrease.
    ``at_u`` is the evaluation at u; the accepted point is returned with its own.
    """
    slope = float(grad @ direction)
    if slope >= 0.0:
        return None
    s = 1.0
    while s >= _MIN_STEP_FRACTION:
        trial = u + s * direction
        if _domain_ok(ctx.background, trial):
            scale = abs(s * slope)
            at_trial = ctx._evaluate(trial)
            grad_trial = at_trial[0] - ctx.target
            if scale < 1e-9:
                if float(np.max(np.abs(grad_trial))) < residual:
                    return trial, at_trial
            elif ctx._convex and grad_trial @ direction <= _ARMIJO_SLOPE_FRACTION * slope:
                return trial, at_trial
            else:
                quad_tol = max(1e-12, scale * 1e-3)
                try:
                    delta = segment_integral(ctx, u, trial, quad_tol, ends=(at_u, at_trial))
                except QuadratureError:
                    delta = None
                if delta is not None and delta <= _ARMIJO_SLOPE_FRACTION * s * slope + 2.0 * quad_tol:
                    return trial, at_trial
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
    if not _is_integer(max_iter):
        raise ConfigError(f"max_iter must be an integer, got {max_iter!r}")
    if max_iter < 0 or not _is_positive_finite(tol):
        raise ConfigError("max_iter must be >= 0 and tol must be a finite and positive number")

    report = NewtonReport()
    at_u = ctx._evaluate(u)
    for iteration in range(max_iter + 1):
        grad = at_u[0] - ctx.target
        residual = float(np.max(np.abs(grad)))
        report.iterations = iteration
        report.residual = residual
        if residual <= tol:
            return UCoords(u, ctx.background), report
        if iteration == max_iter:
            break

        accepted = None
        direction = _newton_direction(ctx, u, grad)
        if direction is not None:
            accepted = _line_search(ctx, u, direction, grad, residual, at_u)
            if accepted is not None:
                report.newton_steps += 1
        if accepted is None:
            accepted = _line_search(ctx, u, -grad, grad, residual, at_u)
            if accepted is None:
                raise _solver_failure(
                    NoDescentError(f"no descent step found at residual {residual:.3e}"),
                    u, ctx.background, report,
                )
            report.gradient_steps += 1
        u, at_u = accepted

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
