"""Packing metrics: inversive distances, radii, u-coordinates, edge lengths.

A packing metric assigns a radius to every vertex; together with a per-edge
inversive distance it induces edge lengths

    euclidean:   l^2 = r_i^2 + r_j^2 + 2 r_i r_j I_ij
    hyperbolic:  cosh l = cosh r_i cosh r_j + I_ij sinh r_i sinh r_j

The hyperbolic kernels below avoid the catastrophic cancellation of the
naive formulas at small radii by working with cosh(x) - 1 = 2 sinh^2(x/2).
The length kernel reads per-vertex factors: a metric's radii enter through
``_radius_factors``, and u-space (flow, potential, Newton) through
``_u_factors``, which forms no radii; ``u_to_radii_array`` serves outputs.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .complexes import SurfaceComplex
from .errors import ConfigError, DomainError, RangeError

#: cosh/sinh arguments above this overflow double precision downstream.
HYPERBOLIC_SIZE_LIMIT = 350.0

#: cosh(l) - 1 at the size limit: a larger excess is a longer edge.
_EXCESS_LIMIT = float(np.cosh(HYPERBOLIC_SIZE_LIMIT)) - 1.0

#: ln tanh(175), which ``radii_to_u_array`` rounds to -2 e^-350: a radius is
#: above the size limit exactly when its u is above this.
_U_SIZE_LIMIT = -2.0 * float(np.exp(-HYPERBOLIC_SIZE_LIMIT))

#: the floor of hyperbolic u-space in ``_u_domain`` (radius 1.03e-130), and
#: the low end of ``_u_band`` in both backgrounds.  The length kernel goes on
#: below it, exactly, until an excess of order r^2 leaves the normal doubles.
U_COORDINATE_FLOOR = -300.0

#: the largest u whose e^u is finite: ln of the largest double.
_U_EXP_LIMIT = float(np.log(np.finfo(float).max))

#: the largest negative double, the top of hyperbolic u-space (u < 0).
_U_NEGATIVE_MAX = -math.ulp(0.0)

#: the smallest normal double: a smaller excess has lost bits to underflow.
_TINY = float(np.finfo(float).tiny)


class Background(Enum):
    """Model geometry realizing the face lengths."""

    EUCLIDEAN = "euclidean"
    HYPERBOLIC = "hyperbolic"

    @property
    def area_weight(self) -> int:
        """Weight of the area term in the total-curvature identity (0 or 1)."""
        return 1 if self is Background.HYPERBOLIC else 0


#: the members as module names: read through the class, a member costs
#: about 0.15 us in CPython 3.11, which the per-evaluation checks avoid
_EUCLIDEAN, _HYPERBOLIC = Background.EUCLIDEAN, Background.HYPERBOLIC


def _as_readonly(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


#: constant operands of the hot path as 0-d arrays: NumPy 2 resolves a Python
#: float operand's type on every call, about 0.2 us, and a 0-d array's not
_TWO, _MINUS_TWO = _as_readonly(2.0), _as_readonly(-2.0)

#: the stand-in for ``np.errstate`` where ``screen=False`` shows nothing can overflow
_NO_ERRSTATE = nullcontext()


def _misfit(what: str, complex: SurfaceComplex) -> ConfigError:
    return ConfigError(f"{what} does not fit a complex with {complex.vertex_count} "
                       f"vertices and {complex.edge_count} edges")


def check_inversive(
    inversive, complex: SurfaceComplex | None = None, permissive: bool = False
) -> np.ndarray:
    """The inversive distances as a read-only float array, checked by the rule
    every entry point shares: one value per edge of ``complex`` (ConfigError;
    without a complex, one dimension or DomainError), each finite and > -1,
    and >= 0 unless ``permissive`` (DomainError)."""
    inv = _as_readonly(inversive)
    if complex is not None and inv.shape != (complex.edge_count,):
        raise _misfit(f"inversive array of shape {inv.shape}", complex)
    if inv.ndim != 1:
        raise DomainError("inversive distances must be one-dimensional")
    if not np.isfinite(inv).all():
        raise DomainError("inversive distances must be finite")
    if (inv <= -1).any():
        raise DomainError("inversive distances must be > -1")
    if not permissive and (inv < 0).any():
        raise DomainError("negative inversive distances require permissive=True")
    return inv


def check_radii(radii, complex: SurfaceComplex | None = None) -> np.ndarray:
    """The radii as a read-only float array, checked by the rule every entry
    point shares: one dimension (DomainError), one value per vertex of
    ``complex`` (ConfigError), each finite and > 0 (DomainError)."""
    r = _as_readonly(radii)
    if r.ndim != 1:
        raise DomainError("radii must be one-dimensional")
    if complex is not None and len(r) != complex.vertex_count:
        raise _misfit(f"radii array of length {len(r)}", complex)
    if not np.isfinite(r).all():
        raise DomainError("radii must be finite")
    if (r <= 0).any():
        raise DomainError("radii must be positive")
    return r


@dataclass(frozen=True)
class PackingMetric:
    """Background geometry, per-edge inversive distance and per-vertex radii.

    By default inversive distances must be >= 0, the standing hypothesis of
    every convergence and rigidity statement implemented here.  Values in
    (-1, 0) are accepted only with ``permissive=True`` and carry no such
    guarantees.
    """

    background: Background
    inversive: np.ndarray
    radii: np.ndarray
    permissive: bool = False

    def __post_init__(self):
        inversive = check_inversive(self.inversive, permissive=self.permissive)
        object.__setattr__(self, "inversive", inversive)
        object.__setattr__(self, "radii", check_radii(self.radii))

    def with_radii(self, radii) -> "PackingMetric":
        return PackingMetric(self.background, self.inversive, radii, self.permissive)


@dataclass(frozen=True)
class UCoords:
    """Flow coordinates: u = ln tanh(r/2) (hyperbolic, u < 0) or u = ln r."""

    values: np.ndarray
    background: Background

    def __post_init__(self):
        object.__setattr__(self, "values", _as_readonly(self.values))
        if not np.isfinite(self.values).all():
            raise DomainError("u-coordinates must be finite")
        if self.background is Background.HYPERBOLIC and (self.values >= 0).any():
            raise DomainError("hyperbolic u-coordinates must be negative")


def _size_error(what: str) -> RangeError:
    return RangeError(f"{what} above {HYPERBOLIC_SIZE_LIMIT:g} would overflow cosh/sinh")


def _check_hyperbolic_sizes(values: np.ndarray, what: str) -> None:
    if np.count_nonzero(values > HYPERBOLIC_SIZE_LIMIT):
        raise _size_error(what)


def _require_defined(defined: np.ndarray, message: str) -> None:
    """DomainError unless every edge length is defined; its ``edge`` attribute
    indexes the first edge whose length is not."""
    if np.count_nonzero(defined) < defined.size:
        error = DomainError(message)
        error.edge = int(np.argmin(defined))
        raise error


def _radius_factors(background: Background, radii: np.ndarray):
    """Per-vertex factors of the length kernel from radii: r (euclidean), or
    (T, P) = (cosh r - 1, sinh r), T as 2 sinh^2(r/2) (hyperbolic), where a
    radius above the size limit raises RangeError."""
    if background is Background.EUCLIDEAN:
        return radii
    _check_hyperbolic_sizes(radii, "radii")
    half = np.sinh(0.5 * radii)
    t = 2.0 * half
    t *= half
    return t, np.sinh(radii)


def _hyperbolic_x(u: np.ndarray, u_max: float = _U_NEGATIVE_MAX) -> np.ndarray:
    """x = e^u = tanh(r/2) of hyperbolic u-coordinates, refused in this order:
    DomainError for u >= 0 and for an x that underflows to 0, RangeError for
    another u above ``u_max`` (by default the largest negative double)."""
    # Screen, then diagnose: one reduction rules out the first and last refusal.
    above = 0
    if not np.maximum.reduce(u, axis=None, initial=-np.inf) <= u_max:
        above = np.count_nonzero(u > u_max)
        if above and np.count_nonzero(u >= 0):
            raise DomainError("hyperbolic u-coordinates must be negative")
    x = _nonzero_exp(u)
    if above:
        raise _size_error("radii")
    return x


def _nonzero_exp(u: np.ndarray) -> np.ndarray:
    """e^u, refused with DomainError where it underflows to 0."""
    x = np.exp(u)
    if np.count_nonzero(x) < x.size:
        raise DomainError("radius underflow: u-coordinate too negative")
    return x


def _u_factors(background: Background, u: np.ndarray, *, screen: bool = True):
    """The factors of ``_radius_factors`` at u-coordinates u, with no radii
    formed: r = e^u (euclidean), or, with x = e^u and 1 - x^2 = -expm1(2u),
    P = 2x / (1 - x^2) and T = x P (hyperbolic), within about an ulp of the
    exact values.  Refused as the radii of u would be, a radius above the
    size limit as u > ln tanh(175); a euclidean e^u that would overflow to
    inf or underflow to 0 is a DomainError.  ``screen=False`` leaves out
    every refusal, for u inside the ``_u_band`` of the caller's inversive
    distances, where none can fire."""
    if background is _EUCLIDEAN:
        if not screen:
            return np.exp(u)
        # Screened before np.exp, whose overflow would warn.
        if (not np.maximum.reduce(u, axis=None, initial=-np.inf) <= _U_EXP_LIMIT
                and np.count_nonzero(u > _U_EXP_LIMIT)):
            raise DomainError("radius overflow: u-coordinate too large")
        return _nonzero_exp(u)
    x = _hyperbolic_x(u, _U_SIZE_LIMIT) if screen else np.exp(u)
    p = np.expm1(u + u)
    np.divide(_MINUS_TWO * x, p, out=p)
    return x * p, p


def _u_domain(background: Background, radius_cap: float = math.inf) -> tuple[float, float]:
    """(floor, ceiling], where every flow step and Newton trial must land.
    Hyperbolic: above ``U_COORDINATE_FLOOR``, below 0 and at most
    ln tanh(cap/2).  Euclidean: no floor, as the kernel refuses a collapsed
    length, and at most ln cap, or ln of the largest double.  An infinite
    cap, the line search's, bounds no u, nor does one that
    ``radii_to_u_array`` refuses (ln tanh(cap/2) = 0)."""
    u_cap = math.inf
    if radius_cap < math.inf:
        try:
            u_cap = float(radii_to_u_array(np.array([radius_cap]), background)[0])
        except DomainError:
            pass
    if background is _EUCLIDEAN:
        return -math.inf, min(u_cap, _U_EXP_LIMIT)
    return U_COORDINATE_FLOOR, min(u_cap, _U_NEGATIVE_MAX)


def _u_band(background: Background, inv: np.ndarray) -> tuple[float, float]:
    """[lo, hi]: while every u lies in it, no refusal of ``_u_factors`` or
    ``_edge_lengths_arrays`` can fire for the inversive distances ``inv``
    (each > -1), and no step of theirs overflows.  Empty (lo > hi) where
    none is proven.  lo is ``U_COORDINATE_FLOOR`` in both backgrounds.

    Hyperbolic, for I >= 0 (empty otherwise, as I P_i P_j < 0 can cancel
    the excess): at u >= lo, T >= 2 e^(2u) >= 1e-261, so the excess is
    a normal double.  hi = ln tanh(r*/2) with r* = (350 - log1p(I_max)) / 2 - 2,
    so cosh l <= (1 + I_max) cosh^2 r* <= e^346 < cosh 350 - 1 with a
    margin of 27 for rounding, and I P_i P_j, T_i T_j and the angle
    stage's products of excesses stay below e^692.  Empty where r* <= 0.

    Euclidean: r >= e^-300 and 1 + I >= 2^-53 keep each factor of
    2 (1 + I) r_i r_j, hence l^2, a normal double.  hi = (ln(max double)
    - log1p(2 (1 + I_max))) / 2 - 2 keeps l^2 <= (1 + 2 (1 + I_max)) r^2
    below e^-4 times the largest double; empty where 2 (1 + I_max)
    overflows."""
    i_max = float(inv.max(initial=0.0))
    if background is _EUCLIDEAN:
        return U_COORDINATE_FLOOR, 0.5 * (_U_EXP_LIMIT - math.log1p(2.0 * (1.0 + i_max))) - 2.0
    r_max = 0.5 * (HYPERBOLIC_SIZE_LIMIT - math.log1p(i_max)) - 2.0
    if r_max <= 0.0 or inv.min(initial=0.0) < 0.0:
        return U_COORDINATE_FLOOR, -math.inf
    return U_COORDINATE_FLOOR, float(radii_to_u_array(np.array([r_max]), background)[0])


def _edge_lengths_arrays(
    background: Background, factors, tail, head, inv: np.ndarray, *, screen: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Excesses e and x' = sinh l or l of the edges joining the vertices
    ``tail`` and ``head`` (index arrays into the per-vertex ``factors``):
    the per-edge stage of every curvature evaluation, from which the lengths
    follow as ``_lengths``, exactly wherever it returns.

    The excess is cosh l - 1 (hyperbolic) or l^2 / 2 (euclidean), the
    quantity the cosine law of the angle kernel works in, and
    x' = sqrt(e (lambda e + 2)).  In hyperbolic background it is built from
    the factors T = cosh r - 1 and P = sinh r as

        e = (1 + T_i)(1 + T_j) - 1 + I P_i P_j
          = ((T_i + T_j) + T_i T_j) + I P_i P_j,

    a sum of nonnegative terms for I >= 0, so free of cancellation, with
    no per-edge transcendental call.  The excess is symmetric in the two
    ends in exact arithmetic, but the products (I P_tail) P_head and, in
    euclidean background, (2 (1 + I) r_tail) r_head round by orientation, so
    every caller orients each edge from its lower vertex or slot to its
    higher one, as ``SurfaceComplex`` and the triangle's double do.  Every
    returned excess is a finite normal double: a hyperbolic edge
    longer than the size limit raises RangeError, however far its length
    would overflow, and any other undefined length (an overflowing euclidean
    one too, or an excess below the normal doubles, whose bits underflow)
    raises DomainError with the index of the first such edge as ``edge``.
    ``screen=False`` leaves out these refusals and ``np.errstate``, for
    factors of u inside the ``_u_band`` of ``inv``, where none can fire.
    """
    # An overflow to inf is refused below.
    quiet = np.errstate(over="ignore") if screen else _NO_ERRSTATE
    if background is _EUCLIDEAN:
        ri, rj = factors[tail], factors[head]
        with quiet:
            sq = (ri - rj) ** 2 + 2.0 * (1.0 + inv) * ri * rj
        if screen and not (np.minimum.reduce(sq, axis=None) >= 2.0 * _TINY
                           and np.maximum.reduce(sq, axis=None) < np.inf):
            _require_defined((sq > 0) & (sq < np.inf),
                             "euclidean edge length is not defined (l^2 <= 0 or not finite)")
            _require_defined(sq >= 2.0 * _TINY, "euclidean edge length is not defined in "
                                                "double precision (l^2 / 2 subnormal)")
        excess = 0.5 * sq
        return excess, np.sqrt(2.0 * excess)
    t, p = factors
    t_i, t_j = t[tail], t[head]
    excess = t_i + t_j
    t_i *= t_j
    excess += t_i
    with quiet:
        product = inv * p[tail]
        product *= p[head]
    excess += product
    # Screen, then diagnose: a NaN fails the screen too, as min and max propagate it.
    if screen and not (np.minimum.reduce(excess, axis=None) >= _TINY
                       and np.maximum.reduce(excess, axis=None) <= _EXCESS_LIMIT):
        _require_defined(excess > 0, "hyperbolic edge length is not defined (cosh l - 1 not > 0)")
        _require_defined(excess >= _TINY, "hyperbolic edge length is not defined in "
                                          "double precision (cosh l - 1 subnormal)")
        if np.count_nonzero(excess > _EXCESS_LIMIT):
            raise _size_error("lengths")
    return excess, np.sqrt(excess * (excess + _TWO))


def _lengths(background: Background, excess: np.ndarray, sx: np.ndarray) -> np.ndarray:
    """Edge lengths from the excesses and x' of ``_edge_lengths_arrays``."""
    if background is Background.EUCLIDEAN:
        return sx
    return np.log1p(excess + sx)


def edge_length(background: Background, r_i: float, r_j: float, inversive: float) -> float:
    """Length of one edge from its endpoint radii and inversive distance."""
    radii = check_radii([r_i, r_j])
    inv = check_inversive([inversive], permissive=True)
    edges = _edge_lengths_arrays(background, _radius_factors(background, radii), [0], [1], inv)
    return float(_lengths(background, *edges)[0])


def _check_fits(complex: SurfaceComplex, metric: PackingMetric) -> None:
    """ConfigError unless the metric, whose values were checked when it was
    built, has one radius per vertex and one inversive distance per edge."""
    if metric.inversive.shape != (complex.edge_count,):
        raise _misfit(f"inversive array of shape {metric.inversive.shape}", complex)
    if len(metric.radii) != complex.vertex_count:
        raise _misfit(f"metric with {len(metric.radii)} radii", complex)


def _metric_edge_arrays(
    complex: SurfaceComplex, metric: PackingMetric
) -> tuple[np.ndarray, np.ndarray]:
    """Per-edge (excesses, x') in the canonical edge order; a DomainError
    names the first edge whose length is undefined."""
    _check_fits(complex, metric)
    background, radii, inversive = metric.background, metric.radii, metric.inversive
    try:
        factors = _radius_factors(background, radii)
        return _edge_lengths_arrays(background, factors, *complex.edges.T, inversive)
    except DomainError as exc:
        i, j = complex.edges[exc.edge].tolist()
        raise DomainError(f"edge ({i}, {j}): {exc}") from None


def all_edge_lengths(complex: SurfaceComplex, metric: PackingMetric) -> np.ndarray:
    """Per-edge lengths in the canonical edge order."""
    return _lengths(metric.background, *_metric_edge_arrays(complex, metric))


def inversive_from_length(
    background: Background, r_i: float, r_j: float, length: float
) -> float:
    """Invert the edge-length formula: recover I from (l, r_i, r_j), by the
    excess form on the same factors, e = T of l (hyperbolic), or by ratios
    (euclidean).  RangeError where I is not finite in double precision."""
    check_radii([r_i, r_j])
    if not 0 < length < np.inf:
        raise DomainError("length must be finite and > 0")
    values = np.array([r_i, r_j, length])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if background is Background.EUCLIDEAN:
            r_i, r_j, length = values
            inv = ((length / r_i) * (length / r_j) - r_i / r_j - r_j / r_i) / 2.0
        else:
            _check_hyperbolic_sizes(values, "radii or length")
            t, p = _radius_factors(background, values)
            inv = (t[2] - ((t[0] + t[1]) + t[0] * t[1])) / (p[0] * p[1])
    if not np.isfinite(inv):
        raise RangeError("the inversive distance is not finite in double precision")
    return float(inv)


def triangle_inequality_violations(lengths: np.ndarray) -> np.ndarray:
    """Boolean mask of rows of an (F, 3) length array violating strictness."""
    x0, x1, x2 = lengths[:, 0], lengths[:, 1], lengths[:, 2]
    return (x0 + x1 <= x2) | (x0 + x2 <= x1) | (x1 + x2 <= x0)


# ---------------------------------------------------------------------------
# u-coordinates
# ---------------------------------------------------------------------------

def radii_to_u_array(radii: np.ndarray, background: Background) -> np.ndarray:
    """u = ln tanh(r/2) (hyperbolic) or u = ln r (euclidean), elementwise.

    tanh collapses to 1.0 beyond r ~ 38 and exp(-r) collapses to 1.0 below
    r ~ 1e-16, so ln tanh(r/2) = ln(1 - e^-r) - ln(1 + e^-r) is evaluated
    with expm1/log1p in the regime where each piece stays exact.
    """
    radii = check_radii(np.ravel(radii)).reshape(np.shape(radii))
    if background is Background.EUCLIDEAN:
        return np.log(radii)
    e = np.exp(-radii)
    small = radii < 1.0
    out = np.empty_like(radii)
    out[small] = np.log(-np.expm1(-radii[small])) - np.log1p(e[small])
    out[~small] = np.log1p(-e[~small]) - np.log1p(e[~small])
    if not np.all(out < 0):
        raise DomainError("radius too large for the u-coordinate change")
    return out


def u_to_radii_array(u: np.ndarray, background: Background) -> np.ndarray:
    """Inverse coordinate change; hyperbolic r = 2 artanh(e^u).

    Written as log1p(2 e^u / (1 - e^u)) with the denominator from expm1,
    exact from u near 0 (huge radii) down to the underflow floor.  A u at
    or above 0 (hyperbolic), or whose e^u underflows to 0, or (euclidean)
    overflows, is refused with the DomainError of ``_u_factors``.
    """
    u = np.asarray(u, dtype=float)
    if background is Background.EUCLIDEAN:
        return _u_factors(background, u)
    return np.log1p(2.0 * _hyperbolic_x(u) / (-np.expm1(u)))


def to_u(metric: PackingMetric) -> UCoords:
    """u-coordinates of a packing metric."""
    return UCoords(radii_to_u_array(metric.radii, metric.background), metric.background)


def from_u(u: UCoords, inversive: np.ndarray, permissive: bool = False) -> PackingMetric:
    """Packing metric with the given inversive distances at u-coordinates u."""
    radii = u_to_radii_array(u.values, u.background)
    return PackingMetric(u.background, inversive, radii, permissive)
