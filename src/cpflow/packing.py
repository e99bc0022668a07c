"""Packing metrics: inversive distances, radii, u-coordinates, edge lengths.

A packing metric assigns a radius to every vertex; together with a per-edge
inversive distance it induces edge lengths

    euclidean:   l^2 = r_i^2 + r_j^2 + 2 r_i r_j I_ij
    hyperbolic:  cosh l = cosh r_i cosh r_j + I_ij sinh r_i sinh r_j

The hyperbolic kernels below avoid the catastrophic cancellation of the
naive formulas at small radii by working with cosh(x) - 1 = 2 sinh^2(x/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .complexes import SurfaceComplex
from .errors import ConfigError, DomainError, RangeError

#: cosh/sinh arguments above this overflow double precision downstream.
HYPERBOLIC_SIZE_LIMIT = 350.0

#: cosh(l) - 1 at the size limit: a larger excess is a longer edge.
_EXCESS_LIMIT = float(np.cosh(HYPERBOLIC_SIZE_LIMIT)) - 1.0

#: below this u-coordinate the squared hyperbolic radius underflows double
#: precision inside the length kernel (radius ~ 1e-131 at u = -300).
U_COORDINATE_FLOOR = -300.0


class Background(Enum):
    """Model geometry realizing the face lengths."""

    EUCLIDEAN = "euclidean"
    HYPERBOLIC = "hyperbolic"

    @property
    def area_weight(self) -> int:
        """Weight of the area term in the total-curvature identity (0 or 1)."""
        return 1 if self is Background.HYPERBOLIC else 0


def _as_readonly(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


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
        object.__setattr__(self, "inversive", _as_readonly(self.inversive))
        object.__setattr__(self, "radii", _as_readonly(self.radii))
        if self.inversive.ndim != 1 or self.radii.ndim != 1:
            raise DomainError("inversive and radii must be one-dimensional")
        if not np.isfinite(self.inversive).all() or not np.isfinite(self.radii).all():
            raise DomainError("inversive distances and radii must be finite")
        if (self.radii <= 0).any():
            raise DomainError("all radii must be positive")
        if (self.inversive <= -1).any():
            raise DomainError("inversive distances must be > -1")
        if not self.permissive and (self.inversive < 0).any():
            raise DomainError(
                "negative inversive distances require permissive=True"
            )

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


def _check_hyperbolic_sizes(values: np.ndarray, what: str) -> None:
    if np.count_nonzero(values > HYPERBOLIC_SIZE_LIMIT):
        raise RangeError(
            f"{what} above {HYPERBOLIC_SIZE_LIMIT:g} would overflow cosh/sinh"
        )


def _require_defined(defined: np.ndarray, message: str) -> None:
    """DomainError unless every edge length is defined; its ``edge`` attribute
    indexes the first edge whose length is not."""
    if np.count_nonzero(defined) < defined.size:
        error = DomainError(message)
        error.edge = int(np.argmin(defined))
        raise error


def _edge_lengths_arrays(
    background: Background, radii: np.ndarray, tail, head, inv: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lengths l, excesses e and x' = sinh l or l of the edges joining the
    vertices ``tail`` and ``head`` (index arrays into the per-vertex radii);
    stable for radii from 1e-300 up to the cap.

    The excess is cosh l - 1 (hyperbolic) or l^2 / 2 (euclidean), the
    quantity the cosine law of the angle kernel works in, and
    x' = sqrt(e (lambda e + 2)).  Every returned length is positive and
    finite: a hyperbolic edge longer than the size limit raises RangeError,
    however far its length would overflow, and any other undefined length
    raises DomainError with the index of the first such edge as ``edge``.
    """
    ri, rj = radii[tail], radii[head]
    if background is Background.EUCLIDEAN:
        sq = (ri - rj) ** 2 + 2.0 * (1.0 + inv) * ri * rj
        _require_defined((sq > 0) & (sq < np.inf),
                         "euclidean edge length is not defined (l^2 <= 0 or not finite)")
        excess = 0.5 * sq
        return np.sqrt(sq), excess, np.sqrt(2.0 * excess)
    _check_hyperbolic_sizes(radii, "radii")
    sinh_r = np.sinh(radii)
    # cosh(l) - 1 written without cancellation for inv >= 0:
    #   sinh^2((ri+rj)/2) + sinh^2((ri-rj)/2) + inv sinh(ri) sinh(rj)
    # The last term may overflow to inf, which the size check below catches.
    with np.errstate(over="ignore"):
        excess = (
            np.sinh(0.5 * (ri + rj)) ** 2
            + np.sinh(0.5 * (ri - rj)) ** 2
            + inv * sinh_r[tail] * sinh_r[head]
        )
    _require_defined(excess > 0, "hyperbolic edge length is not defined (cosh l - 1 not > 0)")
    if np.count_nonzero(excess > _EXCESS_LIMIT):
        raise RangeError(
            f"lengths above {HYPERBOLIC_SIZE_LIMIT:g} would overflow cosh/sinh"
        )
    sinh_l = np.sqrt(excess * (excess + 2.0))
    return np.log1p(excess + sinh_l), excess, sinh_l


def edge_length(background: Background, r_i: float, r_j: float, inversive: float) -> float:
    """Length of one edge from its endpoint radii and inversive distance."""
    if r_i <= 0 or r_j <= 0:
        raise DomainError("radii must be positive")
    if inversive <= -1:
        raise DomainError("inversive distance must be > -1")
    lengths, _, _ = _edge_lengths_arrays(
        background, np.asarray([r_i, r_j], dtype=float), [0], [1], np.asarray([inversive])
    )
    return float(lengths[0])


def _check_fits(complex: SurfaceComplex, metric: PackingMetric) -> None:
    """ConfigError unless the metric has one radius per vertex and one
    inversive distance per edge of the complex."""
    n_radii, n_inversive = len(metric.radii), len(metric.inversive)
    if (n_radii, n_inversive) != (complex.vertex_count, complex.edge_count):
        raise ConfigError(
            f"metric with {n_radii} radii and {n_inversive} inversive distances does not "
            f"fit a complex with {complex.vertex_count} vertices and {complex.edge_count} edges"
        )


def _metric_edge_arrays(
    complex: SurfaceComplex, metric: PackingMetric
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-edge (lengths, excesses, x') in the canonical edge order; a
    DomainError names the first edge whose length is undefined."""
    _check_fits(complex, metric)
    background, radii, inversive = metric.background, metric.radii, metric.inversive
    try:
        return _edge_lengths_arrays(background, radii, *complex.edges.T, inversive)
    except DomainError as exc:
        i, j = complex.edges[exc.edge].tolist()
        raise DomainError(f"edge ({i}, {j}): {exc}") from None


def all_edge_lengths(complex: SurfaceComplex, metric: PackingMetric) -> np.ndarray:
    """Per-edge lengths in the canonical edge order."""
    return _metric_edge_arrays(complex, metric)[0]


def inversive_from_length(
    background: Background, r_i: float, r_j: float, length: float
) -> float:
    """Invert the edge-length formula: recover I from (l, r_i, r_j)."""
    if r_i <= 0 or r_j <= 0 or length <= 0:
        raise DomainError("radii and length must be positive")
    if background is Background.EUCLIDEAN:
        return (length**2 - r_i**2 - r_j**2) / (2.0 * r_i * r_j)
    _check_hyperbolic_sizes(np.asarray([r_i, r_j, length]), "radii or length")
    return (np.cosh(length) - np.cosh(r_i) * np.cosh(r_j)) / (
        np.sinh(r_i) * np.sinh(r_j)
    )


def face_lengths(complex: SurfaceComplex, metric: PackingMetric) -> np.ndarray:
    """(F, 3) lengths, column m holding the edge opposite face vertex m."""
    lengths = all_edge_lengths(complex, metric)
    return lengths[complex.face_opposite_edges]


def triangle_inequality_violations(lengths: np.ndarray) -> np.ndarray:
    """Boolean mask of rows of an (F, 3) length array violating strictness."""
    x0, x1, x2 = lengths[:, 0], lengths[:, 1], lengths[:, 2]
    return (x0 + x1 <= x2) | (x0 + x2 <= x1) | (x1 + x2 <= x0)


def is_admissible(
    complex: SurfaceComplex, metric: PackingMetric
) -> tuple[bool, list[int]]:
    """Whether every face satisfies strict triangle inequalities.

    Returns the verdict and the complete list of violating faces.  The
    comparison is exact: the admissible space is open and the extended
    angle kernel handles the boundary continuously, so no epsilon fuzzing
    is wanted here.
    """
    bad = triangle_inequality_violations(face_lengths(complex, metric))
    violators = [int(f) for f in np.nonzero(bad)[0]]
    return (len(violators) == 0, violators)


# ---------------------------------------------------------------------------
# u-coordinates
# ---------------------------------------------------------------------------

def radii_to_u_array(radii: np.ndarray, background: Background) -> np.ndarray:
    """u = ln tanh(r/2) (hyperbolic) or u = ln r (euclidean), elementwise.

    tanh collapses to 1.0 beyond r ~ 38 and exp(-r) collapses to 1.0 below
    r ~ 1e-16, so ln tanh(r/2) = ln(1 - e^-r) - ln(1 + e^-r) is evaluated
    with expm1/log1p in the regime where each piece stays exact.
    """
    radii = np.asarray(radii, dtype=float)
    if np.any(radii <= 0):
        raise DomainError("all radii must be positive")
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
    exact from u near 0 (huge radii) down to the underflow floor.
    """
    u = np.asarray(u, dtype=float)
    if background is Background.EUCLIDEAN:
        return np.exp(u)
    if np.count_nonzero(u >= 0):
        raise DomainError("hyperbolic u-coordinates must be negative")
    radii = np.log1p(2.0 * np.exp(u) / (-np.expm1(u)))
    if np.count_nonzero(radii <= 0):
        raise DomainError("radius underflow: u-coordinate too negative")
    return radii


def to_u(metric: PackingMetric) -> UCoords:
    """u-coordinates of a packing metric."""
    return UCoords(radii_to_u_array(metric.radii, metric.background), metric.background)


def from_u(u: UCoords, inversive: np.ndarray, permissive: bool = False) -> PackingMetric:
    """Packing metric with the given inversive distances at u-coordinates u."""
    radii = u_to_radii_array(u.values, u.background)
    return PackingMetric(u.background, inversive, radii, permissive)
