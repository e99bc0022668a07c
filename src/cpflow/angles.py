"""Per-triangle geometric kernel.

Inner angles are always computed as a clamped arccos of the cosine-law
ratio, so the classical and extended (degenerate-triangle) code paths are
one formula: inside the triangle-inequality region the clamp is inactive
and the angles are the classical ones; outside it the clamp yields the
continuous extension (pi, 0, 0).

Index convention for a triangle with vertex slots (0, 1, 2):

    lengths[m]    length of the edge opposite vertex m
    inversive[m]  inversive distance on the edge opposite vertex m
    angles[m]     inner angle at vertex m

All hyperbolic ratios are evaluated in a cancellation-free factored form
when the triangle is small, which keeps angles accurate down to radii of
order 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundaryError, DomainError, RangeError
from .packing import (
    HYPERBOLIC_SIZE_LIMIT,
    Background,
    _check_hyperbolic_sizes,
    _edge_lengths_arrays,
    triangle_inequality_violations,
)

#: below this semiperimeter the factored hyperbolic cosine ratio is used
_SMALL_TRIANGLE_SEMIPERIMETER = 20.0


def clamped_arccos(x):
    """arccos clamped to [-1, 1]: pi below -1, 0 above 1, continuous on R.

    Satisfies clamped_arccos(-x) = pi - clamped_arccos(x).
    """
    return np.arccos(np.clip(x, -1.0, 1.0))


@dataclass(frozen=True)
class GeneralizedAngles:
    """Extended inner angles of one triangle plus degeneracy classification."""

    values: np.ndarray  # (3,), each in [0, pi]
    degenerate: bool

    @property
    def total(self) -> float:
        return float(self.values.sum())


def _cos_ratios(background: Background, lengths: np.ndarray) -> np.ndarray:
    """Cosine-law ratios for a batch of (n, 3) side lengths, unclamped."""
    out = np.empty_like(lengths)
    if background is Background.EUCLIDEAN:
        for m in range(3):
            j, k = (m + 1) % 3, (m + 2) % 3
            xm, xj, xk = lengths[:, m], lengths[:, j], lengths[:, k]
            out[:, m] = (xj**2 + xk**2 - xm**2) / (2.0 * xj * xk)
        return out

    s = 0.5 * lengths.sum(axis=1)
    small = s <= _SMALL_TRIANGLE_SEMIPERIMETER
    big = ~small
    for m in range(3):
        j, k = (m + 1) % 3, (m + 2) % 3
        xm, xj, xk = lengths[:, m], lengths[:, j], lengths[:, k]
        num = np.empty_like(xm)
        if small.any():
            # cosh xj cosh xk - cosh xm
            #   = sinh(s) sinh(s - xm) - sinh(s - xj) sinh(s - xk)
            ss = s[small]
            num[small] = np.sinh(ss) * np.sinh(ss - xm[small]) - np.sinh(
                ss - xj[small]
            ) * np.sinh(ss - xk[small])
        if big.any():
            num[big] = np.cosh(xj[big]) * np.cosh(xk[big]) - np.cosh(xm[big])
        out[:, m] = num / (np.sinh(xj) * np.sinh(xk))
    return out


def extended_angles_batch(
    background: Background, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Extended angles for (n, 3) side lengths.

    Returns the (n, 3) angle array and an (n,) boolean mask of degenerate
    rows (strict triangle inequality violated).
    """
    lengths = np.asarray(lengths, dtype=float)
    if np.any(lengths <= 0) or not np.all(np.isfinite(lengths)):
        raise DomainError("side lengths must be positive and finite")
    if background is Background.HYPERBOLIC:
        _check_hyperbolic_sizes(lengths, "lengths")
    angles = clamped_arccos(_cos_ratios(background, lengths))
    degenerate = triangle_inequality_violations(lengths)
    if degenerate.any():
        # Pin degenerate rows to exactly (pi, 0, 0); the clamp already does
        # this except for rounding in the strict-boundary row.
        rows = np.nonzero(degenerate)[0]
        longest = lengths[rows].argmax(axis=1)
        angles[rows] = 0.0
        angles[rows, longest] = np.pi
    return angles, degenerate


def extended_angles(background: Background, lengths) -> GeneralizedAngles:
    """Extended inner angles of one triangle with side lengths (x0, x1, x2)."""
    arr = np.asarray(lengths, dtype=float).reshape(1, 3)
    angles, degenerate = extended_angles_batch(background, arr)
    return GeneralizedAngles(values=angles[0], degenerate=bool(degenerate[0]))


def triangle_area(background: Background, angles: GeneralizedAngles) -> float:
    """Angle defect pi - sum(angles).

    In hyperbolic background this is the triangle area (clamped at 0 so
    rounding at the degenerate boundary cannot go negative).  In euclidean
    background it is a diagnostic that vanishes for every triangle,
    degenerate or not.
    """
    values = angles.values if isinstance(angles, GeneralizedAngles) else np.asarray(angles)
    defect = float(np.pi - values.sum())
    if background is Background.HYPERBOLIC:
        return max(0.0, defect)
    return defect


# ---------------------------------------------------------------------------
# Angle derivatives in u-coordinates
# ---------------------------------------------------------------------------

def _triangle_lengths_from_radii(
    background: Background, radii: np.ndarray, inversive: np.ndarray
) -> np.ndarray:
    """(n, 3) side lengths; column m is the edge opposite vertex slot m."""
    out = np.empty_like(radii)
    for m in range(3):
        j, k = (m + 1) % 3, (m + 2) % 3
        out[:, m] = _edge_lengths_arrays(
            background, radii[:, j], radii[:, k], inversive[:, m]
        )
    return out


def angle_jacobians_batch(
    background: Background, radii: np.ndarray, inversive: np.ndarray
) -> np.ndarray:
    """d(angles)/d(u) for a batch of triangles, shape (n, 3, 3).

    Entry [t, p, q] is the derivative of angle p with respect to the
    u-coordinate of vertex q in triangle t.  Every triangle must satisfy
    the strict triangle inequalities; at or beyond that boundary the
    derivative blows up and BoundaryError is raised instead.
    """
    radii = np.asarray(radii, dtype=float)
    inversive = np.asarray(inversive, dtype=float)
    if np.any(radii <= 0):
        raise DomainError("radii must be positive")
    if background is Background.HYPERBOLIC:
        _check_hyperbolic_sizes(radii, "radii")
    lengths = _triangle_lengths_from_radii(background, radii, inversive)
    if background is Background.HYPERBOLIC:
        _check_hyperbolic_sizes(lengths, "lengths")
    if triangle_inequality_violations(lengths).any():
        raise BoundaryError(
            "angle derivatives are undefined on or beyond the degenerate boundary"
        )

    cos = _cos_ratios(background, lengths)
    sin_sq = 1.0 - cos**2
    if np.any(sin_sq <= 0):
        raise BoundaryError("triangle too close to the degenerate boundary")
    sin = np.sqrt(sin_sq)

    hyper = background is Background.HYPERBOLIC
    sx = np.sinh(lengths) if hyper else lengths

    # dtheta/dx: diagonal D_m = x'_m / (x'_j x'_k sin theta_m) with
    # x' = sinh x (hyperbolic) or x (euclidean); off-diagonal
    # dtheta_m/dx_a = -D_m cos theta_b, {m, a, b} = {0, 1, 2}.
    dtheta_dx = np.empty((len(radii), 3, 3))
    for m in range(3):
        j, k = (m + 1) % 3, (m + 2) % 3
        d_m = sx[:, m] / (sx[:, j] * sx[:, k] * sin[:, m])
        dtheta_dx[:, m, m] = d_m
        dtheta_dx[:, m, j] = -d_m * cos[:, k]
        dtheta_dx[:, m, k] = -d_m * cos[:, j]

    # dx/dr: x_m joins vertices j and k, so only those columns are nonzero.
    dx_dr = np.zeros((len(radii), 3, 3))
    for m in range(3):
        j, k = (m + 1) % 3, (m + 2) % 3
        if hyper:
            denom = np.sinh(lengths[:, m])
            dx_dr[:, m, j] = (
                np.sinh(radii[:, j]) * np.cosh(radii[:, k])
                + inversive[:, m] * np.cosh(radii[:, j]) * np.sinh(radii[:, k])
            ) / denom
            dx_dr[:, m, k] = (
                np.sinh(radii[:, k]) * np.cosh(radii[:, j])
                + inversive[:, m] * np.cosh(radii[:, k]) * np.sinh(radii[:, j])
            ) / denom
        else:
            dx_dr[:, m, j] = (radii[:, j] + radii[:, k] * inversive[:, m]) / lengths[:, m]
            dx_dr[:, m, k] = (radii[:, k] + radii[:, j] * inversive[:, m]) / lengths[:, m]

    dr_du = np.sinh(radii) if hyper else radii
    out = np.einsum("npm,nmq,nq->npq", dtheta_dx, dx_dr, dr_du)
    if not np.all(np.isfinite(out)):
        # strict inequalities can hold by less than an ulp while 1/sin blows up
        raise BoundaryError("triangle too close to the degenerate boundary")
    return out


def angle_jacobian_u(background: Background, radii, inversive) -> np.ndarray:
    """d(angles)/d(u) for one triangle given vertex radii and the inversive
    distances on the opposite edges.  Symmetric and, for inversive >= 0,
    negative definite."""
    r = np.asarray(radii, dtype=float).reshape(1, 3)
    inv = np.asarray(inversive, dtype=float).reshape(1, 3)
    return angle_jacobians_batch(background, r, inv)[0]


# ---------------------------------------------------------------------------
# Degenerate-threshold radius
# ---------------------------------------------------------------------------

def degenerate_threshold_radius(
    r_j: float,
    r_k: float,
    inv_ij: float,
    inv_ik: float,
    inv_jk: float,
    f_tolerance: float = 1e-12,
) -> float:
    """Hyperbolic radius r_i at which the face {ijk} starts to degenerate.

    Solves l_ij + l_ik = l_jk for r_i with r_j, r_k fixed.  The left side
    minus the right is strictly increasing in r_i, negative at 0 exactly
    when inv_jk > 1, so the root is unique; for inv_jk in [0, 1] the face
    never degenerates by shrinking r_i and the threshold is 0.
    """
    if r_j <= 0 or r_k <= 0:
        raise DomainError("radii must be positive")
    if min(inv_ij, inv_ik, inv_jk) < 0:
        raise DomainError("inversive distances must be nonnegative here")
    if inv_jk <= 1.0:
        return 0.0

    bg = Background.HYPERBOLIC
    l_jk = float(
        _edge_lengths_arrays(bg, np.asarray([r_j]), np.asarray([r_k]), np.asarray([inv_jk]))[0]
    )

    def gap(r_i: float) -> float:
        if r_i == 0.0:
            return r_j + r_k - l_jk
        pair = _edge_lengths_arrays(
            bg,
            np.asarray([r_i, r_i]),
            np.asarray([r_j, r_k]),
            np.asarray([inv_ij, inv_ik]),
        )
        return float(pair.sum() - l_jk)

    lo, f_lo = 0.0, gap(0.0)
    assert f_lo < 0  # guaranteed by inv_jk > 1
    hi = 1.0
    while gap(hi) <= 0:
        hi *= 2.0
        if hi > HYPERBOLIC_SIZE_LIMIT:
            raise RangeError("degenerate threshold exceeds the size limit")

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = gap(mid)
        if abs(f_mid) <= f_tolerance:
            return mid
        if f_mid < 0:
            lo = mid
        else:
            hi = mid
    raise DomainError("threshold bisection failed to meet its tolerance")
