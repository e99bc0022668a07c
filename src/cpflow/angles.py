"""Per-triangle geometric kernel.

Inner angles are always computed as a clamped arccos of the cosine-law
ratio, so the classical and extended (degenerate-triangle) code paths are
one formula: inside the triangle-inequality region the clamp is inactive
and the angles are the classical ones; outside it the clamp yields the
continuous extension (pi, 0, 0).

Index convention for a triangle with vertex slots (0, 1, 2):

    lengths[m]    length of the edge opposite vertex m
    excess[m]     cosh(lengths[m]) - 1 (hyperbolic) or lengths[m]^2 / 2
    inversive[m]  inversive distance on the edge opposite vertex m
    angles[m]     inner angle at vertex m

The cosine law works in the excesses that the edge-length kernel computes
without cancellation.  With lambda = Background.area_weight (1 hyperbolic,
0 euclidean) and x' = sqrt(e (lambda e + 2)), which is sinh l or l,

    cos theta_m = (e_j + e_k + lambda e_j e_k - e_m) / (x'_j x'_k),

one branch-free formula for both backgrounds that keeps the angles of
hyperbolic triangles accurate down to radii of order 1e-12.  The batch
kernel takes per-edge arrays and gathers e_m, e_j, e_k, x'_j and x'_k
through (opposite, next, previous) face edge tables, each a 1-D gather.
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
    edge_length,
)

#: vertex slots m + 1 and m + 2 (mod 3), the endpoints of the edge opposite m
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


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


#: face edge tables of a lone triangle whose edge m joins slots m + 1 and
#: m + 2; the opposite table doubles as its face vertex table
_TRIANGLE_TABLES = (np.arange(3).reshape(1, 3), _NEXT.reshape(1, 3), _PREV.reshape(1, 3))


def _cosine_law(background: Background, excess: np.ndarray, sx: np.ndarray, tables) -> np.ndarray:
    """Unclamped (F, 3) cosine-law ratios from per-edge excesses and x',
    gathered through the (opposite, next, previous) face edge tables."""
    opposite, nxt, prv = tables
    e_j, e_k = excess[nxt], excess[prv]
    # ((e_j + e_k) + (lam e_j) e_k - e_m) / (x'_j x'_k) in place, as large (F, 3)
    # temporaries cost more than the arithmetic; (lam e_j) e_k: no 0 * inf
    # when a euclidean product would overflow.
    product = background.area_weight * e_j
    product *= e_k
    e_j += e_k
    e_j += product
    e_j -= excess[opposite]
    e_j /= np.multiply(sx[nxt], sx[prv], out=product)
    return e_j


def extended_angles_batch(
    background: Background, lengths: np.ndarray, excess: np.ndarray, sx: np.ndarray, tables
) -> tuple[np.ndarray, np.ndarray]:
    """Extended angles of the faces that ``tables`` = (opposite, next,
    previous) edge tables gather from per-edge lengths, excesses and x' as
    the edge-length kernel returns and validates them.

    Returns the (F, 3) angle array and an (F,) boolean mask of degenerate
    faces (strict triangle inequality violated).
    """
    opposite, nxt, prv = tables
    # clamped_arccos in place: (F, 3) temporaries are costly on large meshes
    angles = _cosine_law(background, excess, sx, tables)
    np.arccos(np.minimum(np.maximum(angles, -1.0, out=angles), 1.0, out=angles), out=angles)
    longest = lengths[opposite]
    violated = lengths[nxt] + lengths[prv] <= longest
    if not np.count_nonzero(violated):
        return angles, np.zeros(len(angles), dtype=bool)
    # Pin degenerate rows to exactly (pi, 0, 0); the clamp already does
    # this except for rounding in the strict-boundary row.
    degenerate = violated.any(axis=1)
    rows = np.flatnonzero(degenerate)
    angles[rows] = 0.0
    angles[rows, longest[rows].argmax(axis=1)] = np.pi
    return angles, degenerate


def extended_angles(background: Background, lengths) -> GeneralizedAngles:
    """Extended inner angles of one triangle with side lengths (x0, x1, x2)."""
    arr = np.asarray(lengths, dtype=float).reshape(3)
    if (arr <= 0).any() or not np.isfinite(arr).all():
        raise DomainError("side lengths must be positive and finite")
    if background is Background.HYPERBOLIC:
        _check_hyperbolic_sizes(arr, "lengths")
        excess = 2.0 * np.sinh(0.5 * arr) ** 2
    else:
        excess = 0.5 * arr**2
    sx = np.sqrt(excess * (background.area_weight * excess + 2.0))
    angles, degenerate = extended_angles_batch(background, arr, excess, sx, _TRIANGLE_TABLES)
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

#: [m, a] -> the third slot b of {m, a, b} = {0, 1, 2} off the diagonal, m on it
_THIRD = -np.add.outer(np.arange(3), np.arange(3)) % 3
_DIAGONAL = np.eye(3, dtype=bool)


def angle_jacobians_batch(
    background: Background, radii: np.ndarray, inversive: np.ndarray, edges, faces, tables
) -> np.ndarray:
    """d(angles)/d(u) of the faces, shape (F, 3, 3), from per-vertex radii,
    per-edge inversive distances and ``edges`` = (lengths, excesses, x') as
    the edge-length kernel returns them, gathered through the face vertex
    and (opposite, next, previous) face edge tables.

    Entry [f, p, q] is the derivative of angle p with respect to the
    u-coordinate of vertex q in face f.  Every face must satisfy the strict
    triangle inequalities; at or beyond that boundary the derivative blows
    up and BoundaryError is raised instead.
    """
    lengths, excess, sx = edges
    opposite, nxt, prv = tables
    if np.count_nonzero(lengths[nxt] + lengths[prv] <= lengths[opposite]):
        raise BoundaryError(
            "angle derivatives are undefined on or beyond the degenerate boundary"
        )

    cos = _cosine_law(background, excess, sx, tables)
    sin_sq = 1.0 - cos**2
    if (sin_sq <= 0).any():
        raise BoundaryError("triangle too close to the degenerate boundary")
    sin = np.sqrt(sin_sq)

    # dtheta/dx: diagonal D_m = x'_m / (x'_j x'_k sin theta_m) with
    # x' = sinh x (hyperbolic) or x (euclidean); off-diagonal
    # dtheta_m/dx_a = -D_m cos theta_b, {m, a, b} = {0, 1, 2}.
    sx_m = sx[opposite]
    d = sx_m / (sx[nxt] * sx[prv] * sin)
    dtheta_dx = d[:, :, None] * np.where(_DIAGONAL, 1.0, -cos[:, _THIRD])

    # dx/du = dx/dr dr/du with dr/du = s = sinh r (hyperbolic) or r
    # (euclidean).  x_m joins the vertices a and b other than m, so the
    # diagonal is 0 and dx_m/dr_a = (s_a c_b + I_m c_a s_b) / x'_m, with
    # c = cosh r (hyperbolic) or 1 (euclidean).
    if background is Background.HYPERBOLIC:
        s, c = np.sinh(radii)[faces], np.cosh(radii)[faces]
    else:
        s, c = radii[faces], np.ones(faces.shape)
    s_a, c_a = s[:, None, :], c[:, None, :]
    inv_m = inversive[opposite][:, :, None]
    dx_dr = (s_a * c[:, _THIRD] + inv_m * c_a * s[:, _THIRD]) / sx_m[:, :, None]
    out = dtheta_dx @ np.where(_DIAGONAL, 0.0, dx_dr * s_a)
    if not np.isfinite(out).all():
        # strict inequalities can hold by less than an ulp while 1/sin blows up
        raise BoundaryError("triangle too close to the degenerate boundary")
    return out


def angle_jacobian_u(background: Background, radii, inversive) -> np.ndarray:
    """d(angles)/d(u) for one triangle given vertex radii and the inversive
    distances on the opposite edges.  Symmetric and, for inversive >= 0,
    negative definite."""
    r = np.asarray(radii, dtype=float).reshape(3)
    inv = np.asarray(inversive, dtype=float).reshape(3)
    if (r <= 0).any():
        raise DomainError("radii must be positive")
    # the length kernel raises RangeError for radii and lengths past the size limit
    edges = _edge_lengths_arrays(background, r, _NEXT, _PREV, inv)
    return angle_jacobians_batch(
        background, r, inv, edges, _TRIANGLE_TABLES[0], _TRIANGLE_TABLES
    )[0]


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
    l_jk = edge_length(bg, r_j, r_k, inv_jk)

    def gap(r_i: float) -> float:
        if r_i == 0.0:
            return r_j + r_k - l_jk
        return edge_length(bg, r_i, r_j, inv_ij) + edge_length(bg, r_i, r_k, inv_ik) - l_jk

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
