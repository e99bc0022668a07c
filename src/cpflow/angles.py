"""Per-triangle geometric kernel.

Inner angles are always computed as a clamped arccos of the cosine-law
ratio, so the classical and extended (degenerate-triangle) code paths are
one formula: inside the triangle-inequality region the clamp is inactive
and the angles are the classical ones; outside it the clamp yields the
continuous extension (pi, 0, 0).

Index convention for a triangle with vertex slots (0, 1, 2):

    excess[m]     cosh(l_m) - 1 (hyperbolic) or l_m^2 / 2 (euclidean), with
                  l_m the length of the edge opposite vertex m
    sx[m]         x'_m = sinh(l_m) or l_m
    inversive[m]  inversive distance on the edge opposite vertex m
    angles[m]     inner angle at vertex m

The cosine law works in the excesses that the edge-length kernel computes
without cancellation.  With lambda = Background.area_weight (1 hyperbolic,
0 euclidean) and x' = sqrt(e (lambda e + 2)), which is sinh l or l,

    cos theta_m = num_m / den_m,
    num_m = ((e_j + e_k) + (lambda e_j) e_k) - e_m,   den_m = x'_j x'_k,

one branch-free formula for both backgrounds that keeps the angles of
hyperbolic triangles accurate down to radii of order 1e-12.  Corner m is
degenerate when num_m <= -den_m, in exact arithmetic l_j + l_k <= l_m.
Every path that starts from radii or u-coordinates decides degeneracy by
this test on the same floating-point numbers; only ``extended_angles``,
which takes lengths, classifies by lengths.  The batch kernel takes per-edge arrays
and gathers e_m, e_j, e_k, x'_j and x'_k through (opposite, next,
previous) face edge tables, each a 1-D gather.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import _DOUBLE_TRIANGLE
from .errors import BoundaryError, DomainError
from .packing import (
    _HYPERBOLIC,
    Background,
    _check_hyperbolic_sizes,
    _edge_lengths_arrays,
    _radius_factors,
    check_inversive,
    check_radii,
    triangle_inequality_violations,
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


def _cosine_law(
    background: Background, excess: np.ndarray, sx: np.ndarray, tables
) -> tuple[np.ndarray, np.ndarray]:
    """(F, 3) cosine-law numerators num_m and denominators den_m from
    per-edge excesses and x', gathered through the (opposite, next,
    previous) face edge tables.  Corner m is degenerate exactly when
    num_m + den_m <= 0, a test rounding cannot flip: a nonzero exact sum of
    two doubles never rounds to zero."""
    opposite, nxt, prv = tables
    e_j, e_k = excess[nxt], excess[prv]
    # ((e_j + e_k) + (lam e_j) e_k) - e_m in place, as large (F, 3)
    # temporaries cost more than the arithmetic.  lam e_j is e_j bit for bit
    # for lam = 1, and (lam e_j) e_k is +0.0 for lam = 0, which adds nothing.
    if background is _HYPERBOLIC:
        product = e_j * e_k
        e_j += e_k
        e_j += product
    else:
        e_j += e_k
    e_j -= excess[opposite]
    return e_j, np.multiply(sx[nxt], sx[prv], out=e_k)


def extended_angles_batch(
    background: Background, excess: np.ndarray, sx: np.ndarray, tables
) -> tuple[np.ndarray, np.ndarray]:
    """Extended angles of the faces that ``tables`` = (opposite, next,
    previous) edge tables gather from per-edge excesses and x' as the
    edge-length kernel returns them, positive and finite.

    Returns the (F, 3) angle array and an (F,) boolean mask of degenerate
    faces, those with a corner where num_m <= -den_m.  One reduction,
    max |num_m / den_m| < 1, screens every corner; the exact test runs only
    where it fails.
    """
    num, den = _cosine_law(background, excess, sx, tables)
    angles = num / den
    # Screen, then diagnose.  fl(num + den) <= 0 means num <= -den exactly,
    # so num / den <= -1, and division rounds monotonically onto the double
    # -1; so when every |ratio| is below 1, no corner is degenerate and the
    # clamp does nothing.  One reduction, which a NaN fails as max propagates it.
    if np.maximum.reduce(np.abs(angles), axis=None) < 1.0:
        return np.arccos(angles, out=angles), np.zeros(len(angles), dtype=bool)
    violated = np.add(num, den) <= 0.0
    # clamped_arccos in place: (F, 3) temporaries are costly on large meshes
    np.arccos(angles.clip(-1.0, 1.0, out=angles), out=angles)
    if not np.count_nonzero(violated):
        return angles, np.zeros(len(angles), dtype=bool)
    # Pin degenerate rows to exactly (pi, 0, 0), pi at the violated corner;
    # the clamp already does this except for rounding near the boundary.
    degenerate = violated.any(axis=1)
    rows = np.flatnonzero(degenerate)
    angles[rows] = 0.0
    angles[rows, violated[rows].argmax(axis=1)] = np.pi
    return angles, degenerate


def extended_angles(background: Background, lengths) -> GeneralizedAngles:
    """Extended inner angles of one triangle with side lengths (x0, x1, x2),
    degenerate when the lengths violate a strict triangle inequality."""
    arr = np.asarray(lengths, dtype=float).reshape(3)
    if (arr <= 0).any() or not np.isfinite(arr).all():
        raise DomainError("side lengths must be positive and finite")
    if background is Background.HYPERBOLIC:
        _check_hyperbolic_sizes(arr, "lengths")
        excess = 2.0 * np.sinh(0.5 * arr) ** 2
    else:
        excess = 0.5 * arr**2
    sx = np.sqrt(excess * (background.area_weight * excess + 2.0))
    tables = _DOUBLE_TRIANGLE.face_edge_tables
    angles = extended_angles_batch(background, excess, sx, tables)[0][0]
    degenerate = bool(triangle_inequality_violations(arr.reshape(1, 3))[0])
    if degenerate:
        angles[:] = 0.0
        angles[arr.argmax()] = np.pi
    return GeneralizedAngles(values=angles, degenerate=degenerate)


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

def _boundary_error(refused: np.ndarray) -> BoundaryError:
    """The derivatives' one refusal, naming the faces that ``refused`` marks."""
    return BoundaryError("angle derivatives are undefined on or next to the degenerate "
                         f"boundary in faces {np.flatnonzero(refused).tolist()}")


#: 1 where slot m + 1, and where slot m + 2, is the head of the edge opposite
#: slot m, when every edge runs from the lower slot of a face to the higher
_NEXT_AT_HEAD, _PREV_AT_HEAD = np.array([0, 1, 0]), np.array([1, 0, 1])


def angle_jacobians_batch(
    background: Background, factors, inversive: np.ndarray, edges, ends, tables
) -> tuple[np.ndarray, np.ndarray]:
    """d(angles)/d(u) of the faces as two (F, 3) arrays (diagonal, coupling),
    from the per-vertex factors of the edge-length kernel, per-edge inversive
    distances and ``edges`` = (excesses, x') as that kernel returns them for
    the edges ``ends`` = (tail, head), gathered through the (opposite, next,
    previous) face edge tables.  Each edge must run from the lower slot of
    every face that has it to the higher, as the edges of a SurfaceComplex
    do in its ascending face rows.

    ``diagonal[f, p]`` is the derivative of angle p of face f with respect to
    the u-coordinate of its vertex p, and ``coupling[f, p]`` that of angle p
    with respect to vertex p + 1, which equals that of angle p + 1 with
    respect to vertex p (Guo 2011): the pair (p, p + 1) lies on the edge
    opposite p + 2, and each face's 3 x 3 block is symmetric by construction.
    Every face must satisfy the strict triangle inequalities, by the rule of
    ``extended_angles_batch``; on, beyond or within rounding of that boundary
    the derivative blows up, and a BoundaryError naming the refused rows of
    ``tables`` is raised instead.
    """
    excess, sx = edges
    opposite = tables[0]
    num, den = _cosine_law(background, excess, sx, tables)
    cos = np.divide(num, den, out=num)
    # This refuses every degenerate corner, as extended_angles_batch's screen
    # argues: fl(num + den) <= 0 gives num / den <= -1, so 1 - cos^2 <= 0.
    sin_sq = 1.0 - cos**2
    refused = sin_sq <= 0
    if refused.any():
        raise _boundary_error(refused.any(axis=1))

    # dtheta_m/dl_m = D_m = x'_m / (x'_j x'_k sin theta_m), with x' = sinh l
    # (hyperbolic) or l (euclidean), and dtheta_m/dl_a = -D_m cos theta_b
    # for {m, a, b} = {0, 1, 2}.
    d = sx[opposite] / np.multiply(den, np.sqrt(sin_sq, out=sin_sq), out=den)
    # dl/du_a = s_a (s_a c_b + I c_a s_b) / x' at the ends a, b of an edge,
    # with s = dr/du = sinh r = P and c = cosh r = 1 + T (hyperbolic), or
    # s = r and c = 1 (euclidean): once per edge end, tails then heads.
    tail, head = ends
    if background is _HYPERBOLIC:
        t, p = factors
        c = 1.0 + t
        s_tail, s_head = p[tail], p[head]
        cross_tail, cross_head = s_tail * c[head], s_head * c[tail]
    else:
        s_tail = cross_tail = factors[tail]
        s_head = cross_head = factors[head]
    at_ends = np.concatenate((s_tail * (cross_tail + inversive * cross_head) / sx,
                              s_head * (cross_head + inversive * cross_tail) / sx))
    # L_{m,m+1} and L_{m,m+2}: dl_m/du at the ends m + 1 and m + 2 of edge m
    to_next = at_ends[opposite + len(sx) * _NEXT_AT_HEAD]
    to_prev = at_ends[opposite + len(sx) * _PREV_AT_HEAD]

    # dtheta_p/du_{p+1} = D_p (L_{p,p+1} - cos theta_{p+1} L_{p+2,p+1}) and
    # dtheta_p/du_p = -D_p (cos theta_{p+2} L_{p+1,p} + cos theta_{p+1} L_{p+2,p}).
    cos_next = cos[:, _NEXT]
    coupling = d * (to_next - cos_next * to_prev[:, _PREV])
    diagonal = -d * (cos[:, _PREV] * to_prev[:, _NEXT] + cos_next * to_next[:, _PREV])
    finite = np.isfinite(coupling) & np.isfinite(diagonal)
    if not finite.all():
        # strict inequalities can hold by less than an ulp while 1/sin blows up
        raise _boundary_error(~finite.all(axis=1))
    return diagonal, coupling


# ---------------------------------------------------------------------------
# Degenerate-threshold radius
# ---------------------------------------------------------------------------

def degenerate_threshold_radius(
    r_j: float, r_k: float, inv_ij: float, inv_ik: float, inv_jk: float
) -> float:
    """Hyperbolic radius r_i at which the face {ijk} starts to degenerate.

    Solves l_ij + l_ik = l_jk for r_i with r_j, r_k fixed.  The left side
    minus the right is strictly increasing in r_i, negative at 0 exactly
    when inv_jk > 1, so the root is unique; for inv_jk in [0, 1] the face
    never degenerates by shrinking r_i and the threshold is 0.  The root is
    bisected to rounding on the kernel's rule at corner i alone, num_i +
    den_i <= 0 of ``_cosine_law`` (threshold 0 if it sees no root, as when
    inv_jk is within rounding of 1); corners j and k, which may stay
    degenerate at every r_i, do not enter.  The bracket doubles to 256 at
    most: l_ij >= r_i for I >= 0, so the gap is positive once r_i > 175, as l_jk <= 350.
    """
    check_radii([r_j, r_k])
    check_inversive([inv_ij, inv_ik, inv_jk])
    if inv_jk <= 1.0:
        return 0.0

    bg = Background.HYPERBOLIC
    # slots i, j, k = 0, 1, 2 of the triangle's double, edge m opposite slot m
    inversive = np.array([inv_jk, inv_ik, inv_ij])

    def open_at_i(r_i: float) -> bool:
        factors = _radius_factors(bg, np.array([r_i, r_j, r_k]))
        edges = _edge_lengths_arrays(bg, factors, *_DOUBLE_TRIANGLE.edges.T, inversive)
        num, den = _cosine_law(bg, *edges, _DOUBLE_TRIANGLE.face_edge_tables)
        return num[0, 0] + den[0, 0] > 0.0

    lo, hi = 0.0, 1.0
    if open_at_i(lo):
        return 0.0
    while not open_at_i(hi):
        lo, hi = hi, 2.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if open_at_i(mid):
            hi = mid
        else:
            lo = mid
    return lo
