"""Per-vertex discrete Gaussian curvature and its Jacobian.

The curvature at a vertex is 2*pi minus the sum of the incident inner
angles.  Summing the extended angles makes the curvature a continuous
function of arbitrary positive radii, and the total-curvature identity

    sum_i K_i = 2 pi chi(M) + lambda * Area(M)

holds exactly by construction because the area is assembled from the same
per-face angle defects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .angles import angle_jacobians_batch, extended_angles_batch
from .complexes import _DOUBLE_TRIANGLE, SurfaceComplex
from .errors import NotAdmissibleError
from .packing import (
    Background,
    PackingMetric,
    _check_fits,
    _edge_lengths_arrays,
    _metric_edge_arrays,
    _radius_factors,
    _u_band,
    _u_factors,
    check_inversive,
    check_radii,
)


@dataclass(frozen=True)
class CurvatureVector:
    """Per-vertex curvature, degeneracy flag, total area and degenerate-face mask."""

    values: np.ndarray
    extended: bool       # True iff some face was degenerate
    total_area: float    # hyperbolic area; 0 in euclidean background
    degenerate: np.ndarray = field(compare=False)  # (F,) degenerate-face mask

    @property
    def total(self) -> float:
        return float(self.values.sum())


def _not_admissible(degenerate: np.ndarray) -> NotAdmissibleError:
    faces = np.nonzero(degenerate)[0].tolist()
    return NotAdmissibleError(f"metric violates triangle inequalities in faces {faces}", faces)


def _curvature_vector(complex: SurfaceComplex, metric: PackingMetric) -> CurvatureVector:
    """The kernel: per-edge (excesses, x'), the extended angles of the faces
    gathered through the face edge tables, and K = 2 pi minus the angle sums."""
    angles, degenerate = extended_angles_batch(
        metric.background, *_metric_edge_arrays(complex, metric), complex.face_edge_tables
    )
    sums = np.bincount(complex.faces.ravel(), angles.ravel(), complex.vertex_count)
    values = np.subtract(2.0 * np.pi, sums, out=sums)
    if metric.background is Background.HYPERBOLIC:
        area = float(np.maximum(0.0, np.pi - angles.sum(axis=1)).sum())
    else:
        area = 0.0
    return CurvatureVector(values, bool(np.count_nonzero(degenerate)), area, degenerate)


def is_admissible(
    complex: SurfaceComplex, metric: PackingMetric
) -> tuple[bool, list[int]]:
    """Whether every face satisfies strict triangle inequalities.

    Returns the verdict and the complete list of violating faces, those the
    curvature kernel marks degenerate.  The comparison is exact: the
    admissible space is open and the extended angle kernel handles the
    boundary continuously, so no epsilon fuzzing is wanted here.
    """
    violators = np.flatnonzero(_curvature_vector(complex, metric).degenerate).tolist()
    return (not violators, violators)


def make_curvature_evaluator(
    complex: SurfaceComplex, background: Background, inversive: np.ndarray
):
    """Extended curvature and degenerate-face mask as a function of raw u-values.

    Validates the inversive distances once, by ``check_inversive`` with
    negative values allowed, and skips per-call metric construction; the
    returned callable maps u to ``(K, mask)`` by the kernel of
    ``extended_curvature`` on the factors of ``_u_factors``, forming no
    radii, so its K differs from that of the radii of u by rounding.
    The ``_u_band`` of the inversive distances is computed once: a u whose
    min and max lie in it runs the stages with ``screen=False``, the same
    arithmetic without their refusal screens or ``np.errstate``, as none
    can fire there; any other u, NaN included, takes the screened stages
    and raises what they raise.  A caller that has already reduced u passes
    its (min, max) as ``extrema``, and the band test reads them instead of
    reducing u again.  ``PotentialContext`` builds the one that every
    u-space path uses.
    """
    inv = check_inversive(inversive, complex, permissive=True)
    tail, head = np.ascontiguousarray(complex.edges.T)
    lo, hi = _u_band(background, inv)
    tables, corners, n = complex.face_edge_tables, complex.faces.ravel(), complex.vertex_count
    two_pi = np.array(2.0 * np.pi)  # a 0-d array operand, as packing._TWO

    def evaluate(u_values: np.ndarray, extrema=None):
        # the stages of _curvature_vector, on the factors of u
        if extrema is None:
            extrema = (np.minimum.reduce(u_values, axis=None),
                       np.maximum.reduce(u_values, axis=None))
        screen = not (lo <= extrema[0] and extrema[1] <= hi)
        excess, sx = _edge_lengths_arrays(
            background, _u_factors(background, u_values, screen=screen), tail, head, inv,
            screen=screen,
        )
        angles, degenerate = extended_angles_batch(background, excess, sx, tables)
        sums = np.bincount(corners, angles.ravel(), n)
        return np.subtract(two_pi, sums, out=sums), degenerate

    return evaluate


def extended_curvature(complex: SurfaceComplex, metric: PackingMetric) -> CurvatureVector:
    """Curvature from the extended angles, defined for all positive radii."""
    return _curvature_vector(complex, metric)


def curvature(complex: SurfaceComplex, metric: PackingMetric) -> CurvatureVector:
    """Classical curvature; requires the metric to be admissible."""
    curv = _curvature_vector(complex, metric)
    if curv.extended:
        raise _not_admissible(curv.degenerate)
    return curv


def _defect(complex: SurfaceComplex, background: Background, curv: CurvatureVector) -> float:
    """Gauss-Bonnet defect of an already computed extended curvature."""
    lam = background.area_weight
    return curv.total - 2.0 * np.pi * complex.euler_characteristic - lam * curv.total_area


def gauss_bonnet_defect(complex: SurfaceComplex, metric: PackingMetric) -> float:
    """sum(K) - 2 pi chi - lambda * Area; a numerical health check, ~0 always."""
    return _defect(complex, metric.background, extended_curvature(complex, metric))


def _hessian(complex: SurfaceComplex, background: Background, factors, inversive: np.ndarray):
    """H = dK/du at the per-vertex ``factors`` of ``_radius_factors`` or
    ``_u_factors``: the negated per-corner angle derivatives summed into
    (diagonal, rows, cols, couplings), N + 2E entries.  ``couplings[k]`` is
    H[rows[k], cols[k]] for each edge (tail, head) in both orientations,
    tail to head at k = e and head to tail at k = E + e, one sum per edge
    mirrored, so H is symmetric bit for bit.  BoundaryError unless every
    face is strictly admissible."""
    ends = complex.edges.T
    edges = _edge_lengths_arrays(background, factors, *ends, inversive)
    diagonal, coupling = angle_jacobians_batch(
        background, factors, inversive, edges, ends, complex.face_edge_tables
    )
    # corners p and p + 1 of a face span the edge opposite p + 2
    on_edges = np.bincount(complex.face_edge_tables[2].ravel(), coupling.ravel(),
                           complex.edge_count)
    sums = np.bincount(complex.faces.ravel(), diagonal.ravel(), complex.vertex_count)
    tail, head = ends
    return (np.negative(sums, out=sums), np.concatenate((tail, head)),
            np.concatenate((head, tail)), -np.concatenate((on_edges, on_edges)))


def _dense_hessian(diagonal, rows, cols, couplings) -> np.ndarray:
    """The N x N matrix of ``_hessian``'s entries."""
    n = len(diagonal)
    matrix = np.zeros((n, n))
    matrix[rows, cols] = couplings
    matrix.flat[:: n + 1] = diagonal
    return matrix


def curvature_jacobian(complex: SurfaceComplex, metric: PackingMetric) -> np.ndarray:
    """The N x N matrix d(K)/d(u), assembled from per-corner angle derivatives.

    Requires every face to be strictly admissible (BoundaryError otherwise).
    Symmetric bit for bit; positive definite in hyperbolic background for
    inversive distances >= 0; in euclidean background it has the all-ones
    vector in its kernel (scaling invariance).
    """
    _check_fits(complex, metric)
    factors = _radius_factors(metric.background, metric.radii)
    return _dense_hessian(*_hessian(complex, metric.background, factors, metric.inversive))


def angle_jacobian_u(background: Background, radii, inversive) -> np.ndarray:
    """d(angles)/d(u) for one triangle given vertex radii and the inversive
    distances on the opposite edges: -1/2 dK/du of the triangle's double,
    exactly, as its two faces add equal shares.  Symmetric bit for bit and,
    for inversive >= 0, negative definite."""
    r = check_radii(np.reshape(radii, 3))
    inv = check_inversive(np.reshape(inversive, 3), permissive=True)
    factors = _radius_factors(background, r)  # RangeError past the size limit
    return -0.5 * _dense_hessian(*_hessian(_DOUBLE_TRIANGLE, background, factors, inv))
