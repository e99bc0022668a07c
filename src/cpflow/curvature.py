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
from .complexes import SurfaceComplex
from .errors import BoundaryError, ConfigError, DomainError, NotAdmissibleError
from .packing import (
    Background,
    PackingMetric,
    _check_fits,
    _edge_lengths_arrays,
    _metric_edge_arrays,
    is_admissible,
    u_to_radii_array,
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


def _curvature_kernel(
    complex: SurfaceComplex, background: Background, *edges: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-edge (lengths, excesses, x') -> (curvature, (F, 3) face angles,
    degenerate-face mask), gathered through the complex's face edge tables."""
    angles, degenerate = extended_angles_batch(background, *edges, complex.face_edge_tables)
    angle_sums = np.bincount(
        complex.faces.ravel(), weights=angles.ravel(), minlength=complex.vertex_count
    )
    return 2.0 * np.pi - angle_sums, angles, degenerate


def _not_admissible(degenerate: np.ndarray) -> NotAdmissibleError:
    faces = np.nonzero(degenerate)[0].tolist()
    return NotAdmissibleError(f"metric violates triangle inequalities in faces {faces}", faces)


def _curvature_vector(complex: SurfaceComplex, metric: PackingMetric) -> CurvatureVector:
    values, angles, degenerate = _curvature_kernel(
        complex, metric.background, *_metric_edge_arrays(complex, metric)
    )
    if metric.background is Background.HYPERBOLIC:
        area = float(np.maximum(0.0, np.pi - angles.sum(axis=1)).sum())
    else:
        area = 0.0
    return CurvatureVector(values, bool(np.count_nonzero(degenerate)), area, degenerate)


def make_curvature_evaluator(
    complex: SurfaceComplex, background: Background, inversive: np.ndarray
):
    """Extended curvature and degenerate-face mask as a function of raw u-values.

    Validates the inversive distances once (ConfigError on a wrong shape,
    DomainError on values that are non-finite or <= -1) and skips per-call
    metric construction; the returned callable maps u to ``(K, mask)`` with
    values bit-identical to ``extended_curvature``.  ``PotentialContext``
    builds the one that every u-space path uses.  A caller that already holds
    ``u_to_radii_array(u)`` passes it as ``radii`` to skip that stage.
    """
    inv = np.asarray(inversive, dtype=float)
    if inv.shape != (complex.edge_count,):
        raise ConfigError("inversive array does not match the edge count")
    if not np.isfinite(inv).all() or (inv <= -1).any():
        raise DomainError("inversive distances must be finite and > -1")
    tail, head = np.ascontiguousarray(complex.edges.T)

    def evaluate(u_values: np.ndarray, radii: np.ndarray | None = None):
        if radii is None:
            radii = u_to_radii_array(u_values, background)
        edges = _edge_lengths_arrays(background, radii, tail, head, inv)
        values, _, degenerate = _curvature_kernel(complex, background, *edges)
        return values, degenerate

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


def _jacobian_blocks(
    complex: SurfaceComplex, background: Background, radii: np.ndarray, inversive: np.ndarray
) -> np.ndarray:
    """(F, 3, 3) blocks: [f, p, q] is face f's share of dK/du at (faces[f, p], faces[f, q]).

    Raises BoundaryError unless every face is strictly admissible."""
    edges = _edge_lengths_arrays(background, radii, *complex.edges.T, inversive)
    return -angle_jacobians_batch(
        background, radii, inversive, edges, complex.faces, complex.face_edge_tables
    )


def curvature_jacobian(complex: SurfaceComplex, metric: PackingMetric) -> np.ndarray:
    """The N x N matrix d(K)/d(u), assembled from per-face angle Jacobians.

    Requires every face to be strictly admissible (BoundaryError otherwise).
    Symmetric; positive definite in hyperbolic background for inversive
    distances >= 0; in euclidean background it has the all-ones vector in
    its kernel (scaling invariance).
    """
    _check_fits(complex, metric)
    try:
        blocks = _jacobian_blocks(complex, metric.background, metric.radii, metric.inversive)
    except BoundaryError:
        _, bad = is_admissible(complex, metric)
        raise BoundaryError(
            f"curvature Jacobian undefined: degenerate or boundary faces {bad}"
        ) from None

    # Flat index row * n + col of every block entry, in blocks' (f, p, q) order.
    n = complex.vertex_count
    faces = complex.faces
    cells = np.repeat(faces, 3, axis=1) * n + np.tile(faces, 3)
    return np.bincount(cells.ravel(), weights=blocks.ravel(), minlength=n * n).reshape(n, n)
