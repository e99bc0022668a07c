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
    _edge_lengths_arrays,
    all_edge_lengths,
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
    complex: SurfaceComplex, background: Background, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-edge lengths -> (curvature, (F, 3) face angles, degenerate-face mask)."""
    angles, degenerate = extended_angles_batch(
        background, lengths[complex.face_opposite_edges]
    )
    angle_sums = np.bincount(
        complex.faces.ravel(), weights=angles.ravel(), minlength=complex.vertex_count
    )
    return 2.0 * np.pi - angle_sums, angles, degenerate


def _not_admissible(degenerate: np.ndarray) -> NotAdmissibleError:
    faces = np.nonzero(degenerate)[0].tolist()
    return NotAdmissibleError(f"metric violates triangle inequalities in faces {faces}", faces)


def _curvature_vector(complex: SurfaceComplex, metric: PackingMetric) -> CurvatureVector:
    values, angles, degenerate = _curvature_kernel(
        complex, metric.background, all_edge_lengths(complex, metric)
    )
    if metric.background is Background.HYPERBOLIC:
        area = float(np.maximum(0.0, np.pi - angles.sum(axis=1)).sum())
    else:
        area = 0.0
    return CurvatureVector(values, bool(degenerate.any()), area, degenerate)


def make_curvature_evaluator(
    complex: SurfaceComplex, background: Background, inversive: np.ndarray
):
    """Extended curvature and degenerate-face mask as a function of raw u-values.

    Validates the inversive distances once (ConfigError on a wrong shape,
    DomainError on values that are non-finite or <= -1) and skips per-call
    metric construction; the returned callable maps u to ``(K, mask)`` with
    values bit-identical to ``extended_curvature``.  It is what the flow,
    potential and residual paths use.
    """
    inv = np.asarray(inversive, dtype=float)
    if inv.shape != (complex.edge_count,):
        raise ConfigError("inversive array does not match the edge count")
    if not np.all(np.isfinite(inv)) or np.any(inv <= -1):
        raise DomainError("inversive distances must be finite and > -1")
    tail, head = complex.edges[:, 0], complex.edges[:, 1]

    def evaluate(u_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        radii = u_to_radii_array(u_values, background)
        lengths = _edge_lengths_arrays(background, radii[tail], radii[head], inv)
        values, _, degenerate = _curvature_kernel(complex, background, lengths)
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


def gauss_bonnet_defect(complex: SurfaceComplex, metric: PackingMetric) -> float:
    """sum(K) - 2 pi chi - lambda * Area; a numerical health check, ~0 always."""
    curv = extended_curvature(complex, metric)
    lam = metric.background.area_weight
    return curv.total - 2.0 * np.pi * complex.euler_characteristic - lam * curv.total_area


def curvature_jacobian(complex: SurfaceComplex, metric: PackingMetric) -> np.ndarray:
    """The N x N matrix d(K)/d(u), assembled from per-face angle Jacobians.

    Requires every face to be strictly admissible (BoundaryError otherwise).
    Symmetric; positive definite in hyperbolic background for inversive
    distances >= 0; in euclidean background it has the all-ones vector in
    its kernel (scaling invariance).
    """
    faces = complex.faces
    radii_tri = metric.radii[faces]
    inv_tri = metric.inversive[complex.face_opposite_edges]
    try:
        face_jac = angle_jacobians_batch(metric.background, radii_tri, inv_tri)
    except BoundaryError:
        _, bad = is_admissible(complex, metric)
        raise BoundaryError(
            f"curvature Jacobian undefined: degenerate or boundary faces {bad}"
        ) from None

    n = complex.vertex_count
    jac = np.zeros((n, n))
    for p in range(3):
        for q in range(3):
            np.subtract.at(jac, (faces[:, p], faces[:, q]), face_jac[:, p, q])
    return jac
