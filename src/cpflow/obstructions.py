"""Combinatorial-topological obstructions to prescribed curvatures.

For every nonempty proper vertex subset A, the curvatures of an admissible
hyperbolic packing metric satisfy

    sum_{i in A} K_i  >  -sum_{(e,v) in Lk(A)} (pi - L(I_e)) + 2 pi chi(F_A)

where L is the clamped arccos, Lk(A) the link pairs of A and F_A the
induced subcomplex.  The right side is ``subset_lower_bound``; the reports
below evaluate the inequality for every subset (all bounds in one batched
pass, bit-identical to ``subset_lower_bound``), its contrapositive (a
necessary condition for zero-curvature metrics), and the degeneration
limit that makes the bound sharp.  These are necessary conditions only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable

import numpy as np

from .angles import (
    _NEXT,
    _PREV,
    _TRIANGLE_TABLES,
    angle_jacobian_u,
    clamped_arccos,
    extended_angles_batch,
)
from .complexes import SurfaceComplex, _subcomplex_counts, link_pairs, normalize_subset
from .curvature import curvature, extended_curvature
from .errors import ConfigError, CPFlowError, DomainError, NotFoundError
from .packing import (
    Background,
    PackingMetric,
    _edge_lengths_arrays,
    radii_to_u_array,
    u_to_radii_array,
)

#: default subset-size cap for complexes too large to enumerate exhaustively
DEFAULT_SUBSET_CAP = 3

#: complexes with at most this many vertices are enumerated exhaustively
EXHAUSTIVE_VERTEX_LIMIT = 16

#: subset x face-corner cells per chunk of the batched bounds; keeps the
#: per-chunk temporaries near a megabyte on complexes of any size
_CHUNK_CELLS = 1 << 16


@dataclass(frozen=True)
class SubsetRecord:
    """One subset's lower bound, observed curvature sum and margin."""

    subset: tuple
    bound: float
    observed: float

    @property
    def margin(self) -> float:
        return self.observed - self.bound


@dataclass(frozen=True)
class ObstructionReport:
    """Per-subset records plus the overall verdict.

    For the admissible-metric check the verdict is "every margin positive".
    For the zero-curvature necessary condition the observed sums are all 0
    (the hypothesis), so the verdict is "every bound negative"; a False
    verdict certifies that no admissible zero-curvature metric exists.
    """

    records: tuple
    verdict: bool

    def worst(self) -> SubsetRecord:
        return min(self.records, key=lambda r: r.margin)


def enumerate_subsets(
    complex: SurfaceComplex, max_size: int | None = None
) -> list[frozenset]:
    """Nonempty proper vertex subsets, optionally capped by size."""
    n = complex.vertex_count
    top = n - 1 if max_size is None else min(max_size, n - 1)
    out = []
    for size in range(1, top + 1):
        out.extend(frozenset(c) for c in combinations(range(n), size))
    return out


def subset_lower_bound(
    complex: SurfaceComplex, inversive: np.ndarray, subset: Iterable[int]
) -> float:
    """-sum over Lk(A) of (pi - L(I_e)) plus 2 pi chi(F_A)."""
    inversive = np.asarray(inversive, dtype=float)
    members = normalize_subset(complex, subset)
    link_sum = 0.0
    for (a, b), _vertex in link_pairs(complex, members):
        i_e = inversive[complex.edge_id(a, b)]
        link_sum += np.pi - clamped_arccos(i_e)
    nv, ne, nf = _subcomplex_counts(complex, members)
    return -link_sum + 2.0 * np.pi * (nv - ne + nf)


def _subset_lower_bounds(
    complex: SurfaceComplex, inversive: np.ndarray, subsets: list[frozenset]
) -> np.ndarray:
    """``subset_lower_bound`` of every (validated) subset, bit for bit.

    The face corners are sorted as ``link_pairs`` returns them, and a
    cumulative sum adds each subset's link weights in that order; adding 0.0
    for a corner outside the link is exact, so every bound equals the scalar
    one exactly.
    """
    inversive = np.asarray(inversive, dtype=float)
    faces = complex.faces
    vertex = faces.ravel()
    other = faces[:, [[1, 2], [0, 2], [0, 1]]].reshape(-1, 2)
    weight = np.pi - clamped_arccos(inversive[complex.face_opposite_edges.ravel()])
    order = np.lexsort((vertex, other[:, 1], other[:, 0]))
    v, a, b, weight = vertex[order], other[order, 0], other[order, 1], weight[order]
    e0, e1 = complex.edges.T
    f0, f1, f2 = faces.T

    rows = max(1, _CHUNK_CELLS // len(v))
    bounds = np.empty(len(subsets))
    for start in range(0, len(subsets), rows):
        chunk = subsets[start : start + rows]
        m = np.zeros((len(chunk), complex.vertex_count), dtype=bool)
        m[
            np.repeat(np.arange(len(chunk)), [len(s) for s in chunk]),
            np.fromiter(chain.from_iterable(chunk), dtype=np.int64),
        ] = True
        link = np.cumsum(np.where(m[:, v] & ~m[:, a] & ~m[:, b], weight, 0.0), axis=1)
        chi = (
            m.sum(axis=1)
            - (m[:, e0] & m[:, e1]).sum(axis=1)
            + (m[:, f0] & m[:, f1] & m[:, f2]).sum(axis=1)
        )
        bounds[start : start + rows] = -link[:, -1] + 2.0 * np.pi * chi
    return bounds


def _with_observed(report: ObstructionReport, values: np.ndarray) -> ObstructionReport:
    """The report's subsets and bounds with each subset's curvature sum observed."""
    records = tuple(
        SubsetRecord(r.subset, r.bound, float(values[list(r.subset)].sum()))
        for r in report.records
    )
    return ObstructionReport(records=records, verdict=all(r.margin > 0 for r in records))


def check_curvature_bounds(
    complex: SurfaceComplex,
    metric: PackingMetric,
    subsets: Iterable[Iterable[int]] | None = None,
    subset_cap: int | None = None,
) -> ObstructionReport:
    """Verify the strict subset bounds for an admissible hyperbolic metric.

    Holds for every admissible metric with inversive distances >= 0; a
    nonpositive margin therefore signals a bug, not a property of the
    metric.
    """
    if metric.background is not Background.HYPERBOLIC:
        raise ConfigError("the subset bounds are proved in hyperbolic background")
    if np.any(metric.inversive < 0):
        raise DomainError("the subset bounds require inversive distances >= 0")
    curv = curvature(complex, metric)  # raises NotAdmissibleError if outside
    zero = check_zero_curvature_obstructions(complex, metric.inversive, subsets, subset_cap)
    return _with_observed(zero, curv.values)


def check_zero_curvature_obstructions(
    complex: SurfaceComplex,
    inversive: np.ndarray,
    subsets: Iterable[Iterable[int]] | None = None,
    subset_cap: int | None = None,
) -> ObstructionReport:
    """Necessary condition for a zero-curvature metric to exist.

    Checks sum over Lk(A) of (pi - L(I_e)) > 2 pi chi(F_A) for every
    subset, i.e. every subset bound is negative.  A False verdict proves no
    admissible zero-curvature metric exists; a True verdict proves nothing
    (the conditions are necessary only).
    """
    inversive = np.asarray(inversive, dtype=float)
    if np.any(inversive < 0):
        raise DomainError("the obstruction conditions require inversive >= 0")
    # Explicit subsets win; else an explicit cap; else all subsets on small
    # complexes and size <= DEFAULT_SUBSET_CAP on larger ones.
    if subsets is not None:
        resolved = [normalize_subset(complex, s) for s in subsets]
    elif subset_cap is not None:
        if subset_cap < 1:
            raise ConfigError(f"subset cap must be at least 1, got {subset_cap}")
        resolved = enumerate_subsets(complex, max_size=subset_cap)
    elif complex.vertex_count <= EXHAUSTIVE_VERTEX_LIMIT:
        resolved = enumerate_subsets(complex)
    else:
        resolved = enumerate_subsets(complex, max_size=DEFAULT_SUBSET_CAP)
    bounds = _subset_lower_bounds(complex, inversive, resolved).tolist()
    records = [
        SubsetRecord(tuple(sorted(subset)), bound, 0.0)
        for subset, bound in zip(resolved, bounds)
    ]
    return ObstructionReport(
        records=tuple(records), verdict=all(r.margin > 0 for r in records)
    )


@dataclass(frozen=True)
class DegenerationRow:
    factor: float
    observed: float
    gap: float


@dataclass(frozen=True)
class DegenerationTable:
    """Curvature sums over A as the radii on A shrink toward 0."""

    subset: tuple
    limit: float
    rows: tuple

    @property
    def final_gap(self) -> float:
        return self.rows[-1].gap


def degeneration_limit_table(
    complex: SurfaceComplex,
    inversive: np.ndarray,
    subset: Iterable[int],
    base_radii: np.ndarray,
    shrink_factors: Iterable[float] = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6),
) -> DegenerationTable:
    """Track sum_{i in A} K_i as the radii on A shrink by the given factors.

    The sums approach the subset lower bound from above; the factors should
    decrease geometrically because the hyperbolic limits are approached
    slowly.
    """
    inversive = np.asarray(inversive, dtype=float)
    if np.any(inversive < 0):
        raise DomainError("degeneration limits require inversive >= 0")
    members = normalize_subset(complex, subset)
    base_radii = np.asarray(base_radii, dtype=float)
    mask = np.zeros(complex.vertex_count, dtype=bool)
    mask[sorted(members)] = True

    limit = subset_lower_bound(complex, inversive, members)
    rows = []
    for factor in shrink_factors:
        radii = base_radii.copy()
        radii[mask] *= factor
        metric = PackingMetric(Background.HYPERBOLIC, inversive, radii)
        observed = float(extended_curvature(complex, metric).values[mask].sum())
        rows.append(DegenerationRow(float(factor), observed, observed - limit))
    return DegenerationTable(tuple(sorted(members)), limit, tuple(rows))


# ---------------------------------------------------------------------------
# Single-triangle angle space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TriangleAngleSpace:
    """Image of the admissible radii of one hyperbolic triangle under the
    angle map: angle sums below pi with each angle below pi - L(I_opposite)."""

    inversive: np.ndarray

    def __post_init__(self):
        inv = np.asarray(self.inversive, dtype=float)
        if inv.shape != (3,) or np.any(inv < 0):
            raise DomainError("three nonnegative inversive distances required")
        object.__setattr__(self, "inversive", inv)

    @property
    def upper_bounds(self) -> np.ndarray:
        return np.pi - clamped_arccos(self.inversive)

    def contains(self, angles) -> bool:
        theta = np.asarray(angles, dtype=float)
        if theta.shape != (3,):
            raise DomainError("three angles required")
        return bool(
            theta.sum() < np.pi
            and np.all(theta > 0)
            and np.all(theta < self.upper_bounds)
        )

    def sample(self, rng: np.random.Generator, count: int = 1) -> np.ndarray:
        """Uniform points of the angle space by rejection from its bounding box."""
        bounds = self.upper_bounds
        out = np.empty((count, 3))
        filled = 0
        while filled < count:
            batch = rng.uniform(0.0, bounds, size=(max(count, 64), 3))
            keep = batch[batch.sum(axis=1) < np.pi]
            take = min(len(keep), count - filled)
            out[filled : filled + take] = keep[:take]
            filled += take
        return out if count > 1 else out[0]


def triangle_angle_space(inversive) -> TriangleAngleSpace:
    """Membership predicate and sampler for one triangle's angle space."""
    return TriangleAngleSpace(np.asarray(inversive, dtype=float))


def _triangle_angles(radii: np.ndarray, inversive: np.ndarray) -> np.ndarray:
    edges = _edge_lengths_arrays(Background.HYPERBOLIC, radii, _NEXT, _PREV, inversive)
    angles, _ = extended_angles_batch(Background.HYPERBOLIC, *edges, _TRIANGLE_TABLES)
    return angles[0]


def triangle_from_angles(
    inversive,
    target_angles,
    tol: float = 1e-9,
    max_iterations: int = 80,
    restarts: int = 12,
    seed: int = 0,
) -> np.ndarray:
    """Radii of the hyperbolic triangle realizing the given inner angles.

    The angle map is a diffeomorphism from the admissible radii onto the
    angle space, so any strictly interior target is realizable; the inverse
    is found by a damped Newton iteration in u-coordinates with random
    restarts.  Raises NotFoundError if the multistart budget runs out
    (radii diverge for targets too close to the boundary).
    """
    inv = np.asarray(inversive, dtype=float)
    space = TriangleAngleSpace(inv)
    target = np.asarray(target_angles, dtype=float)
    if not space.contains(target):
        raise DomainError("target angles are outside the admissible angle space")

    rng = np.random.default_rng(seed)
    starts = [np.ones(3)]
    starts += [np.exp(rng.uniform(np.log(1e-2), np.log(1e2), 3)) for _ in range(restarts)]

    for start in starts:
        u = radii_to_u_array(start, Background.HYPERBOLIC)
        for _ in range(max_iterations):
            radii = u_to_radii_array(u, Background.HYPERBOLIC)
            current = _triangle_angles(radii, inv)
            err = current - target
            if np.max(np.abs(err)) <= tol:
                return radii
            try:
                jac = angle_jacobian_u(Background.HYPERBOLIC, radii, inv)
                delta = np.linalg.solve(jac, -err)
            except (CPFlowError, np.linalg.LinAlgError):
                break
            # Damp: keep u in the negative orthant and the error shrinking.
            s = 1.0
            improved = False
            while s >= 1e-10:
                trial = u + s * delta
                if np.all(trial < 0):
                    trial_radii = u_to_radii_array(trial, Background.HYPERBOLIC)
                    trial_err = _triangle_angles(trial_radii, inv) - target
                    if np.max(np.abs(trial_err)) < np.max(np.abs(err)):
                        u = trial
                        improved = True
                        break
                s *= 0.5
            if not improved:
                break
    raise NotFoundError(
        "triangle_from_angles ran out of restarts; target may be too close "
        "to the angle-space boundary"
    )
