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

from .angles import clamped_arccos
from .complexes import (
    _DOUBLE_TRIANGLE, SurfaceComplex, _subcomplex_counts, link_pairs, normalize_subset,
)
from .curvature import curvature, extended_curvature
from .errors import ConfigError, DomainError, MaxIterationsError, NoDescentError, NotFoundError
from .packing import (
    Background,
    PackingMetric,
    UCoords,
    check_inversive,
    check_radii,
    radii_to_u_array,
    u_to_radii_array,
)
from .potential import PotentialContext, newton_solve

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
    inversive = check_inversive(inversive, complex)
    members = normalize_subset(complex.vertex_count, subset)
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
    """The report's subsets and bounds with each subset's curvature sum observed.

    The subsets of one size are summed as the rows of one index matrix, which
    numpy adds as it adds ``values[list(subset)]``, so bit for bit the same.
    """
    sizes = np.array([len(r.subset) for r in report.records], dtype=np.int64)
    observed = np.empty(len(sizes))
    for size in np.flatnonzero(np.bincount(sizes)).tolist():  # np.unique imports numpy.ma
        rows = np.flatnonzero(sizes == size)
        index = np.array([report.records[i].subset for i in rows.tolist()], dtype=np.int64)
        observed[rows] = values[index].sum(axis=1)
    records = tuple(
        SubsetRecord(r.subset, r.bound, sum_)
        for r, sum_ in zip(report.records, observed.tolist())
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
    check_inversive(metric.inversive, complex)
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
    inversive = check_inversive(inversive, complex)
    # Explicit subsets win; else an explicit cap; else all subsets on small
    # complexes and size <= DEFAULT_SUBSET_CAP on larger ones.
    if subsets is not None:
        resolved = [normalize_subset(complex.vertex_count, s) for s in subsets]
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
    inversive = check_inversive(inversive, complex)
    members = normalize_subset(complex.vertex_count, subset)
    base_radii = check_radii(base_radii, complex)
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
        inv = check_inversive(self.inversive)
        if inv.shape != (3,):
            raise DomainError("three inversive distances required")
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
        """Uniform points of the angle space by rejection from its bounding box:
        a (count, 3) array, or one point for count = 1 (ConfigError below 1)."""
        if count < 1:
            raise ConfigError(f"sample count must be at least 1, got {count}")
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


def triangle_from_angles(inversive, target_angles) -> np.ndarray:
    """Radii of the hyperbolic triangle realizing the given inner angles.

    The angle map is a diffeomorphism from the admissible radii onto the
    angle space, so any strictly interior target is realizable.  The inverse
    is ``newton_solve`` on the triangle's double, a sphere whose curvature at
    vertex m is 2 pi - 2 theta_m, toward the curvature 2 pi - 2 target.
    Raises NotFoundError if the solver stops short of the target.
    """
    space = TriangleAngleSpace(inversive)
    target = np.asarray(target_angles, dtype=float)
    if not space.contains(target):
        raise DomainError("target angles are outside the admissible angle space")
    start = UCoords(radii_to_u_array(np.ones(3), Background.HYPERBOLIC), Background.HYPERBOLIC)
    # The double's edges (0, 1), (0, 2), (1, 2) lie opposite slots 2, 1, 0.
    ctx = PotentialContext(
        _DOUBLE_TRIANGLE, space.inversive[::-1], start, 2.0 * np.pi - 2.0 * target
    )
    try:
        u, _ = newton_solve(ctx, start, tol=2e-9)  # 1e-9 per angle, doubled
    except (MaxIterationsError, NoDescentError) as exc:
        raise NotFoundError(f"no triangle realizes the target angles: {exc}") from None
    return u_to_radii_array(u.values, Background.HYPERBOLIC)
