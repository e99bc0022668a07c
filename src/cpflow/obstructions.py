"""Combinatorial-topological obstructions to prescribed curvatures.

For every nonempty vertex subset A, the curvatures of an admissible
hyperbolic packing metric satisfy

    sum_{i in A} K_i  >  -sum_{(e,v) in Lk(A)} (pi - L(I_e)) + 2 pi chi(F_A)

where L is the clamped arccos, Lk(A) the link pairs of A and F_A the
induced subcomplex; for A = V the right side is 2 pi chi(M) and the
inequality is Gauss-Bonnet.  The right side is ``subset_lower_bound``; the
reports below evaluate the inequality, its contrapositive (a necessary
condition for zero-curvature metrics), and the degeneration limit that
makes the bound sharp.  These are necessary conditions only.  Without a
subset list or cap, a report decides every nonempty subset by one maximum
flow and records the least-margin subset, if some margin is <= 0, and V.
A report is columnar: one member matrix per subset size, bounds from the
one face-count rule of ``subset_lower_bound``, and observed sums as arrays;
``SubsetRecord``s are built only when a caller reads ``records``.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, combinations

import numpy as np

from .angles import clamped_arccos
from .complexes import (
    _DOUBLE_TRIANGLE, SurfaceComplex, _is_integer, _is_positive_finite, normalize_subset,
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

#: residual capacity at or below which ``_min_margin_cut`` counts an edge as
#: saturated: the flow's pushes leave rounding of about 1e-15 on edges the
#: exact flow saturates, as on a torus at K = 0, where V ties with the empty set
_SATURATED = 1e-12

#: subset x (corner + vertex) cells per chunk of the batched bounds; keeps
#: the per-chunk temporaries near a megabyte on complexes of any size
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


@dataclass(frozen=True, eq=False)
class ObstructionReport:
    """Per-subset bounds and observed sums as columns, plus the overall verdict.

    ``subsets`` holds one matrix of sorted members per subset size, and
    ``order`` the index of each report entry among their rows in turn.  For
    the admissible-metric check the verdict is "every margin positive".  For
    the zero-curvature necessary condition the observed sums are all 0 (the
    hypothesis), so the verdict is "every bound negative"; a False verdict
    certifies that no admissible zero-curvature metric exists.  A
    ``decided`` report's verdict covers every nonempty subset: its records
    are the maximum flow's least-margin subset, if it found one, and V.
    """

    subsets: tuple
    order: np.ndarray
    bounds: np.ndarray
    observed: np.ndarray
    decided: bool = False

    @property
    def margins(self) -> np.ndarray:
        return self.observed - self.bounds  # 0.0 - bound, never -bound, when unobserved

    @property
    def verdict(self) -> bool:
        return bool((self.margins > 0).all())

    @cached_property
    def records(self) -> tuple:
        """The report's entries as ``SubsetRecord``s, built on first read."""
        return tuple(map(SubsetRecord, map(tuple, self.subset_lists()), self.bounds.tolist(),
                         self.observed.tolist()))

    def subset_lists(self) -> list:
        """Each subset's sorted members as a list, in report order."""
        rows = list(chain.from_iterable(m.tolist() for m in self.subsets))
        return [rows[i] for i in self.order.tolist()]

    def __eq__(self, other):
        return (isinstance(other, ObstructionReport)
                and self.subset_lists() == other.subset_lists()
                and self.bounds.tolist() == other.bounds.tolist()
                and self.observed.tolist() == other.observed.tolist())


def subset_lower_bound(
    complex: SurfaceComplex, inversive: np.ndarray, subset: Iterable[int]
) -> float:
    """-sum over Lk(A) of (pi - L(I_e)) plus 2 pi chi(F_A), as the reports
    compute it: ``_subset_lower_bounds`` on the one sorted subset."""
    inversive = check_inversive(inversive, complex)
    members = sorted(normalize_subset(complex.vertex_count, subset))
    return float(_subset_lower_bounds(complex, inversive, (np.array([members]),))[0])


def _corner_shares(complex: SurfaceComplex, inversive: np.ndarray) -> np.ndarray:
    """Each face corner's h_f for A holding that corner alone: pi - L(I opposite)."""
    return np.pi - clamped_arccos(inversive[complex.face_opposite_edges.ravel()])


def _subset_lower_bounds(
    complex: SurfaceComplex, inversive: np.ndarray, subsets: tuple
) -> np.ndarray:
    """The bound 2 pi |A| - sum of h_f over the faces f meeting A, for the rows
    of each member matrix in turn: h_f is pi - L(I_e) when A meets f in the
    vertex opposite e alone, else pi, and each member's corner of a face with
    k members adds h_f / k.  This is the link form, as 2 E_A = F_2 + 3 F_3.
    """
    n = complex.vertex_count
    vertex = complex.faces.ravel()
    # Each corner's other two vertices and weight, and a pad corner at vertex
    # n, never a member, of weight 0.
    a, b = np.append(complex.faces[:, [[1, 2], [0, 2], [0, 1]]].reshape(-1, 2), [[n, n]], 0).T
    weight = np.append(_corner_shares(complex, inversive), 0.0)
    corners = np.full((n, complex.vertex_degree.max()), len(vertex))  # corners per vertex
    by_vertex, at = np.argsort(vertex, kind="stable"), np.sort(vertex)
    corners[at, np.arange(len(at)) - np.searchsorted(at, at)] = by_vertex

    bounds = []
    for members in subsets:
        size = members.shape[1]
        if size == n:  # A = V: Gauss-Bonnet's 2 pi chi(M), exactly
            bounds.append(np.full(len(members), 2.0 * np.pi * complex.euler_characteristic))
            continue
        step = max(1, _CHUNK_CELLS // (size * corners.shape[1] + n))
        for start in range(0, len(members), step):
            chunk = members[start : start + step]
            line = np.arange(len(chunk))[:, None]
            inside = np.zeros((len(chunk), n + 1), dtype=bool)
            inside[line, chunk] = True
            corner = corners[chunk].reshape(len(chunk), -1)
            # A corner's face has 1 + others members; shares are set in place.
            others = inside[line, a[corner]].view(np.uint8) + inside[line, b[corner]]
            share = weight[corner]
            np.divide(np.pi, others + 1, out=share, where=others > 0)
            bounds.append(2.0 * np.pi * size - share.sum(axis=1))
    return np.concatenate(bounds)


def _with_observed(report: ObstructionReport, values: np.ndarray) -> ObstructionReport:
    """The report's subsets and bounds with each subset's curvature sum observed.

    The subsets of one size are summed as the rows of one index matrix, which
    numpy adds as it adds ``values[list(subset)]``, so bit for bit the same.
    """
    observed = np.concatenate([values[m].sum(axis=1) for m in report.subsets])[report.order]
    return replace(report, observed=observed)


def _min_margin_cut(complex: SurfaceComplex, inversive: np.ndarray,
                    curvature: np.ndarray) -> tuple[float, list]:
    """min(0, the least margin sum_A K - bound(A) over nonempty subsets A,
    A = V included) and the largest subset attaining it, empty where every
    margin is positive; for I >= 0 and every K_v <= 2 pi.

    The margin is the cut function, less its value C = sum_V (2 pi - K_v)
    at A = {}, of the network source -> v (capacity 2 pi - K_v), v -> f
    (the face share pi - L(I of the edge opposite v), at least pi / 2),
    f -> sink (pi): a face on the sink's side costs the shares of its
    members in A, on the source's side pi, and the cheaper is h_f
    (Kolmogorov & Zabih 2004).  A maximum flow is therefore C + min(0,
    least margin).  Dinic's algorithm finds it, each blocking flow by an
    iterative depth-first search.  The least margin is minus the residual
    left on the source's edges, and the largest minimizer is the vertices
    that cannot reach the sink through unsaturated edges.
    """
    n, nf = complex.vertex_count, complex.face_count
    source, sink = n + nf, n + nf + 1
    faces = np.arange(n, n + nf)
    tails = np.concatenate([np.full(n, source), complex.faces.ravel(), faces])
    heads = np.concatenate([np.arange(n), np.repeat(faces, 3), np.full(nf, sink)])
    capacity = np.concatenate([2.0 * np.pi - curvature, _corner_shares(complex, inversive),
                               np.full(nf, np.pi)])
    # Edge 2k is arc k and edge 2k + 1 its reverse, of no capacity.
    residual = np.stack([capacity, np.zeros_like(capacity)], 1).ravel().tolist()
    head = np.stack([heads, tails], 1).ravel().tolist()
    tail = np.stack([tails, heads], 1).ravel()
    by_tail = np.argsort(tail, kind="stable")
    starts = np.searchsorted(tail[by_tail], np.arange(sink + 2)).tolist()
    by_tail = by_tail.tolist()
    out = [by_tail[starts[x] : starts[x + 1]] for x in range(sink + 1)]  # edges leaving x

    while True:
        level = [-1] * (sink + 1)
        level[source] = 0
        queue = [source]
        for x in queue:
            for e in out[x]:
                if residual[e] > 0.0 and level[head[e]] < 0:
                    level[head[e]] = level[x] + 1
                    queue.append(head[e])
        if level[sink] < 0:
            break
        arc, path, x = [0] * (sink + 1), [], source
        while True:
            if x == sink:
                push = min(residual[e] for e in path)
                for e in path:
                    residual[e] -= push
                    residual[e ^ 1] += push
                path, x = [], source
                continue
            edges, i, deeper = out[x], arc[x], level[x] + 1
            while i < len(edges) and not (residual[edges[i]] > 0.0 and level[head[edges[i]]] == deeper):
                i += 1
            arc[x] = i
            if i < len(edges):
                path.append(edges[i])
                x = head[edges[i]]
            elif x == source:
                break
            else:  # a dead end: drop it from the level graph and back up
                level[x] = -1
                x = head[path.pop() ^ 1]
                arc[x] += 1

    reaches = [False] * (sink + 1)
    reaches[sink] = True
    queue = [sink]
    for y in queue:
        for e in out[y]:  # e runs y -> x, so e ^ 1 runs x -> y
            if not reaches[head[e]] and residual[e ^ 1] > _SATURATED:
                reaches[head[e]] = True
                queue.append(head[e])
    return -sum(residual[0 : 2 * n : 2]), [v for v in range(n) if not reaches[v]]


def _decided_report(complex: SurfaceComplex, inversive: np.ndarray,
                    values: np.ndarray) -> ObstructionReport:
    """The verdict over every nonempty subset, A = V included, for the
    curvatures ``values``: records for the flow's least-margin subset, if it
    found one, and for V, each bound by the face-count rule (V's is 2 pi
    chi), so that no verdict rests on the flow's value."""
    n = complex.vertex_count
    _, witness = _min_margin_cut(complex, inversive, values)
    listed = [witness, range(n)] if 0 < len(witness) < n else [range(n)]
    return replace(_with_observed(_listed_report(complex, inversive, listed), values), decided=True)


def _listed_report(complex: SurfaceComplex, inversive: np.ndarray, subsets) -> ObstructionReport:
    """The zero-curvature report on explicit subsets, in their order, repeats kept."""
    resolved = [sorted(normalize_subset(complex.vertex_count, s)) for s in subsets]
    if not resolved:
        raise ConfigError("no subsets to check")
    sizes = list(map(len, resolved))
    matrices = tuple(np.array([s for s in resolved if len(s) == k]) for k in sorted(set(sizes)))
    order = np.argsort(np.argsort(sizes, kind="stable"))  # inverse of the grouping
    bounds = _subset_lower_bounds(complex, inversive, matrices)[order]
    return ObstructionReport(matrices, order, bounds, np.zeros(len(bounds)))


def enumerate_subsets(n: int, cap) -> tuple:
    """The proper subsets of n vertices with 1 .. cap members, for
    ``_capped_report`` alone: a matrix of sorted members per size, rows in
    ``combinations`` order (ConfigError unless cap is an integer >= 1).
    ``bench/tracing.py`` times the enumeration under this name."""
    if not _is_integer(cap):
        raise ConfigError(f"subset cap must be an integer, got {cap!r}")
    if cap < 1:
        raise ConfigError(f"subset cap must be at least 1, got {cap}")
    return tuple(
        np.fromiter(chain.from_iterable(combinations(range(n), k)), np.int64).reshape(-1, k)
        for k in range(1, min(cap, n - 1) + 1))


def _capped_report(complex: SurfaceComplex, inversive: np.ndarray, cap) -> ObstructionReport:
    """``cpflow check --subset-cap``'s zero-curvature report, on checked
    inversive distances: every proper subset of at most ``cap`` members, as
    a subsets file listing them size by size in ``combinations`` order gives."""
    matrices = enumerate_subsets(complex.vertex_count, cap)
    bounds = _subset_lower_bounds(complex, inversive, matrices)
    return ObstructionReport(matrices, np.arange(len(bounds)), bounds, np.zeros(len(bounds)))


def check_curvature_bounds(
    complex: SurfaceComplex,
    metric: PackingMetric,
    subsets: Iterable[Iterable[int]] | None = None,
) -> ObstructionReport:
    """Verify the strict subset bounds for an admissible hyperbolic metric.

    Holds for every admissible metric with inversive distances >= 0; a
    nonpositive margin therefore signals a bug, not a property of the
    metric.  Without subsets the report is decided over every nonempty
    subset, as in ``check_zero_curvature_obstructions``.
    """
    if metric.background is not Background.HYPERBOLIC:
        raise ConfigError("the subset bounds are proved in hyperbolic background")
    check_inversive(metric.inversive, complex)
    curv = curvature(complex, metric)  # raises NotAdmissibleError if outside
    if subsets is None:
        return _decided_report(complex, metric.inversive, curv.values)
    return _with_observed(_listed_report(complex, metric.inversive, subsets), curv.values)


def check_zero_curvature_obstructions(
    complex: SurfaceComplex,
    inversive: np.ndarray,
    subsets: Iterable[Iterable[int]] | None = None,
) -> ObstructionReport:
    """Necessary condition for a zero-curvature metric to exist.

    Checks sum over Lk(A) of (pi - L(I_e)) > 2 pi chi(F_A) for each
    subset, i.e. every subset bound is negative: the explicit subsets, or
    else every nonempty subset, A = V included, decided by one maximum
    flow.  A False verdict proves no admissible zero-curvature metric
    exists; a True verdict proves nothing (the conditions are necessary
    only).
    """
    inversive = check_inversive(inversive, complex)
    if subsets is None:
        return _decided_report(complex, inversive, np.zeros(complex.vertex_count))
    return _listed_report(complex, inversive, subsets)


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
    slowly.  ConfigError without factors or for one not finite and positive.
    """
    inversive = check_inversive(inversive, complex)
    members = normalize_subset(complex.vertex_count, subset)
    base_radii = check_radii(base_radii, complex)
    mask = np.zeros(complex.vertex_count, dtype=bool)
    mask[sorted(members)] = True

    limit = subset_lower_bound(complex, inversive, members)
    rows = []
    for factor in shrink_factors:
        if not _is_positive_finite(factor):
            raise ConfigError(f"shrink factors must be finite and positive numbers, got {factor!r}")
        radii = base_radii.copy()
        radii[mask] *= factor
        metric = PackingMetric(Background.HYPERBOLIC, inversive, radii)
        observed = float(extended_curvature(complex, metric).values[mask].sum())
        rows.append(DegenerationRow(float(factor), observed, observed - limit))
    if not rows:
        raise ConfigError("no shrink factors to apply")
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
        a (count, 3) array, or one point for count = 1; count is an integer >= 1."""
        if not _is_integer(count):
            raise ConfigError(f"sample count must be an integer, got {count!r}")
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
    ctx = PotentialContext(_DOUBLE_TRIANGLE, space.inversive, start, 2.0 * np.pi - 2.0 * target)
    try:
        u, _ = newton_solve(ctx, start, tol=2e-9)  # 1e-9 per angle, doubled
    except (MaxIterationsError, NoDescentError) as exc:
        raise NotFoundError(f"no triangle realizes the target angles: {exc}") from None
    return u_to_radii_array(u.values, Background.HYPERBOLIC)
