"""The reports' batched subset bounds against the scalar ``subset_lower_bound``.

The reports compute every bound in one numpy pass per chunk of subsets; the
scalar function adds the same link weights in the same order, so the two must
agree exactly, with no tolerance.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cpflow import (
    check_curvature_bounds,
    check_zero_curvature_obstructions,
    genus2_surface,
    octahedron,
    subset_lower_bound,
    tetrahedron,
    triangulated_torus,
)
from cpflow import obstructions

from conftest import random_admissible_metric

COMPLEXES = [tetrahedron(), octahedron(), genus2_surface()] + [
    triangulated_torus(n, n) for n in range(3, 8)
]


def _subsets(n: int):
    """Random nonempty proper subsets, plus the complements of one vertex:
    size N-1, with an empty link."""
    vertices = st.integers(0, n - 1)
    return st.one_of(
        st.frozensets(vertices, min_size=1, max_size=n - 1),
        vertices.map(lambda v: frozenset(range(n)) - {v}),
    )


@st.composite
def _cases(draw):
    complex = draw(st.sampled_from(COMPLEXES))
    inversive = np.array(
        draw(st.lists(st.floats(0.0, 5.0), min_size=complex.edge_count,
                      max_size=complex.edge_count))
    )
    rows = draw(st.integers(1, 6))
    subsets = draw(st.lists(_subsets(complex.vertex_count), min_size=1,
                            max_size=3 * rows + 1))
    return complex, inversive, rows, subsets


@settings(max_examples=150)
@given(_cases())
def test_batched_bounds_equal_scalar(case):
    complex, inversive, rows, subsets = case
    # Shrink the chunks to `rows` subsets so that the drawn counts straddle
    # one or more chunk boundaries.
    with mock.patch.object(obstructions, "_CHUNK_CELLS", rows * 3 * complex.face_count):
        report = check_zero_curvature_obstructions(complex, inversive, subsets)
    assert [r.subset for r in report.records] == [tuple(sorted(s)) for s in subsets]
    assert [r.bound for r in report.records] == [
        subset_lower_bound(complex, inversive, s) for s in subsets
    ]


def test_both_reports_equal_scalar_across_default_chunks(genus2, rng):
    # 1,940 subsets span several chunks at the default chunk size.
    metric = random_admissible_metric(genus2, rng, inversive_range=(0.0, 1.0))
    subsets = obstructions.enumerate_subsets(genus2, max_size=4)
    assert len(subsets) == 1940
    expected = [subset_lower_bound(genus2, metric.inversive, s) for s in subsets]
    for report in (
        check_zero_curvature_obstructions(genus2, metric.inversive, subset_cap=4),
        check_curvature_bounds(genus2, metric, subset_cap=4),
    ):
        assert [r.bound for r in report.records] == expected


def test_observed_sums_equal_per_subset_sums():
    # The observed sums are added per subset size, as the rows of one index
    # matrix; each must equal the subset's own sum bit for bit, on values
    # spanning 16 decades, where any other order of addition shows.
    rng = np.random.default_rng(4)
    for complex in COMPLEXES:
        n = complex.vertex_count
        values = rng.normal(size=n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
        subsets = [
            tuple(sorted(rng.choice(n, size, replace=False).tolist()))
            for size in rng.integers(1, n, 60)
        ]
        zero = check_zero_curvature_obstructions(complex, np.zeros(complex.edge_count), subsets)
        report = obstructions._with_observed(zero, values)
        assert [r.observed for r in report.records] == [
            float(values[list(s)].sum()) for s in subsets
        ]
        assert report.verdict == all(r.margin > 0 for r in report.records)
