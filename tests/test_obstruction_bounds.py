"""The subset bounds: one rule, checked against the paper's link form.

The reports compute every bound in one numpy pass per chunk of subsets, each
face's share summed over the subset's corners; ``subset_lower_bound`` is the
same function on one subset, so the two must agree exactly, with no
tolerance.  The paper's form, built from ``link_pairs`` and
``subcomplex_euler``, adds in another order and is matched to 1e-12.
"""

from __future__ import annotations

import itertools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpflow import (
    build_complex,
    check_curvature_bounds,
    check_zero_curvature_obstructions,
    curvature,
    genus2_surface,
    icosahedron,
    link_pairs,
    octahedron,
    subcomplex_euler,
    subset_lower_bound,
    tetrahedron,
    triangulated_torus,
)
from cpflow import cli, obstructions
from cpflow.angles import clamped_arccos
from cpflow.cli import main
from cpflow.io import load_subsets, load_surface, save_surface, write_check_report

from conftest import flip_edges, proper_subsets, random_admissible_metric

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
    # Shrink the chunks to `rows` subsets of size 1, and fewer of larger
    # sizes, so that the drawn subsets of one size straddle chunk boundaries.
    cells = rows * (int(complex.vertex_degree.max()) + complex.vertex_count)
    with mock.patch.object(obstructions, "_CHUNK_CELLS", cells):
        report = check_zero_curvature_obstructions(complex, inversive, subsets)
    assert [r.subset for r in report.records] == [tuple(sorted(s)) for s in subsets]
    assert [r.bound for r in report.records] == [
        subset_lower_bound(complex, inversive, s) for s in subsets
    ]


def test_both_reports_equal_scalar_across_default_chunks(genus2, rng):
    # 1,940 subsets span several chunks at the default chunk size.
    metric = random_admissible_metric(genus2, rng, inversive_range=(0.0, 1.0))
    subsets = proper_subsets(15, 4)
    assert len(subsets) == 1940
    expected = [subset_lower_bound(genus2, metric.inversive, s) for s in subsets]
    for report in (
        check_zero_curvature_obstructions(genus2, metric.inversive, subsets),
        check_curvature_bounds(genus2, metric, subsets),
    ):
        assert [r.bound for r in report.records] == expected


def _paper_bound(complex, weight, members):
    """The paper's right side, -sum over Lk(A) of (pi - L(I_e)) + 2 pi chi(F_A),
    from each edge's link weight pi - L(I_e)."""
    link = sum(weight[complex.edge_id(a, b)] for (a, b), _vertex in link_pairs(complex, members))
    return -link + 2.0 * np.pi * subcomplex_euler(complex, members)


def _assert_paper_form(complex, inversive, subsets):
    report = check_zero_curvature_obstructions(complex, inversive, subsets)
    weight = np.pi - clamped_arccos(inversive)
    expected = [_paper_bound(complex, weight, s) for s in subsets]
    np.testing.assert_allclose(report.bounds, expected, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("make", [tetrahedron, octahedron, icosahedron])
def test_every_bound_of_a_stock_sphere_is_the_paper_form(make):
    complex = make()
    rng = np.random.default_rng(complex.vertex_count)
    subsets = proper_subsets(complex.vertex_count)
    _assert_paper_form(complex, rng.uniform(0.0, 5.0, complex.edge_count), subsets)


def test_sampled_genus2_bounds_are_the_paper_form(genus2):
    rng = np.random.default_rng(31)
    n = genus2.vertex_count
    subsets = [frozenset(rng.choice(n, size, replace=False).tolist())
               for size in rng.integers(1, n, 2000)]
    _assert_paper_form(genus2, rng.uniform(0.0, 5.0, genus2.edge_count), subsets)


@pytest.mark.parametrize("base", [genus2_surface(), triangulated_torus(4, 4)],
                         ids=["genus2", "torus4"])
def test_bounds_on_flipped_surfaces_are_the_paper_form(base):
    # Edge flips give vertices of degree 3 up to about twice the base's, and
    # faces whose corners a subset meets in every combination.
    rng = np.random.default_rng(base.vertex_count)
    n = base.vertex_count
    for _ in range(4):
        complex = build_complex(flip_edges(base.faces, rng, 2 * base.face_count))
        subsets = [frozenset(rng.choice(n, size, replace=False).tolist())
                   for size in rng.integers(1, n, 100)]
        _assert_paper_form(complex, rng.uniform(0.0, 5.0, complex.edge_count), subsets)


def test_the_bound_of_every_vertex_is_two_pi_chi(tmp_path):
    # With A = V every face has three members, so the shares add to pi F
    # whatever the inversive distances, and 2 pi N - pi F = 2 pi chi: the
    # rule states it as Gauss-Bonnet's 2 pi chi exactly, and a subsets file
    # may list V.
    rng = np.random.default_rng(5)
    surfaces = COMPLEXES + [icosahedron()] + [
        build_complex(flip_edges(base.faces, rng, base.face_count)) for base in COMPLEXES[2:]]
    for complex in surfaces:
        n, two_pi_chi = complex.vertex_count, 2.0 * np.pi * complex.euler_characteristic
        everything = (np.arange(n)[None, :],)
        for inversive in (np.zeros(complex.edge_count), rng.uniform(0.0, 5.0, complex.edge_count)):
            bound = obstructions._subset_lower_bounds(complex, inversive, everything)
            assert bound.tolist() == [two_pi_chi]
            assert subset_lower_bound(complex, inversive, range(n)) == two_pi_chi
            weight = np.pi - clamped_arccos(inversive)
            assert abs(_paper_bound(complex, weight, range(n)) - two_pi_chi) <= 1e-12
        path = tmp_path / "subsets.json"
        path.write_text(json.dumps({"format": 1, "subsets": [list(range(n))[::-1], [0]]}))
        assert load_subsets(path, n) == [frozenset(range(n)), frozenset({0})]


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


# ---------------------------------------------------------------------------
# The `check` report against a per-subset reference
# ---------------------------------------------------------------------------

def _reference_record(complex, inversive, values, subset):
    """One report record per subset, both sections, from the scalar bound."""
    bound = subset_lower_bound(complex, inversive, subset)
    observed = float(values[list(subset)].sum())
    return (
        {"subset": list(subset), "bound": bound, "observed": 0.0, "margin": 0.0 - bound},
        {"subset": list(subset), "bound": bound, "observed": observed, "margin": observed - bound},
    )


def _check_report(tmp_path, complex, metric, *options):
    """``cpflow check`` on a surface file of the metric: its report text,
    the surface as parsed and the zero-curvature report the command built,
    capped or not."""
    surface = tmp_path / "s.json"
    save_surface(surface, complex, metric.background, metric.inversive, metric.radii)
    report = tmp_path / "s.check.json"
    argv = ["check", str(surface), "--report", str(report),
            "--manifest", str(tmp_path / "s.manifest.json"), *options]
    built = []

    def keeping(build):
        def keep(*args):
            built.append(build(*args))
            return built[-1]
        return keep

    with mock.patch.object(cli, "check_zero_curvature_obstructions",
                           keeping(check_zero_curvature_obstructions)), \
            mock.patch.object(cli, "_capped_report", keeping(obstructions._capped_report)):
        assert main(argv) == 0
    return report.read_text(encoding="utf-8"), load_surface(surface), built[0]


@pytest.mark.parametrize(
    "name, options, stride",
    [("tetra", ("--subset-cap", "3"), 1), ("octa", ("--subset-cap", "5"), 1),
     ("genus2", ("--subset-cap", "14"), 331), ("genus2", ("--subset-cap", "3"), 1),
     ("torus5", ("--subset-cap", "3"), 13), ("genus2", ("--subsets-file",), 1)],
    ids=["tetra", "octa", "genus2", "genus2-cap3", "torus5", "genus2-file"],
)
def test_check_report_equals_per_subset_reference(tmp_path, name, options, stride):
    # The report is compared as text: every float in it must be the scalar
    # reference's, with the same sign of zero and the same repr.
    complex = {"tetra": tetrahedron, "octa": octahedron, "genus2": genus2_surface,
               "torus5": lambda: triangulated_torus(5, 5)}[name]()
    rng = np.random.default_rng(18)
    metric = random_admissible_metric(complex, rng, radius_range=(0.5, 2.0),
                                      inversive_range=(0.0, 1.0))
    n = complex.vertex_count
    if options == ("--subsets-file",):
        # mixed sizes, unsorted members and one repeat, kept in file order
        order = [[5, 1], [3], [9, 2, 7], [1, 5], [14, 0, 8, 2], [3], [12, 4, 6, 0, 10]]
        path = tmp_path / "subsets.json"
        path.write_text(json.dumps({"format": 1, "subsets": order}), encoding="utf-8")
        options = ("--subsets-file", str(path))
        order = [sorted(s) for s in order]
    else:
        order = list(map(list, proper_subsets(n, int(options[1]))))
    text, parsed, report = _check_report(tmp_path, complex, metric, *options)
    values = curvature(parsed.complex, parsed.require_metric()).values
    doc = json.loads(text)

    assert doc["subset_count"] == len(order) == len(report.bounds)
    sections = (doc["zero_curvature_necessary"], doc["curvature_bounds"])
    for section in sections:
        assert [r["subset"] for r in section["records"]] == order
        assert section["verdict"] is all(r["margin"] > 0 for r in section["records"])
    if stride == 1:
        zero, bounds = zip(*(_reference_record(parsed.complex, parsed.inversive, values, s)
                             for s in order))
        expected = {
            "format": 1,
            "subset_count": len(order),
            "zero_curvature_necessary": {
                "verdict": all(r["margin"] > 0 for r in zero), "records": list(zero)},
            "curvature_bounds": {
                "verdict": all(r["margin"] > 0 for r in bounds), "records": list(bounds)},
        }
        assert text == json.dumps(expected) + "\n"
    else:
        for i in range(0, len(order), stride):
            reference = _reference_record(parsed.complex, parsed.inversive, values, order[i])
            for section, record in zip(sections, reference):
                assert json.dumps(section["records"][i]) == json.dumps(record)


def test_check_report_writer_prints_each_margin_as_json_does(tmp_path):
    # Zero bounds of either sign give the zero section's margin 0.0 - bound =
    # +0.0; other bounds flip the sign of their text, tiny and huge included.
    bounds = np.array([0.0, -0.0, 1.5, -2.5e-300, 1e22, -np.pi])
    members = (np.array([[3], [1]]), np.array([[0, 2], [1, 4], [2, 5], [0, 5]]))
    order = np.array([2, 0, 3, 1, 4, 5])
    zero = obstructions.ObstructionReport(members, order, bounds, np.zeros(6))
    observed = obstructions._with_observed(zero, np.array([0.5, -0.25, 0.0, 1e-17, -3.0, 2.0]))
    path = tmp_path / "report.json"
    for sections in ((zero, None), (zero, observed)):
        write_check_report(path, *sections)
        expected = {"format": 1, "subset_count": 6}
        for key, report in zip(("zero_curvature_necessary", "curvature_bounds"), sections):
            expected[key] = None if report is None else {"verdict": report.verdict, "records": [
                {"subset": s, "bound": b, "observed": o, "margin": m}
                for s, b, o, m in zip(report.subset_lists(), report.bounds.tolist(),
                                      report.observed.tolist(), report.margins.tolist())]}
        assert path.read_text(encoding="utf-8") == json.dumps(expected) + "\n"
    text = path.read_text(encoding="utf-8")
    assert '"margin": -0.0' not in text
    assert text.count('"observed": 0.0, "margin": 0.0}') == 2


def test_cli_check_builds_no_subset_records(tmp_path, genus2, rng, monkeypatch):
    # The report is written from its columns; per-subset record objects are
    # for library callers only.
    built = []

    class Counted(obstructions.SubsetRecord):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(obstructions, "SubsetRecord", Counted)
    metric = random_admissible_metric(genus2, rng, radius_range=(0.5, 2.0),
                                      inversive_range=(0.0, 1.0))
    text, _, report = _check_report(tmp_path, genus2, metric, "--subset-cap", "2")
    assert json.loads(text)["curvature_bounds"] is not None
    assert built == [] and len(report.bounds) == 120
    # The report's records do build them, once, on first read, so the
    # patch would see a fallback.
    assert report.records[0].subset == (0,) and len(built) == 120
    assert report.records is report.records and len(built) == 120


# ---------------------------------------------------------------------------
# The default check: every nonempty subset, decided by one maximum flow
# ---------------------------------------------------------------------------

def _brute_force(complex, inversive):
    """Every nonempty subset, V last, with a function giving each one's
    margin sum_A K - bound(A) for curvatures K; the bounds are the
    face-count rule's, which ``subset_lower_bound`` applies to one subset."""
    n = complex.vertex_count
    matrices = tuple(np.array(list(itertools.combinations(range(n), k))) for k in range(1, n))
    bounds = np.append(obstructions._subset_lower_bounds(complex, inversive, matrices),
                       subset_lower_bound(complex, inversive, range(n)))
    subsets = [row for m in matrices for row in m.tolist()] + [list(range(n))]

    def margins(values):
        sums = [values[m].sum(axis=1) for m in matrices] + [[values.sum()]]
        return np.concatenate(sums) - bounds

    return subsets, margins


@pytest.mark.parametrize("base", [tetrahedron(), octahedron(), icosahedron(), genus2_surface(),
                                  triangulated_torus(3, 3), triangulated_torus(4, 4), "flipped"],
                         ids=["tetra", "octa", "icosa", "genus2", "torus3", "torus4", "flipped"])
def test_min_margin_cut_equals_brute_force(base):
    # On K = 0, on the curvature of an admissible metric and on K drawn
    # from [-2 pi, 2 pi], the flow's least margin is min(0, the least of
    # all 2^N - 1 margins) and, where one subset attains it and some margin
    # is negative, the flow's witness is that subset; where every margin is
    # positive the witness is empty.
    rng = np.random.default_rng(2004)
    surfaces = [base] if base != "flipped" else [
        build_complex(flip_edges(b.faces, rng, b.face_count)) for b in (icosahedron(), genus2_surface())]
    for complex in surfaces:
        n = complex.vertex_count
        metric = random_admissible_metric(complex, rng, inversive_range=(0.0, 2.0))
        subsets, margins_of = _brute_force(complex, metric.inversive)
        for values in (np.zeros(n), curvature(complex, metric).values,
                       *rng.uniform(-2.0 * np.pi, 2.0 * np.pi, (2, n))):
            margins = margins_of(values)
            least, witness = obstructions._min_margin_cut(complex, metric.inversive, values)
            assert abs(least - min(0.0, margins.min())) <= 1e-12
            ranked = np.sort(margins)
            if ranked[0] > 1e-9:
                assert witness == []
            elif ranked[0] < -1e-9 and ranked[1] - ranked[0] > 1e-9:
                assert witness == subsets[int(margins.argmin())]


@pytest.mark.parametrize("size", [3, 20])
def test_a_torus_at_zero_curvature_has_witness_v(size):
    # Gauss-Bonnet makes margin(V) = 0 at K = 0 on a torus, a tie with the
    # empty set that rounding in the flow must not hide: the witness is V,
    # and the default report says False with V its one record.
    torus = triangulated_torus(size, size)
    rng = np.random.default_rng(size)
    inversive = rng.uniform(0.0, 1.0, torus.edge_count)
    least, witness = obstructions._min_margin_cut(torus, inversive, np.zeros(size * size))
    assert abs(least) <= 1e-12 and witness == list(range(size * size))
    report = check_zero_curvature_obstructions(torus, inversive)
    assert not report.verdict
    assert [(r.subset, r.bound, r.margin) for r in report.records] == [
        (tuple(range(size * size)), 0.0, 0.0)]


def test_decided_report_records_the_witness_then_v(genus2):
    # Each record's bound is the face-count rule's and its sum the
    # curvatures', so the verdict rests on them and not on the flow's value.
    rng = np.random.default_rng(35)
    inversive = rng.uniform(0.0, 1.0, genus2.edge_count)
    everything = tuple(range(genus2.vertex_count))
    for _ in range(5):
        values = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, genus2.vertex_count)
        _, witness = obstructions._min_margin_cut(genus2, inversive, values)
        report = obstructions._decided_report(genus2, inversive, values)
        expected = [tuple(witness), everything] if witness and len(witness) < 15 else [everything]
        assert report.decided and [r.subset for r in report.records] == expected
        for record in report.records:
            assert record.bound == subset_lower_bound(genus2, inversive, record.subset)
            assert record.observed == float(values[list(record.subset)].sum())
        assert report.verdict == all(r.margin > 0 for r in report.records)


def test_default_check_of_a_torus_40_by_40_passes(tmp_path):
    # 1,600 vertices: the enumeration of subsets of up to 3 vertices would
    # build a 682,240,800-row member matrix; the flow decides all subsets.
    torus = triangulated_torus(40, 40)
    rng = np.random.default_rng(40)
    metric = random_admissible_metric(torus, rng, radius_range=(0.5, 2.0),
                                      inversive_range=(0.0, 1.0))
    text, parsed, _ = _check_report(tmp_path, torus, metric)
    doc = json.loads(text)
    everything = list(range(1600))
    zero, bounds = doc["zero_curvature_necessary"], doc["curvature_bounds"]
    assert doc["subsets"].startswith("every nonempty subset, V included")
    assert zero == {"verdict": False, "records": [
        {"subset": everything, "bound": 0.0, "observed": 0.0, "margin": 0.0}]}
    values = curvature(parsed.complex, parsed.require_metric()).values
    assert bounds["verdict"] is True and [r["subset"] for r in bounds["records"]] == [everything]
    assert bounds["records"][0]["observed"] == float(values.sum()) > 0.0
