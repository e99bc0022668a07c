from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import importlib
import inspect
import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cpflow
from cpflow import (
    Background, PackingMetric, ParseError, curvature, newton_solve, subset_lower_bound,
    tetrahedron,
)
import cpflow.cli as cli_module
from cpflow.cli import build_parser, main
from cpflow.flow import INTEGRATORS, VARIANTS, FlowConfig, FlowSample, run_flow
from cpflow.io import (
    load_surface,
    load_target,
    save_surface,
    save_target,
    trace_header,
    write_trace_csv,
    write_trace_json,
)

from conftest import flip_edges, proper_subsets, random_admissible_metric

HYP = Background.HYPERBOLIC

TETRA_FACES = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]


def _write(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return path


def _huge_label_faces(label):
    """A tetrahedron whose fourth vertex is called ``label``."""
    return [[0, 1, 2], [0, 1, label], [0, 2, label], [1, 2, label]]


def _tetra_doc(**overrides):
    doc = {
        "format": 1,
        "background": "hyperbolic",
        "faces": TETRA_FACES,
        "inversive": 0.0,
        "radii": [1.0, 1.0, 1.0, 1.0],
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def test_surface_round_trip(tmp_path, genus2, rng):
    inversive = rng.uniform(0.0, 2.0, genus2.edge_count)
    radii = np.exp(rng.uniform(np.log(0.1), np.log(5.0), genus2.vertex_count))
    path = tmp_path / "surface.json"
    save_surface(path, genus2, HYP, inversive, radii)
    loaded = load_surface(path)
    assert loaded.background is HYP
    assert loaded.complex.faces.tolist() == genus2.faces.tolist()
    assert loaded.inversive.tolist() == inversive.tolist()  # bit identical
    assert loaded.radii.tolist() == radii.tolist()


def test_scalar_inversive_expands(tmp_path, tetra):
    surface = load_surface(_write(tmp_path / "s.json", _tetra_doc(inversive=0.5)))
    assert surface.inversive.tolist() == [0.5] * 6


def test_sparse_inversive_with_default(tmp_path):
    doc = _tetra_doc(
        inversive={"default": 0.25, "edges": [{"edge": [3, 2], "value": 2.0}]}
    )
    surface = load_surface(_write(tmp_path / "s.json", doc))
    edge = surface.complex.edge_id(2, 3)
    expect = [0.25] * 6
    expect[edge] = 2.0
    assert surface.inversive.tolist() == expect


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.update(extra=1), "unknown fields"),
        (lambda d: d.update(format=2), "format"),
        (lambda d: d.pop("background"), "background"),
        (lambda d: d.update(background="spherical"), "background"),
        (lambda d: d.update(radii=[1.0, 1.0]), "radii"),
        (lambda d: d.update(faces=[[0, 1, 2], [0, 1, 2]]), "invalid surface file"),
        (
            lambda d: d.update(
                inversive=[{"edge": [0, 1], "value": 1.0}, {"edge": [1, 0], "value": 2.0}]
            ),
            "duplicate",
        ),
        (
            lambda d: d.update(inversive=[{"edge": [0, 1], "value": 1.0}]),
            "no inversive value",
        ),
        (
            lambda d: d.update(
                inversive={"default": 0.0, "edges": [{"edge": [0, 7], "value": 1.0}]}
            ),
            "non-edge",
        ),
        (lambda d: d.update(radii=[1.0, -1.0, 1.0, 1.0]), "positive"),
        (
            lambda d: d.update(
                inversive={"default": 1.0, "edges": [{"edge": [0, 1], "value": float("nan")}]}
            ),
            "finite",
        ),
        (lambda d: d.update(faces=_huge_label_faces(10**12)), "vertex 3 has no incident faces"),
        (lambda d: d.update(faces=_huge_label_faces(10**30)), "too large"),
    ],
)
def test_surface_parse_errors(tmp_path, mutate, fragment):
    doc = _tetra_doc()
    mutate(doc)
    with pytest.raises(ParseError) as err:
        load_surface(_write(tmp_path / "bad.json", doc))
    assert fragment in str(err.value)


def test_target_file_round_trip(tmp_path):
    path = tmp_path / "target.json"
    save_target(path, [0.1, -0.2, 0.3, 0.4])
    assert load_target(path, 4).tolist() == [0.1, -0.2, 0.3, 0.4]
    with pytest.raises(ParseError):
        load_target(path, 5)


def surface_document(complex, background, inversive, radii, permissive=False) -> dict:
    """Reference for ``save_surface``: the surface file as a JSON document,
    whose compact ``json.dumps`` plus a newline is the file's text."""
    inversive = np.asarray(inversive, dtype=float)
    if len(set(inversive.view(np.uint64).tolist())) == 1:
        inv_field = float(inversive[0])
    else:
        inv_field = [
            {"edge": edge, "value": value}
            for edge, value in zip(complex.edges.tolist(), inversive.tolist())
        ]
    doc = {
        "format": 1,
        "background": background.value,
        "faces": complex.faces.tolist(),
        "inversive": inv_field,
    }
    if radii is not None:
        doc["radii"] = np.asarray(radii, dtype=float).tolist()
    if permissive:
        doc["permissive"] = True
    return doc


def test_emitted_surface_reparses_identically(tmp_path, tetra, rng):
    inversive = rng.uniform(0.0, 2.0, 6)
    radii = np.exp(rng.uniform(-1.0, 1.0, 4))
    doc = surface_document(tetra, HYP, inversive, radii)
    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    save_surface(path_a, tetra, HYP, inversive, radii)
    reloaded = load_surface(path_a)
    save_surface(path_b, reloaded.complex, reloaded.background, reloaded.inversive, reloaded.radii)
    assert path_a.read_bytes() == path_b.read_bytes()
    assert doc["faces"] == [sorted(f) for f in TETRA_FACES]


@functools.cache
def _writer_complexes():
    """Every stock complex and two edge-flipped surfaces of each."""
    rng = np.random.default_rng(7)
    stock = [cpflow.tetrahedron(), cpflow.octahedron(), cpflow.icosahedron(),
             cpflow.triangulated_torus(3, 4), cpflow.genus2_surface()]
    return stock + [
        cpflow.build_complex(flip_edges(base.faces, rng, 2 * base.face_count))
        for base in stock for _ in range(2)
    ]


@pytest.mark.parametrize("background", list(Background))
@pytest.mark.parametrize("case", range(15))
def test_saved_surface_equals_reference_bytes(tmp_path, case, background):
    complex, rng = _writer_complexes()[case], np.random.default_rng(case)
    per_edge = rng.uniform(-0.5, 3.0, complex.edge_count)
    per_edge[rng.integers(complex.edge_count)] = -0.0
    per_edge[rng.integers(complex.edge_count)] = 2  # an integral value
    radii = np.exp(rng.uniform(-30.0, 30.0, complex.vertex_count))
    signed_zeros = np.zeros(complex.edge_count)
    signed_zeros[1::3] = -0.0  # equal values, two bit patterns: one entry per edge
    fields = [per_edge, np.full(complex.edge_count, 0.75), np.full(complex.edge_count, -0.0),
              signed_zeros]
    path = tmp_path / "s.json"
    for inversive, with_radii, permissive in itertools.product(fields, (True, False),
                                                               (False, True)):
        saved_radii = radii if with_radii else None
        save_surface(path, complex, background, inversive, saved_radii, permissive)
        doc = surface_document(complex, background, inversive, saved_radii, permissive)
        assert path.read_text(encoding="utf-8") == json.dumps(doc) + "\n"
        if not permissive and inversive.min() < 0:
            continue  # refused on load, as a negative inversive distance needs permissive
        loaded = load_surface(path)
        assert loaded.complex.faces.tolist() == complex.faces.tolist()
        assert loaded.permissive is permissive and loaded.background is background
        assert loaded.inversive.view(np.uint64).tolist() == inversive.view(np.uint64).tolist()
        assert np.signbit(loaded.inversive).tolist() == np.signbit(inversive).tolist()
        if with_radii:
            assert loaded.radii.view(np.uint64).tolist() == radii.view(np.uint64).tolist()
        else:
            assert loaded.radii is None


def test_saved_surface_writes_json_text_for_non_finite_values(tmp_path, tetra):
    inversive = np.array([np.nan, np.inf, -np.inf, 1e308, -1e-308, 0.1])
    radii = np.array([np.inf, 1.0, np.nan, 5e-324])
    save_surface(tmp_path / "s.json", tetra, HYP, inversive, radii)
    expected = json.dumps(surface_document(tetra, HYP, inversive, radii)) + "\n"
    assert (tmp_path / "s.json").read_text(encoding="utf-8") == expected


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("valid", [True, False])
def test_load_surface_leaves_the_collector_as_found(tmp_path, enabled, valid):
    doc = _tetra_doc() if valid else _tetra_doc(radii=[1.0, -1.0, 1.0, 1.0])
    path = _write(tmp_path / "s.json", doc)
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        if valid:
            load_surface(path)
        else:
            with pytest.raises(ParseError):
                load_surface(path)
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()


# ---------------------------------------------------------------------------
# CLI commands
# ---------------------------------------------------------------------------

@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_cli_curvature(workdir, capsys):
    surface = _write(workdir / "tetra.json", _tetra_doc(background="euclidean"))
    code = main(["curvature", str(surface), "--report", "out.json"])
    assert code == 0
    out = capsys.readouterr().out
    assert "vertex  curvature" in out
    report = json.loads((workdir / "out.json").read_text())
    assert report["curvature"] == pytest.approx([np.pi] * 4)
    assert abs(report["gauss_bonnet_defect"]) < 1e-10
    assert report["admissible"] is True
    manifest = json.loads((workdir / "tetra.curvature.manifest.json").read_text())
    assert manifest["command"] == "curvature"
    assert manifest["status"] == "ok"
    assert manifest["input_digest"].startswith("sha256:")
    assert manifest["outputs"]["report"] == "out.json"


@pytest.mark.parametrize("command", ["flow", "solve"])
def test_manifest_digest_is_of_the_bytes_parsed(workdir, tetra, command):
    # --radii-out aimed at the input overwrites it after the run parsed it;
    # the manifest describes what the run read, not the file it left behind.
    surface = _write(workdir / "t.json", _tetra_doc(inversive=1.0))
    parsed = "sha256:" + hashlib.sha256(surface.read_bytes()).hexdigest()
    target = curvature(tetra, PackingMetric(HYP, np.ones(6), [0.8, 1.0, 1.2, 0.9]))
    save_target(workdir / "target.json", target.values)
    variant = ["--variant", "prescribed"] if command == "flow" else []
    assert main([command, "t.json", *variant, "--target-file", "target.json",
                 "--radii-out", "t.json", "--manifest", "m.json"]) == 0
    assert "sha256:" + hashlib.sha256(surface.read_bytes()).hexdigest() != parsed
    assert load_surface(surface).radii == pytest.approx([0.8, 1.0, 1.2, 0.9], rel=1e-6)
    assert json.loads((workdir / "m.json").read_text())["input_digest"] == parsed


def test_manifest_digest_of_an_unreadable_input_is_null(workdir):
    assert main(["gb", "missing.json", "--manifest", "m.json"]) == 2
    manifest = json.loads((workdir / "m.json").read_text())
    assert manifest["status"].startswith("parse_error: cannot read missing.json")
    assert manifest["input_digest"] is None


def test_parse_errors_count_positions_as_text_mode_reads_them(tmp_path):
    # The bytes read once for the digest are parsed with \r\n and \r read as
    # \n, so a message names the place it named when the file was read as text.
    path = tmp_path / "bad.json"
    path.write_bytes(b'{\r\n"format": 1,\r"faces": x}\r\n')
    with pytest.raises(ParseError, match=r"line 3 column 10 \(char 24\)$"):
        load_surface(path)


@pytest.mark.parametrize("argv", [
    ["gb", "bad.json"],
    ["solve", "t.json", "--target-file", "bad.json"],
    ["check", "t.json", "--subsets-file", "bad.json"],
], ids=["surface", "target", "subsets"])
def test_cli_input_that_is_not_utf8_is_a_parse_error(workdir, capsys, argv):
    # 0xff starts no UTF-8 sequence; the file is refused like one that is not
    # JSON, with exit 2 and a parse_error manifest, not a traceback.
    _write(workdir / "t.json", _tetra_doc(inversive=1.0))
    (workdir / "bad.json").write_bytes(b"\xff{}")
    assert main([*argv, "--manifest", "m.json"]) == 2
    message = "bad.json is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0"
    assert f"error: {message}" in capsys.readouterr().err
    manifest = json.loads((workdir / "m.json").read_text())
    assert manifest["status"].startswith(f"parse_error: {message}")


@pytest.mark.parametrize("flags", [[], ["--extended"]])
def test_cli_curvature_evaluates_once(workdir, monkeypatch, flags):
    # The package re-exports the function `curvature`, which hides the module.
    curvature_module = importlib.import_module("cpflow.curvature")
    kernel = curvature_module.extended_angles_batch
    passes = []

    def counted(*args):
        passes.append(args)
        return kernel(*args)

    monkeypatch.setattr(curvature_module, "extended_angles_batch", counted)
    surface = _write(workdir / "tetra.json", _tetra_doc(inversive=1.0))
    assert main(["curvature", str(surface), *flags, "--report", "out.json"]) == 0
    assert len(passes) == 1


def test_cli_parser_is_built_once_and_keeps_no_arguments(workdir):
    # main parses with one parser per process; each run's arguments and
    # defaults are its own.
    assert build_parser() is build_parser()
    doc = _tetra_doc(
        inversive={"default": 0.0, "edges": [{"edge": [2, 3], "value": 3.0}]},
        radii=[1e-8, 1.0, 1.0, 1.0],
    )
    surface = str(_write(workdir / "tetra.json", doc))
    _write(workdir / "subsets.json", {"format": 1, "subsets": [[0, 1], [2, 3]]})

    def manifest(path):
        return json.loads((workdir / path).read_text())

    assert main(["curvature", surface, "--extended", "--report", "ext.json",
                 "--manifest", "first.json"]) == 0
    assert manifest("first.json")["config"] == {"extended": True}
    # plain curvature refuses the degenerate metric, under its default manifest
    assert main(["curvature", surface]) == 3
    assert manifest("tetra.curvature.manifest.json")["config"] == {"extended": False}
    assert not (workdir / "tetra.curvature.json").exists()

    assert main(["check", surface, "--subset-cap", "3", "--report", "capped.json"]) == 0
    assert main(["check", surface, "--subsets-file", "subsets.json", "--report", "listed.json"]) == 0
    assert manifest("tetra.check.manifest.json")["config"] == {
        "subset_cap": None, "subsets_file": "subsets.json"}
    assert json.loads((workdir / "listed.json").read_text())["subset_count"] == 2


def test_cli_curvature_missing_radii(workdir, capsys):
    doc = _tetra_doc()
    del doc["radii"]
    surface = _write(workdir / "tetra.json", doc)
    code = main(["curvature", str(surface)])
    assert code == 2
    assert "radii" in capsys.readouterr().err


def test_cli_curvature_extended_flags_degenerate(workdir):
    doc = _tetra_doc(
        inversive={"default": 0.0, "edges": [{"edge": [2, 3], "value": 3.0}]},
        radii=[1e-8, 1.0, 1.0, 1.0],
    )
    surface = _write(workdir / "tetra.json", doc)
    code = main(["curvature", str(surface), "--extended", "--report", "ext.json"])
    assert code == 0
    report = json.loads((workdir / "ext.json").read_text())
    assert report["extended"] is True
    assert report["admissible"] is False
    assert report["violating_faces"] == [2]
    # without --extended the same file is a domain error: exit 3
    assert main(["curvature", str(surface)]) == 3


@pytest.mark.parametrize("case", ["torus20", "degenerate-genus2"])
def test_cli_curvature_prints_and_reports_one_text_per_value(workdir, capsys, case):
    rng = np.random.default_rng(11)
    if case == "torus20":
        complex, flags = cpflow.triangulated_torus(20, 20), []
        inversive = rng.uniform(0.0, 1.0, complex.edge_count)
        radii = np.exp(rng.uniform(np.log(0.5), np.log(2.0), complex.vertex_count))
    else:
        complex, flags = cpflow.genus2_surface(), ["--extended"]
        inversive = rng.uniform(0.0, 3.0, complex.edge_count)
        radii = np.exp(rng.uniform(np.log(0.1), np.log(5.0), complex.vertex_count))
    metric = PackingMetric(HYP, inversive, radii)
    save_surface(workdir / "s.json", complex, HYP, inversive, radii)
    assert main(["curvature", "s.json", *flags, "--report", "r.json"]) == 0

    curv = cpflow.extended_curvature(complex, metric)
    violations = curv.degenerate.nonzero()[0].tolist()
    assert bool(violations) == (case != "torus20")
    doc = {
        "format": 1,
        "background": "hyperbolic",
        "extended": curv.extended,
        "curvature": curv.values.tolist(),
        "total_area": curv.total_area,
        "gauss_bonnet_defect": cpflow.gauss_bonnet_defect(complex, metric),
        "admissible": not violations,
        "violating_faces": violations,
    }
    assert (workdir / "r.json").read_text() == json.dumps(doc) + "\n"
    table = capsys.readouterr().out.split("vertex  curvature\n")[1].splitlines()
    assert table == [f"{i:>6}  {k!r}" for i, k in enumerate(doc["curvature"])]


def test_cli_gb(workdir, capsys):
    surface = _write(workdir / "t.json", _tetra_doc())
    assert main(["gb", str(surface)]) == 0
    assert "gauss-bonnet defect" in capsys.readouterr().out


def test_cli_flow_rigidity_round_trip(workdir):
    from cpflow import genus2_surface

    complex = genus2_surface()
    rng = np.random.default_rng(17)
    inversive = rng.uniform(0.0, 1.0, complex.edge_count)
    radii_bar = np.exp(rng.uniform(np.log(0.6), np.log(1.6), complex.vertex_count))
    metric_bar = PackingMetric(HYP, inversive, radii_bar)
    target = curvature(complex, metric_bar).values

    save_surface(workdir / "g2.json", complex, HYP, inversive,
                 np.ones(complex.vertex_count))
    save_target(workdir / "target.json", target)

    code = main([
        "flow", "g2.json", "--variant", "prescribed", "--target-file", "target.json",
        "--trace", "trace.csv", "--radii-out", "final.json", "--tol", "1e-10",
    ])
    assert code == 0
    final = load_surface(workdir / "final.json")
    assert np.max(np.abs(final.radii - radii_bar)) <= 1e-6

    manifest = json.loads((workdir / "g2.flow.manifest.json").read_text())
    assert manifest["status"] == "converged"
    assert manifest["outputs"]["trace"] == "trace.csv"

    # trace format: 1 + N + N + 3 columns, documented header names
    lines = (workdir / "trace.csv").read_text().splitlines()
    n = complex.vertex_count
    header = lines[0].split(",")
    assert header == trace_header(n)
    assert len(header) == 1 + 2 * n + 3
    assert all(len(line.split(",")) == len(header) for line in lines[1:])


def test_cli_flow_trace_json(workdir):
    surface = _write(workdir / "t.json", _tetra_doc(inversive=1.0))
    code = main(["flow", "t.json", "--variant", "extended", "--max-time", "3",
                 "--trace-json", "trace.json"])
    assert code in (0, 4)
    doc = json.loads((workdir / "trace.json").read_text())
    assert doc["format"] == 1
    assert doc["columns"] == trace_header(4)
    assert len(doc["samples"]) >= 2
    first = doc["samples"][0]
    assert first["t"] == 0.0
    assert len(first["u"]) == 4 and len(first["K"]) == 4
    assert first["potential"] == 0.0


def test_cli_flow_deterministic(workdir):
    surface = _write(workdir / "t.json", _tetra_doc(inversive=1.0))
    args = ["flow", "t.json", "--variant", "extended", "--max-time", "5",
            "--trace", "trace.csv", "--manifest", "m.json"]
    assert main(args) in (0, 4)
    first = (workdir / "trace.csv").read_bytes()
    first_manifest = (workdir / "m.json").read_bytes()
    assert main(args) in (0, 4)
    assert (workdir / "trace.csv").read_bytes() == first
    assert (workdir / "m.json").read_bytes() == first_manifest


def _joined_trace(n_vertices, trace) -> str:
    """The trace CSV as one string, every row's text joined: the bytes the
    row-by-row writer must reproduce."""
    lines = [",".join(trace_header(n_vertices))]
    for s in trace:
        row = np.concatenate(([s.t], s.u, s.curvature, [s.curvature_max, s.curvature_min]))
        potential = "" if s.potential is None else repr(float(s.potential))
        lines.append(",".join(map(repr, row.tolist())) + "," + potential)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("flags", [[], ["--no-potential"]])
def test_cli_trace_is_the_joined_text(workdir, monkeypatch, flags):
    traces = []
    write = cli_module.write_trace_csv

    def kept(path, n_vertices, trace):
        traces.append((n_vertices, trace))
        write(path, n_vertices, trace)

    monkeypatch.setattr(cli_module, "write_trace_csv", kept)
    _write(workdir / "t.json", _tetra_doc(inversive=1.0))
    assert main(["flow", "t.json", "--variant", "extended", "--max-time", "3",
                 "--trace", "trace.csv", *flags]) in (0, 4)
    (n_vertices, trace), = traces
    assert len(trace) >= 2
    assert (workdir / "trace.csv").read_bytes() == _joined_trace(n_vertices, trace).encode()
    rows = (workdir / "trace.csv").read_text().splitlines()[1:]
    assert all(row.endswith(",") for row in rows) == bool(flags)


def test_trace_writer_holds_about_one_row(tmp_path):
    # Joined, 40 rows would be held three times over (rows, their join and
    # its encoding): about 120 rows' text.  Streamed, about six.
    n = 4000
    rng = np.random.default_rng(5)
    trace = [FlowSample(0.1 * k, rng.normal(size=n), rng.normal(size=n), 1.0, -1.0, 0.5 * k)
             for k in range(40)]
    row = len(_joined_trace(n, trace[:1]).splitlines()[1])
    tracemalloc.start()
    try:
        write_trace_csv(tmp_path / "trace.csv", n, trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "trace.csv").read_text() == _joined_trace(n, trace)
    assert peak <= 10 * row


def test_trace_json_is_the_dumped_document_held_about_one_sample_at_a_time(tmp_path):
    # The streamed document is json.dumps of the whole one, byte for byte,
    # a None potential included; dumped whole, 40 samples would be held at
    # least twice over.
    n = 4000
    rng = np.random.default_rng(6)
    trace = [FlowSample(0.1 * k, rng.normal(size=n), rng.normal(size=n), 1.0, -1.0,
                        0.5 * k if k < 39 else None) for k in range(40)]
    doc = {"format": 1, "columns": trace_header(n), "samples": [
        {"t": s.t, "u": s.u.tolist(), "K": s.curvature.tolist(), "M": s.curvature_max,
         "m": s.curvature_min, "potential": s.potential} for s in trace]}
    expected = json.dumps(doc) + "\n"
    sample = len(json.dumps(doc["samples"][0]))
    tracemalloc.start()
    try:
        write_trace_json(tmp_path / "trace.json", n, trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "trace.json").read_text() == expected
    assert peak <= 10 * sample
    write_trace_json(tmp_path / "empty.json", n, [])
    assert (tmp_path / "empty.json").read_text() == json.dumps({**doc, "samples": []}) + "\n"


@pytest.mark.parametrize("outputs, recorded", [
    ([], False), (["--trace", "t.csv"], True), (["--trace-json", "t.json"], True),
    (["--trace", "t.csv", "--no-potential"], False)], ids=["none", "csv", "json", "no-potential"])
def test_cli_flow_records_the_potential_for_a_trace_file_only(workdir, monkeypatch, capsys,
                                                              outputs, recorded):
    # Only a trace file shows the potential, so the run skips its quadrature
    # without one; the manifest echoes the option as given, and the printed
    # line and the final radii are those of a run that records it.
    configs = []

    def kept(complex, inversive, u0, config):
        configs.append(config.record_potential)
        return run_flow(complex, inversive, u0, config)

    monkeypatch.setattr(cli_module, "run_flow", kept)
    _write(workdir / "s.json", _tetra_doc(inversive=1.0))
    assert main(["flow", "s.json", "--max-time", "2", "--radii-out", "r0.json"]) in (0, 4)
    printed = capsys.readouterr().out
    assert main(["flow", "s.json", "--max-time", "2", "--radii-out", "r.json", *outputs]) in (0, 4)
    assert configs == [False, recorded]
    assert capsys.readouterr().out == printed
    assert (workdir / "r.json").read_bytes() == (workdir / "r0.json").read_bytes()
    manifest = json.loads((workdir / "s.flow.manifest.json").read_text())
    assert manifest["config"]["record_potential"] is ("--no-potential" not in outputs)


def test_cli_flow_classical_exit(workdir):
    doc = _tetra_doc(
        inversive={"default": 0.0, "edges": [{"edge": [2, 3], "value": 3.0}]},
        radii=[0.8, 1.0, 1.0, 1.0],
    )
    surface = _write(workdir / "t.json", doc)
    metric = load_surface(surface).require_metric()
    from cpflow import tetrahedron

    base = curvature(tetrahedron(), metric).values
    target = base.copy()
    target[0] -= 2.0
    save_target(workdir / "target.json", target)
    code = main([
        "flow", "t.json", "--variant", "classical", "--target-file", "target.json",
        "--dt", "0.01", "--max-time", "50",
    ])
    assert code == 5
    manifest = json.loads((workdir / "t.flow.manifest.json").read_text())
    assert manifest["status"] == "left_admissible"
    assert manifest["outputs"]["final_time"] > 0


@pytest.mark.parametrize("integrator", INTEGRATORS)
def test_cli_collapsing_euclidean_flow_exits_diverged(workdir, integrator):
    # The zero-target flow of the euclidean tetrahedron with unit radii and
    # I = 0 shrinks every radius alike until the kernel refuses a length:
    # exit 5, status diverged, and K = pi at every vertex of every sample.
    _write(workdir / "t.json", _tetra_doc(background="euclidean"))
    code = main(["flow", "t.json", "--integrator", integrator, "--trace-json", "trace.json"])
    assert code == 5
    assert json.loads((workdir / "t.flow.manifest.json").read_text())["status"] == "diverged"
    samples = json.loads((workdir / "trace.json").read_text())["samples"]
    assert np.max(np.abs(np.array([sample["K"] for sample in samples]) - np.pi)) <= 1e-12


def test_cli_flow_bad_flags(workdir, capsys):
    surface = _write(workdir / "t.json", _tetra_doc())
    assert main(["flow", "t.json", "--variant", "prescribed"]) == 2


def test_cli_solve(workdir):
    from cpflow import octahedron

    octa = octahedron()
    rng = np.random.default_rng(4)
    inversive = rng.uniform(0.0, 1.0, octa.edge_count)
    radii_bar = np.exp(rng.uniform(np.log(0.7), np.log(1.4), octa.vertex_count))
    target = curvature(octa, PackingMetric(HYP, inversive, radii_bar)).values

    save_surface(workdir / "o.json", octa, HYP, inversive, np.ones(6))
    save_target(workdir / "target.json", target)
    code = main([
        "solve", "o.json", "--target-file", "target.json",
        "--radii-out", "solution.json", "--report", "report.json",
    ])
    assert code == 0
    solution = load_surface(workdir / "solution.json")
    assert np.max(np.abs(solution.radii - radii_bar)) <= 1e-7
    report = json.loads((workdir / "report.json").read_text())
    assert report["residual"] <= 1e-10

    # starting at the solution solves in zero iterations
    save_surface(workdir / "o2.json", octa, HYP, inversive, solution.radii)
    assert main([
        "solve", "o2.json", "--target-file", "target.json", "--report", "r2.json",
    ]) == 0
    assert json.loads((workdir / "r2.json").read_text())["iterations"] == 0


def test_cli_solve_imports_numpy_only(tmp_path, genus2):
    # numpy is the only runtime dependency; a fresh interpreter that runs
    # `cpflow solve` must never have loaded scipy
    rng = np.random.default_rng(8)
    inversive = rng.uniform(0.0, 1.0, genus2.edge_count)
    radii_bar = np.exp(rng.uniform(np.log(0.5), np.log(2.0), genus2.vertex_count))
    save_surface(tmp_path / "g.json", genus2, HYP, inversive, np.ones(genus2.vertex_count))
    save_target(tmp_path / "target.json", curvature(genus2, PackingMetric(HYP, inversive, radii_bar)).values)
    script = (
        "import sys\n"
        "from cpflow.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, 'scipy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cpflow.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", script, "solve", "g.json", "--target-file", "target.json",
         "--report", "r.json"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.stdout.splitlines()[-1] == "0 False", run.stderr


def test_cli_solve_unreachable_target(workdir):
    surface = _write(workdir / "t.json", _tetra_doc(inversive=1.0))
    save_target(workdir / "target.json", [-20.0, -20.0, -20.0, -20.0])
    code = main(["solve", "t.json", "--target-file", "target.json",
                 "--max-iter", "40"])
    assert code == 3
    manifest = json.loads((workdir / "t.solve.manifest.json").read_text())
    assert manifest["status"].startswith("domain_error")


def test_cli_solve_exhausted_budget(workdir, tetra):
    _write(workdir / "t.json", _tetra_doc(inversive=1.0, radii=[20.0, 20.0, 20.0, 20.0]))
    target = curvature(tetra, PackingMetric(HYP, np.ones(6), [0.3, 0.5, 2.0, 1.0]))
    save_target(workdir / "target.json", target.values)
    code = main(["solve", "t.json", "--target-file", "target.json", "--max-iter", "1"])
    assert code == 3
    manifest = json.loads((workdir / "t.solve.manifest.json").read_text())
    assert manifest["status"].startswith("domain_error: newton_solve did not reach")


def test_cli_solve_refuses_a_euclidean_surface(workdir, capsys):
    _write(workdir / "t.json", _tetra_doc(background="euclidean"))
    save_target(workdir / "target.json", [0.0, 0.0, 0.0, 0.0])
    code = main(["solve", "t.json", "--target-file", "target.json"])
    assert code == 2
    assert "solve requires a hyperbolic surface file" in capsys.readouterr().err
    manifest = json.loads((workdir / "t.solve.manifest.json").read_text())
    assert manifest["status"].startswith("config_error:")


def test_cli_check(workdir):
    surface = _write(workdir / "t.json", _tetra_doc(inversive=1.0))
    # By default every nonempty subset is decided.  Sphere: no zero-curvature
    # metric can exist, and V, whose bound is 2 pi chi = 4 pi, has the least
    # margin, so it is the one record.
    assert main(["check", "t.json", "--report", "check.json"]) == 0
    report = json.loads((workdir / "check.json").read_text())
    assert "subset_count" not in report and report["subsets"].startswith("every nonempty subset")
    assert report["zero_curvature_necessary"] == {"verdict": False, "records": [
        {"subset": [0, 1, 2, 3], "bound": 4 * np.pi, "observed": 0.0, "margin": -4 * np.pi}]}
    # admissible metric present: strict bounds hold over every subset
    assert report["curvature_bounds"]["verdict"] is True
    assert [r["subset"] for r in report["curvature_bounds"]["records"]] == [[0, 1, 2, 3]]
    # With a cap, each proper subset of at most that many vertices is a record.
    assert main(["check", "t.json", "--subset-cap", "3", "--report", "capped.json"]) == 0
    report = json.loads((workdir / "capped.json").read_text())
    assert report["subset_count"] == 14
    assert report["zero_curvature_necessary"]["verdict"] is False
    singles = [
        r for r in report["zero_curvature_necessary"]["records"] if len(r["subset"]) == 1
    ]
    assert all(r["bound"] == pytest.approx(-np.pi) for r in singles)
    assert report["curvature_bounds"]["verdict"] is True


def test_cli_check_refuses_a_cap_with_a_subsets_file(workdir, capsys):
    _write(workdir / "t.json", _tetra_doc(inversive=1.0))
    _write(workdir / "s.json", {"format": 1, "subsets": [[0], [1, 2], [0, 1, 3]]})
    code = main(["check", "t.json", "--subsets-file", "s.json", "--subset-cap", "1",
                 "--report", "check.json"])
    assert code == 2
    assert "not both" in capsys.readouterr().err
    assert not (workdir / "check.json").exists()
    manifest = json.loads((workdir / "t.check.manifest.json").read_text())
    assert manifest["status"].startswith("config_error:")


def test_cli_check_cap_equals_its_subsets_file_in_combinations_order(workdir, capsys, genus2):
    # `--subset-cap N` checks what a subsets file listing the proper subsets
    # of at most N vertices, size by size in combinations order, checks: the
    # reports and the printed lines are the same bytes.
    metric = random_admissible_metric(genus2, np.random.default_rng(36), radius_range=(0.5, 2.0),
                                      inversive_range=(0.0, 1.0))
    save_surface(workdir / "g.json", genus2, HYP, metric.inversive, metric.radii)
    _write(workdir / "s.json", {"format": 1, "subsets": proper_subsets(15, 3)})
    assert main(["check", "g.json", "--subset-cap", "3", "--report", "capped.json"]) == 0
    capped = capsys.readouterr().out
    assert main(["check", "g.json", "--subsets-file", "s.json", "--report", "listed.json"]) == 0
    assert capsys.readouterr().out == capped and "subsets checked            575\n" in capped
    report = (workdir / "capped.json").read_bytes()
    assert (workdir / "listed.json").read_bytes() == report
    assert json.loads(report)["curvature_bounds"]["verdict"] is True


def test_cli_check_refusals_come_in_order(workdir, capsys):
    # A subsets file that does not parse, then inversive distances the
    # bounds refuse, then a cap beside a subsets file, then a cap below 1.
    _write(workdir / "bad.json", {"format": 1, "subsets": [["a"]]})
    _write(workdir / "s.json", {"format": 1, "subsets": [[0]]})
    _write(workdir / "neg.json", _tetra_doc(inversive=-0.5, permissive=True))
    _write(workdir / "t.json", _tetra_doc(inversive=1.0))
    cases = [
        (["neg.json", "--subsets-file", "bad.json"], 2, "parse_error: "),
        (["neg.json", "--subsets-file", "s.json"], 3,
         "domain_error: negative inversive distances require permissive=True"),
        (["t.json", "--subsets-file", "s.json"], 2,
         "config_error: give explicit subsets or a subset cap, not both"),
        (["t.json"], 2, "config_error: subset cap must be at least 1, got 0"),
    ]
    for argv, code, status in cases:
        assert main(["check", *argv, "--subset-cap", "0", "--manifest", "m.json"]) == code
        assert json.loads((workdir / "m.json").read_text())["status"].startswith(status)
        assert capsys.readouterr().err.startswith("error: " + status.split(": ", 1)[1])
    assert not list(workdir.glob("*.check.json"))


def test_cli_check_computes_once(workdir, monkeypatch):
    # A capped check's two reports share one subset list, one bounds array
    # and one curvature; a default check runs one flow and bounds its
    # records once per report, from the same one curvature.
    packing_module = importlib.import_module("cpflow.packing")
    curvature_module = importlib.import_module("cpflow.curvature")
    obstructions_module = importlib.import_module("cpflow.obstructions")
    calls = []
    for module, name in [
        (obstructions_module, "_subset_lower_bounds"),
        (obstructions_module, "_min_margin_cut"),
        (packing_module, "_edge_lengths_arrays"),
        (curvature_module, "extended_angles_batch"),
    ]:
        def counted(*args, _name=name, _func=getattr(module, name)):
            calls.append(_name)
            return _func(*args)

        monkeypatch.setattr(module, name, counted)
    _write(workdir / "t.json", _tetra_doc(inversive=1.0))
    assert main(["check", "t.json", "--subset-cap", "3", "--report", "check.json"]) == 0
    assert json.loads((workdir / "check.json").read_text())["curvature_bounds"] is not None
    assert sorted(calls) == ["_edge_lengths_arrays", "_subset_lower_bounds", "extended_angles_batch"]
    calls.clear()
    assert main(["check", "t.json", "--report", "check.json"]) == 0
    assert json.loads((workdir / "check.json").read_text())["curvature_bounds"] is not None
    assert sorted(calls) == ["_edge_lengths_arrays", "_min_margin_cut", "_min_margin_cut",
                             "_subset_lower_bounds", "_subset_lower_bounds",
                             "extended_angles_batch"]


@pytest.mark.parametrize(
    "overrides",
    [
        {
            "inversive": {"default": 0.0, "edges": [{"edge": [2, 3], "value": 3.0}]},
            "radii": [1e-8, 1.0, 1.0, 1.0],
        },
        {"background": "euclidean"},
        {"radii": None},
    ],
    ids=["not-admissible", "euclidean", "no-radii"],
)
def test_cli_check_without_curvature_bounds(workdir, capsys, overrides):
    doc = _tetra_doc(**{"inversive": 1.0, **overrides})
    if doc["radii"] is None:
        del doc["radii"]
    _write(workdir / "t.json", doc)
    assert main(["check", "t.json", "--report", "check.json"]) == 0
    text = (workdir / "check.json").read_text(encoding="utf-8")
    report = json.loads(text)
    assert report["curvature_bounds"] is None
    assert report["zero_curvature_necessary"]["verdict"] is False
    assert "curvature bounds" not in capsys.readouterr().out
    # The whole report, byte for byte, against the scalar bound per subset:
    # by default V alone, whose margin -4 pi is the least; with a cap, every
    # subset of at most 3 vertices.
    parsed = load_surface(workdir / "t.json")
    assert main(["check", "t.json", "--subset-cap", "3", "--report", "capped.json"]) == 0
    for path, subsets in (("check.json", [range(4)]),
                          ("capped.json", [c for size in (1, 2, 3)
                                           for c in itertools.combinations(range(4), size)])):
        records = []
        for subset in subsets:
            bound = subset_lower_bound(parsed.complex, parsed.inversive, subset)
            records.append({"subset": list(subset), "bound": bound, "observed": 0.0,
                            "margin": 0.0 - bound})
        scope = ({"subset_count": len(records)} if path == "capped.json"
                 else {"subsets": json.loads(text)["subsets"]})
        expected = {
            "format": 1,
            **scope,
            "zero_curvature_necessary": {"verdict": False, "records": records},
            "curvature_bounds": None,
        }
        assert (workdir / path).read_text(encoding="utf-8") == json.dumps(expected) + "\n"


@pytest.mark.parametrize(
    "radius, message",
    [(176.0, "lengths above 350"), (200.0, "lengths above 350")],
    ids=["above-limit", "overflow"],
)
def test_cli_check_rejects_edge_beyond_size_limit(workdir, capsys, radius, message):
    # Edge (0, 1) is about 2 * radius long, so faces 0 and 1 are not
    # admissible; the curvature of such a metric is a domain error.
    doc = _tetra_doc(
        inversive={"default": 0.0, "edges": [{"edge": [0, 1], "value": 3.0}]},
        radii=[radius, radius, 0.5, 0.5],
    )
    _write(workdir / "t.json", doc)
    assert main(["check", "t.json", "--report", "check.json"]) == 3
    assert message in capsys.readouterr().err
    assert not (workdir / "check.json").exists()
    manifest = json.loads((workdir / "t.check.manifest.json").read_text())
    assert manifest["status"].startswith("domain_error")


def test_cli_check_subsets_file(workdir):
    surface = _write(workdir / "t.json", _tetra_doc(inversive=1.0))
    _write(workdir / "subsets.json", {"format": 1, "subsets": [[0], [1, 2]]})
    code = main(["check", "t.json", "--subsets-file", "subsets.json",
                 "--report", "check.json"])
    assert code == 0
    report = json.loads((workdir / "check.json").read_text())
    assert report["subset_count"] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--report"],
        ["curvature", "--report"],
        ["solve", "--target-file", "target.json", "--report"],
        ["solve", "--target-file", "target.json", "--radii-out"],
        ["flow", "--max-time", "1", "--trace"],
        ["flow", "--max-time", "1", "--trace-json"],
        ["flow", "--max-time", "1", "--radii-out"],
    ],
    ids=["check-report", "curvature-report", "solve-report", "solve-radii-out", "flow-trace",
         "flow-trace-json", "flow-radii-out"],
)
def test_cli_unwritable_output_is_a_config_error(workdir, capsys, argv):
    surface = _write(workdir / "t.json", _tetra_doc(inversive=1.0))
    metric = load_surface(surface).require_metric()
    save_target(workdir / "target.json", curvature(tetrahedron(), metric).values)
    missing = workdir / "missing" / "out.json"
    command, *options = argv
    assert main([command, "t.json", *options, str(missing)]) == 2
    assert f"error: cannot write {missing}" in capsys.readouterr().err
    manifest = json.loads((workdir / f"t.{command}.manifest.json").read_text())
    assert manifest["status"].startswith(f"config_error: cannot write {missing}")
    assert not missing.parent.exists()


def test_cli_unwritable_manifest_only_warns(workdir, capsys):
    _write(workdir / "t.json", _tetra_doc(inversive=1.0))
    manifest = workdir / "missing" / "m.json"
    assert main(["check", "t.json", "--manifest", str(manifest)]) == 0
    assert f"warning: could not write manifest: cannot write {manifest}" in capsys.readouterr().err
    assert json.loads((workdir / "t.check.json").read_text())["curvature_bounds"] is not None


def _bad_surface(**overrides):
    """A ``check`` case whose surface file carries the given overrides."""
    return ["check"], None, overrides


def _faces(last):
    return TETRA_FACES[:3] + [last]


def _edge_entry(edge, value):
    return {"default": 1.0, "edges": [{"edge": edge, "value": value}]}


@pytest.mark.parametrize(
    "argv, doc, surface",
    [
        (["solve", "--target-file", "in.json"], {"format": 1, "target": ["x", 0.0, 0.0, 0.0]}, {}),
        (["check", "--subsets-file", "in.json"], {"format": 1, "subsets": [5]}, {}),
        (["check", "--subsets-file", "in.json"], {"format": 1, "subsets": [["a"]]}, {}),
        (["check", "--subsets-file", "in.json"], {"format": 1, "subsets": []}, {}),
        (["check", "--subsets-file", "in.json"], {"format": 1, "subsets": ["12"]}, {}),
        (["check", "--subsets-file", "in.json"], {"format": 1, "subsets": [[1.7]]}, {}),
        (["check", "--subsets-file", "in.json"], {"format": 1, "subsets": [[True, 3]]}, {}),
        (["check", "--subset-cap", "0"], None, {}),
        (["check", "--subset-cap", "-1"], None, {}),
        (["solve", "--target-file", "in.json"],
         {"format": 1, "target": [True, "0.5", 0, 0]}, {}),
        (["solve", "--target-file", "in.json"], {"format": 1, "target": [10**400, 0, 0, 0]}, {}),
        (["solve", "--target-file", "in.json", "--max-iter", "-1"],
         {"format": 1, "target": [0.0, 0.0, 0.0, 0.0]}, {}),
        _bad_surface(permissive="false", inversive=-0.5),
        _bad_surface(faces=_faces([1, 2, 3.5])),
        _bad_surface(faces=_faces([1, 2, "3"])),
        _bad_surface(faces=_faces([True, 2, 3])),
        _bad_surface(inversive=_edge_entry([0, 1.5], 2.0)),
        _bad_surface(inversive=_edge_entry(["0", 1], 2.0)),
        _bad_surface(inversive=_edge_entry([0, 1], "2.0")),
        _bad_surface(inversive=_edge_entry([0, 1], float("nan"))),
        _bad_surface(inversive=_edge_entry([0, 1], float("inf"))),
        _bad_surface(inversive=_edge_entry([0, 1], -float("inf"))),
        _bad_surface(inversive={"default": True}),
        _bad_surface(radii=["1.0", 1.0, 1.0, 1.0]),
        _bad_surface(radii=[True, 1.0, 1.0, 1.0]),
        _bad_surface(format=True),
        _bad_surface(format=1.0),
        (["solve", "--target-file", "in.json"], {"format": True, "target": [0.0] * 4}, {}),
        (["solve", "--target-file", "in.json"], {"format": 1.0, "target": [0.0] * 4}, {}),
        (["check", "--subsets-file", "in.json"], {"format": True, "subsets": [[0]]}, {}),
        (["check", "--subsets-file", "in.json"], {"format": 1.0, "subsets": [[0]]}, {}),
        (["flow", "--max-time", "inf"], None, {}),
        (["flow", "--max-time", "nan"], None, {}),
        (["flow", "--dt", "inf"], None, {}),
        (["flow", "--dt", "nan"], None, {}),
        (["flow", "--tol", "nan"], None, {}),
        (["flow", "--radius-cap", "nan"], None, {}),
        (["solve", "--target-file", "in.json", "--tol", "inf"],
         {"format": 1, "target": [0.0, 0.0, 0.0, 0.0]}, {}),
    ],
    ids=["target-not-numbers", "subset-not-list", "subset-not-indices", "no-subsets",
         "subset-string", "subset-fraction", "subset-boolean", "cap-zero", "cap-negative",
         "target-boolean-string", "target-huge-integer", "max-iter-negative",
         "permissive-string", "face-fraction", "face-string", "face-boolean",
         "edge-fraction", "edge-string", "inversive-value-string", "inversive-value-nan",
         "inversive-value-infinity", "inversive-value-minus-infinity", "inversive-default-boolean",
         "radii-string", "radii-boolean", "surface-format-boolean", "surface-format-float",
         "target-format-boolean", "target-format-float", "subsets-format-boolean",
         "subsets-format-float", "max-time-infinite", "max-time-nan", "dt-infinite", "dt-nan",
         "flow-tol-nan", "radius-cap-nan", "solve-tol-infinite"],
)
def test_cli_rejects_bad_inputs(workdir, capsys, argv, doc, surface):
    _write(workdir / "t.json", _tetra_doc(**{"inversive": 1.0, **surface}))
    if doc is not None:
        _write(workdir / "in.json", doc)
    # flow writes no report; its final metric stands in as the output to refuse
    output = "--radii-out" if argv[0] == "flow" else "--report"
    assert main([argv[0], "t.json", *argv[1:], output, "r.json"]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (workdir / "r.json").exists()
    manifest = json.loads((workdir / f"t.{argv[0]}.manifest.json").read_text())
    assert manifest["status"].startswith(("parse_error", "config_error"))


def test_cli_parse_error_exit_code(workdir, capsys):
    bad = workdir / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["curvature", str(bad)]) == 2
    assert main(["curvature", str(workdir / "missing.json")]) == 2


def test_readme_cli_synopsis_lists_every_option():
    # The synopsis is the README's first code block under "## CLI"; each
    # command's entry runs from its "cpflow <command>" line to the next one.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    synopsis = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    entries = re.split(r"^(?=cpflow )", synopsis, flags=re.MULTILINE)
    usage = {entry.split()[1]: entry for entry in entries if entry.startswith("cpflow ")}
    commands = next(
        action.choices for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert sorted(usage) == sorted(commands)
    for name, command in commands.items():
        options = [o for action in command._actions for o in action.option_strings
                   if o not in ("-h", "--help")]
        missing = [o for o in options if not re.search(re.escape(o) + r"(?![\w-])", usage[name])]
        assert not missing, f"README synopsis of {name} lacks {missing}"


def _subcommand_options(name):
    """The options of one subcommand's parser, by dest."""
    command = next(
        action.choices for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )[name]
    return {action.dest: action for action in command._actions}


def test_cli_flow_options_default_to_the_flow_config():
    options = _subcommand_options("flow")
    config = FlowConfig()
    defaults = {"variant": config.variant, "dt": config.step, "tol": config.tolerance,
                "max_time": config.max_time, "sample_every": config.sample_every,
                "integrator": config.integrator, "radius_cap": config.divergence_radius_cap,
                "record_potential": config.record_potential}
    assert {dest: options[dest].default for dest in defaults} == defaults
    assert options["variant"].choices == VARIANTS
    assert options["integrator"].choices == INTEGRATORS


def test_cli_solve_options_default_to_newton_solve():
    options = _subcommand_options("solve")
    parameters = inspect.signature(newton_solve).parameters
    defaults = {"tol": parameters["tol"].default, "max_iter": parameters["max_iter"].default}
    assert {dest: options[dest].default for dest in defaults} == defaults


def test_cli_flow_passes_every_option_to_the_run_and_the_manifest(workdir, monkeypatch):
    # Every flow option at a value other than its default: the manifest's
    # config echoes each under its dest, and the run receives each in its field.
    surface = _write(workdir / "t.json", _tetra_doc(inversive=1.0))
    save_target(workdir / "target.json",
                curvature(tetrahedron(), load_surface(surface).require_metric()).values)
    configs = []

    def recorded(complex, inversive, u0, config):
        configs.append(config)
        return run_flow(complex, inversive, u0, config)

    monkeypatch.setattr(cli_module, "run_flow", recorded)
    code = main(["flow", "t.json", "--variant", "prescribed", "--target-file", "target.json",
                 "--integrator", "euler", "--dt", "0.02", "--tol", "1e-6", "--max-time", "0.5",
                 "--sample-every", "3", "--radius-cap", "50", "--no-potential",
                 "--manifest", "m.json"])
    assert code in (0, 4)
    expected = {"variant": "prescribed", "target_file": "target.json", "integrator": "euler",
                "dt": 0.02, "tol": 1e-6, "max_time": 0.5, "sample_every": 3,
                "radius_cap": 50.0, "record_potential": False}
    assert json.loads((workdir / "m.json").read_text())["config"] == expected
    fields = {"variant": "variant", "integrator": "integrator", "dt": "step", "tol": "tolerance",
              "max_time": "max_time", "sample_every": "sample_every",
              "radius_cap": "divergence_radius_cap", "record_potential": "record_potential"}
    assert all(getattr(FlowConfig(), field) != expected[dest] for dest, field in fields.items())
    (config,) = configs
    assert {dest: getattr(config, field) for dest, field in fields.items()} == {
        dest: expected[dest] for dest in fields}
    assert config.target is not None
