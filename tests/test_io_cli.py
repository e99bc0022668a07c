from __future__ import annotations

import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from cpflow import Background, PackingMetric, ParseError, curvature
from cpflow.cli import main
from cpflow.io import (
    load_surface,
    load_target,
    save_surface,
    save_target,
    surface_document,
    trace_header,
)

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


@pytest.mark.parametrize("flags", [[], ["--extended"]])
def test_cli_curvature_evaluates_once(workdir, monkeypatch, flags):
    # The package re-exports the function `curvature`, which hides the module.
    curvature_module = importlib.import_module("cpflow.curvature")
    kernel = curvature_module._curvature_kernel
    passes = []

    def counted(*args):
        passes.append(args)
        return kernel(*args)

    monkeypatch.setattr(curvature_module, "_curvature_kernel", counted)
    surface = _write(workdir / "tetra.json", _tetra_doc(inversive=1.0))
    assert main(["curvature", str(surface), *flags, "--report", "out.json"]) == 0
    assert len(passes) == 1


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


def test_cli_solve_unreachable_target(workdir):
    surface = _write(workdir / "t.json", _tetra_doc(inversive=1.0))
    save_target(workdir / "target.json", [-20.0, -20.0, -20.0, -20.0])
    code = main(["solve", "t.json", "--target-file", "target.json",
                 "--max-iter", "40"])
    assert code == 3
    manifest = json.loads((workdir / "t.solve.manifest.json").read_text())
    assert manifest["status"].startswith("domain_error")


def test_cli_check(workdir):
    surface = _write(workdir / "t.json", _tetra_doc(inversive=1.0))
    code = main(["check", "t.json", "--report", "check.json"])
    assert code == 0
    report = json.loads((workdir / "check.json").read_text())
    assert report["subset_count"] == 14
    # sphere: no zero-curvature metric can exist
    assert report["zero_curvature_necessary"]["verdict"] is False
    singles = [
        r for r in report["zero_curvature_necessary"]["records"] if len(r["subset"]) == 1
    ]
    assert all(r["bound"] == pytest.approx(-np.pi) for r in singles)
    # admissible metric present: strict bounds hold subset by subset
    assert report["curvature_bounds"]["verdict"] is True


def test_cli_check_computes_once(workdir, monkeypatch):
    # Both reports share one subset list, one bounds array and one curvature.
    packing_module = importlib.import_module("cpflow.packing")
    curvature_module = importlib.import_module("cpflow.curvature")
    obstructions_module = importlib.import_module("cpflow.obstructions")
    calls = []
    for module, name in [
        (obstructions_module, "_subset_lower_bounds"),
        (packing_module, "_edge_lengths_arrays"),
        (curvature_module, "_curvature_kernel"),
    ]:
        def counted(*args, _name=name, _func=getattr(module, name)):
            calls.append(_name)
            return _func(*args)

        monkeypatch.setattr(module, name, counted)
    _write(workdir / "t.json", _tetra_doc(inversive=1.0))
    assert main(["check", "t.json", "--report", "check.json"]) == 0
    assert json.loads((workdir / "check.json").read_text())["curvature_bounds"] is not None
    assert sorted(calls) == ["_curvature_kernel", "_edge_lengths_arrays", "_subset_lower_bounds"]


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
    report = json.loads((workdir / "check.json").read_text())
    assert report["curvature_bounds"] is None
    assert report["zero_curvature_necessary"]["verdict"] is False
    assert "curvature bounds" not in capsys.readouterr().out


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
    ],
    ids=["target-not-numbers", "subset-not-list", "subset-not-indices", "no-subsets",
         "subset-string", "subset-fraction", "subset-boolean", "cap-zero", "cap-negative",
         "target-boolean-string", "target-huge-integer", "max-iter-negative",
         "permissive-string", "face-fraction", "face-string", "face-boolean",
         "edge-fraction", "edge-string", "inversive-value-string", "inversive-value-nan",
         "inversive-value-infinity", "inversive-value-minus-infinity", "inversive-default-boolean",
         "radii-string", "radii-boolean"],
)
def test_cli_rejects_bad_inputs(workdir, capsys, argv, doc, surface):
    _write(workdir / "t.json", _tetra_doc(**{"inversive": 1.0, **surface}))
    if doc is not None:
        _write(workdir / "in.json", doc)
    assert main([argv[0], "t.json", *argv[1:], "--report", "r.json"]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (workdir / "r.json").exists()
    manifest = json.loads((workdir / f"t.{argv[0]}.manifest.json").read_text())
    assert manifest["status"].startswith(("parse_error", "config_error"))


def test_cli_parse_error_exit_code(workdir, capsys):
    bad = workdir / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["curvature", str(bad)]) == 2
    assert main(["curvature", str(workdir / "missing.json")]) == 2
