"""Byte identity of the CLI's outputs.

A fixed command set runs in process through ``cli.main`` on seeded genus2
surfaces: ``curvature`` with and without ``--extended``, ``gb``, an extended
``flow`` with every trace and radii output, a prescribed ``flow`` from a
degenerate start whose trace potentials cross the degenerate boundary,
``solve``, and ``check`` with a subset cap and with a subsets file; and on a
seeded euclidean 4 x 4 torus: ``curvature --extended`` and an extended
``flow`` with a trace and radii output.  The
SHA-256 of every file in the run's directory, inputs and manifests included,
and of each command's exit status and standard output, with the directory
replaced by a fixed token, must equal ``tests/data/cli_digests.txt``.

The digests are of one platform's floating-point results; the file's header
names the numpy and CPython versions that wrote it.  Regenerate it, after a
change whose output bytes are meant to move, with

    python tests/test_output_digests.py

which prints the names whose digest changed, appeared or vanished.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

import cpflow.potential as potential_module
from cpflow import (
    Background, PackingMetric, curvature, genus2_surface, is_admissible, triangulated_torus,
)
from cpflow.cli import main
from cpflow.io import save_surface, save_target

DIGESTS = ROOT / "tests" / "data" / "cli_digests.txt"
REGENERATE = "python tests/test_output_digests.py"
TOKEN = b"<tmp>"
HYP = Background.HYPERBOLIC


def _radii(complex, rng, inversive, low, high, admissible):
    """Log-uniform radii in [low, high] drawn until their metric's
    admissibility is ``admissible``."""
    while True:
        radii = np.exp(rng.uniform(np.log(low), np.log(high), complex.vertex_count))
        if is_admissible(complex, PackingMetric(HYP, inversive, radii))[0] == admissible:
            return radii


def _commands(directory: Path):
    """Write the seeded inputs into ``directory`` and yield (label, argv)."""
    complex, rng = genus2_surface(), np.random.default_rng(3)
    inversive = rng.uniform(0.0, 1.0, complex.edge_count)
    save_surface(directory / "g.json", complex, HYP, inversive,
                 _radii(complex, rng, inversive, 0.5, 2.0, True))
    goal = _radii(complex, rng, inversive, 0.5, 2.0, True)
    target = curvature(complex, PackingMetric(HYP, inversive, goal)).values
    save_target(directory / "target.json", target)
    subsets = '{"format": 1, "subsets": [[0], [0, 1, 2], [3, 7, 11, 14], [5, 9]]}\n'
    (directory / "subsets.json").write_text(subsets, encoding="utf-8")
    # a start with degenerate faces and an admissible target, I in [0, 3]
    wide = rng.uniform(0.0, 3.0, complex.edge_count)
    goal = _radii(complex, rng, wide, 1.0, 5.0, True)
    target = curvature(complex, PackingMetric(HYP, wide, goal)).values
    save_target(directory / "d_target.json", target)
    start = _radii(complex, rng, wide, 0.1, 5.0, False)
    save_surface(directory / "d.json", complex, HYP, wide, start)
    # a euclidean torus, from its own generator so the genus2 inputs stay put
    torus, rng = triangulated_torus(4, 4), np.random.default_rng(3)
    save_surface(directory / "e.json", torus, Background.EUCLIDEAN,
                 rng.uniform(0.0, 1.0, torus.edge_count),
                 np.exp(rng.uniform(np.log(0.5), np.log(2.0), torus.vertex_count)))

    def out(name):
        return str(directory / name)

    yield "curvature", ["curvature", out("g.json"), "--report", out("curvature.json")]
    yield "curvature-extended", ["curvature", out("g.json"), "--extended",
                                 "--report", out("curvature_extended.json")]
    yield "gb", ["gb", out("g.json")]
    yield "flow-extended", ["flow", out("g.json"), "--variant", "extended",
                            "--trace", out("flow.csv"), "--trace-json", out("flow_trace.json"),
                            "--radii-out", out("flow_radii.json")]
    yield "flow-degenerate", ["flow", out("d.json"), "--variant", "prescribed",
                              "--target-file", out("d_target.json"), "--max-time", "2000",
                              "--trace", out("d_flow.csv"), "--radii-out", out("d_flow_radii.json")]
    yield "solve", ["solve", out("g.json"), "--target-file", out("target.json"),
                    "--report", out("solve.json"), "--radii-out", out("solve_radii.json")]
    yield "check-cap", ["check", out("g.json"), "--subset-cap", "3",
                        "--report", out("check_cap.json")]
    yield "check-subsets", ["check", out("g.json"), "--subsets-file", out("subsets.json"),
                            "--report", out("check_subsets.json")]
    yield "euclidean-curvature-extended", ["curvature", out("e.json"), "--extended",
                                           "--report", out("e_curvature_extended.json")]
    yield "euclidean-flow-extended", ["flow", out("e.json"), "--variant", "extended",
                                      "--trace", out("e_flow.csv"),
                                      "--radii-out", out("e_flow_radii.json")]


def run_digests() -> dict[str, str]:
    """Run the command set in a fresh directory: name -> SHA-256 of every
    file left there and of each command's ``<label>.stdout``."""
    digests = {}
    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        token = str(directory).encode()
        for label, argv in _commands(directory):
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                code = main([*argv, "--manifest", str(directory / f"{label}.manifest.json")])
            text = f"exit {code}\n{printed.getvalue()}".encode()
            digests[f"{label}.stdout"] = hashlib.sha256(text.replace(token, TOKEN)).hexdigest()
        for path in directory.iterdir():
            data = path.read_bytes().replace(token, TOKEN)
            digests[path.name] = hashlib.sha256(data).hexdigest()
    return dict(sorted(digests.items()))


def _versions() -> str:
    return f"numpy {np.__version__} and CPython {platform.python_version()}"


def _read_digests() -> tuple[str, dict[str, str]]:
    """The recorded versions line and name -> digest."""
    lines = DIGESTS.read_text(encoding="utf-8").splitlines()
    versions = lines[0].split("written with ", 1)[1]
    pairs = (line.split() for line in lines if line and not line.startswith("#"))
    return versions, {name: digest for digest, name in pairs}


def _moved(old: dict[str, str], new: dict[str, str]) -> str:
    """The names whose digest changed, appeared or vanished from ``old`` to
    ``new``, by kind; empty if none moved."""
    kinds = {"changed": sorted(name for name in old.keys() & new.keys() if old[name] != new[name]),
             "appeared": sorted(new.keys() - old.keys()),
             "vanished": sorted(old.keys() - new.keys())}
    return "; ".join(f"{kind}: {', '.join(names)}" for kind, names in kinds.items() if names)


def test_cli_outputs_are_pinned(monkeypatch):
    crossings = []
    face_states = potential_module._face_states

    def counted(*args):
        crossings.append(args)
        return face_states(*args)

    monkeypatch.setattr(potential_module, "_face_states", counted)
    found = run_digests()
    assert crossings, "no trace potential crossed the degenerate boundary"
    versions, expected = _read_digests()
    moved = _moved(expected, found)
    assert not moved, (
        f"output bytes moved ({moved}); the digests were written with "
        f"{versions}, this is {_versions()}; if the change is meant, regenerate "
        f"them with `{REGENERATE}`"
    )


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    previous = _read_digests()[1] if DIGESTS.exists() else {}
    found = run_digests()
    lines = [f"# SHA-256 of the outputs of tests/test_output_digests.py, "
             f"written with {_versions()}",
             f"# regenerate: {REGENERATE}"]
    lines += [f"{digest}  {name}" for name, digest in found.items()]
    DIGESTS.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(found)} digests to {DIGESTS.relative_to(ROOT)}")
    print(_moved(previous, found) or "no digest moved")
