"""cpflow benchmark: wall time of real CLI commands, with outside-in layer tracing.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a cpflow checkout and imports the program from its
``src`` directory.  Every command goes through ``cpflow.cli.main(argv)``
in this one single-threaded process, closed loop: each command starts when
the previous one returns.  One untimed warm-up pass comes first, then passes
repeat until ``--seconds`` have gone by; every time is a median over passes,
scaled for the host's speed during each pass.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates untraced
and traced passes and prints the per-layer metrics from the traced ones plus
the tracing overhead.  Every command's outputs are checked after its pass.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import os

# BLAS must see the pin before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9

#: typical ``calibration_s`` on the host the bounds were set on
NOMINAL_CALIBRATION_S = 0.0015
_ARRAY = numpy.linspace(0.1, 1.0, 200_000)
_BUFFER = numpy.empty_like(_ARRAY)

sys.path.insert(0, str(BENCH_DIR))


def calibration_s() -> float:
    """Geometric mean of the durations of two fixed jobs that share nothing
    with cpflow: an interpreter-bound loop and an array-bound numpy pass that
    allocates nothing.

    Other tenants' load slows this host by 20-50 % for tens of seconds at a
    time, and slows interpreter-bound and array-bound code by different
    amounts.  Timed before every command, this mix follows the program's
    slowdowns on both kinds of workload, so each pass's times are scaled by
    ``NOMINAL_CALIBRATION_S`` over its median (see README.md).
    """
    start = perf_counter()
    total = 0
    for i in range(30000):
        total += i * i
    middle = perf_counter()
    numpy.tanh(_ARRAY, out=_BUFFER)
    numpy.clip(_BUFFER, -1.0, 1.0, out=_BUFFER)
    numpy.arccos(_BUFFER, out=_BUFFER)
    _BUFFER.sum()
    return math.sqrt((middle - start) * (perf_counter() - middle))


def speed_scale(calibration: list[float]) -> float:
    return NOMINAL_CALIBRATION_S / statistics.median(calibration)


def import_program():
    """Import cpflow from this checkout's sources, never from elsewhere."""
    if not (SRC / "cpflow" / "__init__.py").is_file():
        raise SystemExit(f"error: no cpflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cpflow
    import cpflow.cli

    if Path(cpflow.__file__).resolve().parent != SRC / "cpflow":
        raise SystemExit(f"error: imported cpflow from {cpflow.__file__}, not {SRC}")
    return cpflow.cli.main


def measure_setup(repeats: int = SETUP_REPEATS) -> tuple[float, float]:
    """Median wall time of a fresh interpreter running ``import cpflow.cli``,
    unscaled and scaled."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", "import cpflow.cli"]
    subprocess.run(argv, env=env, cwd=ROOT, check=True)  # writes bytecode caches
    times, calibration = [], []
    for _ in range(repeats):
        calibration += [calibration_s(), calibration_s()]
        start = perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - start)
    raw = statistics.median(times)
    return raw, raw * speed_scale(calibration)


class Pass:
    """One run of a workload's commands: each command's time and outcome, and
    the pass's speed scale from a calibration run before every command."""

    def __init__(self, workload, cli_main, tracer=None):
        self.command_s: list[float] = []
        self.outcomes: list[tuple[int | None, str]] = []
        calibration = []
        for command in workload.commands:
            calibration.append(calibration_s())
            out = io.StringIO()
            begin = perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                scope = tracer.command(command.name) if tracer else contextlib.nullcontext()
                try:
                    with scope:
                        code = cli_main(command.argv)
                except Exception:
                    code = None
                    traceback.print_exc()
            self.command_s.append(perf_counter() - begin)
            self.outcomes.append((code, out.getvalue()))
        self.wall_s = sum(self.command_s)
        self.scale = speed_scale(calibration)

    def family_s(self, workload, family: str) -> float:
        return sum(t for t, c in zip(self.command_s, workload.commands) if c.family == family)


class Gate:
    """Counts commands run and commands failed across every pass of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.manifests: dict[str, bytes] = {}

    def verify(self, workload, run: Pass) -> None:
        for command, (code, stdout) in zip(workload.commands, run.outcomes):
            self.attempted += 1
            problems = []
            if code != 0:
                problems.append(f"exit code {code}: {stdout.strip()[-300:]}")
            else:
                try:
                    problems = command.verify(stdout)
                except Exception as exc:  # a malformed output is a failed operation
                    problems = [f"{type(exc).__name__}: {exc}"]
                manifest = command.manifest.read_bytes() if command.manifest.exists() else b""
                first = self.manifests.setdefault(command.label, manifest)
                if manifest != first:
                    problems.append("manifest differs from the first pass")
            if problems:
                self.failed += 1
                self.problems += [f"{command.label}: {p}" for p in problems]


def end_to_end(workload, cli_main, seconds: float, gate: Gate) -> dict:
    setup_raw, setup_s = measure_setup()
    gate.verify(workload, Pass(workload, cli_main))  # warm-up
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        passes.append(Pass(workload, cli_main))
        gate.verify(workload, passes[-1])

    metrics = {"setup_s": (setup_s, "s")}
    for family in ("flow", "solve", "check", "curvature"):
        metrics[f"{family}_s"] = (statistics.median(
            p.family_s(workload, family) * p.scale for p in passes), "s")
    metrics["wall_s"] = (statistics.median(p.wall_s * p.scale for p in passes), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    print(f"unscaled: setup_s {setup_raw:.4f}, pass wall times "
          + ", ".join(f"{p.wall_s:.4f} (scale {p.scale:.3f})" for p in passes))
    return metrics, len(passes)


#: span -> what is reported of it: call count, total seconds, self seconds
SPAN_METRICS = {
    "packing.u_to_radii": ("calls", "s"),
    "packing.edge_lengths": ("calls", "s"),
    "angles.extended": ("calls", "s"),
    "angles.jacobians": ("s",),
    "curvature.eval": ("s", "self_s"),
    "curvature.jacobian": ("calls", "s"),
    "flow.run": ("s", "self_s"),
    "flow.quadrature": ("calls", "s"),
    "potential.line_search": ("calls", "s"),
    "potential.direction": ("s",),
    "linalg.cholesky": ("s",),
    "linalg.solve": ("s",),
    "obstructions.enumerate": ("s",),
    "obstructions.bound": ("calls", "s", "self_s"),
    "complexes.link_pairs": ("s",),
    "complexes.subcomplex_counts": ("s",),
    "io.load_surface": ("s",),
    "io.write_trace": ("s",),
    "io.write_report": ("s",),
    "io.write_manifest": ("s",),
}
#: count -> the boundary whose wrapper takes it
COUNT_METRICS = {
    "curvature.evals": "curvature.eval",
    "flow.steps": "flow.run",
    "potential.quadrature_nodes": "curvature.eval",
    "potential.quadrature_failures": "flow.quadrature",
    "potential.line_search.trials": "potential.line_search.trials",
    "potential.newton.iterations": "potential.newton",
    "potential.newton.newton_steps": "potential.newton",
    "potential.newton.gradient_steps": "potential.newton",
    "obstructions.subsets": "obstructions.subsets",
}


def per_layer(workload, cli_main, seconds: float, gate: Gate) -> dict:
    from tracing import Tracer

    gate.verify(workload, Pass(workload, cli_main))  # warm-up
    plain, traced = [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        plain.append(Pass(workload, cli_main))
        gate.verify(workload, plain[-1])
        tracer = Tracer()
        tracer.install()
        try:
            run = Pass(workload, cli_main, tracer)
        finally:
            tracer.uninstall()
        gate.verify(workload, run)
        traced.append((run, tracer))

    median = statistics.median
    totals = [(t.span_totals(), run.scale) for run, t in traced]
    tracer = traced[-1][1]
    tracer.write_spans(workload.work / "spans.csv")
    metrics, absent = {}, []
    column = {"calls": 0, "s": 1, "self_s": 2}
    for span, fields in SPAN_METRICS.items():
        for f in fields:
            name = f"{span}.{f}"
            if f == "calls":
                metrics[name] = (int(median(t.get(span, [0])[0] for t, _ in totals)), "count")
            else:
                metrics[name] = (median(t.get(span, [0, 0.0, 0.0])[column[f]] * scale
                                        for t, scale in totals), "s")
            if span not in tracer.present:
                absent.append(name)
    for name, boundary in COUNT_METRICS.items():
        metrics[name] = (tracer.total(name), "count")
        if boundary not in tracer.present:
            absent.append(name)
    faces = tracer.total("angles.faces")
    degenerate = tracer.total("angles.degenerate_faces")
    metrics["angles.degenerate_faces"] = (degenerate, "count")
    metrics["angles.degenerate_share"] = (degenerate / faces if faces else 0.0, "ratio")
    if "angles.extended" not in tracer.present:
        absent += ["angles.degenerate_faces", "angles.degenerate_share"]
    subsets = [i for i in workload.inputs if "subsets" in i]
    total = sum(i["subsets"] for i in subsets)
    connected = sum(i["connected"] for i in subsets)
    metrics["obstructions.connected_share"] = (connected / total if total else 0.0, "ratio")
    metrics["cli.self_s"] = (median(scale * sum(v[2] for k, v in t.items() if k.startswith("cli."))
                                    for t, scale in totals), "s")
    untraced_wall = median(p.wall_s * p.scale for p in plain)
    traced_wall = median(r.wall_s * r.scale for r, _ in traced)
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")

    for index, command in enumerate(workload.commands):
        f = tracer.per_command("angles.faces").get(index, 0)
        if f:
            d = tracer.per_command("angles.degenerate_faces").get(index, 0)
            print(f"input {command.label}: angles.degenerate_share {d / f:.6f} ({d}/{f} faces evaluated)")
    print(f"traced pass {traced_wall:.4f} s, untraced pass {untraced_wall:.4f} s, "
          f"{len(traced)} of each, {len(tracer.spans)} spans")
    return metrics, absent, len(traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    cli_main = import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    work = BENCH_DIR / ".work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    begin = perf_counter()
    workload = WORKLOADS[args.workload](work, args.seed)
    print(f"env: python {platform.python_version()}, numpy {numpy.__version__}, "
          f"nproc {os.cpu_count()}, " + ", ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS))
    print(f"workload {workload.name} seed {args.seed}: {len(workload.commands)} commands per pass, "
          f"inputs built in {perf_counter() - begin:.2f} s")
    for entry in workload.inputs:
        if "faces" in entry:
            print(f"input {entry['input']}: start metric degenerate faces "
                  f"{entry['degenerate_faces']}/{entry['faces']}")
        else:
            print(f"input {entry['input']}: obstructions.connected_share "
                  f"{entry['connected'] / entry['subsets']:.6f} "
                  f"({entry['connected']}/{entry['subsets']} subsets)")

    measure(workload, cli_main, args.seconds, args.trace)
    return 0


def measure(workload, cli_main, seconds: float, trace: int) -> dict:
    """Run the passes, print every metric, and print the result as the last line."""
    gate = Gate()
    absent = []
    if trace:
        metrics, absent, passes = per_layer(workload, cli_main, seconds, gate)
    else:
        metrics, passes = end_to_end(workload, cli_main, seconds, gate)
    print(f"{passes} measured passes; failed_share {gate.failed / gate.attempted:.6f} "
          f"({gate.failed}/{gate.attempted} commands)")
    for problem in gate.problems[:20]:
        print(f"FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}" + ("  (absent)" if name in absent else ""))
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            name: dict({"value": value, "unit": unit}, **({"absent": True} if name in absent else {}))
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    sys.exit(main())
