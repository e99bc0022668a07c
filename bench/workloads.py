"""The benchmark's workloads: seeded input files, CLI commands and their checks.

Each workload writes its inputs under a work directory and returns the CLI
commands of one pass.  Every command carries a check of invariants (never of
frozen outputs), run after the pass so that it stays out of the timings.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from reference import (
    Mesh,
    connected_count,
    curvature,
    default_subsets,
    degenerate_faces,
    log_uniform,
    read_radii,
    sample_radii,
    torus_faces,
    write_json,
    write_surface,
)

FLOW_TOL = 1e-10
SOLVE_TOL = 1e-11
#: flow and solve must land on the same metric (acceptance criterion 4)
RIGIDITY_TOL = 1e-7
#: program curvature against the independent reference kernel
REFERENCE_TOL = 1e-9
#: final metrics against their target curvature, recomputed by the reference
REALIZED_TOL = 1e-8
GAUSS_BONNET_TOL = 1e-8
BOUND_TOL = 1e-9

#: command -> end-to-end metric family
FAMILY = {"flow": "flow", "solve": "solve", "check": "check", "curvature": "curvature", "gb": "curvature"}


@dataclass
class Command:
    label: str
    argv: list[str]
    manifest: Path
    verify: Callable[[str], list[str]]  # stdout -> problems found

    @property
    def name(self) -> str:
        return self.argv[0]

    @property
    def family(self) -> str:
        return FAMILY[self.name]


@dataclass
class Workload:
    name: str
    work: Path
    commands: list[Command] = field(default_factory=list)
    inputs: list[dict] = field(default_factory=list)  # per-input property shares

    def path(self, name: str) -> Path:
        return self.work / name

    def add(self, label: str, argv: list, verify) -> None:
        manifest = self.path(f"{label}.manifest.json")
        argv = [str(a) for a in argv] + ["--manifest", str(manifest)]
        self.commands.append(Command(label, argv, manifest, verify))

    def surface(self, tag, mesh, inversive, radii) -> Path:
        path = self.path(f"{tag}.json")
        write_surface(path, mesh, inversive, radii)
        degenerate = degenerate_faces(mesh, inversive, radii)
        self.inputs.append({"input": tag, "faces": int(degenerate.size),
                            "degenerate_faces": int(degenerate.sum())})
        return path

    def subsets(self, tag, mesh, subsets) -> None:
        connected, total = connected_count(mesh, subsets)
        self.inputs.append({"input": tag, "subsets": total, "connected": connected})

    # -- commands -----------------------------------------------------------

    def flow(self, tag, surface, mesh, inversive, target=None, variant="prescribed",
             trace=False, potential=True) -> Path:
        radii_out = self.path(f"{tag}.flow_radii.json")
        argv = ["flow", surface, "--variant", variant, "--tol", FLOW_TOL, "--max-time", 2000,
                "--radii-out", radii_out]
        if target is not None:
            target_file = self.path(f"{tag}.target.json")
            write_json(target_file, "target", [float(k) for k in target])
            argv += ["--target-file", target_file]
        if trace:
            argv += ["--trace", self.path(f"{tag}.trace.csv")]
        if not potential:
            argv.append("--no-potential")
        goal = np.zeros(mesh.vertex_count) if target is None else target
        manifest = self.path(f"{tag}.flow.manifest.json")

        def verify(stdout):
            problems = []
            doc = json.loads(manifest.read_text(encoding="utf-8"))
            if doc["status"] != "converged":
                problems.append(f"flow status {doc['status']}")
            elif not doc["outputs"]["final_residual"] <= FLOW_TOL:
                problems.append(f"flow residual {doc['outputs']['final_residual']!r} above tolerance")
            else:
                problems += _realized(mesh, inversive, read_radii(radii_out), goal)
            return problems

        self.add(f"{tag}.flow", argv, verify)
        return radii_out

    def solve(self, tag, surface, mesh, inversive, target, flow_radii: Path | None) -> None:
        target_file = self.path(f"{tag}.target.json")
        if not target_file.exists():
            write_json(target_file, "target", [float(k) for k in target])
        report = self.path(f"{tag}.solve.json")
        radii_out = self.path(f"{tag}.solve_radii.json")
        argv = ["solve", surface, "--target-file", target_file, "--tol", SOLVE_TOL,
                "--max-iter", 200, "--report", report, "--radii-out", radii_out]

        def verify(stdout):
            doc = json.loads(report.read_text(encoding="utf-8"))
            if not doc["residual"] <= SOLVE_TOL:
                return [f"solve residual {doc['residual']!r} above tolerance"]
            radii = read_radii(radii_out)
            problems = _realized(mesh, inversive, radii, target)
            if flow_radii is not None:
                gap = float(np.max(np.abs(radii - read_radii(flow_radii))))
                if not gap <= RIGIDITY_TOL:
                    problems.append(f"flow and solve radii differ by {gap:.3e}")
            return problems

        self.add(f"{tag}.solve", argv, verify)

    def curvature(self, tag, surface, mesh, inversive, radii, extended=False) -> None:
        report = self.path(f"{tag}.curvature.json")
        argv = ["curvature", surface, "--report", report] + (["--extended"] if extended else [])

        def verify(stdout):
            doc = json.loads(report.read_text(encoding="utf-8"))
            problems = []
            if not abs(doc["gauss_bonnet_defect"]) <= GAUSS_BONNET_TOL:
                problems.append(f"gauss-bonnet defect {doc['gauss_bonnet_defect']!r}")
            expected = curvature(mesh, inversive, radii)
            gap = float(np.max(np.abs(np.asarray(doc["curvature"]) - expected)))
            if not gap <= REFERENCE_TOL:
                problems.append(f"curvature differs from the reference by {gap:.3e}")
            if doc["admissible"] != (not degenerate_faces(mesh, inversive, radii).any()):
                problems.append("admissibility verdict differs from the reference")
            return problems

        self.add(f"{tag}.curvature", argv, verify)

    def gb(self, tag, surface) -> None:
        def verify(stdout):
            found = re.search(r"gauss-bonnet defect (\S+)", stdout)
            if found is None:
                return ["gb printed no defect"]
            defect = float(found.group(1))
            return [] if abs(defect) <= GAUSS_BONNET_TOL else [f"gauss-bonnet defect {defect!r}"]

        self.add(f"{tag}.gb", ["gb", surface], verify)

    def check(self, tag, surface, mesh, inversive, radii, cap=None, subsets=None) -> None:
        report = self.path(f"{tag}.check.json")
        argv = ["check", surface, "--report", report]
        if cap is not None:
            argv += ["--subset-cap", cap]
        if subsets is not None:
            subsets_file = self.path(f"{tag}.subsets.json")
            write_json(subsets_file, "subsets", [list(s) for s in subsets])
            argv += ["--subsets-file", subsets_file]
        self.subsets(tag, mesh, subsets if subsets is not None else
                     default_subsets(mesh.vertex_count, cap))
        expected = curvature(mesh, inversive, radii)
        program_surface = []

        def verify(stdout):
            from cpflow import subset_lower_bound
            from cpflow.io import load_surface

            doc = json.loads(report.read_text(encoding="utf-8"))
            bounds = doc["curvature_bounds"]
            if bounds is None:
                return ["check built no curvature-bounds report for an admissible metric"]
            problems = []
            if bounds["verdict"] is not True:
                problems.append("curvature-bounds verdict is not true")
            worst = min(bounds["records"], key=lambda r: r["margin"])
            if not worst["margin"] > 0:
                problems.append(f"subset {worst['subset']} has margin {worst['margin']!r}")
            observed = float(expected[worst["subset"]].sum())
            if not abs(observed - worst["observed"]) <= REFERENCE_TOL:
                problems.append(f"subset {worst['subset']} curvature sum differs from the reference")
            if not program_surface:
                program_surface.append(load_surface(surface))
            parsed = program_surface[0]
            zero = min(doc["zero_curvature_necessary"]["records"], key=lambda r: r["margin"])
            bound = subset_lower_bound(parsed.complex, parsed.inversive, zero["subset"])
            if not abs(bound - zero["bound"]) <= BOUND_TOL:
                problems.append(f"subset {zero['subset']} bound {zero['bound']!r} != {bound!r}")
            return problems

        self.add(f"{tag}.check", argv, verify)

    def pair(self, tag, mesh, inversive, start, target, trace=True, potential=True, solve=True):
        """A prescribed flow and a Newton solve from one start toward one target."""
        surface = self.surface(tag, mesh, inversive, start)
        flow_radii = self.flow(tag, surface, mesh, inversive, target, trace=trace,
                               potential=potential)
        if solve:
            self.solve(tag, surface, mesh, inversive, target, flow_radii)
        return surface


def _realized(mesh, inversive, radii, target) -> list[str]:
    gap = float(np.max(np.abs(curvature(mesh, inversive, radii) - target)))
    return [] if gap <= REALIZED_TOL else [f"final metric misses its target by {gap:.3e}"]


def _genus2() -> Mesh:
    from cpflow.complexes import genus2_surface

    return Mesh(genus2_surface().faces)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def genus2_flow(work: Path, seed: int, admissible: int = 10, degenerate: int = 10) -> Workload:
    """Small arrays, many evaluator calls: per-call overhead and quadrature."""
    w = Workload("genus2-flow", work)
    rng = np.random.default_rng(seed)
    mesh = _genus2()
    ones = np.ones(len(mesh.edges))
    radii = np.ones(mesh.vertex_count)
    tangency = w.surface("tangency", mesh, ones, radii)
    w.check("tangency", tangency, mesh, ones, radii, cap=3)
    for variant in ("extended", "classical"):
        w.flow(f"tangency.{variant}", tangency, mesh, ones, variant=variant)
    for k in range(admissible):
        inversive = rng.uniform(0.0, 1.0, len(mesh.edges))
        target = curvature(mesh, inversive, log_uniform(rng, 0.5, 2.0, mesh.vertex_count))
        start = log_uniform(rng, 0.5, 2.0, mesh.vertex_count)
        surface = w.pair(f"admissible{k}", mesh, inversive, start, target)
        w.curvature(f"admissible{k}", surface, mesh, inversive, start)
    for k in range(degenerate):
        # I in [0, 3]: the start violates triangle inequalities, the target does not,
        # so the flow deforms faces through the degenerate boundary.  Target radii
        # below 1 would spread the convergence time over a factor of 3 between seeds.
        inversive = rng.uniform(0.0, 3.0, len(mesh.edges))
        bar = sample_radii(rng, mesh, inversive, 1.0, 5.0, degenerate=False)
        start = sample_radii(rng, mesh, inversive, 0.1, 5.0, degenerate=True)
        target = curvature(mesh, inversive, bar)
        surface = w.pair(f"degenerate{k}", mesh, inversive, start, target, potential=False)
        w.curvature(f"degenerate{k}", surface, mesh, inversive, start, extended=True)
        w.gb(f"degenerate{k}", surface)
    return w


def torus_ladder(work: Path, seed: int, sizes=(20, 40, 80), solve_sizes=(20, 40),
                 check_sizes=(20, 40)) -> Workload:
    """Large arrays: kernel arithmetic, parsing at scale and the dense Newton solve."""
    w = Workload("torus-ladder", work)
    rng = np.random.default_rng(seed)
    for n in sizes:
        mesh = Mesh(torus_faces(n))
        inversive = rng.uniform(0.0, 1.0, len(mesh.edges))
        target = curvature(mesh, inversive, log_uniform(rng, 0.5, 2.0, mesh.vertex_count))
        start = log_uniform(rng, 0.5, 2.0, mesh.vertex_count)
        tag = f"torus{n}"
        surface = w.pair(tag, mesh, inversive, start, target, solve=n in solve_sizes)
        w.curvature(tag, surface, mesh, inversive, start)
        w.gb(tag, surface)
        if n in check_sizes:
            centres = rng.choice(mesh.vertex_count, 4, replace=False).tolist()
            stars = [sorted({v} | mesh.neighbours[v]) for v in centres]
            triples = [sorted(rng.choice(mesh.vertex_count, 3, replace=False).tolist()) for _ in range(4)]
            w.check(tag, surface, mesh, inversive, start, subsets=stars + triples)
    return w


def check_subsets(work: Path, seed: int, torus: int = 6, genus2_cap: int = 4) -> Workload:
    """Subset enumeration and bounds plus a large report write; little kernel work."""
    w = Workload("check-subsets", work)
    rng = np.random.default_rng(seed)
    for tag, mesh, cap in (("genus2", _genus2(), genus2_cap), (f"torus{torus}", Mesh(torus_faces(torus)), None)):
        inversive = rng.uniform(0.0, 1.0, len(mesh.edges))
        radii = log_uniform(rng, 0.5, 2.0, mesh.vertex_count)
        surface = w.surface(tag, mesh, inversive, radii)
        w.check(tag, surface, mesh, inversive, radii, cap=cap)
        w.curvature(tag, surface, mesh, inversive, radii)
        w.gb(tag, surface)
        # realize the checked metric: flow and solve back to its curvature
        target = curvature(mesh, inversive, radii)
        for k in range(3 if tag == "genus2" else 1):
            start = log_uniform(rng, 0.5, 2.0, mesh.vertex_count)
            w.pair(f"{tag}.realize{k}", mesh, inversive, start, target)
    return w


WORKLOADS = {
    "genus2-flow": genus2_flow,
    "torus-ladder": torus_ladder,
    "check-subsets": check_subsets,
}
