"""Command-line interface.

Commands: ``curvature``, ``gb``, ``flow``, ``solve``, ``check``.  Structured
reports are JSON, flow traces are CSV, and every run writes exactly one
manifest echoing the command, configuration, input digest, outputs and
final status.  Exit codes are part of the contract:

    0  success / flow converged
    2  parse or configuration error
    3  domain error (inadmissible metric, solver failure, ...)
    4  flow hit its time budget
    5  flow left the admissible region or diverged
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import inspect
import sys
from pathlib import Path

from . import __version__
from .curvature import _defect, curvature, extended_curvature, gauss_bonnet_defect
from .errors import ConfigError, CPFlowError, ParseError
from .flow import INTEGRATORS, VARIANTS, FlowConfig, run_flow
from .io import (
    _write_json,
    load_subsets,
    load_surface,
    load_target,
    read_bytes,
    save_surface,
    write_check_report,
    write_curvature_report,
    write_manifest,
    write_trace_csv,
    write_trace_json,
)
from .obstructions import (
    _capped_report, _decided_report, _with_observed, check_zero_curvature_obstructions,
)
from .packing import Background, check_inversive, from_u, to_u
from .potential import PotentialContext, newton_solve

_EXIT_OK = 0
_EXIT_PARSE = 2
_EXIT_DOMAIN = 3
_EXIT_MAX_TIME = 4
_EXIT_LEFT_OR_DIVERGED = 5

#: each flow option's dest, which is also its manifest key, and the FlowConfig field it sets
_FLOW_SETTINGS = {
    "variant": "variant", "integrator": "integrator", "dt": "step", "tol": "tolerance",
    "max_time": "max_time", "sample_every": "sample_every",
    "radius_cap": "divergence_radius_cap", "record_potential": "record_potential",
}

_FLOW_EXIT = {
    "converged": _EXIT_OK,
    "max_time_reached": _EXIT_MAX_TIME,
    "left_admissible": _EXIT_LEFT_OR_DIVERGED,
    "diverged": _EXIT_LEFT_OR_DIVERGED,
}


class _Run:
    """Collects the manifest payload while a command executes."""

    def __init__(self, command: str, args: argparse.Namespace):
        self.command = command
        self.input_path = args.surface
        self.input_digest = None
        self.config: dict = {}
        self.outputs: dict = {}
        self.status = "error"
        default = f"{Path(args.surface).stem}.{command}.manifest.json"
        self.manifest_path = args.manifest or default

    def load_surface(self):
        """The input surface, parsed from the one read whose bytes the digest names."""
        data = read_bytes(self.input_path)
        self.input_digest = "sha256:" + hashlib.sha256(data).hexdigest()
        return load_surface(self.input_path, data)

    def write(self) -> None:
        write_manifest(
            self.manifest_path,
            self.command,
            self.config,
            self.input_path,
            self.input_digest,
            self.outputs,
            self.status,
        )


def _save_radii(args, run: _Run, surface, radii) -> None:
    """``--radii-out``: the input surface file with the given radii."""
    save_surface(args.radii_out, surface.complex, surface.background, surface.inversive,
                 radii, surface.permissive)
    run.outputs["radii"] = str(args.radii_out)


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------

def _cmd_curvature(args, run: _Run) -> int:
    surface = run.load_surface()
    metric = surface.require_metric()
    run.config = {"extended": bool(args.extended)}

    curv = extended_curvature(surface.complex, metric) if args.extended else curvature(
        surface.complex, metric
    )
    violations = curv.degenerate.nonzero()[0].tolist()
    admissible = not violations
    # A curvature that passed the classical call equals the extended one.
    defect = _defect(surface.complex, metric.background, curv)

    print(f"background      {surface.background.value}")
    print(f"vertices        {surface.complex.vertex_count}")
    print(f"admissible      {admissible}" + (f"  (violating faces {violations})" if violations else ""))
    print(f"total area      {curv.total_area!r}")
    print(f"gauss-bonnet    {defect!r}")
    print("vertex  curvature")
    texts = list(map(repr, curv.values.tolist()))
    print("\n".join([f"{i:>6}  {k}" for i, k in enumerate(texts)]))

    report_path = args.report or f"{Path(args.surface).stem}.curvature.json"
    write_curvature_report(report_path, surface.background, curv, defect, violations, texts)
    run.outputs["report"] = str(report_path)
    run.status = "ok"
    return _EXIT_OK


def _cmd_gb(args, run: _Run) -> int:
    surface = run.load_surface()
    metric = surface.require_metric()
    defect = gauss_bonnet_defect(surface.complex, metric)
    print(f"gauss-bonnet defect {defect!r}")
    run.status = "ok"
    return _EXIT_OK


def _cmd_flow(args, run: _Run) -> int:
    surface = run.load_surface()
    metric = surface.require_metric()
    target = None
    if args.target_file:
        target = load_target(args.target_file, surface.complex.vertex_count)

    settings = {dest: getattr(args, dest) for dest in _FLOW_SETTINGS}
    run.config = {"target_file": args.target_file, **settings}
    config = FlowConfig(target=target, **{_FLOW_SETTINGS[d]: v for d, v in settings.items()})
    # The trace potential reaches no output but a trace file.
    config.record_potential = config.record_potential and bool(args.trace or args.trace_json)

    result = run_flow(surface.complex, surface.inversive, to_u(metric), config)
    run.status = result.status
    final_res = float(abs(result.trace[-1].curvature - result.target).max())
    run.outputs["final_time"] = result.trace[-1].t
    run.outputs["iterations"] = result.iterations
    run.outputs["final_residual"] = final_res
    print(
        f"status {result.status}  steps {result.iterations}  "
        f"t {result.trace[-1].t!r}  residual {final_res!r}"
    )

    if args.trace:
        write_trace_csv(args.trace, surface.complex.vertex_count, result.trace)
        run.outputs["trace"] = str(args.trace)
    if args.trace_json:
        write_trace_json(args.trace_json, surface.complex.vertex_count, result.trace)
        run.outputs["trace_json"] = str(args.trace_json)
    if args.radii_out:
        final = from_u(result.final_u, surface.inversive, surface.permissive)
        _save_radii(args, run, surface, final.radii)
    return _FLOW_EXIT[result.status]


def _cmd_solve(args, run: _Run) -> int:
    surface = run.load_surface()
    metric = surface.require_metric()
    if surface.background is not Background.HYPERBOLIC:
        raise ConfigError("solve requires a hyperbolic surface file")
    target = load_target(args.target_file, surface.complex.vertex_count)
    run.config = {"target_file": args.target_file, "tol": args.tol, "max_iter": args.max_iter}

    u_init = to_u(metric)
    ctx = PotentialContext(surface.complex, surface.inversive, u_init, target)
    u_star, report = newton_solve(ctx, u_init, tol=args.tol, max_iter=args.max_iter)
    solution = from_u(u_star, surface.inversive, surface.permissive)

    print(
        f"solved in {report.iterations} iterations  residual {report.residual!r}  "
        f"(newton {report.newton_steps}, gradient {report.gradient_steps})"
    )
    report_path = args.report or f"{Path(args.surface).stem}.solve.json"
    _write_json(
        report_path,
        {
            "format": 1,
            "iterations": report.iterations,
            "residual": report.residual,
            "newton_steps": report.newton_steps,
            "gradient_steps": report.gradient_steps,
            "radii": solution.radii.tolist(),
        },
    )
    run.outputs["report"] = str(report_path)
    if args.radii_out:
        _save_radii(args, run, surface, solution.radii)
    run.status = "ok"
    return _EXIT_OK


def _cmd_check(args, run: _Run) -> int:
    surface = run.load_surface()
    run.config = {"subset_cap": args.subset_cap, "subsets_file": args.subsets_file}
    subsets = None
    if args.subsets_file:
        subsets = load_subsets(args.subsets_file, surface.complex.vertex_count)

    if args.subset_cap is None:
        zero_report = check_zero_curvature_obstructions(surface.complex, surface.inversive, subsets)
    else:  # the capped builder takes checked distances; their refusal comes first
        inversive = check_inversive(surface.inversive, surface.complex)
        if subsets is not None:
            raise ConfigError("give explicit subsets or a subset cap, not both")
        zero_report = _capped_report(surface.complex, inversive, args.subset_cap)

    # The bounds report, for an admissible hyperbolic metric only, is the
    # zero report with observed sums, or for a decided report its own flow's.
    bounds_report = None
    metric = surface.metric
    if metric is not None and surface.background is Background.HYPERBOLIC:
        curv = extended_curvature(surface.complex, metric)
        if not curv.extended:
            bounds_report = (_decided_report(surface.complex, surface.inversive, curv.values)
                             if zero_report.decided else _with_observed(zero_report, curv.values))

    checked = "all nonempty" if zero_report.decided else len(zero_report.bounds)
    print(f"subsets checked            {checked}")
    print(f"zero-curvature necessary   {zero_report.verdict}")
    if bounds_report is not None:
        print(f"curvature bounds           {bounds_report.verdict}")

    report_path = args.report or f"{Path(args.surface).stem}.check.json"
    write_check_report(report_path, zero_report, bounds_report)
    run.outputs["report"] = str(report_path)
    run.status = "ok"
    return _EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="cpflow",
        description="Inversive distance circle packings: curvature, Ricci flow, "
        "Newton descent and obstruction checks on closed triangulated surfaces.",
    )
    parser.add_argument("--version", action="version", version=f"cpflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("surface", help="surface file (JSON)")
        p.add_argument("--manifest", help="manifest path (default <surface>.<cmd>.manifest.json)")

    p = sub.add_parser("curvature", help="per-vertex curvature report")
    add_common(p)
    p.add_argument("--extended", action="store_true", help="use the extended curvature")
    p.add_argument("--report", help="JSON report path")
    p.set_defaults(func=_cmd_curvature)

    p = sub.add_parser("gb", help="total-curvature (Gauss-Bonnet) defect only")
    add_common(p)
    p.set_defaults(func=_cmd_gb)

    p = sub.add_parser("flow", help="integrate the combinatorial Ricci flow")
    add_common(p)
    flow = FlowConfig()
    p.set_defaults(**{dest: getattr(flow, field) for dest, field in _FLOW_SETTINGS.items()})
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--target-file", help="prescribed-curvature target (JSON)")
    p.add_argument("--dt", type=float, help="time step (default %(default)s)")
    p.add_argument("--tol", type=float, help="residual tolerance")
    p.add_argument("--max-time", type=float)
    p.add_argument("--sample-every", type=int, metavar="STEPS")
    p.add_argument("--integrator", choices=INTEGRATORS)
    p.add_argument("--radius-cap", type=float, help="declare divergence past this radius")
    p.add_argument("--no-potential", dest="record_potential", action="store_false",
                   help="skip potential values in the trace")
    p.add_argument("--trace", help="trace CSV path")
    p.add_argument("--trace-json", help="trace JSON path")
    p.add_argument("--radii-out", help="write the final metric as a surface file")
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("solve", help="Newton descent to a prescribed curvature")
    add_common(p)
    p.add_argument("--target-file", required=True)
    solve = inspect.signature(newton_solve).parameters
    p.add_argument("--tol", type=float, default=solve["tol"].default)
    p.add_argument("--max-iter", type=int, default=solve["max_iter"].default)
    p.add_argument("--report", help="JSON report path")
    p.add_argument("--radii-out", help="write the solution as a surface file")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("check", help="combinatorial obstruction report", usage="%(prog)s SURFACE "
                       "[--subset-cap N | --subsets-file S.json] [--report OUT.json] [--manifest M.json]")
    add_common(p)
    p.add_argument("--subset-cap", type=int, default=None, metavar="N",
                   help="check the proper subsets of at most N vertices (default: decide every "
                        "nonempty subset, V included, by one maximum flow, and record the "
                        "least-margin subset where a margin is <= 0, and V)")
    p.add_argument("--subsets-file", metavar="S.json",
                   help="explicit subsets (JSON), in file order; not with --subset-cap")
    p.add_argument("--report", help="JSON report path")
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run = _Run(args.command, args)
    try:
        return args.func(args, run)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        run.status = f"parse_error: {exc}"
        return _EXIT_PARSE
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        run.status = f"config_error: {exc}"
        return _EXIT_PARSE
    except CPFlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        run.status = f"domain_error: {exc}"
        return _EXIT_DOMAIN
    finally:
        try:
            run.write()
        except ConfigError as exc:  # manifest location unwritable
            print(f"warning: could not write manifest: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
