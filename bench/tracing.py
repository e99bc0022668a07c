"""Outside-in tracing of cpflow's layer boundaries.

The tracer replaces boundary functions with timing wrappers in the namespace of
each module that calls them (patching ``cpflow.curvature.u_to_radii_array``
reaches the curvature evaluator; patching ``cpflow.packing.u_to_radii_array``
alone would not).  Every call records a span (name, start, end, parent span,
command) and the counts its hook takes from arguments or results.  Nothing
inside the program changes, and ``uninstall`` puts every original back.

A boundary that the program no longer has is skipped; the metrics that depend
on it are then reported absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy

MODULES = (
    "cpflow.packing",
    "cpflow.angles",
    "cpflow.complexes",
    "cpflow.curvature",
    "cpflow.flow",
    "cpflow.potential",
    "cpflow.obstructions",
    "cpflow.io",
    "cpflow.cli",
)


class _Namespace:
    """Stand-in for a module: the given names overridden, the rest delegated."""

    def __init__(self, base, **overrides):
        self._base = base
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._base, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, command index]
        self.counts: Counter = Counter()  # (command index, key) -> count
        self.present: set[str] = set()  # boundaries found in the program
        self._stack: list[int] = []
        self._command = -1
        self._quadrature_depth = 0
        self._patches: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._command])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[(self._command, key)] += amount

    @contextmanager
    def command(self, name: str):
        """Root span of one CLI command; later spans belong to it."""
        self._command += 1
        index = self._open("cli." + name)
        try:
            yield
        finally:
            self._close(index)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, span, func, enter=None, leave=None, result=None, error=None):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if enter:
                enter()
            index = tracer._open(span) if span else None
            try:
                out = func(*args, **kwargs)
            except Exception as exc:
                if error:
                    error(exc)
                raise
            finally:
                if index is not None:
                    tracer._close(index)
                if leave:
                    leave()
            if result:
                result(out)
            return out

        return traced

    def _patch(self, module, attr, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self) -> None:
        modules = {}
        for name in MODULES:
            try:
                modules[name] = importlib.import_module(name)
            except ImportError:
                pass

        def boundary(key, defining, attr, span=None, callers=MODULES, wrap=None, **hooks):
            original = getattr(modules.get(defining), attr, None)
            if original is None:
                return
            for caller in callers:
                module = modules.get(caller)
                if module is not None and getattr(module, attr, None) is original:
                    replacement = wrap(original) if wrap else self._wrap(span, original, **hooks)
                    self._patch(module, attr, replacement)
                    self.present.add(key)

        count = self.count

        def degenerate(out):
            mask = out[1]
            count("angles.degenerate_faces", int(mask.sum()))
            count("angles.faces", int(mask.size))

        def evaluation():
            count("curvature.evals")
            if self._quadrature_depth:
                count("potential.quadrature_nodes")

        def quadrature_enter():
            self._quadrature_depth += 1

        def quadrature_leave():
            self._quadrature_depth -= 1

        def quadrature_error(exc):
            if type(exc).__name__ == "QuadratureError":
                count("potential.quadrature_failures")

        def flow_result(out):
            count("flow.steps", int(out.iterations))

        def newton_result(out):
            report = out[1]
            count("potential.newton.iterations", int(report.iterations))
            count("potential.newton.newton_steps", int(report.newton_steps))
            count("potential.newton.gradient_steps", int(report.gradient_steps))

        def subsets_result(out):
            count("obstructions.subsets", len(out.records))

        def evaluator_factory(factory):
            @functools.wraps(factory)
            def traced_factory(*args, **kwargs):
                return self._wrap("curvature.eval", factory(*args, **kwargs), enter=evaluation)

            return traced_factory

        boundary("packing.u_to_radii", "cpflow.packing", "u_to_radii_array", "packing.u_to_radii")
        boundary("packing.edge_lengths", "cpflow.packing", "_edge_lengths_arrays", "packing.edge_lengths")
        boundary("angles.extended", "cpflow.angles", "extended_angles_batch", "angles.extended",
                 result=degenerate)
        boundary("angles.jacobians", "cpflow.angles", "angle_jacobians_batch", "angles.jacobians")
        boundary("curvature.eval", "cpflow.curvature", "make_curvature_evaluator",
                 wrap=evaluator_factory)
        for attr in ("curvature", "extended_curvature"):
            boundary("curvature.eval", "cpflow.curvature", attr, "curvature.eval", enter=evaluation)
        boundary("curvature.jacobian", "cpflow.curvature", "curvature_jacobian", "curvature.jacobian")
        boundary("flow.run", "cpflow.flow", "run_flow", "flow.run", result=flow_result)
        quadrature = dict(enter=quadrature_enter, leave=quadrature_leave, error=quadrature_error)
        boundary("flow.quadrature", "cpflow.potential", "segment_integral", "flow.quadrature",
                 callers=("cpflow.flow",), **quadrature)
        boundary("potential.quadrature", "cpflow.potential", "segment_integral",
                 "potential.quadrature", callers=("cpflow.potential",), **quadrature)
        boundary("potential.line_search", "cpflow.potential", "_line_search",
                 "potential.line_search", callers=("cpflow.potential",))
        boundary("potential.line_search.trials", "cpflow.potential", "_domain_ok",
                 callers=("cpflow.potential",),
                 enter=lambda: count("potential.line_search.trials"))
        boundary("potential.direction", "cpflow.potential", "_newton_direction",
                 "potential.direction", callers=("cpflow.potential",))
        boundary("potential.newton", "cpflow.potential", "newton_solve", "potential.newton",
                 result=newton_result)
        boundary("obstructions.enumerate", "cpflow.obstructions", "enumerate_subsets",
                 "obstructions.enumerate")
        boundary("obstructions.bound", "cpflow.obstructions", "subset_lower_bound",
                 "obstructions.bound")
        for attr in ("check_zero_curvature_obstructions", "check_curvature_bounds"):
            boundary("obstructions.subsets", "cpflow.obstructions", attr, result=subsets_result)
        boundary("complexes.link_pairs", "cpflow.complexes", "link_pairs", "complexes.link_pairs")
        boundary("complexes.subcomplex_counts", "cpflow.complexes", "_subcomplex_counts",
                 "complexes.subcomplex_counts")
        boundary("io.load_surface", "cpflow.io", "load_surface", "io.load_surface")
        for attr in ("write_trace_csv", "write_trace_json"):
            boundary("io.write_trace", "cpflow.io", attr, "io.write_trace")
        boundary("io.write_report", "cpflow.cli", "_write_json", "io.write_report",
                 callers=("cpflow.cli",))
        boundary("io.write_manifest", "cpflow.io", "write_manifest", "io.write_manifest")

        # The Newton direction calls np.linalg.cholesky/solve through the module
        # object; give cpflow.potential a numpy whose linalg is traced.
        potential = modules.get("cpflow.potential")
        if potential is not None and getattr(potential, "np", None) is numpy:
            linalg = _Namespace(
                numpy.linalg,
                cholesky=self._wrap("linalg.cholesky", numpy.linalg.cholesky),
                solve=self._wrap("linalg.solve", numpy.linalg.solve),
            )
            self._patch(potential, "np", _Namespace(numpy, linalg=linalg))
            self.present.update(("linalg.cholesky", "linalg.solve"))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- aggregation --------------------------------------------------------

    def span_totals(self) -> dict[str, list[float]]:
        """name -> [calls, total seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, list[float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[i]
        return totals

    def total(self, key: str) -> int:
        return sum(v for (_, k), v in self.counts.items() if k == key)

    def per_command(self, key: str) -> dict[int, int]:
        return {c: v for (c, k), v in self.counts.items() if k == key}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("index,name,start_s,end_s,parent,command\n")
            origin = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent, command) in enumerate(self.spans):
                out.write(f"{i},{name},{start - origin:.9f},{end - origin:.9f},{parent},{command}\n")
