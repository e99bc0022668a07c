"""numpy is the package's one runtime dependency, and pytest and hypothesis
are the tests' only additions: scipy, networkx and mpmath may serve as
oracles outside the repository, never from ``src/`` or ``tests/``.  Inside
the package, only the angle kernel forms the cosine law that decides
which faces are degenerate, only the curvature module sums its angle
Jacobians into dK/du, only its curvature evaluator runs the per-vertex and
per-edge stages without their refusal screens, only one output helper
opens a file to write, the subset bounds have one rule, u-space ends
where ``packing._u_domain`` says, and the one maximum flow,
``obstructions._min_margin_cut``, decides the default check without a
member matrix."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = {
    "src/cpflow": set(sys.stdlib_module_names) | {"numpy"},
    "tests": set(sys.stdlib_module_names) | {"numpy", "pytest", "hypothesis", "cpflow", "conftest"},
}


def _absolute_imports(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("tree", sorted(ALLOWED))
def test_imports_stay_within_the_declared_dependencies(tree):
    modules = sorted((ROOT / tree).glob("*.py"))
    assert modules
    foreign = {
        str(path.relative_to(ROOT)): sorted(_absolute_imports(path) - ALLOWED[tree])
        for path in modules
    }
    assert {path: names for path, names in foreign.items() if names} == {}


def _borrowed_names(path: Path) -> set[str]:
    """The names one module imports from others or reads as attributes."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_only_the_angle_kernel_forms_the_cosine_law():
    # The degenerate-face rule lives in angles._cosine_law; every other
    # module reads the rule's result, the mask of extended_angles_batch.
    importers = [path.name for path in sorted((ROOT / "src/cpflow").glob("*.py"))
                 if path.name != "angles.py" and "_cosine_law" in _borrowed_names(path)]
    assert importers == []


def test_only_the_curvature_module_sums_angle_jacobians():
    # dK/du is built in curvature._hessian alone, from the per-corner arrays
    # of angle_jacobians_batch; the package's other modules read it through
    # curvature_jacobian or PotentialContext._hessian, and a lone triangle's
    # 3 x 3 block is -1/2 dK/du of its double (curvature.angle_jacobian_u).
    paths = sorted((ROOT / "src/cpflow").glob("*.py"))
    readers = [path.name for path in paths if "angle_jacobians_batch" in _borrowed_names(path)]
    assert readers == ["curvature.py"]


def _reversals(path: Path) -> int:
    """The slices with step -1 in one module, as ``a[::-1]``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return sum(isinstance(node, ast.Slice) and node.step is not None
               and ast.unparse(node.step) == "-1" for node in ast.walk(tree))


def test_a_lone_triangle_is_laid_out_as_the_double_alone():
    # complexes._DOUBLE_TRIANGLE is the one layout of a lone triangle, and
    # its edge m lies opposite slot m, so a triangle's per-slot values are
    # the double's per-edge values and no caller reverses them.  No module
    # keeps its own triangle tables or expands per-corner derivatives into
    # blocks beside curvature._dense_hessian, the crossing search lays out
    # its faces as the double's without the kernel's slot tables, and
    # angle_jacobian_u differentiates the double through _hessian.
    paths = sorted((ROOT / "src/cpflow").glob("*.py"))
    retired = {"_triangle_tables", "_triangle_ends", "angle_jacobian_blocks"}
    kept = {path.name: sorted(_words(path) & retired) for path in paths}
    assert {name: words for name, words in kept.items() if words} == {}
    assert sorted(_borrowed_names(ROOT / "src/cpflow/potential.py") & {"_NEXT", "_PREV"}) == []
    calls = _calls(ROOT / "src/cpflow/curvature.py", {"_hessian"})
    assert ("angle_jacobian_u", "_hessian") in calls
    callers = ["angles.py", "curvature.py", "obstructions.py", "potential.py"]
    reversed_in = {name: _reversals(ROOT / "src/cpflow" / name) for name in callers}
    assert {name: count for name, count in reversed_in.items() if count} == {}


@pytest.mark.parametrize("module", ["flow.py", "potential.py"])
def test_u_space_modules_take_dk_du_from_the_context(module):
    # The Newton direction and the stability certificate read dK/du at u
    # through PotentialContext._hessian: no radii, no rebuilt metric.
    radii_side = {"from_u", "PackingMetric", "_radius_factors", "curvature_jacobian",
                  "angle_jacobians_batch"}
    assert sorted(_borrowed_names(ROOT / "src/cpflow" / module) & radii_side) == []


def _file_writes(path: Path) -> set[tuple[str | None, str]]:
    """(enclosing function, callee) of each call in one module to ``open``,
    ``write_text`` or ``write_bytes``; None for a call outside functions."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                callee = getattr(child.func, "id", getattr(child.func, "attr", None))
                if callee in ("open", "write_text", "write_bytes"):
                    found.add((owner, callee))
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), None)
    return found


def test_every_file_is_written_through_the_one_output_helper():
    # io._write_chunks turns a path that cannot be written into a
    # ConfigError; a writer that opened its own file would not.
    writes = {(path.name, *call) for path in sorted((ROOT / "src/cpflow").glob("*.py"))
              for call in _file_writes(path)}
    assert writes == {("io.py", "_write_chunks", "open")}


def _unscreened_calls(path: Path) -> set[tuple[str, str | None, str]]:
    """(module, enclosing top-level function, callee) of each call that passes
    the keyword-only ``screen`` of ``_u_factors`` or ``_edge_lengths_arrays``."""
    found = set()
    for top in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                keywords = {keyword.arg for keyword in node.keywords}
                if callee in ("_u_factors", "_edge_lengths_arrays") and (
                        "screen" in keywords or None in keywords):
                    found.add((path.name, owner, callee))
    return found


def test_only_the_evaluator_reaches_the_unscreened_stages():
    # With screen=False the stages leave out their refusals, which only the
    # evaluator's u-band test shows cannot fire; any other caller that
    # passed it could hand an undefined length to the angle kernel.
    calls = set().union(*map(_unscreened_calls, sorted((ROOT / "src/cpflow").glob("*.py"))))
    assert calls == {("curvature.py", "make_curvature_evaluator", "_u_factors"),
                     ("curvature.py", "make_curvature_evaluator", "_edge_lengths_arrays")}


def _calls(path: Path, callees: set[str]) -> set[tuple[str | None, str]]:
    """(enclosing top-level function, callee) of each call in one module to a
    name in ``callees``; None for a call in a module-level statement."""
    found = set()
    for top in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                if callee in callees:
                    found.add((owner, callee))
    return found


def _words(path: Path) -> set[str]:
    """The identifiers and string constants of one module, docstrings
    included, in lower case."""
    words = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        for field in ("id", "attr", "name", "arg", "module"):
            value = getattr(node, field, None)
            if isinstance(value, str):
                words.add(value.lower())
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            words.add(node.value.lower())
    return words


def test_every_potential_difference_takes_the_one_quadrature_rule():
    # segment_integral, which splits a segment at its crossings, is the one
    # caller of the adaptive Clenshaw-Curtis rule, and no second rule (a
    # Romberg or Richardson table) is kept beside it.
    paths = sorted((ROOT / "src/cpflow").glob("*.py"))
    callers = {(path.name, *call) for path in paths
               for call in _calls(path, {"_adaptive_clenshaw_curtis", "_clenshaw_curtis_piece"})}
    assert callers == {("potential.py", "segment_integral", "_adaptive_clenshaw_curtis"),
                       ("potential.py", "_adaptive_clenshaw_curtis", "_clenshaw_curtis_piece"),
                       ("potential.py", "_clenshaw_curtis_piece", "_clenshaw_curtis_piece")}
    stale = {path.name: sorted(word for word in _words(path)
                               if "romberg" in word or "richardson" in word) for path in paths}
    assert {name: words for name, words in stale.items() if words} == {}


def test_quadrature_tables_are_built_once_at_import():
    # The nodes and weights are module constants, computed by the one
    # trigonometric function of potential.py when the module is imported;
    # no function evaluates a cosine or sine per integral.
    path = ROOT / "src/cpflow/potential.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assigned = {(top is node, name.id) for top in tree.body for node in ast.walk(top)
                if isinstance(node, ast.Assign) for target in node.targets
                for name in ast.walk(target)
                if isinstance(name, ast.Name) and name.id in ("_CC_NODES", "_CC_WEIGHTS")}
    assert assigned == {(True, "_CC_NODES"), (True, "_CC_WEIGHTS")}
    trigonometry = {"cos", "sin", "arccos", "arcsin", "cospi", "sinpi"}
    assert _calls(path, trigonometry) == {("_clenshaw_curtis_rule", "sin"),
                                          ("_clenshaw_curtis_rule", "cos")}
    assert _calls(path, {"_clenshaw_curtis_rule"}) == {(None, "_clenshaw_curtis_rule")}


def test_every_subset_bound_takes_the_one_rule():
    # subset_lower_bound is the batched rule on one subset.  The link pairs
    # and the induced subcomplex's counts, the tests' independent oracle,
    # stay out of the package's bounds, as does a link-order cumulative sum.
    path = ROOT / "src/cpflow/obstructions.py"
    assert ("subset_lower_bound", "_subset_lower_bounds") in _calls(path, {"_subset_lower_bounds"})
    old_rule = {"link_pairs", "_subcomplex_counts", "lexsort", "cumsum"}
    assert sorted(_borrowed_names(path) & old_rule) == []


@pytest.mark.parametrize("module", ["flow.py", "potential.py"])
def test_u_space_ends_where_the_one_domain_says(module):
    # packing._u_domain is the one statement of the interval a flow step or
    # a Newton trial may land in: neither module restates its floor or the
    # largest negative double, and the flow takes neither the line search's
    # domain test nor its own conversion of the radius cap.
    path = ROOT / "src/cpflow" / module
    assert "u_coordinate_floor" not in _words(path)
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Constant)
                and type(node.value) is float and node.value == 5e-324]
    if module == "flow.py":
        assert sorted(_borrowed_names(path) & {"_domain_ok", "radii_to_u_array"}) == []


def _owners(path: Path, fragment: str) -> set[str | None]:
    """The top-level functions of one module, None for module-level code,
    with an identifier or string that contains ``fragment``, in lower case."""
    owners = set()
    for top in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = ast.Module(body=top.body, type_ignores=[])
            owner = top.name
        else:
            body, owner = top, None
        text = ast.unparse(body).lower()
        if fragment in text:
            owners.add(owner)
    return owners


def test_the_max_flow_has_one_home(tmp_path, monkeypatch):
    # obstructions._min_margin_cut is the one maximum flow: no other code
    # under src/ names a sink or Dinic's algorithm, and only
    # _decided_report calls it.  The default check and check_curvature_bounds
    # decide every subset without _size_matrices, so no member matrix of
    # all subsets up to some size is built, and the retired enumeration
    # limits are gone.
    paths = sorted((ROOT / "src/cpflow").glob("*.py"))
    for fragment in ("sink", "dinic"):
        homes = {(path.name, owner) for path in paths for owner in _owners(path, fragment)}
        assert homes == {("obstructions.py", "_min_margin_cut")}, fragment
    callers = {(path.name, *call) for path in paths for call in _calls(path, {"_min_margin_cut"})}
    assert callers == {("obstructions.py", "_decided_report", "_min_margin_cut")}
    retired = {"exhaustive_vertex_limit", "default_subset_cap"}
    left = {path.name: sorted(w for w in _words(path) for r in retired if r in w) for path in paths}
    assert {name: words for name, words in left.items() if words} == {}

    from cpflow import check_curvature_bounds, genus2_surface, obstructions
    from cpflow.cli import main
    from cpflow.io import save_surface
    from cpflow.packing import Background, PackingMetric

    def refused(*args):
        raise AssertionError("the default check built a member matrix")

    monkeypatch.setattr(obstructions, "_size_matrices", refused)
    genus2 = genus2_surface()
    metric = PackingMetric(Background.HYPERBOLIC, np.ones(genus2.edge_count),
                           np.ones(genus2.vertex_count))
    assert check_curvature_bounds(genus2, metric).verdict
    surface = tmp_path / "genus2.json"
    save_surface(surface, genus2, metric.background, metric.inversive, metric.radii)
    assert main(["check", str(surface), "--report", str(tmp_path / "check.json"),
                 "--manifest", str(tmp_path / "manifest.json")]) == 0
