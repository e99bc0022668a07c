"""File formats: surface files, target files, trace CSV, curvature and check
reports, run manifests.

Structured inputs and reports are JSON, written compact on one line; flow
traces are CSV, written row by row.  Curvature and check reports and surface
files are assembled as text from their arrays, byte-identical to the compact
``json.dumps`` form.  All floats are serialized with the shortest round-trip
representation, so re-parsing an emitted file reproduces the values bit for
bit and identical runs produce byte-identical outputs.  Every format carries
a ``"format": 1`` version field and unknown fields are rejected.  Every file
goes through one writer, and a path that cannot be written is a
``ConfigError``.
"""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .complexes import SurfaceComplex, _build_complex, normalize_subset
from .errors import ConfigError, CPFlowError, ParseError
from .packing import Background, PackingMetric, check_inversive

FORMAT_VERSION = 1

_SURFACE_FIELDS = {"format", "background", "faces", "inversive", "radii", "permissive"}
_TARGET_FIELDS = {"format", "target"}
_SUBSETS_FIELDS = {"format", "subsets"}
_ENTRY_FIELDS = {"edge", "value"}
_INT = frozenset({int})
_LIST = frozenset({list})
_NUMBER = frozenset({int, float})
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


@dataclass(frozen=True)
class SurfaceInput:
    """Parsed surface file: complex, inversive distances and, when the file
    carries radii, the validated packing metric."""

    complex: SurfaceComplex
    background: Background
    inversive: np.ndarray
    permissive: bool
    metric: PackingMetric | None

    @property
    def radii(self) -> np.ndarray | None:
        return None if self.metric is None else self.metric.radii

    def require_metric(self) -> PackingMetric:
        if self.metric is None:
            raise ParseError("surface file has no 'radii' field, required here")
        return self.metric


def _check_fields(doc: dict, allowed: set, what: str) -> None:
    if not isinstance(doc, dict):
        raise ParseError(f"{what} must be a JSON object")
    unknown = set(doc) - allowed
    if unknown:
        raise ParseError(f"{what} has unknown fields: {sorted(unknown)}")
    version = doc.get("format")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ParseError(f"{what} must declare \"format\": {FORMAT_VERSION}")


def _is_list_of(raw, kinds: frozenset) -> bool:
    """Whether ``raw`` is a JSON list of values whose types are in ``kinds``.

    Decoded JSON holds no subclasses, so exact types suffice, and a boolean
    (type ``bool``) never passes for an integer.
    """
    return isinstance(raw, list) and set(map(type, raw)) <= kinds


def _write_chunks(path, chunks) -> None:
    """Every file the program writes: the strings of ``chunks`` in UTF-8,
    each written as it comes, so that a long file is never held whole.  A
    path that cannot be written is a configuration error."""
    try:
        with open(path, "w", encoding="utf-8") as out:
            out.writelines(chunks)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def _write_text(path, text: str) -> None:
    _write_chunks(path, (text,))


def _write_json(path, doc: dict, sort_keys: bool = False) -> None:
    """Every JSON document the program writes: compact, as an indent would
    select the pure-Python encoder over the C one, and a trailing newline."""
    _write_text(path, json.dumps(doc, sort_keys=sort_keys) + "\n")


def read_bytes(path) -> bytes:
    """The bytes of an input file; ParseError if it cannot be read."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _load_json(path, data: bytes | None = None) -> dict:
    """The document of ``path``, or of its bytes ``data``, with text mode's newlines."""
    try:
        text = (read_bytes(path) if data is None else data).decode("utf-8")
        if "\r" in text:  # a scan for one character costs far less than the replace
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        return json.loads(text)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from None


def _parse_inversive(raw, complex: SurfaceComplex) -> np.ndarray:
    """Inversive field: scalar, full/sparse edge list, or default + overrides."""
    n_edges = complex.edge_count

    if _is_list_of([raw], _NUMBER):
        return np.full(n_edges, float(raw))

    default = None
    entries = raw
    if isinstance(raw, dict):
        unknown = set(raw) - {"default", "edges"}
        if unknown:
            raise ParseError(f"'inversive' has unknown fields: {sorted(unknown)}")
        if not _is_list_of([raw.get("default")], _NUMBER):
            raise ParseError("'inversive' object form requires a numeric 'default'")
        default = float(raw["default"])
        entries = raw.get("edges", [])

    if not isinstance(entries, list):
        raise ParseError("'inversive' must be a number, a list, or {default, edges}")

    # One scan in file order collects the well-formed entries up to the first
    # malformed one; the first fault in file order decides the error.
    edges, values = [], []
    for entry in entries:
        if not (
            type(entry) is dict
            and entry.keys() == _ENTRY_FIELDS
            and type(edge := entry["edge"]) is list
            and len(edge) == 2
            and type(edge[0]) is int
            and type(edge[1]) is int
            and type(value := entry["value"]) in _NUMBER
        ):
            break
        edges.append(edge)
        values.append(value)
    rows = _edge_rows(edges, complex)
    order = np.argsort(rows, kind="stable")  # stable, so repeats follow their first copy
    faulty = rows < 0
    faulty[order[1:][rows[order[1:]] == rows[order[:-1]]]] = True
    fault = int(np.argmax(faulty)) if faulty.any() else len(rows)
    # A value too large for a float raises OverflowError at its entry, so
    # only the values before the first fault are converted.
    values = np.array(values[:fault], dtype=float)
    if fault < len(rows):
        key = sorted(edges[fault])
        if rows[fault] < 0:
            raise ParseError(f"inversive entry names a non-edge {key}")
        raise ParseError(f"duplicate inversive entry for edge {key}")
    if len(rows) < len(entries):
        raise ParseError('each inversive entry must be {"edge": [i, j], "value": v}')

    if default is None and len(rows) < n_edges:
        assigned = np.zeros(n_edges, dtype=bool)
        assigned[rows] = True
        missing = complex.edges[np.argmin(assigned)].tolist()
        raise ParseError(f"edge {missing} has no inversive value and no default")
    out = np.full(n_edges, 0.0 if default is None else default)
    out[rows] = values
    return out


def _edge_rows(edges: list, complex: SurfaceComplex) -> np.ndarray:
    """Row of each integer pair [i, j] in the canonical edge order, or -1
    where it names no edge: one ``searchsorted`` over the sorted edge keys
    i * N + j."""
    n = complex.vertex_count
    try:
        ends = np.fromiter(chain.from_iterable(edges), np.int64, 2 * len(edges))
    except OverflowError:  # an endpoint beyond int64 is no vertex
        ends = (v if 0 <= v < n else -1 for v in chain.from_iterable(edges))
        ends = np.fromiter(ends, np.int64, 2 * len(edges))
    i, j = np.minimum(ends[0::2], ends[1::2]), np.maximum(ends[0::2], ends[1::2])
    wanted = np.where((i >= 0) & (j < n), i * n + j, -1)
    keys = complex.edges[:, 0] * n + complex.edges[:, 1]
    rows = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    rows[keys[rows] != wanted] = -1
    return rows


def load_surface(path, data: bytes | None = None) -> SurfaceInput:
    """Parse and validate a surface file, or ``data``, its bytes already read.

    The cyclic garbage collector is paused meanwhile, and the caller's
    setting restored: the decoded document and all that is built from it
    hold no reference cycles, so a collection over its many new objects
    could free nothing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _load_surface(path, data)
    finally:
        if enabled:
            gc.enable()


def _load_surface(path, data: bytes | None) -> SurfaceInput:
    doc = _load_json(path, data)
    _check_fields(doc, _SURFACE_FIELDS, "surface file")

    for req in ("background", "faces", "inversive"):
        if req not in doc:
            raise ParseError(f"surface file is missing the '{req}' field")
    try:
        background = Background(doc["background"])
    except ValueError:
        raise ParseError(
            f"'background' must be 'euclidean' or 'hyperbolic', got {doc['background']!r}"
        ) from None

    permissive = doc.get("permissive", False)
    if not isinstance(permissive, bool):
        raise ParseError(f"'permissive' must be true or false, got {permissive!r}")
    faces = doc["faces"]
    if not _is_list_of(faces, _LIST) or not _is_list_of(list(chain.from_iterable(faces)), _INT):
        raise ParseError("'faces' must be a list of vertex-index lists")
    try:
        complex = _build_complex(faces)
        inversive = check_inversive(_parse_inversive(doc["inversive"], complex), complex, permissive)
        metric = None
        if "radii" in doc:
            if not _is_list_of(doc["radii"], _NUMBER):
                raise ParseError("'radii' must be a list of numbers")
            radii = np.asarray(doc["radii"], dtype=float)
            if radii.shape != (complex.vertex_count,):
                raise ParseError(
                    f"'radii' must list {complex.vertex_count} values, got {radii.size}"
                )
            metric = PackingMetric(background, inversive, radii, permissive)
    except ParseError:
        raise
    except (CPFlowError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"invalid surface file: {exc}") from None

    return SurfaceInput(complex, background, inversive, permissive, metric)


def _float_texts(values: np.ndarray) -> list[str]:
    """The text ``json.dumps`` writes for each float: its ``repr``, or NaN,
    Infinity and -Infinity."""
    texts = list(map(repr, values.tolist()))
    if not np.isfinite(values).all():
        texts = [_NONFINITE.get(t, t) for t in texts]
    return texts


def save_surface(path, complex, background, inversive, radii, permissive=False) -> None:
    """Write a surface file that re-parses to bit-identical data.

    The text is the compact ``json.dumps`` of the document, byte for byte,
    built from the arrays with one ``repr`` per float.  An inversive field
    of one bit pattern is written as one number, any other (0.0 and -0.0
    mixed, too) as one entry per edge in the canonical edge order.
    """
    inversive = np.asarray(inversive, dtype=float)
    bits = inversive.view(np.uint64)
    if (bits == bits[0]).all():
        inversive_text = _float_texts(inversive[:1])[0]
    else:
        inversive_text = "[" + ", ".join([
            f'{{"edge": [{i}, {j}], "value": {v}}}'
            for (i, j), v in zip(complex.edges.tolist(), _float_texts(inversive))
        ]) + "]"
    text = (f'{{"format": {FORMAT_VERSION}, "background": "{background.value}", '
            f'"faces": {complex.faces.tolist()}, "inversive": {inversive_text}')
    if radii is not None:
        text += f', "radii": [{", ".join(_float_texts(np.asarray(radii, dtype=float)))}]'
    if permissive:
        text += ', "permissive": true'
    _write_text(path, text + "}\n")


def load_target(path, n_vertices: int) -> np.ndarray:
    """Parse a prescribed-curvature target file."""
    doc = _load_json(path)
    _check_fields(doc, _TARGET_FIELDS, "target file")
    if "target" not in doc:
        raise ParseError("target file is missing the 'target' field")
    if not _is_list_of(doc["target"], _NUMBER):
        raise ParseError("'target' must be a list of numbers")
    try:
        target = np.asarray(doc["target"], dtype=float)
    except OverflowError:
        raise ParseError("'target' values must be finite") from None
    if target.shape != (n_vertices,):
        raise ParseError(f"'target' must list {n_vertices} values, got {target.size}")
    if not np.all(np.isfinite(target)):
        raise ParseError("'target' values must be finite")
    return target


def save_target(path, target) -> None:
    target = np.asarray(target, dtype=float)
    _write_json(path, {"format": FORMAT_VERSION, "target": target.tolist()})


def load_subsets(path, n_vertices: int) -> list[frozenset]:
    """Parse an explicit vertex-subset list for obstruction checks."""
    doc = _load_json(path)
    _check_fields(doc, _SUBSETS_FIELDS, "subsets file")
    if "subsets" not in doc or not isinstance(doc["subsets"], list) or not doc["subsets"]:
        raise ParseError("subsets file must carry a nonempty 'subsets' list")
    out = []
    for raw in doc["subsets"]:
        if not _is_list_of(raw, _INT):
            raise ParseError(f"subset {raw!r} is not a list of vertex indices")
        try:
            out.append(normalize_subset(n_vertices, raw))
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    return out


# ---------------------------------------------------------------------------
# Trace CSV
# ---------------------------------------------------------------------------

def trace_header(n_vertices: int) -> list[str]:
    return (
        ["t"]
        + [f"u_{i}" for i in range(n_vertices)]
        + [f"K_{i}" for i in range(n_vertices)]
        + ["M", "m", "potential"]
    )


def _trace_rows(n_vertices: int, trace):
    yield ",".join(trace_header(n_vertices)) + "\n"
    for s in trace:
        row = np.concatenate(([s.t], s.u, s.curvature, [s.curvature_max, s.curvature_min]))
        potential = "" if s.potential is None else repr(float(s.potential))
        yield ",".join(map(repr, row.tolist())) + "," + potential + "\n"


def write_trace_csv(path, n_vertices: int, trace) -> None:
    """Write flow samples as CSV: t, u_0..u_{N-1}, K_0..K_{N-1}, M, m, potential,
    one row at a time as each is formatted."""
    _write_chunks(path, _trace_rows(n_vertices, trace))


def _trace_json_chunks(n_vertices: int, trace):
    yield (f'{{"format": {FORMAT_VERSION}, "columns": {json.dumps(trace_header(n_vertices))}, '
           '"samples": [')
    for i, s in enumerate(trace):
        sample = {
            "t": float(s.t),
            "u": s.u.tolist(),
            "K": s.curvature.tolist(),
            "M": float(s.curvature_max),
            "m": float(s.curvature_min),
            "potential": None if s.potential is None else float(s.potential),
        }
        yield (", " if i else "") + json.dumps(sample)
    yield "]}\n"


def write_trace_json(path, n_vertices: int, trace) -> None:
    """Write flow samples as one JSON document, the compact ``json.dumps`` of
    {"format", "columns", "samples"} byte for byte, one sample at a time as
    each is formatted."""
    _write_chunks(path, _trace_json_chunks(n_vertices, trace))


# ---------------------------------------------------------------------------
# Curvature report
# ---------------------------------------------------------------------------

def write_curvature_report(path, background: Background, curv, defect: float,
                           violations: list[int], texts: list[str]) -> None:
    """The ``curvature`` report, the compact ``json.dumps`` of its fields byte
    for byte, with ``texts`` as the curvature values: the caller's ``repr`` of
    each, which it also prints.  Curvatures are 2 pi minus sums of angles in
    [0, pi], so finite, and ``repr`` is the text ``json.dumps`` would write."""
    _write_text(path, f'{{"format": {FORMAT_VERSION}, "background": "{background.value}", '
                      f'"extended": {json.dumps(curv.extended)}, "curvature": [{", ".join(texts)}], '
                      f'"total_area": {json.dumps(curv.total_area)}, '
                      f'"gauss_bonnet_defect": {json.dumps(defect)}, '
                      f'"admissible": {json.dumps(not violations)}, "violating_faces": {violations}}}\n')


# ---------------------------------------------------------------------------
# Check report
# ---------------------------------------------------------------------------

def _check_section(verdict: bool, records: list[str]) -> str:
    return f'{{"verdict": {"true" if verdict else "false"}, "records": [{", ".join(records)}]}}'


def write_check_report(path, zero, curvature_bounds=None) -> None:
    """The ``check`` report: the zero-curvature section and, when given, the
    curvature-bounds section, whose report shares ``zero``'s subsets and bounds.

    The text is ``json.dumps`` of the per-subset records, byte for byte,
    built from the columns with one ``repr`` per printed float: each subset's
    and bound's text serves both sections.  The zero section observes 0.0, so
    its margin 0.0 - bound is the bound's text with the sign flipped, and
    "0.0" for a zero bound.  Every value is finite (inversive distances are
    checked finite and angles lie in [0, pi]), so ``repr`` is the text
    ``json.dumps`` would write.
    """
    subsets = list(map(str, zero.subset_lists()))
    texts = list(map(repr, zero.bounds.tolist()))
    zero_section = _check_section(zero.verdict, [
        f'{{"subset": {s}, "bound": {b}, "observed": 0.0, "margin": '
        f'{b[1:] if b[0] == "-" else "0.0" if b == "0.0" else "-" + b}}}'
        for s, b in zip(subsets, texts)
    ])
    bounds_section = "null"
    if curvature_bounds is not None:
        observed, margins = curvature_bounds.observed.tolist(), curvature_bounds.margins.tolist()
        bounds_section = _check_section(curvature_bounds.verdict, [
            f'{{"subset": {s}, "bound": {b}, "observed": {o!r}, "margin": {m!r}}}'
            for s, b, o, m in zip(subsets, texts, observed, margins)
        ])
    _write_text(path, f'{{"format": {FORMAT_VERSION}, "subset_count": {len(texts)}, '
                      f'"zero_curvature_necessary": {zero_section}, '
                      f'"curvature_bounds": {bounds_section}}}\n')


# ---------------------------------------------------------------------------
# Run manifest
# ---------------------------------------------------------------------------

def write_manifest(path, command: str, config: dict, input_path, input_digest: str | None,
                   outputs: dict, status: str) -> None:
    """One manifest per CLI run: command, config echo, input digest, outputs, status."""
    doc = {
        "format": FORMAT_VERSION,
        "command": command,
        "config": config,
        "tool_version": __version__,
        "input": str(input_path),
        "input_digest": input_digest,
        "outputs": outputs,
        "status": status,
    }
    _write_json(path, doc, sort_keys=True)
