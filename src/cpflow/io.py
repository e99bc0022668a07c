"""File formats: surface files, target files, trace CSV, run manifests.

Structured inputs and reports are JSON; flow traces are CSV.  All floats
are serialized with the shortest round-trip representation, so re-parsing
an emitted file reproduces the values bit for bit and identical runs
produce byte-identical outputs.  Every format carries a ``"format": 1``
version field and unknown fields are rejected.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .complexes import SurfaceComplex, build_complex
from .errors import CPFlowError, ParseError
from .packing import Background, PackingMetric

FORMAT_VERSION = 1

_SURFACE_FIELDS = {"format", "background", "faces", "inversive", "radii", "permissive"}
_TARGET_FIELDS = {"format", "target"}
_SUBSETS_FIELDS = {"format", "subsets"}
_ENTRY_FIELDS = {"edge", "value"}
_INT = frozenset({int})
_LIST = frozenset({list})
_NUMBER = frozenset({int, float})


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
    if doc.get("format") != FORMAT_VERSION:
        raise ParseError(f"{what} must declare \"format\": {FORMAT_VERSION}")


def _is_list_of(raw, kinds: frozenset) -> bool:
    """Whether ``raw`` is a JSON list of values whose types are in ``kinds``.

    Decoded JSON holds no subclasses, so exact types suffice, and a boolean
    (type ``bool``) never passes for an integer.
    """
    return isinstance(raw, list) and set(map(type, raw)) <= kinds


def _write_json(path, doc: dict, sort_keys: bool = False) -> None:
    """Every JSON file the program writes: two-space indent, trailing newline."""
    text = json.dumps(doc, indent=2, sort_keys=sort_keys)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _load_json(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from None


def _is_entry(entry) -> bool:
    """Whether a JSON value has the shape {"edge": [i, j], "value": v}."""
    return (
        type(entry) is dict
        and entry.keys() == _ENTRY_FIELDS
        and type(edge := entry["edge"]) is list
        and len(edge) == 2
        and type(edge[0]) is int
        and type(edge[1]) is int
        and type(entry["value"]) in _NUMBER
    )


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

    # Entries are checked in file order, so the scan stops at the first
    # malformed one, and an earlier non-edge or duplicate entry wins over it.
    shaped = list(map(_is_entry, entries))
    n_shaped = shaped.index(False) if False in shaped else len(entries)
    pairs = [entry["edge"] for entry in entries[:n_shaped]]
    # Endpoints outside 0..N-1 name no edge; clamping them keeps integers of
    # any size out of the int64 conversion.
    n = complex.vertex_count
    ends = np.array(
        [v if 0 <= v < n else -1 for v in chain.from_iterable(pairs)], dtype=np.int64
    ).reshape(-1, 2)
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    edge_keys = complex.edges[:, 0] * n + complex.edges[:, 1]
    keys = lo * n + hi
    rows = np.minimum(np.searchsorted(edge_keys, keys), n_edges - 1)
    known = (lo >= 0) & (edge_keys[rows] == keys)
    named = np.flatnonzero(known)
    _, first = np.unique(rows[named], return_index=True)
    repeated = np.delete(named, first)

    problems = []
    if n_shaped < len(entries):
        message = "each inversive entry must be {\"edge\": [i, j], \"value\": v}"
        problems.append((n_shaped, message))
    if not known.all():
        k = int(np.argmin(known))
        problems.append((k, f"inversive entry names a non-edge {sorted(pairs[k])}"))
    if repeated.size:
        k = int(repeated.min())
        problems.append((k, f"duplicate inversive entry for edge {sorted(pairs[k])}"))
    stop, message = min(problems, default=(len(entries), None))
    # Values convert up to the first bad entry, as a scan in file order would.
    values = np.fromiter(map(float, [entry["value"] for entry in entries[:stop]]), float, stop)
    if stop < len(entries):
        raise ParseError(message)

    assigned = np.zeros(n_edges, dtype=bool)
    assigned[rows] = True
    if default is None and not assigned.all():
        missing = complex.edges[np.argmin(assigned)]
        raise ParseError(
            f"edge {missing.tolist()} has no inversive value and no default"
        )
    out = np.full(n_edges, 0.0 if default is None else default)
    out[rows] = values
    return out


def load_surface(path) -> SurfaceInput:
    """Parse and validate a surface file."""
    doc = _load_json(path)
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
        complex = build_complex(faces)
        inversive = _parse_inversive(doc["inversive"], complex)
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
        else:
            # Validate the inversive distances against the metric invariants.
            PackingMetric(background, inversive, np.ones(complex.vertex_count), permissive)
    except ParseError:
        raise
    except (CPFlowError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"invalid surface file: {exc}") from None

    return SurfaceInput(complex, background, inversive, permissive, metric)


def surface_document(
    complex: SurfaceComplex,
    background: Background,
    inversive: np.ndarray,
    radii: np.ndarray | None,
    permissive: bool = False,
) -> dict:
    """Surface-file JSON document; re-parses to bit-identical data."""
    inversive = np.asarray(inversive, dtype=float)
    if np.all(inversive == inversive[0]):
        inv_field = float(inversive[0])
    else:
        inv_field = [
            {"edge": [int(i), int(j)], "value": float(inversive[k])}
            for k, (i, j) in enumerate(complex.edges)
        ]
    doc = {
        "format": FORMAT_VERSION,
        "background": background.value,
        "faces": [[int(v) for v in face] for face in complex.faces],
        "inversive": inv_field,
    }
    if radii is not None:
        doc["radii"] = [float(r) for r in radii]
    if permissive:
        doc["permissive"] = True
    return doc


def save_surface(path, complex, background, inversive, radii, permissive=False) -> None:
    _write_json(path, surface_document(complex, background, inversive, radii, permissive))


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
    _write_json(path, {"format": FORMAT_VERSION, "target": [float(x) for x in target]})


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
        members = frozenset(raw)
        if not members or len(members) >= n_vertices:
            raise ParseError(f"subset {sorted(members)} is not a nonempty proper subset")
        if any(v < 0 or v >= n_vertices for v in members):
            raise ParseError(f"subset {sorted(members)} references unknown vertices")
        out.append(members)
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


def _fmt(x: float) -> str:
    return repr(float(x))


def write_trace_csv(path, n_vertices: int, trace) -> None:
    """Write flow samples as CSV: t, u_0..u_{N-1}, K_0..K_{N-1}, M, m, potential."""
    lines = [",".join(trace_header(n_vertices))]
    for sample in trace:
        row = (
            [_fmt(sample.t)]
            + [_fmt(v) for v in sample.u]
            + [_fmt(v) for v in sample.curvature]
            + [
                _fmt(sample.curvature_max),
                _fmt(sample.curvature_min),
                "" if sample.potential is None else _fmt(sample.potential),
            ]
        )
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_trace_json(path, n_vertices: int, trace) -> None:
    rows = [
        {
            "t": float(s.t),
            "u": [float(v) for v in s.u],
            "K": [float(v) for v in s.curvature],
            "M": float(s.curvature_max),
            "m": float(s.curvature_min),
            "potential": None if s.potential is None else float(s.potential),
        }
        for s in trace
    ]
    doc = {"format": FORMAT_VERSION, "columns": trace_header(n_vertices), "samples": rows}
    _write_json(path, doc)


# ---------------------------------------------------------------------------
# Run manifest
# ---------------------------------------------------------------------------

def file_digest(path) -> str | None:
    try:
        data = Path(path).read_bytes()
    except OSError:
        return None
    return "sha256:" + hashlib.sha256(data).hexdigest()


def write_manifest(path, command: str, config: dict, input_path, outputs: dict, status: str) -> None:
    """One manifest per CLI run: command, config echo, input digest, outputs, status."""
    doc = {
        "format": FORMAT_VERSION,
        "command": command,
        "config": config,
        "tool_version": __version__,
        "input": str(input_path),
        "input_digest": file_digest(input_path),
        "outputs": outputs,
        "status": status,
    }
    _write_json(path, doc, sort_keys=True)
