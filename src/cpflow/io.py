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
from pathlib import Path

import numpy as np

from .complexes import SurfaceComplex, build_complex
from .errors import CPFlowError, ParseError
from .packing import Background, PackingMetric

FORMAT_VERSION = 1

_SURFACE_FIELDS = {"format", "background", "faces", "inversive", "radii", "permissive"}
_TARGET_FIELDS = {"format", "target"}
_SUBSETS_FIELDS = {"format", "subsets"}


@dataclass(frozen=True)
class SurfaceInput:
    """Parsed surface file: complex plus (optionally radii-bearing) metric data."""

    complex: SurfaceComplex
    background: Background
    inversive: np.ndarray
    radii: np.ndarray | None
    permissive: bool

    @property
    def metric(self) -> PackingMetric | None:
        if self.radii is None:
            return None
        return PackingMetric(self.background, self.inversive, self.radii, self.permissive)

    def require_metric(self) -> PackingMetric:
        metric = self.metric
        if metric is None:
            raise ParseError("surface file has no 'radii' field, required here")
        return metric


def _check_fields(doc: dict, allowed: set, what: str) -> None:
    if not isinstance(doc, dict):
        raise ParseError(f"{what} must be a JSON object")
    unknown = set(doc) - allowed
    if unknown:
        raise ParseError(f"{what} has unknown fields: {sorted(unknown)}")
    if doc.get("format") != FORMAT_VERSION:
        raise ParseError(f"{what} must declare \"format\": {FORMAT_VERSION}")


def _load_json(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from None


def _parse_inversive(raw, complex: SurfaceComplex) -> np.ndarray:
    """Inversive field: scalar, full/sparse edge list, or default + overrides."""
    n_edges = complex.edge_count

    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return np.full(n_edges, float(raw))

    default = None
    entries = raw
    if isinstance(raw, dict):
        unknown = set(raw) - {"default", "edges"}
        if unknown:
            raise ParseError(f"'inversive' has unknown fields: {sorted(unknown)}")
        if "default" not in raw:
            raise ParseError("'inversive' object form requires a 'default'")
        default = float(raw["default"])
        entries = raw.get("edges", [])

    if not isinstance(entries, list):
        raise ParseError("'inversive' must be a number, a list, or {default, edges}")

    values = np.full(n_edges, np.nan if default is None else default)
    seen = set()
    for entry in entries:
        if not isinstance(entry, dict) or set(entry) != {"edge", "value"}:
            raise ParseError("each inversive entry must be {\"edge\": [i, j], \"value\": v}")
        i, j = (int(v) for v in entry["edge"])
        key = (min(i, j), max(i, j))
        if key not in complex.edge_index:
            raise ParseError(f"inversive entry names a non-edge {list(key)}")
        if key in seen:
            raise ParseError(f"duplicate inversive entry for edge {list(key)}")
        seen.add(key)
        values[complex.edge_index[key]] = float(entry["value"])
    if np.any(np.isnan(values)):
        missing = complex.edges[np.nonzero(np.isnan(values))[0][0]]
        raise ParseError(
            f"edge {list(map(int, missing))} has no inversive value and no default"
        )
    return values


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

    permissive = bool(doc.get("permissive", False))
    try:
        complex = build_complex(doc["faces"])
        inversive = _parse_inversive(doc["inversive"], complex)
        radii = None
        if "radii" in doc:
            radii = np.asarray(doc["radii"], dtype=float)
            if radii.shape != (complex.vertex_count,):
                raise ParseError(
                    f"'radii' must list {complex.vertex_count} values, got {radii.size}"
                )
            # Validate against the metric invariants right away.
            PackingMetric(background, inversive, radii, permissive)
        else:
            PackingMetric(background, inversive, np.ones(complex.vertex_count), permissive)
    except ParseError:
        raise
    except (CPFlowError, TypeError, ValueError) as exc:
        raise ParseError(f"invalid surface file: {exc}") from None

    return SurfaceInput(complex, background, inversive, radii, permissive)


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
    doc = surface_document(complex, background, inversive, radii, permissive)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def load_target(path, n_vertices: int) -> np.ndarray:
    """Parse a prescribed-curvature target file."""
    doc = _load_json(path)
    _check_fields(doc, _TARGET_FIELDS, "target file")
    if "target" not in doc:
        raise ParseError("target file is missing the 'target' field")
    try:
        target = np.asarray(doc["target"], dtype=float)
    except (TypeError, ValueError):
        raise ParseError("'target' must be a list of numbers") from None
    if target.shape != (n_vertices,):
        raise ParseError(f"'target' must list {n_vertices} values, got {target.size}")
    if not np.all(np.isfinite(target)):
        raise ParseError("'target' values must be finite")
    return target


def save_target(path, target) -> None:
    doc = {"format": FORMAT_VERSION, "target": [float(x) for x in target]}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def load_subsets(path, n_vertices: int) -> list[frozenset]:
    """Parse an explicit vertex-subset list for obstruction checks."""
    doc = _load_json(path)
    _check_fields(doc, _SUBSETS_FIELDS, "subsets file")
    if "subsets" not in doc or not isinstance(doc["subsets"], list) or not doc["subsets"]:
        raise ParseError("subsets file must carry a nonempty 'subsets' list")
    out = []
    for raw in doc["subsets"]:
        try:
            members = frozenset(int(v) for v in raw)
        except (TypeError, ValueError):
            raise ParseError(f"subset {raw!r} is not a list of vertex indices") from None
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
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


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
        "tool_version": _tool_version(),
        "input": str(input_path),
        "input_digest": file_digest(input_path),
        "outputs": outputs,
        "status": status,
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _tool_version() -> str:
    from . import __version__

    return __version__
