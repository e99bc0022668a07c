"""Fuzz the surface, target and subset parsers.

``load_surface`` must return a ``SurfaceInput`` or raise ``ParseError`` for
every mutated document.  Valid tetrahedron and torus documents get one to
three random edits: a value anywhere in the tree replaced by arbitrary JSON
(wrong types, NaN and Infinity, huge and negative integers), a key or list
item deleted, or an item or key added.  Ragged faces, missing and extra keys
all arise from these.  ``load_target`` and ``load_subsets`` get the same
edits on valid target and subset documents, and must return valid data or
raise ``ParseError``.

``_parse_inversive`` must match an entry-by-entry scan: the same values, or
the same error for the same first offending entry.
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpflow import ParseError, tetrahedron, triangulated_torus
from cpflow.io import SurfaceInput, _parse_inversive, load_subsets, load_surface, load_target


def _document(complex, inversive):
    return {
        "format": 1,
        "background": "hyperbolic",
        "faces": complex.faces.tolist(),
        "inversive": inversive(complex.edges.tolist()),
        "radii": [1.0] * complex.vertex_count,
    }


BASES = [
    _document(tetrahedron(), lambda edges: [{"edge": e, "value": 1.0} for e in edges]),
    {**_document(tetrahedron(), lambda edges: 0.5), "permissive": False},
    _document(
        triangulated_torus(3, 3),
        lambda edges: {
            "default": 1.0,
            "edges": [{"edge": e[::-1], "value": 2} for e in edges[:5]],
        },
    ),
]

_NUMBERS = st.one_of(
    st.integers(-2, 12),
    st.sampled_from([2**63, -(2**63) - 1, 10**12, 10**30, 10**400, -0.5, 0.5, 1e308]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_SCALARS = st.one_of(
    _NUMBERS,
    st.none(),
    st.booleans(),
    st.sampled_from(["", "1", "hyperbolic", "euclidean"]),
)
_KEYS = st.sampled_from(["format", "faces", "inversive", "radii", "permissive", "default",
                         "edges", "edge", "value", "target", "subsets", "extra"])
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(_KEYS, inner, max_size=3)
    ),
    max_leaves=8,
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for k, child in enumerate(node):
            yield from _paths(child, prefix + (k,))


@st.composite
def _mutated(draw, bases=BASES):
    doc = copy.deepcopy(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        last = path[-1]
        action = draw(st.sampled_from(["replace", "delete", "insert"]))
        if action == "replace":
            parent[last] = draw(st.one_of(_NUMBERS, _JSON))
        elif action == "delete":
            del parent[last]
        elif isinstance(parent, list):
            parent.insert(last, draw(_JSON))
        else:
            parent[draw(_KEYS)] = draw(_JSON)
    return doc


@settings(max_examples=300)
@given(_mutated())
def test_load_surface_parses_or_raises_parse_error(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzzed-surface.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        surface = load_surface(path)
    except ParseError:
        return
    assert isinstance(surface, SurfaceInput)


def _reference_inversive(raw, complex):
    """The entry-by-entry scan that ``_parse_inversive`` vectorizes: the
    first bad entry in file order decides the error."""
    default, entries = (raw["default"], raw["edges"]) if isinstance(raw, dict) else (None, raw)
    values = np.full(complex.edge_count, np.nan if default is None else float(default))
    assigned = set()
    for entry in entries:
        if not (
            isinstance(entry, dict)
            and set(entry) == {"edge", "value"}
            and isinstance(entry["edge"], list)
            and all(type(v) is int for v in entry["edge"])
            and len(entry["edge"]) == 2
            and type(entry["value"]) in (int, float)
        ):
            raise ParseError("each inversive entry must be {\"edge\": [i, j], \"value\": v}")
        key = tuple(sorted(entry["edge"]))
        if key not in complex.edge_index:
            raise ParseError(f"inversive entry names a non-edge {list(key)}")
        if key in assigned:
            raise ParseError(f"duplicate inversive entry for edge {list(key)}")
        assigned.add(key)
        values[complex.edge_index[key]] = float(entry["value"])
    for edge in complex.edges.tolist():
        if default is None and tuple(edge) not in assigned:
            raise ParseError(f"edge {edge} has no inversive value and no default")
    return values


_TORUS = triangulated_torus(3, 3)
_EDGES = _TORUS.edges.tolist()
_ENDPOINTS = st.one_of(
    st.integers(0, _TORUS.vertex_count - 1),
    st.sampled_from([-1, _TORUS.vertex_count, 10**30, -(10**30)]),
)
_GOOD_VALUES = st.one_of(st.floats(0.0, 3.0), st.integers(0, 3))
_ODD_VALUES = st.sampled_from([float("nan"), float("inf"), 10**400, "1.0", True, None])
_ODD_ENTRIES = st.one_of(
    st.builds(lambda e, v: {"edge": e, "value": v}, st.sampled_from(_EDGES), _ODD_VALUES),
    st.builds(lambda i, j: {"edge": [i, j], "value": 1.0}, _ENDPOINTS, _ENDPOINTS),
    st.builds(lambda e: {"edge": e[::-1], "value": 2.0}, st.sampled_from(_EDGES)),
    st.sampled_from([{"edge": [0, 1]}, {"edge": [0, 1, 2], "value": 1.0},
                     {"edge": [0, True], "value": 1.0}, {"edge": "01", "value": 1.0}, [0, 1]]),
)


@st.composite
def _inversive_fields(draw):
    """Entries for a prefix of a permutation of the edges, either endpoint
    first, with up to three odd entries (bad values, non-edges, repeats or
    malformed) inserted anywhere; as a list or with a default."""
    edges = draw(st.permutations(_EDGES))[: draw(st.integers(0, len(_EDGES)))]
    entries = [
        {"edge": e if draw(st.booleans()) else e[::-1], "value": draw(_GOOD_VALUES)}
        for e in edges
    ]
    for _ in range(draw(st.integers(0, 3))):
        entries.insert(draw(st.integers(0, len(entries))), draw(_ODD_ENTRIES))
    default = draw(st.one_of(st.none(), st.floats(0.0, 3.0)))
    return entries if default is None else {"default": default, "edges": entries}


@settings(max_examples=300)
@given(_inversive_fields())
def test_parse_inversive_matches_reference_scan(raw):
    try:
        expected = _reference_inversive(raw, _TORUS)
    except (ParseError, OverflowError) as exc:
        with pytest.raises(type(exc)) as got:
            _parse_inversive(raw, _TORUS)
        assert str(got.value) == str(exc)
    else:
        assert np.array_equal(_parse_inversive(raw, _TORUS), expected, equal_nan=True)


# ---------------------------------------------------------------------------
# Target and subset files
# ---------------------------------------------------------------------------

_N_VERTICES = 9
TARGET_BASES = [{"format": 1, "target": [0.0, 0.5, -1, 2, 0.0, 0.0, 1e-3, 0.0, 3.0]}]
SUBSET_BASES = [{"format": 1, "subsets": [[0], [1, 2], [3, 4, 5, 8]]}]


@settings(max_examples=150)
@given(_mutated(TARGET_BASES))
def test_load_target_parses_or_raises_parse_error(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzzed-target.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        target = load_target(path, _N_VERTICES)
    except ParseError:
        return
    assert target.dtype == float and target.shape == (_N_VERTICES,)
    assert np.all(np.isfinite(target))


@settings(max_examples=150)
@given(_mutated(SUBSET_BASES))
def test_load_subsets_parses_or_raises_parse_error(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzzed-subsets.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        subsets = load_subsets(path, _N_VERTICES)
    except ParseError:
        return
    assert subsets and all(type(s) is frozenset for s in subsets)
    assert all(0 < len(s) < _N_VERTICES for s in subsets)
    assert all(type(v) is int and 0 <= v < _N_VERTICES for s in subsets for v in s)
