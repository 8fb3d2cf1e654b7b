"""Serialization: tree documents as JSON, distance matrices as CSV.

JSON is the canonical interchange format.  A tree document looks like::

    {
      "schema_version": "treegh/1",
      "nodes": [{"id": "a"}, {"id": "b", "label": "root"}],
      "edges": [{"a": "a", "b": "b", "len": 1.0}],
      "metadata": {"generator": "comb", ...}
    }

Edge lengths round-trip losslessly (shortest-repr floats); the 12
significant digit formatting below is only for reports and CSV tables.
"""

from __future__ import annotations

import io as _io
import json
import math
from typing import List, Optional, Tuple

import numpy as np

from .metric import FiniteMetricSpace, MetricValidationError, _check_tol, _entry_violation
from .tree import MetricTree, TreeStructureError

__all__ = [
    "SCHEMA_VERSION",
    "TreeDocumentError",
    "tree_to_document",
    "tree_from_document",
    "serialize_tree",
    "parse_tree",
    "save_tree",
    "load_tree",
    "matrix_to_csv",
    "space_from_csv",
    "load_space",
    "format_sig",
]

SCHEMA_VERSION = "treegh/1"


class TreeDocumentError(ValueError):
    """Malformed tree document (schema violation)."""


def format_sig(x: float, sig: int = 12) -> str:
    """Decimal rendering with 12 significant digits, for reports and CSV."""
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return "%.*g" % (sig, float(x))


def tree_to_document(tree: MetricTree) -> dict:
    nodes = []
    for v in tree.vertices:
        node = {"id": v}
        if v in tree.labels:
            node["label"] = tree.labels[v]
        nodes.append(node)
    return {
        "schema_version": SCHEMA_VERSION,
        "nodes": nodes,
        "edges": [{"a": a, "b": b, "len": w} for a, b, w in tree.edges],
        "metadata": _jsonable(tree.metadata),
    }


def _jsonable(obj):
    # Tuples and numpy scalars appear in generator metadata; JSON has only
    # lists and plain numbers, so normalise before dumping.
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def tree_from_document(doc: dict) -> MetricTree:
    if not isinstance(doc, dict):
        raise TreeDocumentError("tree document must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise TreeDocumentError(
            "unsupported schema_version %r (expected %r)" % (version, SCHEMA_VERSION)
        )
    nodes = doc.get("nodes")
    edges = doc.get("edges")
    if not isinstance(nodes, list) or not isinstance(edges, list):
        raise TreeDocumentError("document needs 'nodes' and 'edges' lists")
    vertices: List[str] = []
    known = set()
    labels = {}
    for node in nodes:
        if not isinstance(node, dict) or "id" not in node:
            raise TreeDocumentError("each node needs an 'id' field")
        vid = str(node["id"])
        if vid in known:
            raise TreeDocumentError("duplicate node id %r" % vid)
        vertices.append(vid)
        known.add(vid)
        if "label" in node:
            labels[vid] = str(node["label"])
    edge_list: List[Tuple[str, str, float]] = []
    for edge in edges:
        if not isinstance(edge, dict) or not {"a", "b", "len"} <= set(edge):
            raise TreeDocumentError("each edge needs 'a', 'b' and 'len' fields")
        a, b = str(edge["a"]), str(edge["b"])
        if a not in known or b not in known:
            raise TreeDocumentError("edge (%s, %s) references unknown node" % (a, b))
        try:
            w = float(edge["len"])
        except (TypeError, ValueError):
            raise TreeDocumentError("edge (%s, %s) has non-numeric length" % (a, b))
        edge_list.append((a, b, w))
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise TreeDocumentError("'metadata' must be an object")
    try:
        return MetricTree(vertices, edge_list, labels=labels, metadata=metadata)
    except TreeStructureError as exc:
        raise TreeDocumentError(str(exc)) from exc


def serialize_tree(tree: MetricTree) -> str:
    """Canonical JSON text for a tree (sorted keys, two-space indent).

    A NaN or infinite figure raises ValueError: JSON has no token for it.
    """
    return json.dumps(tree_to_document(tree), indent=2, sort_keys=True, allow_nan=False) + "\n"


def parse_tree(text: str) -> MetricTree:
    """Parse and validate a JSON tree document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TreeDocumentError("invalid JSON: %s" % exc) from exc
    return tree_from_document(doc)


def save_tree(tree: MetricTree, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_tree(tree))


def load_tree(path: str) -> MetricTree:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tree(fh.read())


def matrix_to_csv(space: FiniteMetricSpace) -> str:
    """Distance matrix as CSV with a label header row/column."""
    out = _io.StringIO()
    out.write("," + ",".join(space.labels) + "\n")
    for i, lab in enumerate(space.labels):
        row = ",".join(format_sig(x) for x in space.dist[i])
        out.write(lab + "," + row + "\n")
    return out.getvalue()


def space_from_csv(text: str) -> FiniteMetricSpace:
    """Read a labelled distance matrix back from CSV."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise TreeDocumentError("empty CSV matrix")
    header = lines[0].split(",")
    labels = header[1:]
    n = len(labels)
    if len(lines) != n + 1:
        raise TreeDocumentError("CSV matrix needs %d data rows, got %d" % (n, len(lines) - 1))
    d = np.zeros((n, n), dtype=float)
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != n + 1:
            raise TreeDocumentError("row %d has %d cells, expected %d" % (i + 1, len(cells), n + 1))
        if cells[0] != labels[i]:
            raise TreeDocumentError(
                "row label %r does not match column label %r" % (cells[0], labels[i])
            )
        try:
            d[i] = [float(c) for c in cells[1:]]
        except ValueError as exc:
            raise TreeDocumentError("row %d has a non-numeric cell" % (i + 1)) from exc
    return FiniteMetricSpace(tuple(labels), d)


def load_space(path, tol: float = 1e-9) -> FiniteMetricSpace:
    """Load a finite metric space from a JSON tree or a CSV matrix.

    A CSV matrix is refused (:class:`MetricValidationError`, naming the
    worst entry) if an entry is not finite, or if the entrywise axioms of
    :func:`~treegh.metric._entry_violation` (symmetry, a zero diagonal,
    nonnegative entries) fail by more than ``tol``: an O(n^2) check, made
    here where a command reads the file rather than in
    :class:`FiniteMetricSpace`.  The triangle inequality is left to
    :func:`~treegh.metric.validate_metric`.  A NaN, infinite or negative
    ``tol`` raises ValueError.
    """
    return _load_space(path, tol)[0]


def _load_space(
    path, tol: float
) -> Tuple[FiniteMetricSpace, Optional[Tuple[float, Tuple[int, ...], str]]]:
    """:func:`load_space`, with the result of the entrywise checks it made
    on a CSV matrix (None for a tree document, which it does not check)."""
    _check_tol(tol)
    if not str(path).endswith(".csv"):
        return load_tree(path).as_space(), None
    with open(path, "r", encoding="utf-8") as fh:
        space = space_from_csv(fh.read())
    entries = worst, witness, category = _entry_violation(space.dist)
    if category == "finite" or worst > tol:
        i, j = witness
        what = {
            "finite": "is not finite",
            "symmetry": "differs from its transpose by more than tol=%r",
            "identity": "is on the diagonal but not within tol=%r of zero",
            "nonnegativity": "is negative beyond tol=%r",
        }[category]
        raise MetricValidationError("%s: entry (%s, %s) = %r %s" % (
            path, space.labels[i], space.labels[j], float(space.dist[i, j]),
            what if category == "finite" else what % tol))
    return space, entries
