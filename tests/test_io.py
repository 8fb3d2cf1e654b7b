import json
import math

import numpy as np
import pytest

from treegh import (
    CombParams,
    TreeDocumentError,
    comb_tree,
    load_space,
    load_tree,
    matrix_to_csv,
    parse_tree,
    save_tree,
    serialize_tree,
    space_from_csv,
    tree_from_document,
    tree_to_document,
    tree_from_edges,
    validate_metric,
)
from treegh.io import format_sig
from conftest import random_tree


def test_roundtrip_preserves_structure():
    t = tree_from_edges([("a", "b", 1.0), ("b", "c", 0.25)])
    back = parse_tree(serialize_tree(t))
    assert back.vertices == t.vertices
    assert back.edges == t.edges
    # a second pass is byte-identical (canonical form)
    assert serialize_tree(back) == serialize_tree(t)


def test_roundtrip_random_trees_keep_distances():
    rng = np.random.default_rng(19)
    for _ in range(10):
        t = random_tree(rng, n_hi=8)
        back = parse_tree(serialize_tree(t))
        for u in t.vertices:
            for v in t.vertices:
                assert back.distance(u, v) == t.distance(u, v)


def test_metadata_survives_roundtrip():
    t = comb_tree(CombParams(s=0.1, depth_cap=2))
    back = parse_tree(serialize_tree(t))
    assert back.metadata["truncation_error"] == pytest.approx(0.1)
    assert back.metadata["generator"] == t.metadata["generator"]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_serialize_tree_refuses_non_finite_figures(bad, tmp_path):
    t = tree_from_edges([("a", "b", 1.0)])
    t.metadata["eps"] = bad
    with pytest.raises(ValueError, match="not JSON compliant"):
        serialize_tree(t)
    with pytest.raises(ValueError, match="not JSON compliant"):
        save_tree(t, tmp_path / "t.json")


def test_comb_document_shape():
    doc = tree_to_document(comb_tree(CombParams(s=0.5)))
    assert len(doc["nodes"]) == 6
    assert len(doc["edges"]) == 5
    tooth_edges = [
        e for e in doc["edges"] if "tooth" in e["a"] or "tooth" in e["b"]
    ]
    assert len(tooth_edges) == 3


def test_document_errors():
    base = tree_to_document(tree_from_edges([("a", "b", 1.0)]))

    doc = json.loads(json.dumps(base))
    doc["nodes"].append({"id": "a"})
    with pytest.raises(TreeDocumentError):
        tree_from_document(doc)

    doc = json.loads(json.dumps(base))
    doc["edges"][0]["b"] = "ghost"
    with pytest.raises(TreeDocumentError):
        tree_from_document(doc)

    doc = json.loads(json.dumps(base))
    doc["edges"][0]["len"] = -1.0
    with pytest.raises(TreeDocumentError):
        tree_from_document(doc)

    doc = json.loads(json.dumps(base))
    doc["schema_version"] = "other/9"
    with pytest.raises(TreeDocumentError):
        tree_from_document(doc)

    with pytest.raises(TreeDocumentError):
        parse_tree("this is not json")


def test_duplicate_node_id_is_named():
    # a long node list with one repeat near its end is rejected in linear time
    nodes = [{"id": "v%d" % i} for i in range(50_000)]
    nodes.insert(49_990, {"id": "v7"})
    doc = {"schema_version": "treegh/1", "nodes": nodes, "edges": []}
    with pytest.raises(TreeDocumentError, match="duplicate node id 'v7'"):
        tree_from_document(doc)


def test_save_and_load(tmp_path):
    t = tree_from_edges([("a", "b", 0.5), ("b", "c", 0.7)])
    path = tmp_path / "t.json"
    save_tree(t, path)
    back = load_tree(path)
    assert back.distance("a", "c") == pytest.approx(1.2)


def test_matrix_csv_roundtrip():
    t = tree_from_edges([("a", "b", 0.5), ("b", "c", 0.7)])
    text = matrix_to_csv(t.as_space())
    sp = space_from_csv(text)
    assert sp.labels == ("a", "b", "c")
    assert sp.dist[0, 2] == pytest.approx(1.2)
    assert validate_metric(sp).ok


def test_load_space_from_tree_or_csv(tmp_path):
    t = tree_from_edges([("a", "b", 2.0)])
    jpath = tmp_path / "t.json"
    save_tree(t, jpath)
    sp = load_space(jpath)
    assert sp.dist[0, 1] == 2.0

    cpath = tmp_path / "m.csv"
    cpath.write_text(matrix_to_csv(t.as_space()))
    sp2 = load_space(cpath)
    assert sp2.dist[0, 1] == 2.0


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_load_space_refuses_a_nan_infinite_or_negative_tol(tol, tmp_path):
    cpath = tmp_path / "m.csv"
    cpath.write_text(",a,b\na,0,1\nb,1,0\n")
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        load_space(cpath, tol)


def test_format_sig():
    assert format_sig(0.5) == "0.5"
    assert format_sig(1.0 / 3.0) == "0.333333333333"
    assert format_sig(2.0) == "2"
    assert format_sig(1e-9) == "1e-09"
