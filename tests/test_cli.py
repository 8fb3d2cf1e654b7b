import argparse
import json
import math
import pathlib
import re
from types import SimpleNamespace

import numpy as np
import pytest

import treegh.cli
import treegh.metric
import treegh.tree
from treegh import (
    FiniteMetricSpace,
    MetricValidationError,
    load_space,
    parse_tree,
    save_tree,
    space_from_csv,
    tree_from_edges,
    unit_grid,
    validate_metric,
)
from treegh.cli import _grid_adjacency, main

ONE_POINT = ",a\na,0\n"
TWO_POINT = ",b,c\nb,0,1\nc,1,0\n"


def _write(path, text):
    path.write_text(text)
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- exit codes ---------------------------------------------------------------


def test_no_arguments_is_usage_error(capsys):
    code, _, err = _run(capsys, [])
    assert code == 1
    assert "usage error" in err


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = _run(capsys, ["frobnicate"])
    assert code == 1
    assert "usage error" in err


def test_missing_required_flag_is_usage_error(capsys):
    code, _, err = _run(capsys, ["tree", "comb"])
    assert code == 1
    assert "usage error" in err


def test_missing_file_is_validation_error(capsys, tmp_path):
    code, _, err = _run(capsys, ["gh", "exact", str(tmp_path / "no.csv"), str(tmp_path / "no2.csv")])
    assert code == 2
    assert "error" in err


# -- gh -----------------------------------------------------------------------


def test_gh_exact_prints_scalar(capsys, tmp_path):
    a = _write(tmp_path / "a.csv", ONE_POINT)
    b = _write(tmp_path / "b.csv", TWO_POINT)
    code, out, _ = _run(capsys, ["gh", "exact", a, b])
    assert code == 0
    assert out == "0.5\n"


def test_gh_bounds_bracket(capsys, tmp_path):
    a = _write(tmp_path / "a.csv", ONE_POINT)
    b = _write(tmp_path / "b.csv", TWO_POINT)
    code, out, _ = _run(capsys, ["gh", "bounds", a, b])
    assert code == 0
    rep = json.loads(out)
    assert rep["lo"] <= 0.5 <= rep["hi"]


def test_gh_trees_widens_by_truncation(capsys, tmp_path):
    code, out, _ = _run(capsys, ["tree", "comb", "--s", "0.1", "--depth", "2"])
    assert code == 0
    doc = _write(tmp_path / "t.json", out)
    code, out2, _ = _run(capsys, ["gh", "trees", doc, doc, "--eps", "0.125"])
    assert code == 0
    rep = json.loads(out2)
    # each copy carries truncation error 0.1, so the interval widens by 0.2
    assert rep["truncation_widening"] == pytest.approx(0.2)
    assert rep["lo"] == 0.0
    assert rep["hi"] >= 0.2


# -- tree ---------------------------------------------------------------------


def test_tree_comb_is_deterministic(capsys):
    code1, out1, _ = _run(capsys, ["tree", "comb", "--s", "0.5"])
    code2, out2, _ = _run(capsys, ["tree", "comb", "--s", "0.5"])
    assert code1 == code2 == 0
    assert out1 == out2
    # every command is deterministic, so there is no seed to pass
    code, _, err = _run(capsys, ["tree", "comb", "--s", "0.5", "--seed", "7"])
    assert code == 1
    assert "usage error" in err


def test_tree_comb_reloads_and_validates(capsys, tmp_path):
    code, out, _ = _run(capsys, ["tree", "comb", "--s", "0.5"])
    assert code == 0
    tree = parse_tree(out)
    assert tree.n == 6
    doc = _write(tmp_path / "c.json", out)
    code, out2, _ = _run(capsys, ["tree", "validate", doc])
    assert code == 0
    assert json.loads(out2)["ok"] is True


def test_tree_validate_skips_the_four_point_check(capsys, tmp_path, monkeypatch):
    # building the tree already proves its metric is a tree metric
    def boom(*args, **kwargs):
        raise AssertionError("four_point_defect called")

    monkeypatch.setattr(treegh.metric, "four_point_defect", boom)
    monkeypatch.setattr(treegh.cli, "four_point_defect", boom, raising=False)
    code, out, _ = _run(capsys, ["tree", "comb", "--s", "0.25", "--depth", "3"])
    assert code == 0
    doc = _write(tmp_path / "c.json", out)
    code, out2, _ = _run(capsys, ["tree", "validate", doc])
    assert code == 0
    report = json.loads(out2)
    assert report["ok"] is True and report["category"] == "ok"
    assert report["n"] == parse_tree(out).n
    assert "four_point_defect" not in report


def test_tree_validate_checks_no_metric_axioms(capsys, tmp_path, monkeypatch):
    # a loaded tree's path metric satisfies the axioms; the report needs
    # neither the O(n^3) axiom check nor a matrix copy
    def boom(*args, **kwargs):
        raise AssertionError("metric check or matrix copy")

    monkeypatch.setattr(treegh.metric, "validate_metric", boom)
    monkeypatch.setattr(treegh.cli, "validate_metric", boom, raising=False)
    monkeypatch.setattr(treegh.MetricTree, "as_space", boom)
    # a path a-b-c-d listed from an inner vertex, with a side leaf at c
    edges = [("b", "c", 1.0), ("a", "b", 2.0), ("c", "d", 0.5), ("c", "e", 2.5)]
    doc = str(tmp_path / "t.json")
    save_tree(tree_from_edges(edges), doc)
    code, out, _ = _run(capsys, ["tree", "validate", doc])
    assert code == 0
    assert json.loads(out) == {"ok": True, "n": 5, "diameter": 5.5, "category": "ok"}


def test_tree_validate_reports_cycle(capsys, tmp_path):
    doc = {
        "schema_version": "treegh/1",
        "nodes": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
        "edges": [
            {"a": "a", "b": "b", "len": 1.0},
            {"a": "b", "b": "c", "len": 1.0},
            {"a": "c", "b": "a", "len": 1.0},
        ],
    }
    path = _write(tmp_path / "cycle.json", json.dumps(doc))
    code, _, err = _run(capsys, ["tree", "validate", path])
    assert code == 2
    assert "cycle" in err


def test_tree_star_csv_matrix(capsys):
    code, out, _ = _run(
        capsys, ["--format", "csv", "tree", "star", "--a", "0.25,0.0625", "--k", "1"]
    )
    assert code == 0
    space = space_from_csv(out)
    assert space.n == 12
    center = space.labels.index("center")
    tip1 = space.labels.index("branch:1:1.0")
    assert space.dist[center, tip1] == pytest.approx(0.25)


def test_tree_wedge_and_replace(capsys, tmp_path):
    p1 = tmp_path / "p1.json"
    p2 = tmp_path / "p2.json"
    save_tree(tree_from_edges([("a", "b", 1.0)]), str(p1))
    save_tree(tree_from_edges([("x", "y", 0.5)]), str(p2))
    code, out, _ = _run(capsys, ["tree", "wedge", str(p1), str(p2), "--at", "a,x"])
    assert code == 0
    w = parse_tree(out)
    assert w.distance("P0.b", "P1.y") == pytest.approx(1.5)

    host = tmp_path / "host.json"
    patch = tmp_path / "patch.json"
    save_tree(tree_from_edges([("u", "v", 1.0)]), str(host))
    save_tree(
        tree_from_edges([("s", "m", 0.5), ("m", "t", 0.5), ("m", "side", 0.3)]),
        str(patch),
    )
    code, out, _ = _run(
        capsys,
        [
            "tree", "replace", str(host),
            "--edge", "u,v", "--with", str(patch),
            "--alpha", "s", "--beta", "t",
        ],
    )
    assert code == 0
    r = parse_tree(out)
    assert r.distance("u", "v") == pytest.approx(1.0)
    assert r.distance("u", "R0.side") == pytest.approx(0.8)


def test_tree_replace_rejects_span_mismatch(capsys, tmp_path):
    host = tmp_path / "host.json"
    patch = tmp_path / "patch.json"
    save_tree(tree_from_edges([("u", "v", 1.0)]), str(host))
    save_tree(tree_from_edges([("s", "t", 0.7)]), str(patch))
    code, _, err = _run(
        capsys,
        [
            "tree", "replace", str(host),
            "--edge", "u,v", "--with", str(patch),
            "--alpha", "s", "--beta", "t",
        ],
    )
    assert code == 2
    assert "error" in err


def test_tree_replace_tolerance_defaults_to_1e9(capsys, tmp_path):
    host = tmp_path / "host.json"
    patch = tmp_path / "patch.json"
    save_tree(tree_from_edges([("u", "v", 1.0)]), str(host))
    save_tree(tree_from_edges([("s", "t", 1.0 + 1e-8)]), str(patch))
    argv = ["tree", "replace", str(host), "--edge", "u,v", "--with", str(patch),
            "--alpha", "s", "--beta", "t"]
    assert _run(capsys, argv)[0] == 2
    assert _run(capsys, ["--tol", "1e-6"] + argv)[0] == 0


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["replace", "validate"])
def test_a_nan_infinite_or_negative_tol_exits_2(capsys, tmp_path, tol, command):
    # before: with --tol nan or inf, the span check `abs(...) > tol` passed
    # a replacement spanning 1.25 on a host geodesic of length 0.5
    host, patch = str(tmp_path / "host.json"), str(tmp_path / "patch.json")
    save_tree(tree_from_edges([("u", "v", 0.5)]), host)
    save_tree(tree_from_edges([("s", "t", 1.25)]), patch)
    argv = {
        "replace": ["tree", "replace", host, "--edge", "u,v", "--with", patch,
                    "--alpha", "s", "--beta", "t"],
        "validate": ["tree", "validate", host],
    }[command]
    for args in (["--tol", tol] + argv, argv + ["--tol", tol]):
        code, out, err = _run(capsys, args)
        assert (code, out) == (2, "")
        assert err == "error: tol must be finite and nonnegative, got %r\n" % float(tol)


@pytest.mark.parametrize("command", ["exact", "trees"])
@pytest.mark.parametrize("cap", ["0", "-1"])
def test_a_cap_below_one_exits_2(capsys, tmp_path, command, cap):
    # before: gh trees --cap -1 ran in bounds mode
    doc = str(tmp_path / "t.json")
    save_tree(tree_from_edges([("a", "b", 1.0)]), doc)
    code, out, err = _run(capsys, ["gh", command, doc, doc, "--cap", cap])
    assert (code, out) == (2, "")
    assert err == "error: --cap must be at least 1, got %s\n" % cap


@pytest.mark.parametrize("text, message", [
    (",a,b\na,0,nan\nb,nan,0\n", "entry (a, b) = nan is not finite"),
    (",a,b\na,0,inf\nb,inf,0\n", "entry (a, b) = inf is not finite"),
    (",a,b\na,0,-1\nb,-1,0\n", "entry (a, b) = -1.0 is negative beyond tol=1e-09"),
    (",a,b\na,0.5,1\nb,1,0\n", "entry (a, a) = 0.5 is on the diagonal but not within tol=1e-09 of zero"),
    (",a,b\na,0,1\nb,1.5,0\n", "entry (a, b) = 1.0 differs from its transpose by more than tol=1e-09"),
])
@pytest.mark.parametrize("command", ["exact", "bounds"])
def test_gh_refuses_a_matrix_that_is_not_a_metric(capsys, tmp_path, text, message, command):
    # before: gh bounds printed "hi": NaN for the first matrix
    bad = _write(tmp_path / "bad.csv", text)
    good = _write(tmp_path / "good.csv", TWO_POINT)
    code, out, err = _run(capsys, ["gh", command, bad, good])
    assert (code, out) == (2, "")
    assert err == "error: %s: %s\n" % (bad, message)


def test_load_space_and_validate_metric_share_the_entry_rule(tmp_path):
    # a diagonal or an asymmetry within tol passes both checks, beyond it both
    for text, ok in (
        (",a,b\na,1e-12,1\nb,1,0\n", True),
        (",a,b\na,0,1\nb,1.000000000001,0\n", True),
        (",a,b\na,1e-6,1\nb,1,0\n", False),
        (",a,b\na,0,1\nb,1.000001,0\n", False),
    ):
        path = _write(tmp_path / "m.csv", text)
        space = space_from_csv(text)
        assert validate_metric(space).ok is ok
        if ok:
            assert load_space(path).n == 2
        else:
            with pytest.raises(MetricValidationError):
                load_space(path)


def test_gh_exact_refuses_a_triangle_violation_within_its_cap(capsys, tmp_path):
    # d(a, c) = 5 > d(a, b) + d(b, c) = 2: before, gh exact printed 1.5
    bad = _write(tmp_path / "bad.csv", ",a,b,c\na,0,1,5\nb,1,0,1\nc,5,1,0\n")
    good = _write(tmp_path / "good.csv", TWO_POINT)
    code, out, err = _run(capsys, ["gh", "exact", bad, good, "--cap", "16"])
    assert (code, out) == (2, "")
    assert err == "error: %s is not a metric space: triangle violated by 3 at points a, c, b\n" % bad
    # past its cap the solver refuses first, as before
    code, out, err = _run(capsys, ["gh", "exact", bad, good, "--cap", "2"])
    assert (code, out) == (2, "") and "exact search capped at 2 points" in err


NOT_A_METRIC_TRIANGLE = "{triangle} is not a metric space: triangle violated by 3 at points a, c, b"


@pytest.mark.parametrize("argv, calls, code, out, err", [
    (["good", "three"], 2, 0, "1.5\n", ""),
    (["triangle", "good"], 2, 2, "", NOT_A_METRIC_TRIANGLE),
    (["good", "triangle"], 2, 2, "", NOT_A_METRIC_TRIANGLE),
    (["zero", "good"], 2, 2, "", "{zero} is not a metric space: positivity violated by 2e-09 at points a, b"),
    (["near", "good"], 2, 2, "", "{near} is not a metric space: triangle violated by 3 at points c, a, b"),
    (["--tol", "0.5", "diag", "good"], 2, 0, "0.125\n", ""),
    (["diag", "good"], 1, 2, "", "{diag}: entry (a, a) = 0.25 is on the diagonal but not within tol=1e-09 of zero"),
    (["asym", "good"], 1, 2, "", "{asym}: entry (a, b) = 1.0 differs from its transpose by more than tol=1e-09"),
    (["tree", "three"], 2, 0, "1.25\n", ""),
    (["tree", "triangle"], 2, 2, "", NOT_A_METRIC_TRIANGLE),
    (["triangle", "good", "--cap", "2"], 2, 2, "", "exact search capped at 2 points, got 3 and 2"),
])
def test_gh_exact_checks_each_space_entrywise_once(capsys, tmp_path, monkeypatch, argv, calls, code, out, err):
    # load_space checks a CSV matrix's entries; the axiom check within the
    # cap reuses them, where it ran them again before, with the same reports
    files = {
        "good": TWO_POINT,
        "three": ",p,q,r\np,0,2,3\nq,2,0,4\nr,3,4,0\n",
        "triangle": ",a,b,c\na,0,1,5\nb,1,0,1\nc,5,1,0\n",
        "zero": ",a,b\na,0,0\nb,0,0\n",
        "near": ",a,b,c\na,0,1,5\nb,1,0,1\nc,5.0000000000001,1,0\n",
        "diag": ",a,b\na,0.25,1\nb,1,0\n",
        "asym": ",a,b\na,0,1\nb,1.5,0\n",
    }
    paths = {name: _write(tmp_path / (name + ".csv"), text) for name, text in files.items()}
    paths["tree"] = str(tmp_path / "tree.json")
    save_tree(tree_from_edges([("u", "v", 1.0), ("v", "w", 0.5)]), paths["tree"])
    seen = []
    entry_violation = treegh.metric._entry_violation

    def counted(d):
        seen.append(d.shape)
        return entry_violation(d)

    for module in (treegh.metric, treegh.io, treegh.cli):
        monkeypatch.setattr(module, "_entry_violation", counted, raising=False)
    args = [paths.get(a, a) for a in argv]
    if args[0] == "--tol":
        args = args[:2] + ["gh", "exact"] + args[2:]
    else:
        args = ["gh", "exact"] + args
    want = "error: %s\n" % err.format(**paths) if err else ""
    assert _run(capsys, args) == (code, out, want)
    assert len(seen) == calls


def test_reports_never_print_nan_or_infinity(monkeypatch):
    assert treegh.cli._dump({"hi": 1.5}) == '{\n  "hi": 1.5\n}\n'
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            treegh.cli._dump({"hi": bad})


def test_tree_subdivide_requires_eps(capsys, tmp_path):
    doc = tmp_path / "t.json"
    save_tree(tree_from_edges([("a", "b", 1.0)]), str(doc))
    code, _, err = _run(capsys, ["tree", "subdivide", str(doc)])
    assert code == 1
    code, out, _ = _run(capsys, ["--eps", "0.25", "tree", "subdivide", str(doc)])
    assert code == 0
    t = parse_tree(out)
    assert t.n == 5
    assert max(w for _, _, w in t.edges) <= 0.25 + 1e-12


def test_tree_subdivide_fails_fast_on_a_tiny_eps(capsys, tmp_path):
    doc = tmp_path / "t.json"
    save_tree(tree_from_edges([("a", "b", 1.0)]), str(doc))
    code, out, err = _run(capsys, ["--eps", "1e-12", "tree", "subdivide", str(doc)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "999999999999 vertices" in err


# -- lab ----------------------------------------------------------------------


@pytest.fixture()
def config_path(tmp_path, small_config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_config.to_document()))
    return str(path)


def test_lab_embed_emits_valid_tree(capsys, tmp_path, config_path):
    code, out, _ = _run(
        capsys,
        ["--eps", "0.25", "lab", "embed", "--config", config_path, "--u", "g1_1", "--k", "1"],
    )
    assert code == 0
    tree = parse_tree(out)
    assert tree.metadata["u"] == "g1_1"
    assert tree.has_vertex("p")
    doc = _write(tmp_path / "w.json", out)
    code, out2, _ = _run(capsys, ["tree", "validate", doc])
    assert code == 0
    assert json.loads(out2)["ok"] is True


def test_lab_embed_marked_cell_returns_endpoint(capsys, config_path):
    # at a marked grid point the family collapses to the endpoint tree itself
    code, out, _ = _run(capsys, ["lab", "embed", "--config", config_path, "--u", "g0_0", "--k", "1"])
    assert code == 0
    tree = parse_tree(out)
    assert not tree.has_vertex("p")
    assert tree.distance("a", "b") == pytest.approx(1.0)


def test_lab_scan_injectivity_csv(capsys, config_path):
    code, out, _ = _run(
        capsys, ["--format", "csv", "lab", "scan-injectivity", "--config", config_path]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "u1,u2,k,bound,hi,margin"
    # 7 unmarked cells x m=2 fibers
    assert len(lines) == 15
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[4]) <= float(cells[3])  # recovery within tolerance
        assert float(cells[5]) > 0.0  # positive fingerprint margin


def test_lab_scan_continuity_csv(capsys, config_path):
    code, out, _ = _run(
        capsys,
        ["--format", "csv", "--eps", "0.125", "lab", "scan-continuity",
         "--config", config_path, "--k", "1"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "u1,u2,k,bound,hi,margin"
    assert len(lines) > 1
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[5]) >= 0.0  # margin = bound + 2eps + tol - hi


@pytest.mark.parametrize("flag", [["--tol", "-1"], ["--tol", "nan"], ["--eps", "-0.125"]])
def test_lab_config_overrides_are_validated(capsys, config_path, flag):
    # the flags replace the document's values and are checked like them
    code, out, err = _run(capsys, flag + ["lab", "scan-injectivity", "--config", config_path])
    assert code == 2
    assert out == ""
    assert "error: %s must be" % flag[0][2:] in err


@pytest.mark.parametrize("command", [["embed", "--u", "g0_1", "--k", "1"], ["scan-injectivity"]])
def test_lab_refuses_a_negative_depth_cap_at_load(capsys, tmp_path, small_config, command):
    # before: lab embed printed a tree, and scan-injectivity failed at its
    # first cell with the bare CombParams message
    doc = small_config.to_document()
    doc["depth_cap"] = -1
    path = _write(tmp_path / "cfg.json", json.dumps(doc))
    code, out, err = _run(capsys, ["lab", command[0], "--config", path] + command[1:])
    assert (code, out) == (2, "")
    assert err == "error: depth_cap must be nonnegative, got -1\n"


def test_lab_refuses_a_basepoint_the_comb_replacement_removes(capsys, tmp_path, small_config):
    doc = small_config.to_document()
    doc["basepoints"] = ["a", "y"]  # x-y-z with lengths 0.6 and 0.9
    path = _write(tmp_path / "cfg.json", json.dumps(doc))
    code, out, err = _run(capsys, ["lab", "scan-injectivity", "--config", path])
    assert (code, out) == (2, "")
    assert err == (
        "error: basepoint 'y' of tree 1 has degree 2 inside a unit segment, "
        "which the comb replacement removes\n"
    )


@pytest.mark.parametrize("argv, message", [
    (["tree", "star", "--a", "0.5", "--k", "inf"], "scale must be nonnegative and finite, got inf"),
    (["tree", "star", "--a", "0.5", "--k", "nan"], "scale must be nonnegative and finite, got nan"),
    (["tree", "comb", "--s", "1e-30", "--depth", "40"], "would have 4398046511106 vertices"),
    (["tree", "star", "--a", "0.5", "--k", "1", "--eps", "1e-12"], "would have 1500000000001 vertices"),
    (["--eps", "1e-17", "lab", "embed", "--config", "{cfg}", "--u", "g1_1", "--k", "1"],
     "eps=1e-17 is too fine for star branch 0"),
    (["--eps", "1e-17", "lab", "scan-injectivity", "--config", "{cfg}"],
     "eps=1e-17 is too fine for star branch 0"),
    (["--eps", "5e-324", "lab", "scan-injectivity", "--config", "{cfg}"],
     "eps=5e-324 is too fine for star branch 0"),
    (["tree", "star", "--a", "0.25,0.0625", "--k", "1", "--eps", "inf"],
     "eps must be positive and finite, got inf"),
])
def test_parameters_that_crashed_or_hung_exit_2(capsys, config_path, argv, message):
    # before: an OverflowError traceback, a NaN scale in the document, runs
    # past 10 s building 2^42 or 1.5e12 vertices, "eps": Infinity in a star
    # document, and lab embed refusing (duplicate vertex ids) the cells that
    # scan-injectivity certified
    code, out, err = _run(capsys, [arg.format(cfg=config_path) for arg in argv])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


def reference_grid_adjacency(cfg, cells):
    """The pair loops that _grid_adjacency replaced."""
    labs = [lab for lab, _ in cells]
    spacing = math.inf
    for i in range(len(labs)):
        for j in range(i + 1, len(labs)):
            d = cfg.h_space.dist[cfg.h_space.index(labs[i]), cfg.h_space.index(labs[j])]
            if d > 0:
                spacing = min(spacing, d)
    pairs = []
    for i in range(len(labs)):
        for j in range(i + 1, len(labs)):
            d = cfg.h_space.dist[cfg.h_space.index(labs[i]), cfg.h_space.index(labs[j])]
            if 0 < d <= spacing * (1 + 1e-9):
                pairs.append((i, j))
    return pairs


def test_grid_adjacency_equals_the_pair_loops():
    rng = np.random.default_rng(20)
    compared = 0
    for side in (3, 10):
        h, _ = unit_grid(side)
        # a grid whose distances are stretched by a few ulps, inside the
        # 1e-9 tolerance, on its edge, or past it; then a repeated point
        # (distance 0) and no pair at all
        stretch = rng.choice([1.0, 1 + 2.0 ** -51, 1 + 4e-10, 1 + 1e-9, 1 + 2e-9], h.dist.shape)
        jitter = np.triu(h.dist * stretch, 1) + np.triu(h.dist * stretch, 1).T
        for space in (h, FiniteMetricSpace(h.labels, jitter)):
            cfg = SimpleNamespace(h_space=space)
            for labels in (h.labels, h.labels[1:-1], tuple(rng.permutation(h.labels))):
                cells = [(lab, 1) for lab in labels]
                got = _grid_adjacency(cfg, cells)
                assert got == reference_grid_adjacency(cfg, cells)
                assert all(type(i) is int and type(j) is int for i, j in got)
                compared += len(got)
        cells = [(h.labels[0], 1), (h.labels[0], 2)]
        assert _grid_adjacency(SimpleNamespace(h_space=h), cells) == []
    assert compared > 500


def test_lab_embed_names_a_missing_label(capsys, config_path):
    code, out, err = _run(
        capsys, ["lab", "embed", "--config", config_path, "--u", "nosuch", "--k", "1"]
    )
    assert (code, out) == (2, "")
    assert "error: label 'nosuch' not in space" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["lab", "scan-continuity", "--config", "{cfg}", "--k", "1"],
        ["gh", "trees", "{tree}", "{tree}"],
        ["lab", "path", "--x", "{tree}", "--s-grid", "0,0.5"],
    ],
)
def test_an_infinite_eps_is_rejected(capsys, tmp_path, config_path, argv):
    # before, these printed Infinity or NaN certificates
    tree = tmp_path / "t.json"
    save_tree(tree_from_edges([("a", "b", 1.0)]), str(tree))
    argv = [arg.format(cfg=config_path, tree=tree) for arg in argv]
    code, out, err = _run(capsys, ["--eps", "inf"] + argv)
    assert (code, out) == (2, "")
    assert "error: eps must be positive and finite, got inf" in err


def test_gh_trees_refuses_a_fill_too_large(capsys, tmp_path):
    # each eps-sample has 2**15 + 1 vertices; its 8.6-GB fill is refused
    tree = tmp_path / "t.json"
    save_tree(tree_from_edges([("a", "b", 1.0)]), str(tree))
    code, out, err = _run(capsys, ["--eps", repr(2.0 ** -15), "gh", "trees", str(tree), str(tree)])
    assert (code, out) == (2, "")
    assert (
        "error: the distance matrix of a tree of 32769 vertices would take "
        "8590458888 bytes; at most 16384 vertices are filled"
    ) in err


def test_lab_scan_continuity_refuses_a_too_fine_eps(capsys, config_path):
    # each sample would take some 12 million vertices: refused before any is built
    argv = ["--eps", repr(2.0 ** -20), "lab", "scan-continuity", "--config", config_path, "--k", "1"]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: subdividing at eps=9.5367431640625e-07 would insert ")


def test_lab_scan_continuity_refuses_rows_beyond_the_budget(capsys, config_path, monkeypatch):
    # Adjacent cells read a few planned rows, within a small budget.  A
    # degenerate pair, a cell paired with itself, has every entry tied at
    # 0, so every row is planned: past the budget the scan exits 2 before
    # any row of the product is read.
    def refuse(*args):
        raise AssertionError("read a row of the product")

    argv = ["--eps", "0.125", "lab", "scan-continuity", "--config", config_path, "--k", "1"]
    monkeypatch.setattr(treegh.tree, "_MAX_ROW_ENTRIES", 40 * 40)
    assert _run(capsys, argv)[0] == 0
    monkeypatch.setattr(treegh.cli, "_grid_adjacency", lambda cfg, cells: [(0, 0)])
    with monkeypatch.context() as reads:
        reads.setattr(treegh.gh, "_depth_mismatch", refuse)
        code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == (
        "error: 101 distance rows of a tree of 101 vertices would hold 10201 distances; "
        "at most 1600 are read\n"
    ), err
    monkeypatch.setattr(treegh.tree, "_MAX_ROW_ENTRIES", 101 * 101)
    assert _run(capsys, argv)[0] == 0


def test_lab_scan_continuity_keeps_the_config_tol(capsys, tmp_path, small_config):
    # A document's tol stands unless --tol is given, and the margin carries it.
    doc = small_config.to_document()
    doc["tol"] = 0.5
    cfg = _write(tmp_path / "cfg.json", json.dumps(doc))
    argv = ["--eps", "0.125", "lab", "scan-continuity", "--config", cfg, "--k", "1"]
    for flags, tol in (([], 0.5), (["--tol", "0.25"], 0.25)):
        code, out, err = _run(capsys, flags + argv)
        assert code == 0, err
        report = json.loads(out)
        assert report["tol"] == tol
        for row in report["rows"]:
            slack = row["margin"] - (row["bound"] + 2 * 0.125 - row["hi"])
            assert slack == pytest.approx(tol, abs=1e-9)


def test_lab_path_csv(capsys, tmp_path):
    doc = tmp_path / "x.json"
    save_tree(tree_from_edges([("a", "b", 1.0)]), str(doc))
    code, out, _ = _run(
        capsys,
        ["--format", "csv", "--eps", "0.03125", "lab", "path",
         "--x", str(doc), "--s-grid", "0,0.25,0.5"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s,hi,bound"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "" and first[2] == ""
    for line in lines[2:]:
        s, hi, bound = line.split(",")
        assert float(hi) <= float(bound) + 2 * 0.03125 + 1e-9


def test_lab_path_runs_on_a_comb_document(capsys, tmp_path):
    code, out, _ = _run(capsys, ["tree", "comb", "--s", "0.5", "--depth", "4"])
    assert code == 0
    doc = _write(tmp_path / "comb.json", out)
    code, out, err = _run(
        capsys, ["--eps", "0.03125", "lab", "path", "--x", doc, "--s-grid", "0,0.25,0.5"]
    )
    assert code == 0, err
    rows = json.loads(out)["rows"]
    assert [row["s"] for row in rows] == [0.0, 0.25, 0.5]
    for row in rows[1:]:
        assert row["hi"] <= row["bound"] + 2 * 0.03125 + 1e-9


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "comb.json"
    code, out, _ = _run(capsys, ["--out", str(target), "tree", "comb", "--s", "0.5"])
    assert code == 0
    assert out == ""
    tree = parse_tree(target.read_text())
    assert tree.n == 6


# -- golden outputs -----------------------------------------------------------

GOLDEN = pathlib.Path(__file__).parent / "golden"

# (golden file, argv, exit code); "{cfg}" is the small_config document and
# "{comb_a}", "{comb_b}", "{star}" and "{embed}" the documents pinned by
# the cases that print them.
GOLDEN_CASES = [
    ("comb_a.json", ["tree", "comb", "--s", "0.5", "--depth", "4"], 0),
    ("comb_b.json", ["tree", "comb", "--s", "0.375", "--depth", "4"], 0),
    ("validate_comb_a.json", ["tree", "validate", "{comb_a}"], 0),
    ("validate_comb_b.json", ["tree", "validate", "{comb_b}"], 0),
    ("gh_trees.json", ["--eps", "0.0625", "gh", "trees", "{comb_a}", "{comb_b}"], 0),
    ("star.json", ["tree", "star", "--a", "0.25,0.0625", "--k", "1"], 0),
    ("path.json", ["--eps", "0.03125", "lab", "path", "--x", "{star}",
                   "--s-grid", "0,0.25,0.5", "--depth", "4"], 0),
    ("embed.json", ["lab", "embed", "--config", "{cfg}", "--u", "g1_1", "--k", "1"], 0),
    ("validate_embed.json", ["tree", "validate", "{embed}"], 0),
    ("scan_continuity_k1.json", ["--eps", "0.125", "lab", "scan-continuity",
                                 "--config", "{cfg}", "--k", "1"], 0),
    ("scan_continuity_k2.csv", ["--format", "csv", "--eps", "0.125", "lab",
                                "scan-continuity", "--config", "{cfg}", "--k", "2"], 0),
    ("scan_injectivity.json", ["lab", "scan-injectivity", "--config", "{cfg}"], 0),
    ("subdivide_comb_a.json", ["--eps", "0.1", "tree", "subdivide", "{comb_a}"], 0),
    ("subdivide_comb_a.csv", ["--format", "csv", "--eps", "0.1", "tree", "subdivide",
                              "{comb_a}"], 0),
]


def test_cli_outputs_match_golden_bytes(capsys, tmp_path, config_path):
    # Every report is byte-deterministic; these files pin the bytes so a
    # refactor of the layers below cannot move a single digit unnoticed.
    inputs = {"cfg": config_path}
    for name, argv, want_code in GOLDEN_CASES:
        argv = [a.format(**inputs) for a in argv]
        code, out, err = _run(capsys, argv)
        assert code == want_code, (name, err)
        assert out == (GOLDEN / name).read_text(), name
        inputs[name.split(".")[0]] = _write(tmp_path / name, out)


# -- refused inputs -----------------------------------------------------------


def test_tree_output_refuses_non_finite_figures(capsys, monkeypatch):
    # a tree document is dumped as _dump dumps a report: a NaN or infinite
    # figure is an error (exit 2), never a JSON token
    def star_with_an_infinite_figure(params):
        tree = tree_from_edges([("a", "b", 1.0)])
        tree.metadata["eps"] = math.inf
        return tree

    monkeypatch.setattr(treegh.cli, "star_tree", star_with_an_infinite_figure)
    code, out, err = _run(capsys, ["tree", "star", "--a", "0.5", "--k", "1"])
    assert (code, out) == (2, "")
    assert err.startswith("error: Out of range float values are not JSON compliant")


def test_lab_scan_injectivity_counts_its_cells_before_listing_them(
    capsys, tmp_path, small_config, monkeypatch
):
    # before: "m": 10**12 grew without bound while the cells were listed
    def no_listing(cfg, k):
        raise AssertionError("cells listed")

    monkeypatch.setattr(treegh.cli, "_config_cells", no_listing)
    doc = small_config.to_document()
    doc["m"] = 10 ** 12
    path = _write(tmp_path / "cfg.json", json.dumps(doc))
    code, out, err = _run(capsys, ["lab", "scan-injectivity", "--config", path])
    assert (code, out) == (2, "")
    assert err == (
        "error: scan-injectivity would scan 7000000000000 cells (m=1000000000000 "
        "fibers of 7 unmarked labels), more than 1048576\n"
    )


# -- parser branches ----------------------------------------------------------


def _run_exiting(capsys, argv):
    # -h prints its help and exits through SystemExit
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _differential_corpus(tmp_path, config_path, capsys):
    """Argv that reach the branch-only parser and argv that need every
    branch, with the documents they read written under tmp_path."""
    inputs = {"cfg": config_path}
    corpus = []
    for name, argv, _ in GOLDEN_CASES:
        argv = [a.format(**inputs) for a in argv]
        corpus.append(argv)
        inputs[name.split(".")[0]] = _write(tmp_path / name, _run(capsys, argv)[1])
    comb, cfg = inputs["comb_a"], config_path
    out = str(tmp_path / "out.json")
    corpus += [
        # global options before the command, as --opt value and --opt=value
        ["--tol", "1e-6", "tree", "validate", comb],
        ["--tol=1e-6", "tree", "validate", comb],
        ["--format=csv", "--eps=0.1", "tree", "subdivide", comb],
        ["--format", "csv", "--eps", "0.1", "tree", "subdivide", comb],
        ["--out", out, "--format", "json", "tree", "comb", "--s", "0.5"],
        ["--out=" + out, "tree", "comb", "--s", "0.5"],
        ["--eps", "0.125", "--eps", "0.0625", "gh", "trees", comb, comb],
        ["--tol", "-1", "tree", "validate", comb],
        ["--tol=-1", "tree", "validate", comb],
        ["--tol=", "tree", "validate", comb],
        ["--format=", "tree", "validate", comb],
        ["tree", "validate", comb, "--tol", "1e-6", "--format", "csv"],
        # abbreviated options and --
        ["--to", "1e-6", "tree", "validate", comb],
        ["--ep=0.1", "tree", "subdivide", comb],
        ["--form", "csv", "--eps", "0.1", "tree", "subdivide", comb],
        ["tree", "comb", "--s", "0.5", "--dep", "3"],
        ["tree", "comb", "--s", "0.5", "--d", "3"],
        ["--", "tree", "validate", comb],
        ["tree", "--", "validate", comb],
        ["tree", "validate", "--", comb],
        ["--tol", "--", "tree", "validate", comb],
        # unknown and missing commands and subcommands
        [],
        ["frobnicate"],
        ["Tree", "validate", comb],
        ["tree"],
        ["tree", "frobnicate"],
        ["tree", "valid", comb],
        ["gh", "validate", comb],
        ["lab", "scan"],
        ["--tol", "1e-6"],
        ["--tol", "1e-6", "tree"],
        ["--tol"],
        ["--eps", "tree", "validate", comb],
        ["--out", "tree", "validate", comb],
        # missing and invalid arguments
        ["tree", "validate"],
        ["tree", "validate", comb, comb],
        ["tree", "comb"],
        ["tree", "comb", "--s", "x"],
        ["tree", "comb", "--s", "0.5", "--seed", "7"],
        ["tree", "comb", "--s", "0.5", "--depth", "2.7"],
        ["--tol", "x", "tree", "validate", comb],
        ["--format", "xml", "tree", "comb", "--s", "0.5"],
        ["tree", "comb", "--s", "0.5", "--format", "xml"],
        ["gh", "exact", comb],
        ["gh", "trees", comb, comb, "--cap", "x"],
        ["lab", "embed", "--config", cfg],
        ["lab", "path", "--x", comb],
        ["tree", "validate", str(tmp_path / "missing.json")],
        # help at each level
        ["-h"],
        ["--help"],
        ["--tol", "1e-6", "-h"],
        ["--tol", "1e-6", "tree", "-h"],
        ["--tol", "1e-6", "tree", "validate", "--help"],
        ["-h", "tree", "validate", comb],
        ["tree", "validate", "-h", comb],
        ["tree", "validate", "--he"],
    ]
    for command in treegh.cli._GROUPS:
        corpus.append([command, "-h"])
    for command, name in treegh.cli._COMMANDS:
        corpus.append([command, name, "-h"])
    return corpus


def test_the_branch_parser_answers_as_the_full_parser(capsys, tmp_path, config_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    corpus = _differential_corpus(tmp_path, config_path, capsys)
    branched = [argv for argv in corpus if treegh.cli._branch(argv) is not None]
    assert len(branched) >= len(GOLDEN_CASES) + 12
    shipped = [_run_exiting(capsys, argv) for argv in corpus]
    monkeypatch.setattr(treegh.cli, "_branch", lambda argv: None)
    full = [_run_exiting(capsys, argv) for argv in corpus]
    for argv, got, want in zip(corpus, shipped, full):
        assert got == want, argv


def test_branch_names_only_exact_options_and_known_names():
    branch = treegh.cli._branch
    assert branch(["tree", "validate", "f"]) == ("tree", "validate")
    assert branch(["--tol", "1e-6", "--format=csv", "lab", "path"]) == ("lab", "path")
    assert branch(["--tol=-1", "gh", "exact", "a", "b"]) == ("gh", "exact")
    for argv in (
        [], ["tree"], ["-h", "tree", "validate"], ["tree", "-h"], ["--to", "1", "tree", "validate"],
        ["--", "tree", "validate"], ["--tol", "-1", "tree", "validate"], ["--tol"],
        ["tree", "frobnicate"], ["gh", "validate"], ["--out", "tree", "validate"],
    ):
        assert branch(argv) is None, argv


def test_tree_validate_builds_no_other_branch(capsys, tmp_path, monkeypatch):
    def refuse(parser):
        raise AssertionError("built %s" % parser.prog)

    for key, spec in treegh.cli._COMMANDS.items():
        if key != ("tree", "validate"):
            monkeypatch.setitem(treegh.cli._COMMANDS, key, spec._replace(arguments=refuse))
    doc = str(tmp_path / "t.json")
    save_tree(tree_from_edges([("a", "b", 1.0), ("b", "c", 0.5)]), doc)
    for argv in (["tree", "validate", doc], ["--tol=1e-6", "--format", "json", "tree", "validate", doc]):
        code, out, err = _run(capsys, argv)
        assert (code, err) == (0, "")
        assert json.loads(out) == {"ok": True, "n": 3, "diameter": 1.5, "category": "ok"}
    # the full parser does build the others
    with pytest.raises(AssertionError, match="built treegh tree comb"):
        main(["tree", "-h"])
    # and no parser outlives its call
    assert not any(isinstance(v, argparse.ArgumentParser) for v in vars(treegh.cli).values())


# -- fuzz ---------------------------------------------------------------------

FUZZ_VALUES = ("nan", "inf", "-inf", "-1", "0", "5e-324", "1e300")

# (argv the option is added to, option, integer option?) for every numeric
# option; the global --tol and --eps go with each command that reads them.
# "{tree}", "{host}", "{patch}", "{csv}" and "{cfg}" name the documents of
# the fuzz test.
FUZZ_OPTIONS = [
    (["tree", "replace", "{host}", "--edge", "u,v", "--with", "{patch}",
      "--alpha", "s", "--beta", "t"], "--tol", False),
    (["gh", "exact", "{csv}", "{tree}"], "--tol", False),
    (["gh", "bounds", "{csv}", "{tree}"], "--tol", False),
    (["lab", "scan-continuity", "--config", "{cfg}"], "--tol", False),
    (["tree", "star", "--a", "0.5", "--k", "1"], "--eps", False),
    (["tree", "subdivide", "{tree}"], "--eps", False),
    (["gh", "trees", "{tree}", "{tree}"], "--eps", False),
    (["lab", "embed", "--config", "{cfg}", "--u", "g1_1", "--k", "1"], "--eps", False),
    (["lab", "scan-injectivity", "--config", "{cfg}"], "--eps", False),
    (["lab", "path", "--x", "{tree}", "--s-grid", "0,0.5", "--depth", "2"], "--eps", False),
    (["tree", "comb", "--depth", "3"], "--s", False),
    (["tree", "comb", "--s", "0.5", "--depth", "3"], "--scale", False),
    (["tree", "comb", "--s", "0.5"], "--depth", True),
    (["tree", "star", "--k", "1"], "--a", False),
    (["tree", "star", "--a", "0.5"], "--k", False),
    (["tree", "star", "--a", "0.5", "--k", "1"], "--branches", True),
    (["gh", "exact", "{csv}", "{tree}"], "--cap", True),
    (["gh", "trees", "{tree}", "{tree}"], "--cap", True),
    (["lab", "embed", "--config", "{cfg}", "--u", "g1_1"], "--k", True),
    (["lab", "scan-continuity", "--config", "{cfg}"], "--k", True),
    (["lab", "path", "--x", "{tree}", "--depth", "2"], "--s-grid", False),
    (["lab", "path", "--x", "{tree}", "--s-grid", "0,0.5"], "--depth", True),
]

# Every numeric field of a config document, and whether it is an integer.
FUZZ_FIELDS = [("m", True), ("branches", True), ("eps", False), ("tol", False),
               ("depth_cap", True)]


def _fuzz_values(integer):
    return FUZZ_VALUES + (("2.7",) if integer else ())


def _fuzz_cases(paths, small_config):
    for argv, option, integer in FUZZ_OPTIONS:
        for value in _fuzz_values(integer):
            yield [a.format(**paths) for a in argv] + ["%s=%s" % (option, value)]
    for field, integer in FUZZ_FIELDS:
        for value in _fuzz_values(integer):
            doc = small_config.to_document()
            doc[field] = int(value) if value in ("-1", "0") else float(value)
            path = _write(paths["dir"] / ("cfg-%s-%s.json" % (field, value)), json.dumps(doc))
            for command in ("embed", "scan-continuity", "scan-injectivity"):
                extra = ["--u", "g1_1", "--k", "1"] if command == "embed" else []
                yield ["lab", command, "--config", path] + extra


def test_numeric_options_and_fields_exit_cleanly_and_print_no_nan(capsys, tmp_path, small_config):
    # every numeric option and config field at nan, +-inf, -1, 0, the least
    # subnormal, 1e300 and (integers) 2.7: a usage error (1), a refusal (2)
    # or a report (0) free of NaN and Infinity, never a traceback
    paths = {"dir": tmp_path, "cfg": _write(tmp_path / "cfg.json", json.dumps(small_config.to_document()))}
    for name, tree in (("tree", tree_from_edges([("a", "b", 1.0), ("b", "c", 0.5)])),
                       ("host", tree_from_edges([("u", "v", 1.0)])),
                       ("patch", tree_from_edges([("s", "m", 0.5), ("m", "t", 0.5)]))):
        paths[name] = str(tmp_path / ("%s.json" % name))
        save_tree(tree, paths[name])
    paths["csv"] = _write(tmp_path / "m.csv", TWO_POINT)
    cases = 0
    for argv in _fuzz_cases(paths, small_config):
        code, out, err = _run(capsys, argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        assert "NaN" not in out and "Infinity" not in out, argv
        cases += 1
    assert cases == 275
