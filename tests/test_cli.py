import json
import pathlib

import pytest

import treegh.cli
import treegh.metric
from treegh import parse_tree, save_tree, space_from_csv, tree_from_edges
from treegh.cli import main

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
