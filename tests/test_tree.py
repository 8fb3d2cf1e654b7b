import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegh import (
    EmbedConfig,
    MetricTree,
    ReplacementEntry,
    ReplacementError,
    TreeStructureError,
    build_F,
    closed_ball_subtree,
    comb_tree,
    decompose_deg2,
    deg2_components,
    four_point_defect,
    geodesic,
    injectivity_scan,
    replace_edges,
    subdivide,
    tree_from_edges,
    wedge_sum,
)
from treegh.families import CombParams
from conftest import random_tree


def path_tree():
    return tree_from_edges([("a", "b", 1.0), ("b", "c", 1.0)])


def star3():
    return tree_from_edges([("c", "x", 1.0), ("c", "y", 0.7), ("c", "z", 0.3)])


# -- structure validation -----------------------------------------------------


def test_cycle_rejected_with_witness():
    with pytest.raises(TreeStructureError) as err:
        tree_from_edges([("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)])
    assert "cycle" in str(err.value)


def test_disconnected_rejected():
    with pytest.raises(TreeStructureError):
        MetricTree(("a", "b", "c", "d"), (("a", "b", 1.0), ("c", "d", 1.0)))


def test_bad_edges_rejected():
    with pytest.raises(TreeStructureError):
        tree_from_edges([("a", "a", 1.0)])
    with pytest.raises(TreeStructureError):
        tree_from_edges([("a", "b", 0.0)])
    with pytest.raises(TreeStructureError):
        tree_from_edges([("a", "b", -2.0)])
    with pytest.raises(TreeStructureError):
        tree_from_edges([("a", "b", math.inf)])
    with pytest.raises(TreeStructureError):
        MetricTree(("a", "b"), (("a", "c", 1.0),))


def test_single_vertex_tree():
    t = MetricTree(("v",), ())
    assert t.n == 1
    assert t.diameter() == 0.0


# -- distances ----------------------------------------------------------------


def test_path_distances_and_geodesic():
    t = path_tree()
    assert t.distance("a", "c") == 2.0
    assert t.distance("a", "b") == 1.0
    assert geodesic(t, "a", "c") == ["a", "b", "c"]
    assert t.eccentricity("b") == 1.0
    assert t.diameter() == 2.0
    assert t.total_edge_length() == 2.0


def test_as_space_matches_pairwise_distances():
    t = star3()
    sp = t.as_space()
    assert sp.labels == t.vertices
    assert sp.dist[sp.index("x"), sp.index("y")] == pytest.approx(1.7)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_random_trees_are_zero_hyperbolic(seed):
    t = random_tree(np.random.default_rng(seed), n_lo=2, n_hi=9)
    assert four_point_defect(t.as_space()) <= 1e-12


def _reference_all_pairs(tree):
    """One DFS per source vertex: the matrix fill the vectorized one replaced."""
    n = tree.n
    d = np.zeros((n, n))
    for s in range(n):
        row = d[s]
        seen = [False] * n
        seen[s] = True
        stack = [s]
        while stack:
            u = stack.pop()
            for v, w in tree._adj[u]:
                if not seen[v]:
                    seen[v] = True
                    row[v] = row[u] + w
                    stack.append(v)
    return d


def _differential_trees(small_config):
    rng = np.random.default_rng(20261018)
    for _ in range(40):
        t = random_tree(rng, n_lo=1, n_hi=80)
        order = list(t.vertices)
        rng.shuffle(order)
        yield MetricTree(order, t.edges)
    yield tree_from_edges(
        [("q%d" % i, "q%d" % (i + 1), float(rng.uniform(0.1, 1.0))) for i in range(70)]
    )
    yield tree_from_edges(
        [("c", "l%d" % i, float(rng.uniform(0.1, 1.0))) for i in range(70)],
        vertices=["l%d" % i for i in range(70)] + ["c"],
    )
    yield build_F(small_config, "g0_1", 1)


def test_vectorized_distances_match_reference(small_config):
    for t in _differential_trees(small_config):
        ref = _reference_all_pairs(t)
        for i, v in enumerate(t.vertices):
            assert np.abs(t.row(v) - ref[i]).max() <= 1e-12
        assert t._dist is None  # single-source queries leave the matrix unbuilt
        d = t.dist
        assert not d.flags.writeable
        assert np.abs(d - ref).max() <= 1e-12
        assert np.all(np.diag(d) == 0.0)
        for i, v in enumerate(t.vertices):
            assert np.array_equal(t.row(v), d[i])


def test_injectivity_scan_never_builds_a_matrix(small_config, monkeypatch):
    def refuse(self):
        raise AssertionError("built the %d x %d distance matrix" % (self.n, self.n))

    monkeypatch.setattr(MetricTree, "_all_pairs", refuse)
    cfg = EmbedConfig.from_document(small_config.to_document())
    cells = [(lab, k) for k in (1, 2) for lab in cfg.h_space.labels if lab not in cfg.marked]
    rep = injectivity_scan(cfg, cells)
    assert len(rep.rows) == len(cells)


# -- degree-<=2 components ----------------------------------------------------


def test_path_is_one_component():
    comps = deg2_components(path_tree())
    assert len(comps) == 1
    assert comps[0].closure_diameter == pytest.approx(2.0)


def test_star_components_meet_at_center():
    comps = deg2_components(star3())
    diams = sorted(c.closure_diameter for c in comps)
    assert diams == pytest.approx([0.3, 0.7, 1.0])
    for c in comps:
        assert "c" in (c.closure_path[0], c.closure_path[-1])


def test_decompose_covers_delimiter_edge():
    # an edge joining two branch vertices belongs to no degree-<=2
    # component, but it still has to be chunked
    t = tree_from_edges(
        [
            ("c1", "x", 1.0),
            ("c1", "y", 1.0),
            ("c1", "c2", 0.8),
            ("c2", "u", 1.0),
            ("c2", "v", 1.0),
        ]
    )
    dec = decompose_deg2(t, max_len=1.0)
    spans = {(s.a, s.b) for s in dec.segments}
    assert ("c1", "c2") in spans or ("c2", "c1") in spans
    total = sum(s.length for s in dec.segments)
    assert total == pytest.approx(t.total_edge_length())


def test_decompose_respects_max_len():
    t = tree_from_edges([("a", "b", 2.5)])
    dec = decompose_deg2(t, max_len=1.0)
    assert len(dec.segments) == 3
    assert all(s.length <= 1.0 + 1e-9 for s in dec.segments)
    assert sum(s.length for s in dec.segments) == pytest.approx(2.5)
    # chunk boundaries are real vertices of the refined host tree
    for s in dec.segments:
        assert dec.tree.distance(s.a, s.b) == pytest.approx(s.length)


# -- balls --------------------------------------------------------------------


def test_ball_cuts_edges_at_radius():
    t = path_tree()
    ball = closed_ball_subtree(t, "a", 1.5)
    assert ball.has_vertex("a") and ball.has_vertex("b")
    assert not ball.has_vertex("c")
    ecc = max(ball.distance("a", v) for v in ball.vertices)
    assert ecc == pytest.approx(1.5)


def test_ball_degenerate_radii():
    t = path_tree()
    assert closed_ball_subtree(t, "b", 0.0).n == 1
    assert closed_ball_subtree(t, "b", math.inf) is t
    assert closed_ball_subtree(t, "b", 10.0) is t


def test_ball_radius_monotone_hausdorff():
    rng = np.random.default_rng(11)
    t = random_tree(rng, n_lo=5, n_hi=9, scale=2.0)
    o = t.vertices[0]
    for r, rp in [(0.5, 0.9), (1.0, 1.1), (0.2, 1.4)]:
        big = closed_ball_subtree(t, o, max(r, rp))
        # every point of the bigger ball is within |r - r'| of the smaller
        # one; in a tree that distance is radial
        worst = max(
            max(0.0, big.distance(o, v) - min(r, rp)) for v in big.vertices
        )
        assert worst <= abs(r - rp) + 1e-9


# -- wedge sums ---------------------------------------------------------------


def test_wedge_preserves_part_distances():
    t1, t2 = path_tree(), star3()
    w = wedge_sum([(t1, "a"), (t2, "c")])
    assert w.has_vertex("p")
    # within-part distances are bitwise equal to the inputs
    assert w.distance("P0.b", "P0.c") == t1.distance("b", "c")
    assert w.distance("P1.x", "P1.y") == t2.distance("x", "y")
    # cross distances run through the wedge point
    assert w.distance("P0.c", "P1.x") == pytest.approx(
        t1.distance("a", "c") + t2.distance("c", "x")
    )
    assert w.distance("p", "P1.z") == pytest.approx(0.3)


def test_wedge_requires_known_basepoints():
    with pytest.raises(TreeStructureError):
        wedge_sum([(path_tree(), "nope"), (star3(), "c")])


# -- edge replacement ---------------------------------------------------------


def test_replace_edge_by_comb_keeps_span():
    t = path_tree()
    comb = comb_tree(CombParams(s=0.5, scale=1.0))
    entry = ReplacementEntry(
        a="a", b="b", tree=comb, alpha="spine:0.0", beta="spine:1.0"
    )
    out = replace_edges(t, [entry])
    assert out.distance("a", "b") == pytest.approx(1.0)
    assert out.distance("a", "c") == pytest.approx(2.0)
    assert out.n == t.n + comb.n - 2


def test_replace_rejects_span_mismatch():
    t = path_tree()
    comb = comb_tree(CombParams(s=0.5, scale=0.5))
    entry = ReplacementEntry(
        a="a", b="b", tree=comb, alpha="spine:0.0", beta="spine:1.0"
    )
    with pytest.raises(ReplacementError):
        replace_edges(t, [entry])


def test_replace_rejects_branching_host_interior():
    # the host geodesic a..b runs through c, which has a third branch
    # hanging off it: only plain degree-2 interiors may be cut out
    host = tree_from_edges(
        [("a", "c", 1.0), ("c", "b", 1.0), ("c", "d", 0.5)]
    )
    patch = tree_from_edges([("x", "m", 1.0), ("m", "y", 1.0)])
    entry = ReplacementEntry(a="a", b="b", tree=patch, alpha="x", beta="y")
    with pytest.raises(ReplacementError):
        replace_edges(host, [entry])


def test_replacement_patch_may_branch():
    # substituting a geodesic by a tree with matching marked span is the
    # whole point: the patch is allowed to carry extra branches
    host = tree_from_edges([("a", "b", 1.7), ("b", "t", 0.4)])
    entry = ReplacementEntry(a="a", b="b", tree=star3(), alpha="x", beta="y")
    out = replace_edges(host, [entry])
    assert out.distance("a", "b") == pytest.approx(1.7)
    assert out.distance("a", "t") == pytest.approx(2.1)
    assert out.has_vertex("R0.z")
    assert out.distance("a", "R0.z") == pytest.approx(1.3)


# -- subdivision --------------------------------------------------------------


def test_subdivide_reaches_resolution_and_preserves_distances():
    t = star3()
    fine = subdivide(t, 0.25)
    assert all(w <= 0.25 + 1e-12 for _, _, w in fine.edges)
    for u in t.vertices:
        for v in t.vertices:
            assert abs(fine.distance(u, v) - t.distance(u, v)) <= 1e-12


def test_subdivide_noop_returns_same_tree():
    t = path_tree()
    assert subdivide(t, 2.0) is t
