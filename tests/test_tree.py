import dataclasses
import math
import tracemalloc
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegh import (
    Deg2Component,
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
    refine_at_radius,
    replace_edges,
    subdivide,
    tree_from_edges,
    wedge_sum,
)
from treegh import gh as treegh_gh
from treegh import tree as tree_module
from treegh.embedding import _Stages, scalar_fields
from treegh.families import CombParams
from treegh.io import tree_from_document, tree_to_document
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


def test_duplicate_ids_are_named():
    # a long vertex list with repeats is rejected in linear time
    names = ["v%d" % i for i in range(50_000)] + ["v9", "v2", "v9", "v40"]
    with pytest.raises(TreeStructureError, match=r"duplicate vertex ids: \['v2', 'v40', 'v9'\]"):
        MetricTree(names, ())


def test_single_vertex_tree():
    t = MetricTree(("v",), ())
    assert t.n == 1
    assert t.diameter() == 0.0


def _reference_validate(vertices, edges):
    """The union-find validator the single counting walk replaced."""
    vertices = tuple(str(v) for v in vertices)
    edges = tuple((str(a), str(b), float(w)) for a, b, w in edges)
    index = {v: i for i, v in enumerate(vertices)}
    if len(vertices) == 0:
        raise TreeStructureError("a tree needs at least one vertex")
    if len(index) != len(vertices):
        raise TreeStructureError("duplicate vertex ids")
    parent = list(range(len(vertices)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b, w in edges:
        if a not in index or b not in index:
            raise TreeStructureError("edge (%s, %s) references unknown vertex" % (a, b))
        if a == b:
            raise TreeStructureError("self-loop at vertex %s" % a)
        if not (w > 0) or not math.isfinite(w):
            raise TreeStructureError(
                "edge (%s, %s) must have positive finite length, got %r" % (a, b, w)
            )
        ra, rb = find(index[a]), find(index[b])
        if ra == rb:
            raise TreeStructureError("cycle detected")
        parent[ra] = rb
    if len({find(i) for i in range(len(vertices))}) > 1:
        raise TreeStructureError("tree is disconnected")


def _edge_lists(rng, count):
    """Seeded (vertices, edges) inputs: valid trees and one defect each."""
    defects = (
        None, "extra", "duplicate", "loop", "zero", "negative", "inf", "nan",
        "unknown", "forest", "forest+cycle", "dupe-id",
    )
    for i in range(count):
        defect = defects[i % len(defects)]
        n = int(rng.integers(1 if defect in (None, "unknown", "dupe-id") else 3, 30))
        names = ["v%d" % j for j in range(n)]
        edges = [
            (names[int(rng.integers(0, j))], names[j], float(rng.uniform(0.1, 2.0)))
            for j in range(1, n)
        ]
        edges = [(b, a, w) if rng.random() < 0.5 else (a, b, w) for a, b, w in edges]
        rng.shuffle(edges)
        if defect == "extra":
            a, b = rng.choice(n, size=2, replace=False)
            edges.insert(int(rng.integers(0, n)), (names[a], names[b], 1.0))
        elif defect == "duplicate":
            edges.insert(int(rng.integers(0, n)), edges[int(rng.integers(0, n - 1))])
        elif defect == "loop":
            v = names[int(rng.integers(0, n))]
            edges.insert(int(rng.integers(0, n)), (v, v, 1.0))
        elif defect in ("zero", "negative", "inf", "nan"):
            k = int(rng.integers(0, n - 1))
            bad = {"zero": 0.0, "negative": -0.5, "inf": math.inf, "nan": math.nan}[defect]
            edges[k] = edges[k][:2] + (bad,)
        elif defect == "unknown":
            edges.insert(int(rng.integers(0, n)), (names[0], "ghost", 1.0))
        elif defect in ("forest", "forest+cycle"):
            edges.pop(int(rng.integers(0, n - 1)))
            if defect == "forest+cycle" and edges:
                edges.append(edges[int(rng.integers(0, len(edges)))])
        elif defect == "dupe-id":
            names.append(names[-1])
        rng.shuffle(names)
        yield names, edges


def _failure(build):
    try:
        build()
    except Exception as exc:  # any type: the tests compare it
        msg = str(exc)
        for kind in ("cycle detected", "tree is disconnected"):
            if msg.startswith(kind):
                return type(exc), kind
        return type(exc), msg.split(":")[0]
    return None


def test_validation_matches_the_union_find_reference():
    rng = np.random.default_rng(7_2026)
    rejected = 0
    for names, edges in _edge_lists(rng, 600):
        want = _failure(lambda: _reference_validate(names, edges))
        got = _failure(lambda: MetricTree(names, edges))
        assert got == want, (names, edges)
        rejected += want is not None
    assert 400 <= rejected < 600


def test_cycle_witness_is_a_closed_edge_path():
    rng = np.random.default_rng(11)
    for names, edges in _edge_lists(rng, 240):
        try:
            MetricTree(names, edges)
        except TreeStructureError as exc:
            msg = str(exc)
            if not msg.startswith("cycle detected: "):
                continue
            cycle = msg[len("cycle detected: "):].split(" -> ")
            assert cycle[0] == cycle[-1] and len(cycle) >= 3
            hops = list(zip(cycle, cycle[1:]))
            pairs = [frozenset(e[:2]) for e in edges]
            for a, b in hops:
                assert frozenset((a, b)) in pairs
            # a cycle uses each edge once: a two-hop cycle needs a doubled edge
            for hop in {frozenset(h) for h in hops}:
                assert pairs.count(hop) >= sum(frozenset(h) == hop for h in hops)


# -- distances ----------------------------------------------------------------


def test_path_distances_and_geodesic():
    t = path_tree()
    assert t.distance("a", "c") == 2.0
    assert t.distance("a", "b") == 1.0
    assert geodesic(t, "a", "c") == ["a", "b", "c"]
    assert t.eccentricity("b") == 1.0
    assert t.diameter() == 2.0
    assert t.total_edge_length() == 2.0


def test_total_edge_length_is_cached_unchanged():
    t = star3()
    for tree in (t, subdivide(t, 0.3)):
        first = tree.total_edge_length()
        assert first == float(sum(w for _, _, w in tree.edges))
        assert tree.total_edge_length() is first


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


def _reference_fill(tree):
    """The fill with a preorder matrix put in vertex order by one fancy-index
    copy, where the fill writes its rows in vertex order in place: each
    preorder row of 2 depth lca is its parent's with the child's subtree
    overwritten, and each entry is (depth u + depth v) - 2 depth lca."""
    n = tree.n
    order = []
    parent = [0] * n
    up = [0.0] * n
    seen = [False] * n
    seen[0] = True
    stack = [0]
    while stack:
        u = stack.pop()
        for v, w in tree._adj[u]:
            if not seen[v]:
                seen[v] = True
                parent[v] = len(order)
                up[v] = w
                stack.append(v)
        order.append(u)
    size = [1] * n
    for i in range(n - 1, 0, -1):
        size[parent[order[i]]] += size[i]
    depth = np.zeros(n)
    for i in range(1, n):
        v = order[i]
        depth[i] = depth[parent[v]] + up[v]
    pre = np.zeros((n, n), dtype=float)
    for i in range(1, n):
        v = order[i]
        pre[i] = pre[parent[v]]
        pre[i, i:i + size[i]] = 2.0 * depth[i]
    inv = np.argsort(order)
    return (depth[inv][:, None] + depth[inv][None, :]) - pre[np.ix_(inv, inv)]


def _large_cell(small_config):
    # The cell's sample at its eps, which is what the scans read.
    eps = 2.0 ** -6
    tree = subdivide(build_F(dataclasses.replace(small_config, eps=eps), "g0_2", 1), eps)
    assert tree.n >= 700
    return tree


def test_fill_is_bitwise_the_preorder_copy_fill(small_config):
    for t in list(_differential_trees(small_config)) + [_large_cell(small_config)]:
        assert np.array_equal(t.dist, _reference_fill(t))


# The continuity-scan benchmark's seed-1 grid (its seeded edge lengths; fiber 1).
BENCH_SEED1_TREES = (
    tree_from_edges([("a", "b", 0.7793660573329088)]),
    tree_from_edges([("x", "y", 0.7223527950177351), ("y", "z", 0.7179996517568769)]),
)


def _walk_trees(small_config):
    """Seeded random trees, the seed-1 continuity samples, a star, a long
    path, a single vertex and vertices whose children have equal sizes."""
    yield from _differential_trees(small_config)
    cfg = dataclasses.replace(small_config, trees=BENCH_SEED1_TREES, m=3, eps=2.0 ** -6)
    for lab in cfg.h_space.labels:
        if lab not in cfg.marked:
            yield subdivide(build_F(cfg, lab, 1), cfg.eps)
    rng = np.random.default_rng(4242)
    yield tree_from_edges([("c", "l%d" % i, float(rng.uniform(0.1, 1.0))) for i in range(40)])
    yield tree_from_edges(
        [("q%d" % i, "q%d" % (i + 1), float(rng.uniform(0.1, 1.0))) for i in range(1500)]
    )
    yield MetricTree(("v",), ())
    # a complete ternary tree of depth 4 and a spider of four equal legs
    yield tree_from_edges(
        [("t%d" % ((i - 1) // 3), "t%d" % i, float(rng.uniform(0.1, 1.0))) for i in range(1, 121)]
    )
    yield tree_from_edges(
        [("h" if j == 0 else "g%d.%d" % (leg, j - 1), "g%d.%d" % (leg, j), 0.1 * (j + 1))
         for leg in range(4) for j in range(6)]
    )


def test_depth_rows_equal_the_fill_bit_for_bit(small_config):
    # rows of chosen sources with no fill, whichever sources and in
    # whatever order they are asked for
    rng = np.random.default_rng(2127)
    for t in _walk_trees(small_config):
        fill = MetricTree(t.vertices, t.edges).dist[:, t._preorder().order]
        subsets = [np.arange(t.n), np.array([], dtype=np.intp), np.array([t.n - 1])]
        subsets += [np.flatnonzero(rng.random(t.n) < p) for p in (0.03, 0.2, 0.6)]
        for rows in subsets:
            rows = rng.permutation(rows)
            got = t._depth_rows(rows)
            assert got.shape == (len(rows), t.n)
            assert np.array_equal(got.view(np.int64), fill[rows].view(np.int64)), t
        assert t._dist is None  # no matrix is filled


def test_distance_equals_the_fill_bit_for_bit(small_config):
    # each entry from the least parent depth between two preorder
    # positions, on plain and subdivided seeded trees and on the walk's
    # trees, with no fill; then read from the fill
    rng = np.random.default_rng(7070)
    trees = []
    for _ in range(40):
        t = random_tree(rng, 4, 12, 3.0)
        trees += [t, subdivide(t, 0.3)]
    trees += list(_walk_trees(small_config))
    for t in trees:
        fresh = MetricTree(t.vertices, t.edges)
        # every entry of a small tree, some hundreds of a large one
        src, dst = np.divmod(rng.permutation(t.n * t.n)[:300], t.n)
        pairs = [(fresh.vertices[i], fresh.vertices[j]) for i, j in zip(src.tolist(), dst.tolist())]
        got = [fresh.distance(a, b).hex() for a, b in pairs]
        assert fresh._dist is None
        assert got == [float(v).hex() for v in fresh.dist[src, dst].tolist()], t
        assert got == [fresh.distance(a, b).hex() for a, b in pairs]


def test_degenerate_distortion_holds_a_block_of_rows():
    # Every entry of an isometric pair under an isometry is 0, so every row
    # is read; they are read from depth rows a block at a time, so memory
    # stays far below the full product.
    x = subdivide(comb_tree(CombParams(s=0.5)), 2.0 ** -10)
    y = MetricTree(x.vertices, x.edges)
    assert x.n == 2561
    ident = treegh_gh.Correspondence.from_pairs([(i, i) for i in range(x.n)])
    x._preorder(), y._preorder(), x._depth_minima(), y._depth_minima()
    tracemalloc.start()
    try:
        value = treegh_gh.distortion(x, y, ident)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 0.0 and x._dist is None and y._dist is None
    assert peak < x.n * x.n * 8 / 8, peak


def test_rows_beyond_the_budget_are_refused(monkeypatch):
    t = tree_from_edges([("a", "b", 1.0), ("b", "c", 1.0), ("b", "d", 1.0)])
    monkeypatch.setattr(tree_module, "_MAX_ROW_ENTRIES", 4 * 2)
    t._refuse_rows(2)
    message = "^3 distance rows of a tree of 4 vertices would hold 12 distances; at most 8 are read$"
    with pytest.raises(ValueError, match=message):
        t._refuse_rows(3)
    # an isometric pair reads every row, so it is refused before any is read
    def read(*args):
        raise AssertionError("read a row")

    monkeypatch.setattr(treegh_gh, "_depth_mismatch", read)
    ident = treegh_gh.Correspondence.from_pairs([(i, i) for i in range(4)])
    with pytest.raises(ValueError, match="^4 distance rows of a tree of 4 vertices"):
        treegh_gh.distortion(t, MetricTree(t.vertices, t.edges), ident)


def test_depth_rows_build_their_block_minima_once():
    # the minima over runs of whole blocks are read per source, so a call
    # holds O(n) per source where a table of them held (n / 64)**2 entries
    rng = np.random.default_rng(3)
    n = 1 << 16
    parent = np.maximum(0, np.arange(1, n) - rng.integers(1, 4, size=n - 1))
    t = tree_from_edges([("v%d" % (i + 1), "v%d" % p, 1.0) for i, p in enumerate(parent)])
    t._depth_rows(np.array([0]))
    minima = t._depth_minima()
    tracemalloc.start()
    try:
        t._depth_rows(np.array([n // 3]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t._depth_minima() is minima
    assert peak < 8 * n * 8, peak


def test_depth_rows_are_within_their_proven_error(small_config, monkeypatch):
    rng = np.random.default_rng(515)
    for block in (1, 3, 64):
        monkeypatch.setattr(tree_module, "_DEPTH_BLOCK", block)
        for t in _walk_trees(small_config):
            rows = rng.integers(0, t.n, size=int(rng.integers(1, 12)))
            got = t._depth_rows(rows)
            fill = t.dist[rows][:, t._preorder().order]
            err = np.abs(got - fill).max()
            # depth rows within 4n units of 2**-53 L, fill entries 2(n - 1)
            assert err <= 6 * t.n * 2.0 ** -53 * t.total_edge_length(), (t, err)
            assert np.all(got[np.arange(len(rows)), t._preorder().pos[rows]] == 0.0)


def test_depth_rows_equal_their_formula_bit_for_bit(small_config, monkeypatch):
    # each entry is (depth[u] + depth[v]) - 2 depth[lca], with the lowest
    # common ancestor found by climbing parents: whatever the block size,
    # and for sources at the ends of blocks and of the preorder
    rng = np.random.default_rng(5151)
    for block in (1, 3, 64):
        monkeypatch.setattr(tree_module, "_DEPTH_BLOCK", block)
        for t in _walk_trees(small_config):
            pre = t._preorder()
            picks = [0, t.n - 1, min(block, t.n - 1), min(2 * block - 1, t.n - 1)]
            at = np.array(picks + rng.integers(0, t.n, size=4).tolist())
            got = t._depth_rows(np.array(pre.order)[at])
            for k, a in enumerate(at.tolist()):
                line, p = set(), a
                while p >= 0:
                    line.add(p)
                    p = int(pre.parent[p])
                for b in rng.integers(0, t.n, size=40).tolist() + [a, 0, t.n - 1]:
                    c = b
                    while c not in line:
                        c = int(pre.parent[c])
                    want = (pre.depth[a] + pre.depth[b]) - 2.0 * pre.depth[c]
                    assert got[k, b].hex() == float(want).hex(), (t, block, a, b)


def test_distances_do_not_change_once_dist_is_read():
    # Every reader gives the formula's floats, so nothing moves when the
    # matrix is filled; the matrix is bit-symmetric with a zero diagonal.
    rng = np.random.default_rng([7070, 2])
    for _ in range(200):
        t = random_tree(rng, 4, 20, 3.0)
        names = t.vertices

        def read():
            return (
                [[v.hex() for v in t.row(a).tolist()] for a in names],
                [t.eccentricity(a).hex() for a in names],
                t.diameter().hex(),
                [[t.distance(a, b).hex() for b in names] for a in names],
            )

        before = read()
        assert t._dist is None
        d = t.dist
        assert d.tobytes() == d.T.tobytes() and not np.diag(d).any()
        assert read() == before
        assert [v.hex() for v in t.eccentricities().tolist()] == before[1]
        assert before[0] == [[v.hex() for v in line] for line in d.tolist()]


def _exact_distances(tree):
    """Every path distance of ``tree`` as a Fraction, summed exactly over
    the edge lengths from each source, and the number of edges between
    each two vertices."""
    n = tree.n
    out = [[Fraction(0)] * n for _ in range(n)]
    steps = [[0] * n for _ in range(n)]
    for s in range(n):
        row, hops = out[s], steps[s]
        for v, p, w in tree._walk(s):
            if p >= 0:
                row[v] = row[p] + Fraction(w)
                hops[v] = hops[p] + 1
    return out, steps


def test_distances_are_within_the_formula_error_of_exact():
    # (depth u + depth v) - 2 depth lca is within k + 3 units of 2**-53 L
    # of the exact distance, for k edges between u and v and L the total
    # length (see MetricTree._depth_rows; the factor covers second-order
    # terms); lengths here are not dyadic
    rng = np.random.default_rng([7070, 3])
    worst = 0.0
    for _ in range(200):
        t = random_tree(rng, 2, 40, float(rng.choice([0.3, 3.0, 1e5])))
        unit = Fraction(2) ** -53 * sum(Fraction(w) for *_, w in t.edges) * (1 + Fraction(2) ** -40)
        exact, steps = _exact_distances(t)
        for got, want, hops in zip(t.dist.tolist(), exact, steps):
            for g, e, k in zip(got, want, hops):
                err = abs(Fraction(g) - e) / unit
                assert err <= k + 3, (t, g, e, k)
                worst = max(worst, float(err))
    assert worst > 1  # some sums round


def _loop_depths(parent, weight):
    """The plain loop the runs of _depths replaced."""
    depth = [0.0] * len(parent)
    for i in range(1, len(parent)):
        depth[i] = depth[parent[i]] + weight[i]
    return depth


def test_spliced_depths_equal_the_loop_bit_for_bit():
    rng = np.random.default_rng(1212)
    samples = []
    for _ in range(30):
        t = random_tree(rng, 2, 30, float(rng.choice([0.3, 1.0, 3.0])))
        samples += [subdivide(t, eps) for eps in (0.3, 2.0 ** -4, 2.0 ** -8)]
    samples += [subdivide(comb_tree(CombParams(s=s)), 2.0 ** -10) for s in (0.5, 0.375)]
    for t in samples:
        pre = t._preorder()
        want = _loop_depths(pre.parent.tolist(), pre.weight)
        assert [v.hex() for v in pre.depth.tolist()] == [v.hex() for v in want]
        got = tree_module._depths(pre.parent, pre.weight)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]


def test_fill_holds_one_matrix(small_config):
    t = _large_cell(small_config)
    tracemalloc.start()
    try:
        t.dist
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * t.n * t.n * 8, (peak, t.n)


def test_eccentricities_equal_the_spaces_before_and_after_dist(small_config):
    # The fill's row maxima: the same floats as the space's.
    for t in list(_differential_trees(small_config)) + [_large_cell(small_config)]:
        got = t.eccentricities()
        want = t.as_space().eccentricities()
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_diameter_takes_two_rows(small_config):
    for t in _differential_trees(small_config):
        want = _reference_all_pairs(t).max()
        assert abs(t.diameter() - want) <= 1e-12
        assert t._dist is None


def test_geodesic_matches_per_source_search(small_config):
    rng = np.random.default_rng(5)
    for t in _differential_trees(small_config):
        for _ in range(10):
            x, y = (t.vertices[int(i)] for i in rng.integers(0, t.n, size=2))
            prev = {x: None}
            stack = [x]
            while stack:
                u = stack.pop()
                for v, _ in t.neighbors(u):
                    if v not in prev:
                        prev[v] = u
                        stack.append(v)
            want = [y]
            while want[-1] != x:
                want.append(prev[want[-1]])
            assert geodesic(t, x, y) == want[::-1]


def test_injectivity_scan_never_builds_a_matrix(small_config, monkeypatch):
    def refuse(self):
        raise AssertionError("built the %d x %d distance matrix" % (self.n, self.n))

    monkeypatch.setattr(MetricTree, "_all_pairs", refuse)
    cfg = EmbedConfig.from_document(small_config.to_document())
    cells = [(lab, k) for k in (1, 2) for lab in cfg.h_space.labels if lab not in cfg.marked]
    rep = injectivity_scan(cfg, cells)
    assert len(rep.rows) == len(cells)


# -- degree-<=2 components ----------------------------------------------------


def _reference_deg2_components(tree):
    """The string-id component search that the integer walk replaced."""
    low = [v for v in tree.vertices if tree.degree(v) <= 2]
    low_set = set(low)
    comps = []
    seen = set()
    for v in low:
        if v in seen:
            continue
        comp = [v]
        seen.add(v)
        stack = [v]
        while stack:
            u = stack.pop()
            for nb, _ in tree.neighbors(u):
                if nb in low_set and nb not in seen:
                    seen.add(nb)
                    comp.append(nb)
                    stack.append(nb)
        comps.append(comp)
    out = []
    for comp in comps:
        cset = set(comp)
        if len(comp) == 1:
            ordered = comp
            outside = [nb for nb, _ in tree.neighbors(comp[0]) if nb not in cset]
            head_delims = outside[:1]
            tail_delims = outside[1:2]
        else:
            ends = [
                v for v in comp
                if sum(1 for nb, _ in tree.neighbors(v) if nb in cset) <= 1
            ]
            ordered = [min(ends)]
            prev = None
            while True:
                nxts = [
                    nb for nb, _ in tree.neighbors(ordered[-1])
                    if nb in cset and nb != prev
                ]
                if not nxts:
                    break
                prev = ordered[-1]
                ordered.append(nxts[0])
            head_delims = [nb for nb, _ in tree.neighbors(ordered[0]) if nb not in cset]
            tail_delims = [nb for nb, _ in tree.neighbors(ordered[-1]) if nb not in cset]
        closure = head_delims[:1] + ordered + tail_delims[:1]
        if closure[0] > closure[-1]:
            closure = closure[::-1]
            ordered = ordered[::-1]
        out.append(
            Deg2Component(
                vertices=tuple(ordered),
                delimiters=tuple(sorted(set(head_delims[:1] + tail_delims[:1]))),
                closure_path=tuple(closure),
                closure_diameter=tree._path_length(closure),
            )
        )
    out.sort(key=lambda c: c.closure_path)
    return out


def test_deg2_components_match_string_reference(small_config, inject_scan_grids):
    rng = np.random.default_rng(20261019)
    trees = list(_differential_trees(small_config))
    trees += [random_tree(rng, n_lo=1, n_hi=60) for _ in range(200)]
    trees += [MetricTree(("v",), ()), tree_from_edges([("a", "b", 0.5)])]
    trees += [path_tree(), star3(), _large_cell(small_config)]
    trees += [build_F(small_config, lab, 2) for lab in ("g0_1", "g1_1", "g2_0")]
    trees += [build_F(cfg, lab, k) for cfg, cells in inject_scan_grids for lab, k in cells]
    for t in trees:
        assert deg2_components(t) == _reference_deg2_components(t)


def test_components_with_a_branch_vertex_equal_the_wedge_parts():
    # Glued to two tripod legs at b, a tree's part of the wedge has the
    # components of the tree alone with b made a branch vertex, under the
    # wedge's ids; the walk sees only b's degree change.
    rng = np.random.default_rng(20261020)
    tripod = star3()
    checked = 0
    for _ in range(60):
        t = random_tree(rng, n_lo=1, n_hi=30)
        for b in t.vertices:
            w = wedge_sum([(t, b), (tripod, "x"), (tripod, "z")])
            names = ["p" if v == b else "P0." + v for v in t.vertices]
            got = tree_module._components(t._adj, names, t.index(b))
            mine = [
                c for c in deg2_components(w)
                if all(v == "p" or v.startswith("P0.") for v in c.closure_path)
            ]
            assert got == mine
            checked += len(got)
    assert checked > 1000
    # Without a branch vertex, the components of the tree itself.
    t = random_tree(rng, n_lo=5, n_hi=30)
    assert tree_module._components(t._adj, t.vertices) == deg2_components(t)


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


def test_decompose_refuses_too_many_chunk_boundaries():
    # Counted before any is placed: from an offset of 2**53 max_len on,
    # placing the next boundary would not advance along the edge.
    with pytest.raises(
        ValueError,
        match=r"^chopping at max_len=1\.0 would place 1152921504606846976 chunk "
        r"boundaries, more than 1048576$",
    ):
        decompose_deg2(tree_from_edges([("a", "b", 2.0 ** 60)]), 1.0)
    two = tree_from_edges([("a", "b", 2.0 ** 19 + 1.5), ("b", "c", 2.0 ** 19 + 1.5), ("b", "d", 1.0)])
    with pytest.raises(ValueError, match="would place 1048578 chunk boundaries"):
        decompose_deg2(two, 1.0)
    assert decompose_deg2(tree_from_edges([("a", "b", 1024.0)]), 1.0).tree.n == 1025


def test_chop_ids_are_fresh(small_config):
    # chunk-boundary ids start past the chop:k ids the tree already has
    t = tree_from_edges([("a", "b", 2.5)])
    once = decompose_deg2(t, 1.0).tree
    assert list(once.metadata["inserted"]) == ["chop:0", "chop:1"]
    twice = decompose_deg2(once, 0.3)
    assert list(twice.tree.metadata["inserted"])[:2] == ["chop:2", "chop:3"]
    assert twice.tree.n == once.n + 8
    named = tree_from_edges([("chop:0", "b", 2.5)])
    assert sorted(decompose_deg2(named, 1.0).tree.metadata["inserted"]) == ["chop:1", "chop:2"]
    cfg = dataclasses.replace(
        small_config, trees=(named, small_config.trees[1]), basepoints=("chop:0", "x")
    )
    # the same tree with an id that sorts after "b" as well
    plain = dataclasses.replace(
        cfg, trees=(tree_from_edges([("z", "b", 2.5)]), cfg.trees[1]), basepoints=("z", "x")
    )
    got, want = build_F(cfg, "g1_1", 1), build_F(plain, "g1_1", 1)
    assert got.n == want.n
    assert sorted(w for *_, w in got.edges) == sorted(w for *_, w in want.edges)


# -- balls --------------------------------------------------------------------


def test_ball_cuts_edges_at_radius():
    t = path_tree()
    # about "c", the crossed edge (a, b) runs from its farther end
    for origin, kept, cut_from in (("a", "b", "c"), ("c", "b", "a")):
        ball = closed_ball_subtree(t, origin, 1.25)
        assert ball.has_vertex(origin) and ball.has_vertex(kept)
        assert not ball.has_vertex(cut_from)
        ecc = max(ball.distance(origin, v) for v in ball.vertices)
        assert ecc == pytest.approx(1.25)


def test_ball_degenerate_radii():
    t = path_tree()
    assert closed_ball_subtree(t, "b", 0.0).n == 1
    assert closed_ball_subtree(t, "b", math.inf) is t
    assert closed_ball_subtree(t, "b", 10.0) is t


def test_ball_and_refine_refuse_a_nan_or_negative_radius():
    # A NaN radius kept no vertex: a tree the constructor would refuse.
    t = path_tree()
    for fn in (closed_ball_subtree, refine_at_radius):
        for r, shown in ((math.nan, "nan"), (-0.5, "-0.5")):
            with pytest.raises(ValueError, match="radius must be nonnegative, got %s" % shown):
                fn(t, "a", r)
        assert fn(t, "a", math.inf) is t  # an infinite radius keeps its meaning
    assert refine_at_radius(t, "a", 1.5).n == 4


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


def _reference_wedge_sum(parts):
    """The wedge that renamed through one closure per part, which the
    dict-renaming wedge replaced."""
    if len(parts) == 1:
        return parts[0][0]
    vertices, edges, labels, meta_parts = ["p"], [], {}, []
    for i, (t, bp) in enumerate(parts):
        prefix = "P%d." % i
        meta_parts.append({"prefix": prefix, "basepoint": bp})

        def rename(v, bp=bp, prefix=prefix):
            return "p" if v == bp else prefix + v

        for v in t.vertices:
            if v != bp:
                vertices.append(rename(v))
        for a, b, w in t.edges:
            edges.append((rename(a), rename(b), w))
        for k, v in t.labels.items():
            labels[rename(k)] = v
    meta = {"generator": "wedge", "parts": meta_parts, "wedge_vertex": "p"}
    return MetricTree(vertices, edges, labels=labels, metadata=meta)


def test_wedge_matches_closure_reference():
    rng = np.random.default_rng(4)
    for _ in range(60):
        parts = []
        for _ in range(int(rng.integers(1, 6))):
            t = random_tree(rng, n_lo=1, n_hi=12)
            labelled = [v for v in t.vertices if rng.random() < 0.4]
            t = MetricTree(t.vertices, t.edges, labels={v: "L" + v for v in labelled})
            parts.append((t, t.vertices[int(rng.integers(0, t.n))]))
        got, want = wedge_sum(parts), _reference_wedge_sum(parts)
        assert (got.vertices, got.edges) == (want.vertices, want.edges)
        assert (got.labels, got.metadata) == (want.labels, want.metadata)


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


# The checked way to put vertices on edges: a rebuild through the
# constructor and its tree proof.  The trusted builder must match it.
def _insert_points(
    tree: MetricTree,
    points: Sequence[Tuple[str, str, float, str]],
    generator: str,
    extra_metadata: Optional[dict] = None,
) -> MetricTree:
    """Rebuild a tree with new vertices on edges.

    ``points`` holds ``(u, v, offset, new_id)`` with offset measured from
    ``u`` along the edge (u, v); multiple insertions per edge are allowed.
    """
    per_edge: Dict[Tuple[str, str], List[Tuple[float, str]]] = {}
    edge_key = {}
    for a, b, w in tree.edges:
        edge_key[(a, b)] = (a, b, w)
        edge_key[(b, a)] = (a, b, w)
    for u, v, off, new_id in points:
        if (u, v) not in edge_key:
            raise TreeStructureError("no edge (%s, %s) to insert into" % (u, v))
        a, b, w = edge_key[(u, v)]
        off_a = off if (u, v) == (a, b) else w - off
        per_edge.setdefault((a, b), []).append((off_a, new_id))

    new_edges: List[Tuple[str, str, float]] = []
    order: List[str] = list(tree.vertices)
    inserted: Dict[str, Tuple[str, str, float]] = {}
    for a, b, w in tree.edges:
        if (a, b) not in per_edge:
            new_edges.append((a, b, w))
            continue
        cuts = sorted(per_edge[(a, b)])
        prev_id, prev_off = a, 0.0
        for off, new_id in cuts:
            if not (0.0 < off < w):
                raise TreeStructureError(
                    "insertion offset %r outside edge (%s, %s) of length %r"
                    % (off, a, b, w)
                )
            new_edges.append((prev_id, new_id, off - prev_off))
            order.append(new_id)
            inserted[new_id] = (a, b, off)
            prev_id, prev_off = new_id, off
        new_edges.append((prev_id, b, w - prev_off))
    meta = {"generator": generator, "inserted": inserted}
    meta.update(extra_metadata or {})
    return MetricTree(order, new_edges, labels=dict(tree.labels), metadata=meta)


def reference_subdivide(tree, eps):
    # The point-list path that subdivide replaced: one insertion record per
    # vertex, then a rebuild through _insert_points and the tree proof.
    points = []
    for a, b, w in tree.edges:
        if w <= eps * (1 + 1e-12):
            continue
        k = int(math.ceil(w / eps - 1e-12))
        for j in range(1, k):
            points.append((a, b, w * j / k, "sub:%d" % len(points)))
    if not points:
        return tree
    return _insert_points(tree, points, generator="subdivide", extra_metadata={"eps": eps})


def test_subdivide_equals_the_insert_points_reference():
    rng = np.random.default_rng(12)
    sampled = 0
    for trial in range(320):
        t = random_tree(rng, 1, 14, scale=float(rng.choice([0.3, 1.0, 3.0])))
        lengths = [w for _, _, w in t.edges] or [1.0]
        w = lengths[int(rng.integers(len(lengths)))]
        # eps on and next to the "w <= eps (1 + 1e-12)" boundary of one edge,
        # next to the ceiling boundary of w / eps, and plain.
        at = w / (1 + 1e-12)
        whole = w / int(rng.integers(2, 9))
        for eps in (
            at, np.nextafter(at, 0.0), np.nextafter(at, 1.0),
            whole, np.nextafter(whole, 0.0), np.nextafter(whole, 1.0),
            float(rng.uniform(0.02, 0.5)),
        ):
            eps = float(eps)
            got, want = subdivide(t, eps), reference_subdivide(t, eps)
            assert (got is t) == (want is t), (trial, eps)
            assert got.vertices == want.vertices and got.edges == want.edges
            assert got.metadata == want.metadata and got.labels == want.labels
            assert got._adj == want._adj, (trial, eps)
            assert got.dist.tobytes() == want.dist.tobytes()
            sampled += got is not t
    assert sampled > 1000
    # What the constructor's checks caught on the old path: a sample cut
    # again reuses its sub:k ids, and w * j can overflow on a long edge.
    again = subdivide(path_tree(), 0.4)
    for fn in (subdivide, reference_subdivide):
        with pytest.raises(TreeStructureError, match=r"duplicate vertex ids: \['sub:0', 'sub:1'"):
            fn(again, 0.1)
        with pytest.raises(TreeStructureError, match="not positive|outside edge"):
            fn(tree_from_edges([("a", "b", 1.7e308), ("b", "c", 1.0)]), 1.7e308 / 3)


def _walked_preorder(t):
    """The preorder of a walk of ``t``: a copy through the checked constructor."""
    return MetricTree(t.vertices, t.edges)._preorder()


def _hexed(pre):
    return (
        pre.order, pre.pos.tolist(), pre.parent.tolist(), [w.hex() for w in pre.weight],
        pre.end.tolist(), [d.hex() for d in pre.depth.tolist()],
    )


def _splice_hosts(small_config):
    """Hosts and eps: seeded random trees with shuffled vertices and edges,
    each edge listed either way round; the continuity-scan benchmark's
    seed-1 cells at eps 2**-4, 2**-6 and 2**-7; a star, a comb and a path;
    and a tree with one edge cut of three."""
    rng = np.random.default_rng(2626)
    for _ in range(80):
        t = random_tree(rng, 2, 30, scale=float(rng.choice([0.3, 1.0, 3.0])))
        edges = [(b, a, w) if rng.random() < 0.5 else (a, b, w) for a, b, w in t.edges]
        vertices = [t.vertices[i] for i in rng.permutation(t.n)]
        longest = max(w for *_, w in edges)  # cut, while shorter edges may not be
        yield MetricTree(vertices, [edges[i] for i in rng.permutation(len(edges))]), float(
            longest * rng.uniform(0.1, 0.9)
        )
    for e in (4, 6, 7):
        cfg = dataclasses.replace(small_config, trees=BENCH_SEED1_TREES, m=3, eps=2.0 ** -e)
        for lab in cfg.h_space.labels:
            if lab not in cfg.marked:
                yield build_F(cfg, lab, 1), cfg.eps
    yield tree_from_edges([("c", "l%d" % i, 0.1 + 0.02 * i) for i in range(20)]), 0.07
    yield comb_tree(CombParams(s=0.5, scale=1.0)), 2.0 ** -6
    yield tree_from_edges([("q%d" % i, "q%d" % (i + 1), 0.3) for i in range(200)]), 0.1
    yield tree_from_edges([("a", "b", 0.2), ("b", "c", 0.9), ("b", "d", 0.3)]), 0.5


def test_subdivide_splices_the_walked_preorder(small_config):
    # the sample's preorder comes from its host's, field for field the walk's
    spliced = 0
    for host, eps in _splice_hosts(small_config):
        sample = subdivide(host, eps)
        assert sample is not host
        assert "_adj" not in vars(sample)  # no adjacency lists were linked
        assert _hexed(sample._preorder()) == _hexed(_walked_preorder(sample))
        spliced += 1
    assert spliced == 80 + 3 * 7 + 4
    # with no edge cut the splice is the host's own walk
    t = MetricTree(("b", "a", "c"), [("a", "b", 0.5), ("c", "b", 0.25)])
    got = tree_module._spliced_preorder(t, np.zeros(2, dtype=np.intp), np.array([0.5, 0.25]))
    assert _hexed(got) == _hexed(_walked_preorder(t))
    assert subdivide(t, 0.5) is t


_DEFERRED = ("vertices", "edges", "_index")


def _built(t):
    """Which of a tree's deferred parts have been built."""
    return sorted(_DEFERRED & vars(t).keys())


def test_a_deferred_sample_equals_the_eager_reference():
    # subdivide names no vertex until one is read; whatever is read first,
    # the sample is field for field the reference built through the checked
    # constructor, and its size, preorder, fill and length read no id
    rng = np.random.default_rng(2828)
    sampled = 0
    for trial in range(60):
        t = random_tree(rng, 2, 24, scale=float(rng.choice([0.3, 1.0, 3.0])))
        t = MetricTree(t.vertices, t.edges, labels={v: v.upper() for v in t.vertices[::3]})
        longest = max(w for *_, w in t.edges)
        for eps in (longest * 0.7, longest / 3, longest / 17, float(rng.uniform(0.01, 0.2))):
            want = reference_subdivide(t, eps)
            if want is t:
                continue
            sampled += 1
            got = subdivide(t, eps)
            assert got.n == want.n and repr(got) == repr(want)
            length = float(sum(w for *_, w in want.edges))
            assert got.total_edge_length().hex() == length.hex()
            assert _hexed(got._preorder()) == _hexed(want._preorder())
            assert got.dist.tobytes() == want.dist.tobytes()
            assert _built(got) == []
            assert got.vertices == want.vertices and got.edges == want.edges
            assert [got.index(v) for v in want.vertices] == list(range(want.n))
            assert got.labels == want.labels and got.metadata == want.metadata
            assert list(got.metadata) == ["generator", "inserted", "eps"]
            # each part built first on its own
            first = subdivide(t, eps)
            assert first.edges == want.edges
            first = subdivide(t, eps)
            assert [first.index(v) for v in want.vertices] == list(range(want.n))
            with pytest.raises(KeyError, match="not in tree"):
                first.index("sub:%d" % want.n)
            first = subdivide(t, eps)
            assert [first._name(i) for i in range(want.n)] == list(want.vertices)
            assert _built(first) == []
    assert sampled > 150


def test_subdivide_refuses_only_its_own_ids():
    # the new ids are sub:0 .. sub:m-1 with m = 19 here; a host id is taken
    # only when it is one of them, written as "%d" writes it
    def host(*extra):
        return tree_from_edges([("a", "b", 1.0)] + [("a", v, 0.01) for v in extra])

    with pytest.raises(TreeStructureError) as err:
        subdivide(host("sub:3"), 0.05)
    assert str(err.value) == "duplicate vertex ids: ['sub:3']"
    with pytest.raises(TreeStructureError) as err:
        subdivide(host("sub:18", "sub:12", "sub:3", "sub:0"), 0.05)
    assert str(err.value) == "duplicate vertex ids: ['sub:0', 'sub:12', 'sub:18']"
    free = ("sub:03", "sub:x", "sub:-1", "sub:19", "sub:190", "sub:", "sub:+1", "sub: 1",
            "sub:1_0", "sub:\u0663", "sub:" + "9" * 5000)
    sample = subdivide(host(*free), 0.05)
    assert sample.n == 2 + len(free) + 19
    rebuilt = MetricTree(sample.vertices, sample.edges)  # distinct ids, a tree
    assert rebuilt.vertices[-19:] == tuple("sub:%d" % k for k in range(19))
    # an edge so long that w * j overflows still names its edge
    long = tree_from_edges([("a", "b", 1.0), ("b", "c", 1.7e308), ("c", "d", 1.0)])
    with pytest.raises(TreeStructureError) as err:
        subdivide(long, 1.7e308 / 3)
    assert str(err.value) == (
        "subdividing edge (b, c) of length 1.7e+308 at eps=5.666666666666667e+307 "
        "leaves a piece that is not positive"
    )


def checked(fn, *args):
    """fn(*args) with vertices put on edges by the reference _insert_points
    and every trusted tree built through MetricTree(...) instead."""
    def split(tree, cuts, offsets, ids, generator, doing=None, **extra):
        # the per-edge runs back to one record per vertex, offsets from a
        edges = [edge for edge, c in zip(tree.edges, cuts) for _ in range(c)]
        points = [(a, b, off, new_id) for (a, b, _), off, new_id in zip(edges, offsets, ids)]
        return _insert_points(tree, points, generator, extra)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree_module, "_split_edges", split)
        mp.setattr(MetricTree, "_unchecked", classmethod(lambda cls, *parts: cls(*parts)))
        return fn(*args)


def assert_same_tree(got, want):
    def hexed(t):
        inserted = t.metadata.get("inserted", {})
        return (
            [(a, b, float.hex(w)) for a, b, w in t.edges],
            [(k, a, b, float.hex(off)) for k, (a, b, off) in inserted.items()],
        )

    assert got.vertices == want.vertices and got.labels == want.labels
    assert hexed(got) == hexed(want)
    assert list(got.metadata) == list(want.metadata) and got.metadata == want.metadata
    assert got._adj == want._adj
    assert got.dist.tobytes() == want.dist.tobytes()
    assert all(type(w) is float for _, _, w in got.edges)
    assert all(type(off) is float for *_, off in got.metadata.get("inserted", {}).values())
    # the full proof accepts the trusted tree and gives it back unchanged
    back = tree_from_document(tree_to_document(got))
    assert (back.vertices, back.edges, back._adj) == (got.vertices, got.edges, got._adj)
    assert tree_to_document(back) == tree_to_document(got)


def test_vertex_inserting_operations_equal_the_checked_reference():
    rng = np.random.default_rng(16)
    built = 0
    for trial in range(300):
        t = random_tree(rng, 1, 30, scale=float(rng.choice([0.3, 1.0, 3.0])))
        origin = t.vertices[int(rng.integers(t.n))]
        row = t.row(origin)
        # radii inside edges, on a vertex (a numpy float), at zero and past
        # the eccentricity
        for r in (float(rng.uniform(0.0, row.max() + 0.1)), rng.choice(row), 0.0):
            for fn in (refine_at_radius, closed_ball_subtree):
                got, want = fn(t, origin, r), checked(fn, t, origin, r)
                assert (got is t) == (want is t), (trial, fn, r)
                assert_same_tree(got, want)
                built += got is not t
        for max_len in (1.0, float(rng.uniform(0.05, 0.5))):
            got, want = decompose_deg2(t, max_len), checked(decompose_deg2, t, max_len)
            assert_same_tree(got.tree, want.tree)
            assert got.segments == want.segments
            built += got.tree is not t
    assert built > 1000


def test_assembly_equals_the_checked_reference(inject_scan_grids):
    # The benchmark's cells: each endpoint part (chunked, comb-replaced and
    # ball-cut), and each assembled tree and the operations on it.
    for cfg, cells in inject_scan_grids:
        for u in sorted({u for u, _ in cells}):
            f = scalar_fields(cfg, u)
            for i, (x, bp) in enumerate(zip(cfg.trees, cfg.basepoints)):
                def part(x=x, bp=bp, phi=f.phi, radius=f.sigma[i]):
                    return _Stages((x,), (bp,), cfg.depth_cap).part(0, phi, radius)

                got, want = part(), checked(part)
                assert_same_tree(got.combed.host, want.combed.host)
                assert got.combed.segments == want.combed.segments
                assert_same_tree(got.tree, want.tree)
                assert got.coords == want.coords
        for u, k in cells:
            tree = build_F(cfg, u, k)
            assert_same_tree(tree, checked(build_F, cfg, u, k))
            r = tree.eccentricity("p") / 2
            for fn in (refine_at_radius, closed_ball_subtree):
                assert_same_tree(fn(tree, "p", r), checked(fn, tree, "p", r))
            got, want = decompose_deg2(tree, 0.25), checked(decompose_deg2, tree, 0.25)
            assert_same_tree(got.tree, want.tree)
            assert got.segments == want.segments


def test_fill_refuses_huge_trees():
    big = subdivide(tree_from_edges([("a", "b", 1.0)]), 2.0 ** -15)
    assert big.n == 32769
    # refused before anything is allocated, for every reader of the fill
    for read in (lambda: big.dist, big.eccentricities):
        with pytest.raises(
            ValueError,
            match=r"tree of 32769 vertices would take 8590458888 bytes; at most 16384 vertices",
        ):
            read()
    assert big.row("a")[1] == 1.0  # one source's row needs no fill


def test_subdivide_fails_fast_on_huge_samples():
    unit = tree_from_edges([("a", "b", 1.0)])
    with pytest.raises(ValueError, match=r"eps=1e-12 would insert 999999999999 vertices"):
        subdivide(unit, 1e-12)
    with pytest.raises(ValueError, match="would insert inf vertices"):
        subdivide(tree_from_edges([("a", "b", 1e10)]), 5e-324)
    # the cap counts the whole sample: two edges of 2**19 + 1 vertices each
    two = tree_from_edges([("a", "b", 1.0), ("b", "c", 1.0)])
    with pytest.raises(ValueError, match="would insert 1048578 vertices, more than 1048576"):
        subdivide(two, 1.0 / (2 ** 19 + 2))
    assert subdivide(unit, 2.0 ** -9).n == 2 ** 9 + 1


# The greedy chunking walk that decompose_deg2 replaced: one boundary at a
# time, pos + remaining in a Python loop, each segment's length summed over
# the host's edges.  It is the bit-for-bit reference of the batched walk.
def reference_decompose_deg2(tree, max_len=1.0):
    max_len = float(max_len)
    comps = deg2_components(tree)
    covered = set()
    for comp in comps:
        path = comp.closure_path
        for i in range(len(path) - 1):
            covered.add(frozenset((path[i], path[i + 1])))
    bare = sorted(
        (tuple(sorted((a, b))), w) for a, b, w in tree.edges
        if frozenset((a, b)) not in covered
    )
    closures = [c.closure_path for c in comps] + [pair for pair, _ in bare]
    pending, plans = [], []
    base = tree_module._next_free(tree, "chop:")
    for path in closures:
        if len(path) < 2:
            continue
        seg_paths = [[path[0]]]
        remaining = max_len
        for i in range(len(path) - 1):
            u, v = path[i], path[i + 1]
            edge_len = tree._edge_length(u, v)
            pos = 0.0
            while edge_len - pos > remaining + 1e-12:
                off = pos + remaining
                new_id = "chop:%d" % (base + len(pending))
                pending.append((u, v, off, new_id))
                seg_paths[-1].append(new_id)
                seg_paths.append([new_id])
                pos = off
                remaining = max_len
            remaining -= edge_len - pos
            seg_paths[-1].append(v)
            if remaining <= 1e-12 and i < len(path) - 2:
                seg_paths.append([v])
                remaining = max_len
        plans.extend(p for p in seg_paths if len(p) >= 2)
    host = tree
    if pending:
        host = _insert_points(tree, pending, "chop")
    segments = tuple(
        tree_module.TreeSegment(a=p[0], b=p[-1], length=host._path_length(p), path=tuple(p))
        for p in plans
    )
    return tree_module.Deg2Decomposition(tree=host, segments=segments)


def _hexed_decomposition(dec):
    t = dec.tree
    return (
        t.vertices,
        [(a, b, w.hex()) for a, b, w in t.edges],
        [(k, a, b, off.hex()) for k, (a, b, off) in t.metadata.get("inserted", {}).items()],
        list(t.metadata), t.labels, t._adj,
        [(s.a, s.b, s.length.hex(), s.path) for s in dec.segments],
    )


def test_decompose_equals_the_one_boundary_walk():
    rng = np.random.default_rng(18)
    placed = 0
    for trial in range(300):
        t = random_tree(rng, 1, 25, scale=float(rng.choice([0.3, 1.0, 3.0, 7.0])))
        for max_len in (1.0, float(rng.uniform(0.05, 0.5)), float(rng.uniform(0.5, 2.0))):
            got, want = decompose_deg2(t, max_len), reference_decompose_deg2(t, max_len)
            assert (got.tree is t) == (want.tree is t), (trial, max_len)
            assert _hexed_decomposition(got) == _hexed_decomposition(want), (trial, max_len)
            placed += got.tree.n - t.n
    assert placed > 10 ** 4
    # 2**18 boundaries on two long edges, walked from either end, and a
    # chunk that ends exactly on a vertex
    big = tree_from_edges([("a", "b", 2.0 ** 17 + 0.5), ("c", "b", 2.0 ** 17 + 0.5), ("b", "d", 1.0)])
    got, want = decompose_deg2(big, 1.0), reference_decompose_deg2(big, 1.0)
    assert got.tree.n == big.n + 2 ** 18
    assert _hexed_decomposition(got) == _hexed_decomposition(want)


# -- trusted builders of combs and replacements --------------------------------


def test_trusted_combs_equal_the_checked_constructor():
    for s in (0.0, 0.1, 0.3, 0.375, 0.5, 0.77, 1.0):
        for scale in (1.0, 0.75, 0.3, 1e-300):
            for cap in (0, 2, 8):
                params = CombParams(s=s, scale=scale, depth_cap=cap)
                assert_same_tree(comb_tree(params), checked(comb_tree, params))
    # A scale so tiny that a length rounds to zero is refused as before, by
    # the constructor and with its message.
    params = CombParams(s=0.5, scale=5e-324)
    message = r"^edge \(spine:0\.0, spine:0\.5\) must have positive finite length, got 0\.0$"
    for build in (comb_tree, lambda p: checked(comb_tree, p)):
        with pytest.raises(TreeStructureError, match=message):
            build(params)


def _comb_plan(rng, dec):
    """Each segment, or a random half of them, replaced by a comb of
    random parameter scaled to its length."""
    segments = [seg for seg in dec.segments if rng.random() < 0.5] or list(dec.segments)
    return [
        ReplacementEntry(
            a=seg.a, b=seg.b, alpha="spine:0.0", beta="spine:1.0",
            tree=comb_tree(CombParams(s=float(rng.choice([0.0, 0.2, 0.5, 0.9])), scale=seg.length)),
        )
        for seg in segments
    ]


def test_trusted_replacements_equal_the_checked_constructor():
    rng = np.random.default_rng(1818)
    replaced = 0
    for trial in range(150):
        t = random_tree(rng, 2, 20, scale=float(rng.choice([0.3, 1.0, 2.0])))
        dec = decompose_deg2(t, float(rng.choice([1.0, 0.4])))
        plan = _comb_plan(rng, dec)
        assert_same_tree(replace_edges(dec.tree, plan), checked(replace_edges, dec.tree, plan))
        replaced += len(plan)
    # a patch that branches, between two host vertices of a longer path
    host = tree_from_edges([("a", "m", 0.7), ("m", "b", 1.0), ("b", "t", 0.4)])
    entry = ReplacementEntry(a="a", b="b", tree=star3(), alpha="x", beta="y")
    assert_same_tree(replace_edges(host, [entry]), checked(replace_edges, host, [entry]))
    assert replaced > 500


def test_replacement_ids_that_a_kept_host_vertex_has_are_refused():
    comb = comb_tree(CombParams(s=0.5))
    entry = ReplacementEntry(a="a", b="b", tree=comb, alpha="spine:0.0", beta="spine:1.0")
    # kept: the collision is refused as the constructor refused it
    host = tree_from_edges([("a", "b", 1.0), ("b", "R0.spine:0.5", 0.3)])
    for build in (replace_edges, lambda *args: checked(replace_edges, *args)):
        with pytest.raises(TreeStructureError, match=r"^duplicate vertex ids: \['R0\.spine:0\.5'\]$"):
            build(host, [entry])
    # removed with the replaced interior: no collision
    host = tree_from_edges([("a", "R0.spine:0.5", 0.5), ("R0.spine:0.5", "b", 0.5), ("b", "c", 0.3)])
    got = replace_edges(host, [entry])
    assert_same_tree(got, checked(replace_edges, host, [entry]))
    assert got.vertices.count("R0.spine:0.5") == 1
