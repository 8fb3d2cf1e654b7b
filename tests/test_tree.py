import dataclasses
import math
import tracemalloc

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
    """The preorder fill with one fancy-index copy that the in-place fill replaced."""
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
    pre = np.empty((n, n), dtype=float)
    root = pre[0]
    root[0] = 0.0
    for i in range(1, n):
        v = order[i]
        root[i] = root[parent[v]] + up[v]
    for i in range(1, n):
        v = order[i]
        prow, row, w, end = pre[parent[v]], pre[i], up[v], i + size[i]
        np.add(prow, w, out=row)
        np.subtract(prow[i:end], w, out=row[i:end])
    inv = np.argsort(order)
    d = pre[np.ix_(inv, inv)]
    np.fill_diagonal(d, 0.0)
    return d


def _large_cell(small_config):
    tree = build_F(dataclasses.replace(small_config, eps=2.0 ** -6), "g0_2", 1)
    assert tree.n >= 700
    return tree


def test_fill_is_bitwise_the_preorder_copy_fill(small_config):
    for t in list(_differential_trees(small_config)) + [_large_cell(small_config)]:
        assert np.array_equal(t.dist, _reference_fill(t))


def test_unpermuted_fill_reads_like_dist(small_config):
    rng = np.random.default_rng(17)

    def block(t, rows, cols):
        d, pos = t._filled()
        return d[rows][:, cols if pos is None else pos[cols]]

    for t in list(_differential_trees(small_config)) + [_large_cell(small_config)]:
        n = t.n
        rows = rng.permutation(n)[:7]
        some = rng.integers(0, n, size=2 * n)
        d, pos = t._filled()
        assert pos is not None  # columns still in preorder
        assert np.all(d[np.arange(n), pos] == 0.0)
        before = block(t, rows, np.arange(n))
        some_before = block(t, rows, some)
        for k, r in enumerate(rows):
            assert np.array_equal(t.row(t.vertices[r]), before[k])
        full = t.dist
        assert t._filled()[1] is None
        assert np.array_equal(full[rows], before)
        assert np.array_equal(full[rows][:, some], some_before)
        assert np.array_equal(block(t, rows, some), some_before)
        for r in rows:
            assert np.array_equal(t.row(t.vertices[r]), full[r])


def test_fill_holds_one_matrix(small_config):
    t = _large_cell(small_config)
    tracemalloc.start()
    try:
        t.dist
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * t.n * t.n * 8, (peak, t.n)


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
