import dataclasses
import gc
import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

import treegh.embedding
import treegh.gh
from treegh import (
    EmbedConfig,
    EmbedConfigError,
    FingerprintError,
    MetricTree,
    ScanError,
    StarParams,
    build_F,
    continuity_scan,
    four_point_defect,
    gh_tree_interval,
    injectivity_scan,
    replacement_path,
    rho_embed,
    scalar_fields,
    star_fingerprint,
    star_tree,
    tau,
    tree_from_edges,
    unit_grid,
    validate_metric,
)
from treegh.families import CombParams, _tooth_heights, comb_tree
from treegh.gh import Correspondence


# -- grids and fields ---------------------------------------------------------


def test_unit_grid_shape():
    h, coords = unit_grid(5)
    assert h.n == 25
    assert h.diameter() == pytest.approx(math.sqrt(2.0))
    assert coords["g0_0"] == (0.0, 0.0)
    assert coords["g4_4"] == (1.0, 1.0)
    assert coords["g2_2"] == (0.5, 0.5)


def test_scalar_fields_at_equidistant_point(small_config):
    # the grid center sits at distance diam/2 from both marked corners,
    # so phi = 1/4 and xi = 8 no matter the grid size
    f = scalar_fields(small_config, "g1_1")
    assert f.sigma == (1.0, 1.0)
    assert f.phi == pytest.approx(0.25)
    assert f.xi == pytest.approx(8.0)


def test_scalar_fields_at_marked_point(small_config):
    f = scalar_fields(small_config, "g0_0")
    assert f.phi == 0.0
    assert f.xi == 0.0
    assert f.sigma[0] == math.inf
    assert f.sigma[1] == 0.0


def test_scalar_fields_sigma_ratio(small_config):
    # g0_1 is nearer the first marked corner: sigma_0 > 1 > sigma_1
    f = scalar_fields(small_config, "g0_1")
    assert f.sigma[0] > 1.0 > f.sigma[1]
    assert f.sigma[0] * f.sigma[1] == pytest.approx(1.0)


# -- configuration validation -------------------------------------------------


def test_config_rejects_unknown_marked_label():
    h, coords = unit_grid(3)
    t = tree_from_edges([("a", "b", 1.0)])
    with pytest.raises(EmbedConfigError):
        EmbedConfig(
            h_space=h, coords=coords, marked=("nope", "g0_0"),
            trees=(t, t), basepoints=("a", "a"),
        )


def test_config_rejects_missing_basepoint():
    h, coords = unit_grid(3)
    t = tree_from_edges([("a", "b", 1.0)])
    with pytest.raises(EmbedConfigError):
        EmbedConfig(
            h_space=h, coords=coords, marked=("g0_0", "g2_2"),
            trees=(t, t), basepoints=("a", "ghost"),
        )


def test_config_rejects_too_few_branches():
    h, coords = unit_grid(3)
    t = tree_from_edges([("a", "b", 1.0)])
    with pytest.raises(EmbedConfigError):
        EmbedConfig(
            h_space=h, coords=coords, marked=("g0_0", "g2_2"),
            trees=(t, t), basepoints=("a", "a"), branches=2,
        )


def test_config_rejects_misaligned_lists():
    h, coords = unit_grid(3)
    t = tree_from_edges([("a", "b", 1.0)])
    with pytest.raises(EmbedConfigError):
        EmbedConfig(
            h_space=h, coords=coords, marked=("g0_0", "g2_2"),
            trees=(t,), basepoints=("a", "a"),
        )


@pytest.mark.parametrize("tol", [-1.0, -1e-300, math.inf, math.nan])
def test_config_rejects_a_negative_or_nonfinite_tol(small_config, tol):
    doc = small_config.to_document()
    doc["tol"] = tol
    with pytest.raises(EmbedConfigError, match="tol must be finite and nonnegative"):
        EmbedConfig.from_document(doc)
    with pytest.raises(EmbedConfigError, match="tol must be finite and nonnegative"):
        dataclasses.replace(small_config, tol=tol)
    assert dataclasses.replace(small_config, tol=0.0).tol == 0.0


def test_config_document_roundtrip(small_config):
    back = EmbedConfig.from_document(small_config.to_document())
    assert back.marked == small_config.marked
    assert back.m == small_config.m
    assert back.eps == small_config.eps
    assert np.allclose(back.h_space.dist, small_config.h_space.dist)
    assert back.trees[1].distance("x", "z") == pytest.approx(1.5)


# -- assembly -----------------------------------------------------------------


def test_build_collapses_at_marked_points(small_config):
    for i, v in enumerate(small_config.marked):
        for k in (1, 2):
            assert build_F(small_config, v, k) is small_config.trees[i]


def test_build_rejects_bad_fiber(small_config):
    with pytest.raises(ValueError):
        build_F(small_config, "g1_1", 0)
    with pytest.raises(ValueError):
        build_F(small_config, "g1_1", 3)


def test_build_output_is_a_metric_tree(small_config):
    w = build_F(small_config, "g1_0", 2)
    assert four_point_defect(w.as_space()) <= 1e-9
    assert validate_metric(w.as_space()).ok


def test_build_star_leg_lengths(small_config):
    # the wedge point hangs at the far end of the star's unit branch, so
    # every branch tip sits at xi * (1 + a_i) from it
    w = build_F(small_config, "g1_1", 1)
    f = scalar_fields(small_config, "g1_1")
    a = rho_embed(small_config.coords["g1_1"], 1, small_config.m, 3)
    star_part = "P%d." % len(small_config.marked)
    assert w.distance("p", star_part + "center") == pytest.approx(f.xi)
    for i, ai in enumerate(a, start=1):
        tip = "%sbranch:%d:1.0" % (star_part, i)
        assert w.distance("p", tip) == pytest.approx(f.xi * (1.0 + ai))


def test_build_truncation_metadata(small_config):
    w = build_F(small_config, "g1_1", 1)
    assert w.metadata["truncation_error"] == 0.0
    assert w.metadata["phi"] == pytest.approx(0.25)
    assert w.metadata["u"] == "g1_1"


def test_endpoint_identity_interval(small_config):
    eps = 2.0 ** -5
    for i, v in enumerate(small_config.marked):
        w = build_F(small_config, v, 1)
        iv = gh_tree_interval(w, small_config.trees[i], eps)
        assert iv.lo == 0.0
        assert iv.hi <= 2.0 * eps


# -- fingerprints -------------------------------------------------------------


def test_fingerprint_roundtrip_on_raw_star():
    fp = star_fingerprint(star_tree(StarParams(a=(0.25, 0.0625), scale=2.0)))
    assert fp.xi_hat == pytest.approx(2.0, abs=1e-9)
    assert tau(fp.a_hat, (0.25, 0.0625)) <= 1e-9
    assert fp.margin == pytest.approx(2.0 * (0.25 - 0.0625), abs=1e-9)


def test_fingerprint_recovers_build_parameters(small_config):
    w = build_F(small_config, "g0_1", 2)
    fp = star_fingerprint(w)
    f = scalar_fields(small_config, "g0_1")
    expected = rho_embed(small_config.coords["g0_1"], 2, small_config.m, 3)
    assert abs(fp.xi_hat - f.xi) <= 1e-6
    assert tau(fp.a_hat, expected) <= 1e-6


def test_fingerprint_rejects_paths_and_ties():
    with pytest.raises(FingerprintError):
        star_fingerprint(tree_from_edges([("a", "b", 1.0), ("b", "c", 1.0)]))
    with pytest.raises(FingerprintError):
        star_fingerprint(tree_from_edges([("a", "b", 1.0)]))
    # equal legs leave the top-two components ambiguous
    sym = tree_from_edges(
        [("c", "x", 1.0), ("c", "y", 1.0), ("c", "z", 1.0)]
    )
    with pytest.raises(FingerprintError):
        star_fingerprint(sym)


def test_fingerprint_ignores_comb_clutter():
    # a certified star still reads through after comb replacement of a
    # long path glued at the unit branch tip
    st = star_tree(StarParams(a=(0.3, 0.08), scale=4.0, eps=0.25))
    fp = star_fingerprint(st)
    assert fp.xi_hat == pytest.approx(4.0, abs=1e-9)
    assert tau(fp.a_hat, (0.3, 0.08)) <= 1e-9


# -- scans --------------------------------------------------------------------


def test_injectivity_scan_small(small_config):
    cells = [(lab, k) for k in (1, 2) for lab in ("g0_1", "g1_0", "g1_2")]
    rep = injectivity_scan(small_config, cells)
    assert len(rep.rows) == 6
    assert rep.min_separation > 0.0
    assert rep.k_star == 1
    assert all(r.recovery_error <= 1e-6 for r in rep.rows)


def test_injectivity_scan_rejects_marked_cells(small_config):
    with pytest.raises(EmbedConfigError):
        injectivity_scan(small_config, [("g0_0", 1)])


def _hex_fingerprint(fp, err):
    return (fp.xi_hat.hex(), [a.hex() for a in fp.a_hat], fp.margin.hex(), float(err).hex())


def test_injectivity_scan_equals_per_cell_reference(small_config, inject_scan_grids):
    # The scan shares each label's parts across its fibers; every row must
    # still be what build_F and star_fingerprint give for the cell alone.
    labels = [lab for lab in small_config.h_space.labels if lab not in small_config.marked]
    grids = [(small_config, [(lab, k) for k in (1, 2) for lab in labels])]
    for cfg, cells in grids + inject_scan_grids:
        rep = injectivity_scan(cfg, cells)
        assert [(r.label, r.k) for r in rep.rows] == cells
        for r in rep.rows:
            fp = star_fingerprint(build_F(cfg, r.label, r.k), tol=cfg.tol)
            err = tau(fp.a_hat, rho_embed(cfg.coords[r.label], r.k, cfg.m, cfg.branches))
            assert _hex_fingerprint(r.fingerprint, r.recovery_error) == _hex_fingerprint(fp, err)


def test_injectivity_scan_builds_each_label_parts_once(inject_scan_grids, monkeypatch):
    cfg, cells = inject_scan_grids[0]  # 7 labels x 3 fibers, 2 endpoint trees
    built = []

    class Counted(treegh.embedding._PartGeometry):
        def __init__(self, *args):
            built.append(args[1])
            super().__init__(*args)

    monkeypatch.setattr(treegh.embedding, "_PartGeometry", Counted)
    injectivity_scan(cfg, cells)
    assert len(cells) == 21 and len(built) == 14


def test_injectivity_scan_builds_no_atlas_coordinates(small_config, monkeypatch):
    def refuse(atlas):
        raise AssertionError("built the atlas coordinates")

    monkeypatch.setattr(treegh.embedding._Atlas, "coords", property(refuse))
    cells = [(lab, k) for k in (1, 2) for lab in ("g0_1", "g1_1", "g2_1")]
    assert len(injectivity_scan(small_config, cells).rows) == 6


def test_continuity_scan_bounds_hold(small_config):
    grid = [("g0_1", 1), ("g1_1", 1), ("g1_0", 1)]
    rep = continuity_scan(small_config, grid, [(0, 1), (1, 2)])
    assert len(rep.rows) == 2
    for r in rep.rows:
        assert r.ok
        assert r.hi <= r.bound + 2.0 * small_config.eps + small_config.tol


def test_continuity_scan_self_pair_is_tight(small_config):
    rep = continuity_scan(small_config, [("g1_1", 1)], [(0, 0)])
    row = rep.rows[0]
    assert row.bound == 0.0
    assert row.hi <= 2.0 * small_config.eps


def test_continuity_scan_copies_no_matrix(small_config, monkeypatch):
    calls = []
    as_space = MetricTree.as_space

    def counted(self):
        calls.append(self.n)
        return as_space(self)

    monkeypatch.setattr(MetricTree, "as_space", counted)
    grid = [("g0_1", 1), ("g1_1", 1), ("g1_0", 1)]
    adjacency = [(0, 1), (1, 2)]
    rep = continuity_scan(small_config, grid, adjacency)
    assert len(rep.rows) == len(adjacency)
    assert calls == []


def test_scans_take_hi_from_the_composite_correspondence_only(small_config, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("scan called the general GH solver")

    for name in ("gh_tree_interval", "gh_lower_bound", "greedy_tree_correspondence", "gh_exact"):
        monkeypatch.setattr(treegh.gh, name, boom)
        monkeypatch.setattr(treegh.embedding, name, boom, raising=False)
    grid = [("g0_1", 1), ("g1_1", 1), ("g1_0", 1)]
    rep = continuity_scan(small_config, grid, [(0, 1), (1, 2), (1, 1)])
    assert all(r.ok for r in rep.rows)
    x = tree_from_edges([("a", "b", 1.0), ("b", "c", 0.8)])
    steps = replacement_path(x, [0.0, 0.3, 0.3], eps=2.0 ** -4)
    assert all(step.hi is not None for step in steps[1:])


# The per-vertex matcher the batched one replaced, kept as its reference.
# `reached` counts the star and routed branches it took.


class ReferenceIndex:
    def __init__(self, atlas):
        seg, star = {}, {}
        for vid in atlas.tree.vertices:
            for key, val in atlas.coords[vid].items():
                if key == "star":
                    br, sv = val
                    star.setdefault(int(br), []).append((float(sv), vid))
                else:
                    for l, (x, h) in val.items():
                        seg.setdefault((key, l), []).append((x, h, vid))
        self.seg = {
            key: (np.array([r[0] for r in rows]), np.array([r[1] for r in rows]),
                  [r[2] for r in rows])
            for key, rows in seg.items()
        }
        self.star = {
            br: (np.array([r[0] for r in rows]), [r[1] for r in rows])
            for br, rows in star.items()
        }
        self.heights = {i: _tooth_heights(g.s, g.depth_cap) for i, g in enumerate(atlas.parts)}
        self.part_segments = {
            i: sorted(l for (pi, l) in self.seg if pi == i) for i in range(len(atlas.parts))
        }


def reference_partner(vid, src, dst, index, reached):
    if src.wedge is not None and vid == src.wedge:
        return dst.wedge
    entry = src.coords[vid]
    key = next(iter(entry))
    if key == "star":
        reached["star"] += 1
        br, sv = entry[key]
        ss, vids = index.star[int(br)]
        return vids[int(np.argmin(np.abs(ss - sv)))]
    best = None
    for l in sorted(entry[key]):
        x, h = entry[key][l]
        scale = dst.parts[key].seg_scale[l]
        target_h = min(h, index.heights[key].get(x, 0.0))
        if (key, l) in index.seg:
            xs, hs, vids = index.seg[(key, l)]
            cost = scale * np.where(
                xs == x, np.abs(hs - target_h), target_h + np.abs(xs - x) + hs
            )
            j = int(np.argmin(cost))
            cand = (float(cost[j]), vids[j])
        else:
            reached["routed"] += 1
            cand = reference_routed(key, l, x, h, dst, index)
        if best is None or cand < best:
            best = cand
    if best is None:
        return dst.wedge if dst.wedge is not None else dst.tree.vertices[0]
    return best[1]


def reference_routed(part, l, x, h, dst, index):
    geo = dst.parts[part]
    seg, scale = geo.segments[l], geo.seg_scale[l]
    toa, tob = scale * (h + x), scale * (h + 1.0 - x)
    from_a, from_b = geo.corner_row(seg.a), geo.corner_row(seg.b)
    best = None
    for l2 in index.part_segments[part]:
        xs, hs, vids = index.seg[(part, l2)]
        seg2, s2 = geo.segments[l2], geo.seg_scale[l2]
        ca, cb = s2 * (hs + xs), s2 * (hs + 1.0 - xs)
        ia2, ib2 = geo.replaced.index(seg2.a), geo.replaced.index(seg2.b)
        daa, dab = float(from_a[ia2]), float(from_a[ib2])
        dba, dbb = float(from_b[ia2]), float(from_b[ib2])
        cost = np.minimum(
            np.minimum(toa + daa + ca, toa + dab + cb),
            np.minimum(tob + dba + ca, tob + dbb + cb),
        )
        j = int(np.argmin(cost))
        cand = (float(cost[j]), vids[j])
        if best is None or cand < best:
            best = cand
    if best is None:
        return (math.inf, dst.wedge if dst.wedge is not None else dst.tree.vertices[0])
    return best


def reference_composite(sa, sb, reached):
    ia, ib = ReferenceIndex(sa), ReferenceIndex(sb)
    pairs = [
        (sa.tree.index(v), sb.tree.index(reference_partner(v, sa, sb, ib, reached)))
        for v in sa.tree.vertices
    ]
    pairs += [
        (sa.tree.index(reference_partner(v, sb, sa, ia, reached)), sb.tree.index(v))
        for v in sb.tree.vertices
    ]
    return Correspondence.from_pairs(pairs)


def test_batched_matcher_equals_the_per_vertex_reference(small_config, monkeypatch):
    reached = {"star": 0, "routed": 0}
    checked = []
    batched = treegh.embedding._composite_correspondence

    def compare(ia, ib):
        corr = batched(ia, ib)
        want = reference_composite(ia.atlas, ib.atlas, reached)
        assert (corr.packed, corr.code) == (want.packed, want.code)
        checked.append(len(corr))
        return corr

    monkeypatch.setattr(treegh.embedding, "_composite_correspondence", compare)
    cells = [lab for lab in small_config.h_space.labels if lab not in small_config.marked]
    adjacency = [(i, j) for i in range(len(cells)) for j in range(i, len(cells))]
    for e in range(5):
        small_config.eps = 2.0 ** -e
        for k in (1, 2):
            continuity_scan(small_config, [(lab, k) for lab in cells], adjacency, strict=False)
    for x in (
        tree_from_edges([("a", "b", 1.0)]),
        tree_from_edges([("a", "b", 1.0), ("b", "c", 0.8), ("b", "d", 0.6)]),
        tree_from_edges([("a", "b", 2.5), ("b", "c", 0.3)]),
    ):
        for grid in ([0.0, 0.25, 0.3, 0.5, 1.0], [0.1, 0.13, 0.13, 0.4]):
            replacement_path(x, grid, eps=2.0 ** -4)
    assert len(checked) == 10 * len(adjacency) + 3 * 7
    assert reached["star"] > 0 and reached["routed"] > 0


def test_matcher_tie_and_empty_coordinate_rules():
    # "v" lies on segments 0 and 1 and is equally near "b" on the first and
    # "a" on the second: the smaller vid wins, whatever the vertex order.
    # "w" carries no comb coordinates and goes to the wedge "a"; so does the
    # wedge "u", although "b" sits at its coordinates.
    part = SimpleNamespace(s=0.0, depth_cap=1, seg_scale=[1.0, 1.0])
    src = treegh.embedding._Atlas(
        tree=tree_from_edges([("v", "w", 1.0), ("w", "u", 1.0)]),
        coords={"v": {0: {0: (0.5, 0.0), 1: (0.5, 0.0)}}, "w": {0: {}}, "u": {0: {0: (0.5, 0.25)}}},
        parts=[part], wedge="u",
    )
    dst = treegh.embedding._Atlas(
        tree=tree_from_edges([("b", "a", 1.0), ("a", "c", 1.0)]),
        coords={"b": {0: {0: (0.5, 0.25)}}, "a": {0: {1: (0.5, 0.25)}}, "c": {0: {}}},
        parts=[part], wedge="a",
    )
    want = [dst.tree.index(reference_partner(v, src, dst, ReferenceIndex(dst), {})) for v in "vwu"]
    assert want == [dst.tree.index("a")] * 3
    index = treegh.embedding._CandidateIndex
    assert treegh.embedding._matches(index(src), index(dst)).tolist() == want


def test_continuity_scan_frees_each_sample_after_its_last_pair(small_config, monkeypatch):
    grid = [("g0_1", 1), ("g1_1", 1), ("g1_0", 1), ("g2_1", 1)]
    adjacency = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 3)]
    last_use = {i: pos for pos, pair in enumerate(adjacency) for i in pair}
    samples = []  # (cell, weak reference to its subdivided tree), in build order
    sample = treegh.embedding._sample
    upper = treegh.embedding.gh_upper_bound
    seen = []

    def tracked(atlas, eps):
        index = sample(atlas, eps)
        cell = grid.index((atlas.tree.metadata["u"], atlas.tree.metadata["k"]))
        samples.append((cell, weakref.ref(index.atlas.tree)))
        return index

    def bound(x, y, corr):
        pos = len(seen)
        gc.collect()
        alive = {cell for cell, ref in samples if ref() is not None}
        seen.append(alive)
        assert alive == {cell for cell, _ in samples if last_use[cell] >= pos}
        return upper(x, y, corr)

    monkeypatch.setattr(treegh.embedding, "_sample", tracked)
    monkeypatch.setattr(treegh.embedding, "gh_upper_bound", bound)
    freed = continuity_scan(small_config, grid, adjacency)
    monkeypatch.undo()
    assert [cell for cell, _ in samples] == [0, 1, 2, 3]  # each cell sampled once
    assert seen == [{0, 1}, {0, 1, 2}, {0, 2}, {2, 3}, {3}]
    assert freed == continuity_scan(small_config, grid, adjacency)


def test_continuity_scan_rejects_mixed_fibers(small_config):
    grid = [("g0_1", 1), ("g1_1", 2)]
    with pytest.raises(ValueError):
        continuity_scan(small_config, grid, [(0, 1)])


# -- replacement paths --------------------------------------------------------


def test_replacement_path_start_matches_input():
    x = tree_from_edges([("a", "b", 1.0), ("b", "c", 0.8), ("b", "d", 0.6)])
    steps = replacement_path(x, [0.0, 0.25], eps=2.0 ** -5)
    assert steps[0].hi is None and steps[0].bound is None
    y0 = steps[0].tree
    for u in x.vertices:
        for v in x.vertices:
            assert abs(y0.distance(u, v) - x.distance(u, v)) <= 1e-12


def test_replacement_path_constant_grid():
    x = tree_from_edges([("a", "b", 1.0)])
    eps = 2.0 ** -5
    steps = replacement_path(x, [0.3, 0.3], eps=eps)
    assert steps[1].bound == 0.0
    assert steps[1].hi <= 2.0 * eps


def test_replacement_path_in_band_bound():
    x = tree_from_edges([("a", "b", 1.0)])
    eps = 2.0 ** -6
    steps = replacement_path(x, [0.26, 0.3], eps=eps)  # band n = 1
    assert steps[1].hi <= steps[1].bound + 2.0 * eps + 1e-9


def test_replacement_path_on_a_comb():
    # The comb's first vertex, spine:0.0, has degree 2 inside a unit
    # segment that replace_edges removes, so it cannot be the basepoint.
    x = comb_tree(CombParams(s=0.5, depth_cap=4))
    eps = 2.0 ** -5
    steps = replacement_path(x, [0.0, 0.25, 0.5], eps=eps)
    assert [step.s for step in steps] == [0.0, 0.25, 0.5]
    for step in steps[1:]:
        assert step.hi <= step.bound + 2.0 * eps + 1e-9


def test_replacement_path_rejects_unsorted_grid():
    x = tree_from_edges([("a", "b", 1.0)])
    with pytest.raises(ValueError):
        replacement_path(x, [0.5, 0.25])
    with pytest.raises(ValueError):
        replacement_path(x, [-0.1, 0.5])
