import math

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
from treegh.families import CombParams, comb_tree


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


def test_replacement_path_rejects_unsorted_grid():
    x = tree_from_edges([("a", "b", 1.0)])
    with pytest.raises(ValueError):
        replacement_path(x, [0.5, 0.25])
    with pytest.raises(ValueError):
        replacement_path(x, [-0.1, 0.5])
