import dataclasses
import gc
import math
import re
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

import treegh.embedding
import treegh.gh
from treegh import (
    EmbedConfig,
    EmbedConfigError,
    FiniteMetricSpace,
    FingerprintError,
    MetricTree,
    ScanError,
    StarParams,
    build_F,
    continuity_scan,
    cube_interval,
    decompose_deg2,
    deg2_components,
    four_point_defect,
    gh_tree_interval,
    injectivity_scan,
    replacement_path,
    rho_embed,
    scalar_fields,
    star_fingerprint,
    star_tree,
    subdivide,
    tau,
    tree_from_edges,
    unit_grid,
    validate_metric,
)
from treegh.cli import _grid_adjacency
from treegh.families import CombParams, _tooth_heights, comb_tree
from treegh.gh import Correspondence
from conftest import random_tree


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


def reference_scalar_fields(cfg, u):
    """The fields as an array formula over the marked distances."""
    row = cfg.h_space.dist[cfg.h_space.index(u)]
    dv = np.array([row[cfg.h_space.index(v)] for v in cfg.marked])
    sigma = []
    for i in range(len(cfg.marked)):
        other = float(np.min(np.delete(dv, i)))
        own = float(dv[i])
        if other == 0.0:
            sigma.append(0.0)
        elif own == 0.0:
            sigma.append(math.inf)
        else:
            sigma.append(other / own)
    phi = float(dv.min()) / (2.0 * cfg.h_space.diameter())
    return tuple(sigma), phi, 32.0 * phi


def test_scalar_fields_equal_the_array_formula(small_config, asymmetric_config):
    for cfg in (small_config, asymmetric_config):
        for u in cfg.h_space.labels:
            f = scalar_fields(cfg, u)
            sigma, phi, xi = reference_scalar_fields(cfg, u)
            assert [x.hex() for x in f.sigma] == [x.hex() for x in sigma]
            assert (f.phi.hex(), f.xi.hex()) == (phi.hex(), xi.hex())
            assert all(type(x) is float for x in (*f.sigma, f.phi, f.xi))


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


@pytest.mark.parametrize("field, value, message", [
    ("depth_cap", -1, "depth_cap must be nonnegative, got -1"),
    ("depth_cap", 2.7, "depth_cap must be an integer, got 2.7"),
    ("depth_cap", math.nan, "depth_cap must be an integer, got nan"),
    ("m", 2.7, "m must be an integer, got 2.7"),
    ("m", math.inf, "m must be an integer, got inf"),
    ("branches", 3.5, "branches must be an integer, got 3.5"),
    ("branches", True, "branches must be an integer, got True"),
    ("m", "3", "m must be an integer, got '3'"),
])
def test_config_refuses_integer_fields_that_are_not_integers(small_config, field, value, message):
    # before: from_document truncated 2.7 to 2, and depth_cap -1 passed
    # until the first comb was built
    doc = small_config.to_document()
    doc[field] = value
    with pytest.raises(EmbedConfigError, match=re.escape(message)):
        EmbedConfig.from_document(doc)
    with pytest.raises(EmbedConfigError, match=re.escape(message)):
        dataclasses.replace(small_config, **{field: value})


def test_config_takes_a_whole_float_as_its_integer(small_config):
    doc = small_config.to_document()
    doc.update(m=3.0, branches=4.0, depth_cap=0.0)
    cfg = EmbedConfig.from_document(doc)
    assert (cfg.m, cfg.branches, cfg.depth_cap) == (3, 4, 0)
    assert all(type(v) is int for v in (cfg.m, cfg.branches, cfg.depth_cap))


def test_config_takes_an_integer_of_any_size(small_config):
    # before: float(10**400) raised OverflowError, a traceback at the CLI
    doc = small_config.to_document()
    doc["depth_cap"] = 10 ** 400  # as json parses it
    assert EmbedConfig.from_document(doc).depth_cap == 10 ** 400
    assert dataclasses.replace(small_config, m=np.int64(5)).m == 5


@pytest.mark.parametrize("branches", [538, 1e300])
def test_config_refuses_more_branches_than_the_encoding_has(small_config, branches):
    # before: 1e300 branches built the encoding's coefficient list forever
    doc = small_config.to_document()
    doc["branches"] = branches
    with pytest.raises(EmbedConfigError, match="branches must be at most 537, got %d" % branches):
        EmbedConfig.from_document(doc)
    with pytest.raises(ValueError, match="at most 537 branches"):
        rho_embed((0.5, 0.5), 1, 1, int(branches))
    # the last coefficient 1.5 * 4**-537 is the least positive double but one
    assert min(rho_embed((0.5, 0.5), 1, 1, 537)) == 1e-323


@pytest.mark.parametrize("eps", [0.0, -0.125, math.inf, math.nan])
def test_config_rejects_a_nonpositive_or_nonfinite_eps(small_config, eps):
    # an infinite eps widens every continuity margin to NaN
    doc = small_config.to_document()
    doc["eps"] = eps
    with pytest.raises(EmbedConfigError, match="eps must be positive and finite, got %s" % eps):
        EmbedConfig.from_document(doc)
    with pytest.raises(EmbedConfigError, match="eps must be positive"):
        dataclasses.replace(small_config, eps=eps)


def test_config_refuses_a_basepoint_the_comb_replacement_removes(small_config):
    # With lengths 0.6 and 0.9 the first unit segment of x-y-z ends inside
    # y-z, so y is interior to it and replace_edges removes it; with 1.0
    # and 0.5 it ends at y, which stays.
    cut = tree_from_edges([("x", "y", 0.6), ("y", "z", 0.9)])
    with pytest.raises(
        EmbedConfigError,
        match="basepoint 'y' of tree 1 has degree 2 inside a unit segment",
    ):
        dataclasses.replace(small_config, trees=(small_config.trees[0], cut), basepoints=("a", "y"))
    kept = tree_from_edges([("x", "y", 1.0), ("y", "z", 0.5)])
    cfg = dataclasses.replace(small_config, trees=(small_config.trees[0], kept), basepoints=("a", "y"))
    assert build_F(cfg, "g1_1", 1).n == 34
    rep = injectivity_scan(cfg, _all_cells(cfg))
    assert len(rep.rows) == 14 and rep.k_star == 1


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


def _all_cells(cfg):
    labels = [lab for lab in cfg.h_space.labels if lab not in cfg.marked]
    return [(lab, k) for k in range(1, cfg.m + 1) for lab in labels]


def test_injectivity_scan_equals_per_cell_reference(
    small_config, asymmetric_config, inject_scan_grids
):
    # The scan shares each distinct part between the cells with its inputs;
    # every row must still be what build_F and star_fingerprint give for the
    # cell alone, and the separation what tau gives pair by pair.
    grids = [(cfg, _all_cells(cfg)) for cfg in (small_config, asymmetric_config)]
    for cfg, cells in grids + inject_scan_grids:
        rep = injectivity_scan(cfg, cells)
        assert rep.rows is not rep.rows  # rebuilt from the packed floats on every read
        assert [(r.label, r.k) for r in rep.rows] == cells
        fps = []
        for r in rep.rows:
            assert r.u == cfg.coords[r.label]
            fp = star_fingerprint(build_F(cfg, r.label, r.k), tol=cfg.tol)
            err = tau(fp.a_hat, rho_embed(cfg.coords[r.label], r.k, cfg.m, cfg.branches))
            assert _hex_fingerprint(r.fingerprint, r.recovery_error) == _hex_fingerprint(fp, err)
            fps.append(fp.a_hat)
        min_sep = math.inf
        for i in range(len(fps)):
            for j in range(i + 1, len(fps)):
                min_sep = min(min_sep, tau(fps[i], fps[j]))
        assert rep.min_separation.hex() == min_sep.hex()
        assert rep.k_star == 1


def _colliding_config(cfg, m):
    """cfg at m fibers with X_1 replaced by the parameter star of cell
    (g1_1, 1), so that cell's fingerprint is also an endpoint's."""
    cfg = dataclasses.replace(cfg, m=m)
    a = rho_embed(cfg.coords["g1_1"], 1, m, 3)
    star = star_tree(StarParams(a=a, scale=scalar_fields(cfg, "g1_1").xi))
    return dataclasses.replace(
        cfg, trees=(star, cfg.trees[1]), basepoints=("center", cfg.basepoints[1])
    )


def reference_k_star(cfg, rep):
    """The first fiber none of whose cells matches an endpoint star in
    scale and coefficients within tol, fingerprint by fingerprint."""
    endpoints = []
    for t in cfg.trees:
        try:
            endpoints.append(star_fingerprint(t, tol=cfg.tol))
        except FingerprintError:
            pass
    for k in range(1, cfg.m + 1):
        if not any(
            len(r.fingerprint.a_hat) == len(fp.a_hat)
            and abs(r.fingerprint.xi_hat - fp.xi_hat) <= cfg.tol
            and tau(r.fingerprint.a_hat, fp.a_hat) <= cfg.tol
            for r in rep.rows
            if r.k == k
            for fp in endpoints
        ):
            return k
    return 0


def test_injectivity_scan_skips_a_fiber_that_meets_an_endpoint(small_config):
    cfg = _colliding_config(small_config, m=2)
    rep = injectivity_scan(cfg, _all_cells(cfg))
    assert rep.k_star == 2 == reference_k_star(cfg, rep)
    for cfg in (small_config, _colliding_config(small_config, m=3)):
        rep = injectivity_scan(cfg, _all_cells(cfg))
        assert rep.k_star == reference_k_star(cfg, rep)
    cfg = _colliding_config(small_config, m=1)
    with pytest.raises(ScanError, match="every fiber collides"):
        injectivity_scan(cfg, _all_cells(cfg))


def test_injectivity_scan_names_the_first_collision_in_grid_order(small_config):
    # Pairs (0, 3) and (1, 2) collide; a loop over i then j meets (0, 3) first.
    cells = [("g0_1", 1), ("g1_1", 1), ("g1_1", 1), ("g0_1", 1)]
    with pytest.raises(ScanError, match=r"\(g0_1, 1\) and \(g0_1, 1\)"):
        injectivity_scan(small_config, cells)
    rep = injectivity_scan(small_config, cells[:1])
    assert rep.min_separation == math.inf


def test_injectivity_reports_keep_few_bytes_per_row(small_config):
    # One fiber's 7 cells and small combs: tracing slows every scan tenfold.
    cfg = dataclasses.replace(small_config, depth_cap=0)
    cells = [(lab, 1) for lab in cfg.h_space.labels if lab not in cfg.marked]
    injectivity_scan(cfg, cells)  # warm every import and cache first
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [injectivity_scan(cfg, cells) for _ in range(50)]
        gc.collect()
        per_row = (tracemalloc.get_traced_memory()[0] - before) / (50 * len(cells))
    finally:
        tracemalloc.stop()
    assert len(kept) == 50 and per_row < 200, per_row


def _part_inputs(cfg, cells):
    """The distinct (i, phi, sigma_i) of the endpoint parts of the cells."""
    fields = [scalar_fields(cfg, lab) for lab, _ in cells]
    return {(i, f.phi, f.sigma[i]) for f in fields for i in range(len(cfg.marked))}


def _stage_inputs(cfg, cells):
    """The distinct inputs of each stage of the cells' endpoint parts: the
    endpoint trees chopped, the comb parameters, the (i, phi) comb-replaced
    and the (i, phi, sigma_i) cut to a ball."""
    parts = _part_inputs(cfg, cells)
    combed = {(i, phi) for i, phi, _ in parts}
    scales = {
        i: {min(seg.length, 1.0) for seg in decompose_deg2(t, 1.0).segments}
        for i, t in enumerate(cfg.trees)
    }
    combs = {(phi, scale) for i, phi in combed for scale in scales[i]}
    return {"chop": len(cfg.trees), "comb": len(combs), "replace": len(combed), "ball": len(parts)}


def test_scans_build_each_distinct_part_once(inject_scan_grids, asymmetric_config, monkeypatch):
    # On the two-corner grid each off-diagonal label has a mirror label with
    # the same phi and sigma: 7 labels make 4 distinct field values, and 2
    # endpoint trees 8 parts.  No symmetry of the grid fixes the asymmetric
    # marks, so there each label's parts are its own: 14.  Each stage of a
    # part is built once for its own inputs: each endpoint tree is chopped
    # once, a comb is built once per parameters, and the comb-replaced tree
    # once per (i, phi), of which both grids have 3 phi values.
    built = {"chop": [], "comb": [], "replace": [], "ball": []}

    def count(stage, fn, key):
        def counted(*args):
            built[stage].append(key(*args))
            return fn(*args)
        return counted

    embedding = treegh.embedding
    for stage, name, key in (
        ("chop", "decompose_deg2", lambda t, max_len: (id(t), max_len)),
        ("comb", "comb_tree", lambda params: params),
        ("replace", "replace_edges", lambda host, plan: (id(host), plan[0].tree.metadata["s"])),
        ("ball", "closed_ball_subtree", lambda t, origin, r: (id(t), origin, r)),
    ):
        monkeypatch.setattr(embedding, name, count(stage, getattr(embedding, name), key))
    cfg, cells = inject_scan_grids[0]  # 7 labels x 3 fibers, 2 endpoint trees
    asym_cells = _all_cells(asymmetric_config)
    fiber = [(lab, k) for lab, k in cells if k == 2]
    asym = asymmetric_config
    for scan, config, scanned, want in (
        (lambda: injectivity_scan(cfg, cells), cfg, cells, (2, 6, 6, 8)),
        (lambda: injectivity_scan(asym, asym_cells), asym, asym_cells, (2, 6, 6, 14)),
        (lambda: continuity_scan(cfg, fiber, _grid_adjacency(cfg, fiber)), cfg, fiber, (2, 6, 6, 8)),
    ):
        for calls in built.values():
            calls.clear()
        scan()
        inputs = _stage_inputs(config, scanned)
        for stage, n in zip(built, want):
            assert len(built[stage]) == len(set(built[stage])) == inputs[stage] == n, stage
    assert len(cells) == 21 and len(fiber) == 7
    assert len(_part_inputs(cfg, cells)) == len(_part_inputs(cfg, fiber)) == 8
    assert len(_part_inputs(asymmetric_config, asym_cells)) == 14


def _component_fields(comps):
    return [
        (c.vertices, c.delimiters, c.closure_path, c.closure_diameter.hex())
        for c in sorted(comps, key=lambda c: c.closure_path)
    ]


def _fingerprint_outcome(read):
    """A fingerprint's floats as hex, or its FingerprintError's message."""
    try:
        fp = read()
    except FingerprintError as exc:
        return "error: %s" % exc
    return _hex_fingerprint(fp, 0.0)


def compare_composed_cells(cfg, cells):
    """Check each cell's composed components, with the parts shared through
    one set of stages as the scan shares them, against those of its
    assembled tree, field for field, and its fingerprint or
    FingerprintError against star_fingerprint's.  Returns the composed outcomes and the number of
    cells whose wedge vertex has degree <= 2, which compose nothing."""
    stages = treegh.embedding._stages(cfg)
    outcomes, fallbacks = [], 0
    for lab, k in cells:
        cell = treegh.embedding._cell(cfg, lab, k, stages)
        tree = build_F(cfg, lab, k)
        comps = cell.components()
        if comps is None:
            assert tree.degree("p") <= 2
            fallbacks += 1
            continue
        assert tree.degree("p") >= 3
        assert _component_fields(comps) == _component_fields(deg2_components(tree))
        got = _fingerprint_outcome(lambda: treegh.embedding._read_star(comps, cfg.tol))
        assert got == _fingerprint_outcome(lambda: star_fingerprint(tree, tol=cfg.tol))
        outcomes.append(got)
    return outcomes, fallbacks


def reference_scan(cfg, cells):
    """injectivity_scan cell by cell from build_F and star_fingerprint:
    (rows as hex, min_separation as hex, k_star), or the type of the error
    the scan must raise and the first cell's message where one says it."""
    rows, fps = [], []
    for lab, k in cells:
        try:
            fp = star_fingerprint(build_F(cfg, lab, k), tol=cfg.tol)
        except FingerprintError as exc:
            return FingerprintError, str(exc)
        want = rho_embed(cfg.coords[lab], k, cfg.m, cfg.branches)
        if len(fp.a_hat) != len(want) or tau(fp.a_hat, want) > 1e-6 or any(
            not (lo - cfg.tol <= a <= hi + cfg.tol)
            for a, (lo, hi) in zip(fp.a_hat, map(cube_interval, range(1, len(want) + 1)))
        ):
            return ScanError, "cell (%s, %d)" % (lab, k)
        rows.append(_hex_fingerprint(fp, tau(fp.a_hat, want)))
        fps.append(fp)
    seps = [tau(a.a_hat, b.a_hat) for i, a in enumerate(fps) for b in fps[i + 1:]]
    if min(seps, default=math.inf) <= 1e-12:
        return ScanError, "fingerprint collision"
    rep = SimpleNamespace(rows=[SimpleNamespace(fingerprint=fp, k=k) for fp, (_, k) in zip(fps, cells)])
    k_star = reference_k_star(cfg, rep)
    if k_star == 0:
        return ScanError, "every fiber collides"
    return rows, min(seps, default=math.inf).hex(), k_star


def scan_outcome(cfg, cells):
    try:
        rep = injectivity_scan(cfg, cells)
    except (FingerprintError, ScanError) as exc:
        return type(exc), str(exc)
    rows = [_hex_fingerprint(r.fingerprint, r.recovery_error) for r in rep.rows]
    return rows, rep.min_separation.hex(), rep.k_star


def _same_scan(got, want):
    if len(want) == 2:  # an error: its type, and a message the scan's starts with
        assert got[0] is want[0] and got[1].startswith(want[1]), (got, want)
    else:
        assert got == want


def test_composed_components_equal_the_assembled_trees(
    small_config, asymmetric_config, inject_scan_grids
):
    # The bench grids' stars outrank every part component, so equal rows
    # alone would not catch a wrong part component: compare the lists.
    grids = [(cfg, _all_cells(cfg)) for cfg in (small_config, asymmetric_config)]
    for cfg, cells in grids + inject_scan_grids:
        outcomes, fallbacks = compare_composed_cells(cfg, cells)
        assert fallbacks == 0 and len(outcomes) == len(cells)
        assert not any(isinstance(o, str) for o in outcomes)


def _random_config(rng):
    """Two or three seeded endpoint trees, about half of them single
    vertices, with any basepoint the config accepts.  Comb teeth sit at the
    segment ends, so a wedge vertex has degree <= 2 only where single
    vertices leave it few edges."""
    h, coords = unit_grid(3)
    count = int(rng.integers(2, 4))
    marked = tuple(rng.choice(h.labels, size=count, replace=False).tolist())
    trees, basepoints = [], []
    for _ in marked:
        t = random_tree(rng, 1, int(rng.choice([1, 7])), scale=float(rng.choice([0.5, 1.5])))
        trees.append(t)
        basepoints.append(str(rng.choice(t.vertices)))
    for i, (t, bp) in enumerate(zip(trees, basepoints)):
        if t.degree(bp) == 2:  # keep it where the comb replacement does
            ends = {e for seg in decompose_deg2(t, 1.0).segments for e in (seg.a, seg.b)}
            if bp not in ends:
                basepoints[i] = next(v for v in t.vertices if t.degree(v) != 2)
    return EmbedConfig(
        h_space=h, coords=coords, marked=marked, trees=tuple(trees),
        basepoints=tuple(basepoints), m=int(rng.integers(1, 3)),
        branches=int(rng.integers(3, 5)), eps=2.0 ** -4, depth_cap=int(rng.integers(0, 4)),
    )


def test_composed_fingerprints_on_seeded_endpoint_trees():
    rng = np.random.default_rng(1717)
    fallbacks = composed = 0
    for _ in range(40):
        cfg = _random_config(rng)
        cells = _all_cells(cfg)
        outcomes, fell_back = compare_composed_cells(cfg, cells)
        fallbacks += fell_back
        composed += len(outcomes)
        _same_scan(scan_outcome(cfg, cells), reference_scan(cfg, cells))
    # A degree-2 basepoint kept at a segment end.
    path = tree_from_edges([("x", "y", 1.0), ("y", "z", 0.5)])
    cfg = _random_config(np.random.default_rng(17))
    cfg = dataclasses.replace(cfg, trees=(path,) + cfg.trees[1:], basepoints=("y",) + cfg.basepoints[1:])
    compare_composed_cells(cfg, _all_cells(cfg))
    _same_scan(scan_outcome(cfg, _all_cells(cfg)), reference_scan(cfg, _all_cells(cfg)))
    assert fallbacks >= 20 and composed >= 200, (fallbacks, composed)


def test_composition_needs_a_wedge_vertex_of_degree_three():
    # Comb teeth at segment ends give every cut part's basepoint degree >= 2
    # unless the part is a single vertex, so build the boundary by hand: a
    # plain comb (s = 0) leaves a leaf basepoint with one edge.
    path = tree_from_edges([("a", "b", 0.7), ("b", "c", 0.6)])
    stages = treegh.embedding._Stages((path, MetricTree(("v",), ())), ("a", "v"), 8)
    part, lone = stages.part(0, 0.0, math.inf), stages.part(1, 0.0, math.inf)
    star = treegh.embedding._assembly_star_parts(StarParams(a=(0.3, 0.08), scale=2.0, eps=0.25))
    for parts, degree in (([part, lone], 2), ([lone, part, part], 3), ([part, part], 3)):
        cell = treegh.embedding._Cell(fields=None, parts=parts, rho=(0.3, 0.08), star=star)
        tree = cell.wedge()
        assert tree.degree("p") == degree
        comps = cell.components()
        if degree == 2:
            assert comps is None
            assert any("p" in c.vertices for c in deg2_components(tree))
        else:
            assert _component_fields(comps) == _component_fields(deg2_components(tree))


def _near_mark_config(depth_cap, tol):
    """Cells a thousandth of the grid from a mark have a tiny star and a
    tiny ball about the other mark's basepoint; with few comb generations
    the parts' components can then outrank the star."""
    points = {
        "v1": (0.0, 0.0), "v2": (1.0, 1.0), "n1": (0.001, 0.0), "n2": (0.0, 0.01),
        "m": (0.5, 0.5), "f": (0.9, 0.2), "g": (0.2, 0.05),
    }
    labels = tuple(points)
    pts = np.array([points[lab] for lab in labels])
    h = FiniteMetricSpace(labels, np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1)))
    two_hubs = tree_from_edges([
        ("c1", "d1", 1.0), ("c1", "e1", 0.3), ("c1", "c2", 0.2), ("c2", "d2", 0.9), ("c2", "e2", 0.3),
    ])
    path = tree_from_edges([("x", "y", 0.6), ("y", "z", 0.9)])
    return EmbedConfig(
        h_space=h, coords=points, marked=("v1", "v2"), trees=(two_hubs, path),
        basepoints=("e1", "x"), m=1, eps=2.0 ** -4, tol=tol, depth_cap=depth_cap,
    )


def test_composed_fingerprints_raise_the_same_errors():
    seen = set()
    for depth_cap in (0, 2):
        for tol in (1e-9, 0.05, 0.2):
            cfg = _near_mark_config(depth_cap, tol)
            cells = _all_cells(cfg)
            outcomes, fallbacks = compare_composed_cells(cfg, cells)
            assert fallbacks == 0
            seen.update(o.split(": ")[2].split(" ")[0] for o in outcomes if isinstance(o, str))
            _same_scan(scan_outcome(cfg, cells), reference_scan(cfg, cells))
    # Each message star_fingerprint can reach: the fourth, a centre with
    # fewer than two legs, cannot follow two leading components that meet.
    assert seen == {"fewer", "margin", "leading"}, seen


@pytest.mark.parametrize("eps", [1e-17, 5e-324])
def test_an_eps_too_fine_for_the_star_is_refused_alike(small_config, monkeypatch, eps):
    # At 1e-17 a branch's last sample rounded onto its tip: build_F refused
    # the duplicate id and the injectivity scan certified the cell.  At
    # 5e-324 the branch length over eps overflowed.  Every entry point now
    # raises one ValueError, before any endpoint part is built.
    def refuse(*args):
        raise AssertionError("built an endpoint part")

    monkeypatch.setattr(treegh.embedding._Stages, "part", refuse)
    cfg = dataclasses.replace(small_config, eps=eps)
    cells = [("g1_1", 1), ("g0_1", 1)]
    messages = []
    for run in (
        lambda: build_F(cfg, "g1_1", 1),
        lambda: injectivity_scan(cfg, cells),
        lambda: continuity_scan(cfg, cells, [(0, 1)]),
    ):
        with pytest.raises(ValueError, match=r"eps=%r is too fine for star branch 0 " % eps) as err:
            run()
        messages.append(str(err.value))
    assert len(set(messages)) == 1


def test_a_huge_depth_cap_fails_fast_in_the_scans(small_config):
    # The comb generations are walked up to the last active one, not to the
    # cap: away from the marks a cap of 10^12 changes nothing.
    cells = [(lab, 1) for lab in ("g0_1", "g1_1", "g1_0")]
    huge = dataclasses.replace(small_config, depth_cap=10 ** 12)
    assert injectivity_scan(huge, cells).rows == injectivity_scan(small_config, cells).rows
    # A cell 1e-7 from a mark has phi ~ 3.5e-8, and its combs keep 25
    # generations: 2^26 + 2 vertices, refused before they are built.
    points = {"v1": (0.0, 0.0), "v2": (1.0, 1.0), "n": (1e-7, 0.0)}
    pts = np.array(list(points.values()))
    h = FiniteMetricSpace(tuple(points), np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1)))
    cfg = dataclasses.replace(huge, h_space=h, coords=points, marked=("v1", "v2"))
    for run in (lambda: injectivity_scan(cfg, [("n", 1)]), lambda: build_F(cfg, "n", 1)):
        with pytest.raises(ValueError, match="depth_cap=1000000000000 would have 67108866 vertices"):
            run()


def test_injectivity_scan_builds_no_atlas_coordinates(small_config, monkeypatch):
    def refuse(obj):
        raise AssertionError("built what only the continuity matcher reads")

    # Neither the cells' coordinates, nor the parts' comb coordinates, nor
    # their stages' reach, which only the continuity matcher and its
    # analytic bound read.
    monkeypatch.setattr(treegh.embedding._Cell, "coords", refuse)
    monkeypatch.setattr(treegh.embedding._PartGeometry, "coords", property(refuse))
    monkeypatch.setattr(treegh.embedding._Combed, "reach", property(refuse))
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
# `reached` counts the star and routed branches it took.  It reads a
# CoordTree: a tree with the coordinates of every vertex, as
# _Cell.coords gives them, its parts and whether it is a wedge at "p".


@dataclasses.dataclass
class CoordTree:
    tree: MetricTree
    coords: dict
    parts: list
    wedge: bool


def cell_coord_tree(cell):
    return CoordTree(cell.wedge(), cell.coords(), cell.parts, True)


def part_coord_tree(part):
    """One endpoint part with no wedge, as replacement_path indexes it."""
    return CoordTree(part.tree, {v: {0: c} for v, c in part.coords.items()}, [part], False)


def sample_index(atlas, eps):
    return treegh.embedding._CandidateIndex(atlas.tree, atlas.coords, atlas.parts, atlas.wedge, eps)


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
        self.heights = {
            i: _tooth_heights(g.combed.s, g.combed.depth_cap) for i, g in enumerate(atlas.parts)
        }
        self.part_segments = {
            i: sorted(l for (pi, l) in self.seg if pi == i) for i in range(len(atlas.parts))
        }


def reference_partner(vid, src, dst, index, reached):
    if src.wedge and vid == "p":
        return "p"
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
        scale = dst.parts[key].combed.seg_scale[l]
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
        return "p" if dst.wedge else dst.tree.vertices[0]
    return best[1]


def reference_routed(part, l, x, h, dst, index):
    geo = dst.parts[part].combed
    seg, scale = geo.segments[l], geo.seg_scale[l]
    toa, tob = scale * (h + x), scale * (h + 1.0 - x)
    from_a, from_b = geo.corner_row(seg.a), geo.corner_row(seg.b)
    best = None
    for l2 in index.part_segments[part]:
        xs, hs, vids = index.seg[(part, l2)]
        seg2, s2 = geo.segments[l2], geo.seg_scale[l2]
        ca, cb = s2 * (hs + xs), s2 * (hs + 1.0 - xs)
        ia2, ib2 = geo.tree.index(seg2.a), geo.tree.index(seg2.b)
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
        return (math.inf, "p" if dst.wedge else dst.tree.vertices[0])
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


# The per-vertex sampler and index that the per-edge sample index replaced,
# kept as its reference: every inserted vertex gets its own coordinate dict,
# interpolated from the edge record that subdivide leaves in the metadata.


def reference_subdivide_atlas(atlas, eps):
    s = subdivide(atlas.tree, eps)
    if s is atlas.tree:
        return atlas
    edge_len = {(a, b): w for a, b, w in atlas.tree.edges}
    coords = dict(atlas.coords)
    for sid, (a, b, off) in s.metadata["inserted"].items():
        ca, cb = coords[a], coords[b]
        key = [key for key in ca if key in cb][0]
        t = off / edge_len[(a, b)]
        if key == "star":
            (i1, s1), (i2, s2) = ca[key], cb[key]
            coords[sid] = {"star": (i1 if s1 > 0 else i2, s1 + t * (s2 - s1))}
        else:
            coords[sid] = {
                key: treegh.embedding._interpolate_on_shared_segment(ca[key], cb[key], t)
            }
    return CoordTree(s, coords, atlas.parts, atlas.wedge)


class ReferenceCandidateIndex:
    def __init__(self, atlas):
        self.fallback = atlas.tree.index("p") if atlas.wedge else 0
        seg, star = {}, {}
        for n, vid in enumerate(atlas.tree.vertices):
            for key, val in atlas.coords[vid].items():
                if key == "star":
                    br, sv = val
                    star.setdefault(int(br), []).append((float(sv), n))
                else:
                    for l, (x, h) in val.items():
                        seg.setdefault((key, l), []).append((x, h, n))
        self.seg = {
            key: (np.array([r[0] for r in rows]), np.array([r[1] for r in rows]),
                  np.array([r[2] for r in rows], dtype=np.intp))
            for key, rows in seg.items()
        }
        self.star = {
            br: (np.array([r[0] for r in rows]), np.array([r[1] for r in rows], dtype=np.intp))
            for br, rows in star.items()
        }
        self.heights = {
            i: _tooth_heights(g.combed.s, g.combed.depth_cap) for i, g in enumerate(atlas.parts)
        }
        self.part_segments = {
            i: sorted(l for (pi, l) in self.seg if pi == i) for i in range(len(atlas.parts))
        }


def _same_arrays(got, want):
    return len(got) == len(want) and all(
        g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
        for g, w in zip(got, want)
    )


# The continuity-scan benchmark's seed-1 grid: its seeded edge lengths and fiber.
BENCH_SEED1_TREES = (
    tree_from_edges([("a", "b", 0.7793660573329088)]),
    tree_from_edges([("x", "y", 0.7223527950177351), ("y", "z", 0.7179996517568769)]),
)


def test_sample_index_equals_the_per_vertex_reference(small_config):
    bench = dataclasses.replace(small_config, trees=BENCH_SEED1_TREES, m=3, eps=2.0 ** -6)
    cases = [
        (small_config, 2.0 ** -e, k) for e in range(7) for k in (1, 2)
    ] + [(bench, bench.eps, 1)]
    atlases = []
    for cfg, eps, k in cases:
        stages = treegh.embedding._stages(cfg)
        for lab in cfg.h_space.labels:
            if lab not in cfg.marked:
                cell = treegh.embedding._cell(cfg, lab, k, stages)
                atlases.append((cell_coord_tree(cell), eps))
    x = tree_from_edges([("a", "b", 1.0), ("b", "c", 0.8), ("b", "d", 0.6)])
    for s in (0.0, 0.3):
        geom = treegh.embedding._Stages((x,), ("b",), 8).part(0, s, math.inf)
        atlases.append((part_coord_tree(geom), 2.0 ** -4))
    inserted = 0
    for atlas, eps in atlases:
        got = sample_index(atlas, eps)
        ref_atlas = reference_subdivide_atlas(atlas, eps)
        want = ReferenceCandidateIndex(ref_atlas)
        tree = got.tree
        assert (tree.vertices, tree.edges) == (ref_atlas.tree.vertices, ref_atlas.tree.edges)
        assert (got.parts, got.wedge) == (atlas.parts, atlas.wedge)
        assert got.fallback == want.fallback
        assert list(got.seg) == list(want.seg) and list(got.star) == list(want.star)
        for key in want.seg:
            assert _same_arrays(got.seg[key], want.seg[key]), key
        for br in want.star:
            assert _same_arrays(got.star[br], want.star[br]), br
        assert got.heights == want.heights and got.part_segments == want.part_segments
        inserted += tree.n - atlas.tree.n
    assert len(atlases) == 14 * 7 + 7 + 2 and inserted > 3 * 10 ** 4


def _broadcast_nearest(ss, idx, sv):
    return idx[np.argmin(np.abs(ss[None, :] - sv[:, None]), axis=1)]


def test_sorted_star_search_equals_the_broadcast_argmin():
    rng = np.random.default_rng(20)
    ties = 0
    for trial in range(600):
        n = int(rng.integers(1, 40))
        kind = trial % 3
        if kind == 0:  # a coarse grid: duplicate positions, midpoint ties
            ss = rng.integers(0, 9, n) / 8.0
            sv = np.concatenate([rng.integers(0, 17, 30) / 16.0, rng.uniform(-0.2, 1.2, 10)])
        elif kind == 1:  # clusters of positions a few ulps apart
            base = rng.uniform(0.0, 0.2, 4)
            ss = np.nextafter(base[rng.integers(0, 4, n)], 1.0) * (1 + rng.integers(0, 3, n) * 2.0 ** -52)
            sv = np.concatenate([rng.uniform(0.5, 1.0, 20), base, rng.uniform(0.0, 0.2, 10)])
        else:  # plain floats, with some copies among the queries
            ss = rng.uniform(0.0, 1.0, n)
            sv = np.concatenate([rng.uniform(-0.1, 1.1, 20), ss[rng.integers(0, n, 5)]])
        idx = np.sort(rng.choice(10 * n + 10, n, replace=False)).astype(np.intp)
        order = np.argsort(ss, kind="stable")
        got = treegh.embedding._nearest_on_branch(ss[order], idx[order], sv)
        want = _broadcast_nearest(ss, idx, sv)
        assert got.tolist() == want.tolist(), trial
        cost = np.abs(ss[None, :] - sv[:, None])
        ties += int(((cost == cost.min(axis=1, keepdims=True)).sum(axis=1) > 1).sum())
    assert ties > 1000


def test_batched_matcher_equals_the_per_vertex_reference(small_config, monkeypatch):
    reached = {"star": 0, "routed": 0}
    checked = []
    batched = treegh.embedding._composite_correspondence
    index_of = treegh.embedding._CandidateIndex
    # Samples carry no coordinates; the reference reads them from the
    # per-vertex sampler, run on the tree and coordinates each sample
    # index was built from.
    coords_of = weakref.WeakKeyDictionary()

    def tracked(tree, coords, parts, wedge, eps):
        index = index_of(tree, coords, parts, wedge, eps)
        coords_of[index] = reference_subdivide_atlas(CoordTree(tree, coords, parts, wedge), eps)
        return index

    def compare(ia, ib):
        corr = batched(ia, ib)
        want = reference_composite(coords_of[ia], coords_of[ib], reached)
        assert (corr.packed, corr.code) == (want.packed, want.code)
        checked.append(len(corr))
        return corr

    monkeypatch.setattr(treegh.embedding, "_CandidateIndex", tracked)
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


def test_matcher_partners_do_not_depend_on_its_cost_blocks(small_config, monkeypatch):
    # a segment's cost matrix made a few rows at a time, as at fine eps
    indexes = []
    index_of = treegh.embedding._CandidateIndex

    def tracked(*args):
        indexes.append(index_of(*args))
        return indexes[-1]

    monkeypatch.setattr(treegh.embedding, "_CandidateIndex", tracked)
    cells = [(lab, 2) for lab in small_config.h_space.labels if lab not in small_config.marked]
    continuity_scan(small_config, cells[:3], [(0, 1), (1, 2)])
    pairs = [(a, b) for a in indexes for b in indexes]
    want = [treegh.embedding._matches(a, b) for a, b in pairs]
    assert max(len(x) for _, (x, _, _) in indexes[0].seg.items()) > 7
    monkeypatch.setattr(treegh.embedding, "_MATCH_BLOCK_CELLS", 7)
    monkeypatch.setattr(treegh.embedding, "_MATCH_BROADCAST_CELLS", 0)  # every segment sorted
    for (a, b), partners in zip(pairs, want):
        assert treegh.embedding._matches(a, b).tolist() == partners.tolist()


def _broadcast_segment(xs, hs, idx, x, th, scale, cells):
    """The segment search the sorted one replaced: every query against
    every vertex, in blocks of about ``cells`` entries, first minimum."""
    cost, cand = np.empty(len(x)), np.empty(len(x), dtype=np.intp)
    step = max(1, cells // max(1, len(xs)))
    for lo in range(0, len(x), step):
        xb, tb = x[lo : lo + step, None], th[lo : lo + step, None]
        c = scale * np.where(xs == xb, np.abs(hs - tb), tb + np.abs(xs - xb) + hs)
        j = np.argmin(c, axis=1)
        cost[lo : lo + step], cand[lo : lo + step] = c[np.arange(len(j)), j], idx[j]
    return cost, cand


def test_sorted_segment_search_equals_the_broadcast_argmin(monkeypatch):
    rng = np.random.default_rng(2727)
    ties = 0
    for trial in range(300):
        m = int(rng.integers(1, 60))
        if trial % 3 == 0:  # a coarse grid: shared x, equal heights, midpoint ties
            xs, hs = rng.integers(0, 9, m) / 8.0, rng.integers(0, 5, m) / 16.0
            x, th = rng.integers(0, 17, 40) / 16.0, rng.integers(0, 9, 40) / 32.0
        elif trial % 3 == 1:  # a comb: a spine at h = 0 and teeth at a few x
            teeth = rng.uniform(0.0, 1.0, 3)
            on = rng.random(m) < 0.5
            xs = np.where(on, teeth[rng.integers(0, 3, m)], rng.uniform(0.0, 1.0, m))
            hs = np.where(on, rng.uniform(0.0, 0.3, m), 0.0)
            x = np.concatenate([xs[rng.integers(0, m, 20)], rng.uniform(0.0, 1.0, 20)])
            th = np.concatenate([hs[rng.integers(0, m, 20)], np.zeros(20)])
        else:  # near-equal values a few ulps apart
            base = rng.uniform(0.0, 1.0, 3)
            xs = base[rng.integers(0, 3, m)] * (1 + rng.integers(0, 3, m) * 2.0 ** -52)
            hs = base[rng.integers(0, 3, m)] * (1 + rng.integers(0, 3, m) * 2.0 ** -52)
            x, th = np.r_[base, rng.uniform(0, 1, 10)], np.r_[base[::-1], rng.uniform(0, 1, 10)]
        idx = np.sort(rng.choice(10 * m + 10, m, replace=False)).astype(np.intp)
        seg = treegh.embedding._sorted_segment(xs, hs, idx)
        for scale in (1.0, 0.6, 1.0 / 3.0):
            want = _broadcast_segment(xs, hs, idx, x, th, scale, 1 << 18)
            for cells in (1, 7, 1 << 18):
                monkeypatch.setattr(treegh.embedding, "_MATCH_BLOCK_CELLS", cells)
                got = treegh.embedding._nearest_on_segment(seg, x, th, scale)
                assert got[1].tolist() == want[1].tolist(), (trial, scale, cells)
                assert [c.hex() for c in got[0].tolist()] == [c.hex() for c in want[0].tolist()]
            c = scale * np.where(
                xs == x[:, None], np.abs(hs - th[:, None]), th[:, None] + np.abs(xs - x[:, None]) + hs
            )
            ties += int(((c == c.min(axis=1, keepdims=True)).sum(axis=1) > 1).sum())
    assert ties > 1000


def test_sorted_matcher_equals_the_broadcast_matcher(small_config, monkeypatch):
    # whole cells' partners, against segments searched by broadcast
    indexes = []
    index_of = treegh.embedding._CandidateIndex

    def tracked(*args):
        indexes.append(index_of(*args))
        return indexes[-1]

    monkeypatch.setattr(treegh.embedding, "_CandidateIndex", tracked)
    for eps in (2.0 ** -4, 2.0 ** -6):
        cfg = dataclasses.replace(small_config, eps=eps)
        cells = [(lab, 2) for lab in cfg.h_space.labels if lab not in cfg.marked]
        continuity_scan(cfg, cells[:4], [(0, 1), (1, 2), (2, 3)], strict=False)
    monkeypatch.undo()
    # with the default, the segments of at most _MATCH_BROADCAST_CELLS pairs
    # are costed by broadcast and the others searched sorted
    pairs = [(a, b) for a in indexes for b in indexes]
    sorted_search = treegh.embedding._nearest_on_segment
    searched = []

    def counted(seg, x, th, scale):
        searched.append(len(x))
        return sorted_search(seg, x, th, scale)

    monkeypatch.setattr(treegh.embedding, "_nearest_on_segment", counted)
    default = [treegh.embedding._matches(a, b).tolist() for a, b in pairs]
    sizes = [
        len(x) * len(b.seg[key][0]) for a, b in pairs for key, (x, _, _) in a.seg.items() if key in b.seg
    ]
    large = sum(c > treegh.embedding._MATCH_BROADCAST_CELLS for c in sizes)
    assert 0 < large == len(searched) < len(sizes)
    monkeypatch.setattr(treegh.embedding, "_nearest_on_segment", sorted_search)
    monkeypatch.setattr(treegh.embedding, "_MATCH_BROADCAST_CELLS", 0)
    for cells in (7, 1 << 10, 1 << 18):
        monkeypatch.setattr(treegh.embedding, "_MATCH_BLOCK_CELLS", cells)

        def broadcast(seg, x, th, scale):
            xs, hs = np.empty(len(seg.xs)), np.empty(len(seg.hs))
            xs[seg.at], hs[seg.at] = seg.xs, seg.hs
            return _broadcast_segment(xs, hs, seg.idx, x, th, scale, cells)

        for (a, b), partners in zip(pairs, default):
            got = treegh.embedding._matches(a, b)
            monkeypatch.setattr(treegh.embedding, "_nearest_on_segment", broadcast)
            want = treegh.embedding._matches(a, b)
            monkeypatch.setattr(treegh.embedding, "_nearest_on_segment", sorted_search)
            assert got.tolist() == want.tolist() == partners


def test_matcher_tie_and_empty_coordinate_rules():
    # "v" lies on segments 0 and 1 and is equally near "b" on the first and
    # "a" on the second: the smaller vid wins, whatever the vertex order.
    # "w" carries no comb coordinates and goes to the wedge "p", which is
    # not vertex 0; so does the wedge "p", although "b" sits at its
    # coordinates.
    part = SimpleNamespace(combed=SimpleNamespace(s=0.0, depth_cap=1, seg_scale=[1.0, 1.0]))
    src = CoordTree(
        tree=tree_from_edges([("v", "w", 1.0), ("w", "p", 1.0)]),
        coords={"v": {0: {0: (0.5, 0.0), 1: (0.5, 0.0)}}, "w": {0: {}}, "p": {0: {0: (0.5, 0.25)}}},
        parts=[part], wedge=True,
    )
    dst = CoordTree(
        tree=tree_from_edges([("b", "a", 1.0), ("a", "p", 1.0)]),
        coords={"b": {0: {0: (0.5, 0.25)}}, "a": {0: {1: (0.5, 0.25)}}, "p": {0: {}}},
        parts=[part], wedge=True,
    )
    # Without wedges, "w" goes to vertex 0, "b", and "p" to "b" as well.
    for wedge, partners in ((True, "app"), (False, "abb")):
        src.wedge = dst.wedge = wedge
        want = [dst.tree.index(reference_partner(v, src, dst, ReferenceIndex(dst), {})) for v in "vwp"]
        assert want == [dst.tree.index(v) for v in partners] and dst.tree.index("p") != 0
        # eps 1.0 leaves both trees unsubdivided
        got = treegh.embedding._matches(sample_index(src, 1.0), sample_index(dst, 1.0))
        assert got.tolist() == want


def test_matcher_breaks_a_tie_by_id_without_building_the_sample():
    # "v" is equally near sub:9 on segment 0 and sub:10 on segment 1 of the
    # subdivided dst: the smaller id as a string, sub:10, wins, although its
    # index is larger, and the sample's ids, edges and index stay unbuilt.
    part = SimpleNamespace(combed=SimpleNamespace(s=0.0, depth_cap=1, seg_scale=[1.0, 1.0]))
    src = CoordTree(
        tree=tree_from_edges([("v", "w", 1.0)]),
        coords={"v": {0: {0: (0.5, 0.0), 1: (0.5, 0.0)}}, "w": {0: {}}},
        parts=[part], wedge=False,
    )
    # at eps 1/8 the first edge takes sub:0 .. sub:8, the second sub:9 at
    # (0.5, 0.25) on segment 0, the last sub:10 at (0.5, 0.25) on segment 1
    dst = CoordTree(
        tree=tree_from_edges([("b", "c", 1.25), ("c", "e", 0.25), ("e", "d", 0.1), ("d", "f", 0.25)]),
        coords={
            "b": {0: {0: (0.0, 1.0)}}, "c": {0: {0: (0.0, 0.25)}}, "e": {0: {0: (1.0, 0.25)}},
            "d": {0: {1: (0.0, 0.25)}}, "f": {0: {1: (1.0, 0.25)}},
        },
        parts=[part], wedge=False,
    )
    a, b = sample_index(src, 1.0), sample_index(dst, 0.125)
    got = treegh.embedding._matches(a, b)
    assert sorted(vars(b.tree).keys() & {"vertices", "edges", "_index"}) == []
    built = MetricTree(b.tree.vertices, b.tree.edges)
    assert built.vertices[got[a.tree.index("v")]] == "sub:10"
    b.tree = built
    assert treegh.embedding._matches(a, b).tolist() == got.tolist()


def test_continuity_scan_frees_each_sample_after_its_last_pair(small_config, monkeypatch):
    grid = [("g0_1", 1), ("g1_1", 1), ("g1_0", 1), ("g2_1", 1)]
    adjacency = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 3)]
    last_use = {i: pos for pos, pair in enumerate(adjacency) for i in pair}
    samples = []  # (cell, weak references to its index and its sample tree)
    wedges = []  # weak references to the cells' trees, in grid order
    wedge, index_of = treegh.embedding._Cell.wedge, treegh.embedding._CandidateIndex
    plan, maximum = treegh.gh._plan, treegh.gh._planned_maximum
    planned, read = [], []

    def built(cell):
        tree = wedge(cell)
        wedges.append(weakref.ref(tree))
        return tree

    def tracked(tree, *args):
        index = index_of(tree, *args)
        cell = next(n for n, ref in enumerate(wedges) if ref() is tree)
        samples.append((cell, weakref.ref(index), weakref.ref(index.tree)))
        return index

    def planning(x, y, corr):
        gc.collect()  # indexes and sample trees go after their last pair
        alive = {cell for cell, index, _ in samples if index() is not None}
        assert alive == {cell for cell, *_ in samples if last_use[cell] >= len(planned)}
        assert alive == {cell for cell, _, tree in samples if tree() is not None}
        planned.append(alive)
        return plan(x, y, corr)

    def reading(pair_plan, x, y):
        read.append(len(planned) - 1)  # each pair is read as soon as it is planned
        return maximum(pair_plan, x, y)

    monkeypatch.setattr(treegh.embedding._Cell, "wedge", built)
    monkeypatch.setattr(treegh.embedding, "_CandidateIndex", tracked)
    monkeypatch.setattr(treegh.gh, "_plan", planning)
    monkeypatch.setattr(treegh.gh, "_planned_maximum", reading)
    freed = continuity_scan(small_config, grid, adjacency)
    monkeypatch.undo()
    assert len(wedges) == len(grid)  # each cell assembled once
    assert [cell for cell, *_ in samples] == [0, 1, 2, 3]  # each cell sampled once
    assert planned == [{0, 1}, {0, 1, 2}, {0, 2}, {2, 3}, {3}]
    assert read == [0, 1, 2, 3, 4]
    assert freed == continuity_scan(small_config, grid, adjacency)


def test_continuity_samples_link_no_adjacency_lists(small_config, monkeypatch):
    # each sample's preorder is spliced from its cell's tree, nothing else
    # the scan does with a sample walks it, its subdivision records stay
    # runs until something reads its metadata, and its ids, edges and index
    # stay unbuilt
    samples = []

    def kept(tree, eps):
        samples.append(sample(tree, eps))
        return samples[-1]

    sample = treegh.embedding.subdivide
    cells = [(lab, 1) for lab in small_config.h_space.labels if lab not in small_config.marked]
    adjacency = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 3)]
    for eps in (2.0 ** -4, 2.0 ** -6):
        monkeypatch.setattr(treegh.embedding, "subdivide", kept)
        got = continuity_scan(dataclasses.replace(small_config, eps=eps), cells, adjacency)
        monkeypatch.undo()
        assert len(samples) == 4 and all(s.n > 30 for s in samples)
        assert not [s for s in samples if "_adj" in vars(s)]
        assert all(s._inserted is not None for s in samples)
        assert not [s for s in samples if {"vertices", "edges", "_index"} & vars(s).keys()]
        assert got == continuity_scan(dataclasses.replace(small_config, eps=eps), cells, adjacency)
        samples.clear()


def test_continuity_scan_and_replacement_path_fill_no_matrix(small_config, monkeypatch):
    def refuse(self):
        raise AssertionError("filled the %d x %d distance matrix" % (self.n, self.n))

    cells = [(lab, 1) for lab in small_config.h_space.labels if lab not in small_config.marked]
    adjacency = [(i, j) for i in range(len(cells)) for j in range(i + 1, len(cells))]
    x = tree_from_edges([("a", "b", 1.0), ("b", "c", 0.8), ("b", "d", 0.6)])
    want = continuity_scan(small_config, cells, adjacency), replacement_path(x, [0.0, 0.25, 0.5])
    monkeypatch.setattr(MetricTree, "_all_pairs", refuse)
    got = continuity_scan(small_config, cells, adjacency), replacement_path(x, [0.0, 0.25, 0.5])
    assert got[0] == want[0]
    assert [(s.s, s.hi, s.bound) for s in got[1]] == [(s.s, s.hi, s.bound) for s in want[1]]


def sampled_star_parts(params):
    """The assembly star as it was before it kept one interior vertex per
    branch: every branch sampled at eps, one vertex per sample."""
    K = params.scale
    vertices, edges, points = ["center"], [], {"center": (0, 0.0)}
    if K > 0:
        for i in range(len(params.a) + 1):
            length = K * params.coefficient(i)
            pieces = max(1, int(math.ceil(length / params.eps - 1e-12)))
            prev_id, prev_pos = "center", 0.0
            for j in range(1, pieces + 1):
                sv = j / pieces
                pos = length * j / pieces
                vid = "branch:%d:%r" % (i, sv)
                vertices.append(vid)
                points[vid] = (i, sv)
                edges.append((prev_id, vid, pos - prev_pos))
                prev_id, prev_pos = vid, pos
    return vertices, edges, points


@pytest.mark.parametrize("eps_exp", [3, 4, 5, 6])
def test_scans_match_the_eps_sampled_star(small_config, monkeypatch, eps_exp):
    # Sampling the one-interior-vertex star at eps puts the eps-sampled
    # star's points back, so certificates move only by rounding, and each
    # branch's two edges sum to its length exactly.
    cfg = dataclasses.replace(small_config, eps=2.0 ** -eps_exp)
    for k in (1, 2):
        cells = [(lab, k) for lab in cfg.h_space.labels if lab not in cfg.marked]
        adjacency = _grid_adjacency(cfg, cells)
        new = continuity_scan(cfg, cells, adjacency, strict=False)
        new_fps = injectivity_scan(cfg, cells).rows
        with monkeypatch.context() as m:
            m.setattr(treegh.embedding, "_assembly_star_parts", sampled_star_parts)
            old = continuity_scan(cfg, cells, adjacency, strict=False)
            old_fps = injectivity_scan(cfg, cells).rows
        assert len(new.rows) == len(old.rows) == len(adjacency)
        for a, b in zip(new.rows, old.rows):
            assert a.ok and b.ok
            for name in ("hi", "bound", "margin"):
                assert abs(getattr(a, name) - getattr(b, name)) <= 1e-12, (name, a, b)
        for a, b in zip(new_fps, old_fps):
            assert abs(a.fingerprint.xi_hat - b.fingerprint.xi_hat) <= 1e-14
            assert tau(a.fingerprint.a_hat, b.fingerprint.a_hat) <= 1e-14
            assert a.recovery_error <= b.recovery_error


def walked_star_components(vertices, edges, prefix):
    """The star's components as the cells walked them before the branch
    reader: an index, adjacency lists and the generic walk, with the tip of
    branch 0 the wedge vertex p and a branch vertex."""
    index = {v: n for n, v in enumerate(vertices)}
    adj = [[] for _ in vertices]
    for a, b, w in edges:
        adj[index[a]].append((index[b], float(w)))
        adj[index[b]].append((index[a], float(w)))
    names = ["p" if v == "branch:0:1.0" else prefix + v for v in vertices]
    return treegh.tree._components(adj, names, index["branch:0:1.0"])


def _renamed_center(parts, name):
    vertices, edges, points = parts
    rename = {"center": name}
    return (
        [rename.get(v, v) for v in vertices],
        [(rename.get(a, a), rename.get(b, b), w) for a, b, w in edges],
        points,
    )


def test_star_reader_equals_the_adjacency_walk():
    # The assembly layout and the eps-sampled one, whose unit branch may be
    # a single edge to the wedge vertex; a center id that sorts after the
    # branch ids, as "center" does, or before them and before "p".
    rng = np.random.default_rng(1819)
    compared = 0
    for trial in range(200):
        a = tuple(float(rng.uniform(4.0 ** -i, 2 * 4.0 ** -i)) for i in range(1, int(rng.integers(3, 6)) + 1))
        params = StarParams(a=a, scale=float(rng.choice([1e-3, 0.05, 0.7, 3.0, 16.0])), eps=2.0 ** -int(rng.integers(2, 8)))
        prefix = "P%d." % int(rng.integers(1, 4))
        for layout in (treegh.embedding._assembly_star_parts, sampled_star_parts):
            for center in ("center", "A", "~"):
                vertices, edges, _ = _renamed_center(layout(params), center)
                got = treegh.embedding._star_components(edges, prefix)
                want = walked_star_components(vertices, edges, prefix)
                assert got == want, (trial, layout, center)
                assert [c.closure_diameter.hex() for c in got] == [c.closure_diameter.hex() for c in want]
                compared += len(got)
    assert compared > 4000


def _refuse_assembly(monkeypatch):
    def refuse(*args):
        raise AssertionError("assembled a cell before checking the adjacency")

    monkeypatch.setattr(treegh.embedding, "_cell", refuse)


def test_continuity_scan_rejects_mixed_fibers(small_config, monkeypatch):
    # The mixed pair comes second: it is caught before any cell is assembled.
    _refuse_assembly(monkeypatch)
    grid = [("g0_1", 1), ("g1_1", 1), ("g1_0", 2)]
    with pytest.raises(ValueError, match=r"pair \(1, 2\).*fiber index, got 1 and 2"):
        continuity_scan(small_config, grid, [(0, 1), (1, 2)])


@pytest.mark.parametrize("adjacency", [
    [(0, -1)],  # would pair cell 0 with the last cell
    [(0, -1), (1, 2)],  # would free the last cell and then read it
    [(0, 3)],
    [(0, 1), (3, 2)],
])
def test_continuity_scan_rejects_pairs_outside_the_grid(small_config, monkeypatch, adjacency):
    _refuse_assembly(monkeypatch)
    grid = [("g0_1", 1), ("g1_1", 1), ("g1_0", 1)]
    bad = next(pair for pair in adjacency if not all(0 <= i < 3 for i in pair))
    with pytest.raises(ValueError, match=r"pair \(%d, %d\).*outside the 3 grid cells" % bad):
        continuity_scan(small_config, grid, adjacency)


def test_continuity_scan_equals_the_scan_of_each_pair_alone(small_config, asymmetric_config):
    # Cells share parts across the whole grid; each row must still be what
    # scanning its pair alone gives.
    for cfg in (small_config, asymmetric_config):
        for k in range(1, cfg.m + 1):
            cells = [(lab, kc) for lab, kc in _all_cells(cfg) if kc == k]
            adjacency = _grid_adjacency(cfg, cells)
            rows = continuity_scan(cfg, cells, adjacency).rows
            assert len(rows) == len(adjacency) > 0
            for (ia, ib), row in zip(adjacency, rows):
                alone = continuity_scan(cfg, [cells[ia], cells[ib]], [(0, 1)]).rows[0]
                assert (row.label_a, row.label_b, row.u, row.k, row.ok) == (
                    alone.label_a, alone.label_b, alone.u, alone.k, alone.ok
                )
                for name in ("hi", "bound", "margin"):
                    assert getattr(row, name).hex() == getattr(alone, name).hex(), name


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


@pytest.mark.parametrize("eps", [0.0, math.inf, math.nan])
def test_replacement_path_rejects_a_nonpositive_or_nonfinite_eps(eps):
    # an infinite eps gives every step hi = inf
    x = tree_from_edges([("a", "b", 1.0)])
    with pytest.raises(ValueError, match="eps must be positive and finite, got %s" % eps):
        replacement_path(x, [0.0, 0.5], eps=eps)


def test_replacement_path_rejects_unsorted_grid():
    x = tree_from_edges([("a", "b", 1.0)])
    with pytest.raises(ValueError):
        replacement_path(x, [0.5, 0.25])
    with pytest.raises(ValueError):
        replacement_path(x, [-0.1, 0.5])
