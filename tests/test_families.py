import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegh import (
    CombParams,
    StarParams,
    c_fun,
    comb_dist,
    comb_tree,
    cube_interval,
    rho_embed,
    star_metric,
    star_tree,
    tau,
)
from treegh.families import _assembly_star_parts, comb_attachments


# -- cutoff functions ---------------------------------------------------------


def test_cutoff_values():
    assert c_fun(0, 1.0) == 0.0
    assert c_fun(0, 0.5) == 1.0
    assert c_fun(0, 0.75) == pytest.approx(0.5)
    assert c_fun(1, 0.4) == pytest.approx(0.4)
    assert c_fun(1, 0.25) == 1.0
    assert c_fun(1, 0.5) == 0.0
    assert c_fun(2, 0.125) == 1.0
    assert c_fun(2, 0.2) == pytest.approx(0.4)
    assert c_fun(3, 0.0625) == 1.0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 6), st.floats(0.0, 1.0, allow_nan=False))
def test_cutoff_range_and_support(n, s):
    v = c_fun(n, s)
    assert 0.0 <= v <= 1.0
    if s <= 2.0 ** -(n + 1):
        assert v == 1.0
    if s >= 2.0 ** -n:
        assert v == 0.0


# -- comb metric --------------------------------------------------------------


def test_comb_dist_cases():
    assert comb_dist((0.25, 0.1), (0.25, 0.3)) == pytest.approx(0.2)
    assert comb_dist((0.25, 0.1), (0.5, 0.2)) == pytest.approx(0.55)
    assert comb_dist((0.0, 0.0), (1.0, 0.0)) == 1.0
    assert comb_dist((0.3, 0.2), (0.3, 0.2)) == 0.0


def test_attachment_positions_are_odd_dyadics():
    xs = comb_attachments(0.1, 8)
    assert xs[0] == [0.0, 0.5, 1.0]
    assert xs[1] == [0.25, 0.75]
    assert xs[2] == [0.125, 0.375, 0.625, 0.875]
    # generation 3 attaches at odd multiples of 2^-4
    assert all(round(x * 16) % 2 == 1 for x in xs[3])
    # s = 0.1 activates generations with 0.1 < 2^-n only
    assert sorted(xs) == [0, 1, 2, 3]


def test_comb_structata():
    # s = 1/2: teeth of height 1/2 at both corners and the midpoint
    t = comb_tree(CombParams(s=0.5))
    assert (t.n, len(t.edges)) == (6, 5)
    assert t.total_edge_length() == pytest.approx(2.5)
    assert t.diameter() == pytest.approx(2.0)
    assert t.metadata["truncation_error"] == 0.0

    # s = 3/8 adds generation-1 teeth of height 3/16 at the quarters
    t = comb_tree(CombParams(s=0.375))
    assert (t.n, len(t.edges)) == (10, 9)
    assert t.total_edge_length() == pytest.approx(2.5)
    assert t.diameter() == pytest.approx(1.75)

    t = comb_tree(CombParams(s=0.1))
    assert (t.n, len(t.edges)) == (34, 33)
    assert t.metadata["truncation_error"] == 0.0


def test_comb_truncation_reported_when_capped():
    t = comb_tree(CombParams(s=0.1, depth_cap=2))
    assert t.n == 18
    assert t.metadata["truncation_error"] == pytest.approx(0.1)


def test_comb_scale_contracts_all_lengths():
    unit = comb_tree(CombParams(s=0.375, scale=1.0))
    half = comb_tree(CombParams(s=0.375, scale=0.5))
    assert half.total_edge_length() == pytest.approx(0.5 * unit.total_edge_length())
    assert half.distance("spine:0.0", "spine:1.0") == pytest.approx(0.5)


def test_comb_param_validation():
    with pytest.raises(ValueError):
        CombParams(s=1.5)
    with pytest.raises(ValueError):
        CombParams(s=-0.1)
    with pytest.raises(ValueError):
        CombParams(s=0.5, scale=0.0)
    with pytest.raises(ValueError):
        CombParams(s=0.5, scale=1.5)


def test_degenerate_comb_is_a_segment():
    t = comb_tree(CombParams(s=0.0, scale=0.8))
    assert t.n == 2
    assert t.distance("spine:0.0", "spine:1.0") == pytest.approx(0.8)


# -- stars --------------------------------------------------------------------


def test_star_metric_cases():
    p = StarParams(a=(0.25, 0.0625), scale=1.0)
    assert star_metric(p, (1.0, 1), (1.0, 2)) == pytest.approx(5.0 / 16.0)
    assert star_metric(p, (0.5, 0), (1.0, 1)) == pytest.approx(0.75)
    assert star_metric(p, (0.0, 0), (1.0, 0)) == 1.0
    assert star_metric(p, (0.2, 1), (0.6, 1)) == pytest.approx(0.1)
    # the center is the same point no matter which branch names it
    assert star_metric(p, (0.0, 0), (0.0, 2)) == 0.0


def test_star_tree_geometry():
    st_ = star_tree(StarParams(a=(0.25, 0.0625), scale=2.0, eps=0.125))
    assert st_.n == 22
    assert st_.total_edge_length() == pytest.approx(2.625)
    assert st_.diameter() == pytest.approx(2.5)
    assert st_.distance("center", "branch:0:1.0") == pytest.approx(2.0)
    assert st_.distance("center", "branch:1:1.0") == pytest.approx(0.5)
    assert st_.distance("center", "branch:2:1.0") == pytest.approx(0.125)


def test_star_zero_scale_collapses():
    assert star_tree(StarParams(a=(0.25,), scale=0.0)).n == 1


@pytest.mark.parametrize("scale", [math.inf, math.nan, -1.0])
def test_star_refuses_a_negative_or_nonfinite_scale(scale):
    # an infinite scale overflowed in star_tree; a NaN one gave a one-vertex
    # star whose document held "scale": NaN
    with pytest.raises(ValueError, match="scale must be nonnegative and finite, got %r" % scale):
        StarParams(a=(0.5,), scale=scale)


@pytest.mark.parametrize("eps", [math.inf, math.nan, 0.0, -0.125])
def test_star_refuses_an_eps_that_is_not_positive_and_finite(eps):
    # an infinite eps built a star of branch ends only, whose document held
    # "eps": Infinity, which is not JSON
    with pytest.raises(ValueError, match="eps must be positive and finite, got %r" % eps):
        StarParams(a=(0.5,), scale=1.0, eps=eps)


def test_huge_combs_and_stars_fail_fast():
    # 2 (2^41 + 1) comb vertices and 1.5e12 star vertices, refused before
    # any list is built; a cap far past the last active generation costs
    # nothing.
    with pytest.raises(ValueError, match=r"s=1e-30 and depth_cap=40 would have 4398046511106 vertices, more than 1048576"):
        comb_tree(CombParams(s=1e-30, depth_cap=40))
    with pytest.raises(ValueError, match=r"depth_cap=1000000000000 would have \d+ vertices"):
        comb_attachments(1e-30, 10 ** 12)
    assert len(comb_attachments(0.3, 10 ** 12)) == 2
    with pytest.raises(ValueError, match=r"eps=1e-12 would have 1500000000001 vertices, more than 1048576"):
        star_tree(StarParams(a=(0.5,), scale=1.0, eps=1e-12))
    with pytest.raises(ValueError, match="would have inf vertices"):
        star_tree(StarParams(a=(0.5,), scale=1.0, eps=5e-324))
    # on either side of the bound: generations 0..18 and 0..17, whose
    # 2^18 + 1 teeth and as many spine vertices make 524290 vertices
    with pytest.raises(ValueError, match="would have 1048578 vertices"):
        comb_tree(CombParams(s=2.0 ** -19, depth_cap=18))
    teeth = comb_attachments(2.0 ** -18, 17)
    assert sum(len(xs) for xs in teeth.values()) == 2 ** 18 + 1
    assert comb_tree(CombParams(s=2.0 ** -7, depth_cap=6)).n == 2 * (2 ** 7 + 1)


@pytest.mark.parametrize("scale, eps", [(8.0, 1e-17), (3.0, 9.007035828690595e-17), (1.0, 5e-324)])
def test_assembly_star_refuses_an_eps_too_fine(scale, eps):
    # The unit branch's last sample rounds onto its tip (8.0 at 1e-17), or
    # only its parameter does, which gives it the tip's id (3.0), or the
    # branch length over eps overflows (5e-324).
    with pytest.raises(ValueError, match="eps=%r is too fine for star branch 0 of length %r" % (eps, scale)):
        _assembly_star_parts(StarParams(a=(0.5,), scale=scale, eps=eps))


def reference_star_tree(params):
    """star_tree's vertex and edge lists as they were built before the
    vertex count came first."""
    K = params.scale
    vertices, edges = ["center"], []
    if K > 0:
        for i in range(len(params.a) + 1):
            length = K * params.coefficient(i)
            pieces = max(1, int(math.ceil(length / params.eps - 1e-12)))
            prev_id, prev_pos = "center", 0.0
            for j in range(1, pieces + 1):
                vid = "branch:%d:%r" % (i, j / pieces)
                pos = length * j / pieces
                vertices.append(vid)
                edges.append((prev_id, vid, pos - prev_pos))
                prev_id, prev_pos = vid, pos
    return vertices, [(a, b, w.hex()) for a, b, w in edges]


def test_star_tree_equals_the_per_branch_build():
    rng = np.random.default_rng(2020)
    for _ in range(200):
        a = tuple(float(x) for x in rng.uniform(0.01, 2.0, int(rng.integers(1, 5))))
        scale = float(rng.choice([0.0, 1e-3, 0.7, 3.0]))
        eps = float(rng.choice([0.01, 0.125, 0.3, 10.0, 1e300]))
        for params in (StarParams(a=a, scale=scale, eps=eps), StarParams(a=(0.27,), scale=1.0, eps=0.03)):
            # 0.27 / 0.03 is 9 and an ulp, which the 1e-12 slack rounds down
            t = star_tree(params)
            got = (list(t.vertices), [(u, v, w.hex()) for u, v, w in t.edges])
            assert got == reference_star_tree(params)


def test_tau_is_sup_difference():
    assert tau((0.3, 0.1), (0.25, 0.12)) == pytest.approx(0.05)
    assert tau((0.5,), (0.5,)) == 0.0


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(*(st.floats(0.0, 1.0, allow_nan=False) for _ in range(3))),
    st.tuples(*(st.floats(0.0, 1.0, allow_nan=False) for _ in range(3))),
)
def test_star_distance_is_lipschitz_in_coefficients(ua, ub):
    """Sampled sup |R[a] - R[b]| <= 2 tau(a, b)."""
    a = tuple(lo + u * (hi - lo) for u, (lo, hi) in zip(ua, (cube_interval(i) for i in (1, 2, 3))))
    b = tuple(lo + u * (hi - lo) for u, (lo, hi) in zip(ub, (cube_interval(i) for i in (1, 2, 3))))
    pa, pb = StarParams(a=a, scale=1.0), StarParams(a=b, scale=1.0)
    pts = [(s, i) for i in range(4) for s in (0.0, 0.5, 1.0)]
    worst = max(
        abs(star_metric(pa, p, q) - star_metric(pb, p, q))
        for p in pts
        for q in pts
    )
    assert worst <= 2.0 * tau(a, b) + 1e-12


# -- parameter encoding -------------------------------------------------------


def test_cube_intervals():
    assert cube_interval(1) == (0.25, 0.5)
    assert cube_interval(2) == (0.0625, 0.125)
    assert cube_interval(3) == (0.015625, 0.03125)


def test_rho_embed_vectors():
    assert rho_embed((0.5, 0.0), 1, 3, 3) == (0.375, 0.0625, 0.015625)
    assert rho_embed((0.0, 0.0), 3, 3, 3) == (0.25, 0.0625, 0.03125)
    assert rho_embed((1.0, 1.0), 2, 3, 5) == (
        0.5,
        0.125,
        0.0234375,
        0.005859375,
        0.00146484375,
    )


def test_rho_embed_stays_in_cube_and_separates():
    for k in (1, 2, 3):
        for u in ((0.0, 0.0), (1.0, 0.3), (0.5, 1.0)):
            a = rho_embed(u, k, 3, 4)
            for i, v in enumerate(a, start=1):
                lo, hi = cube_interval(i)
                assert lo <= v <= hi
            assert all(x > y for x, y in zip(a, a[1:]))
    # distinct fibers alter exactly the third coordinate
    a1 = rho_embed((0.3, 0.7), 1, 3, 3)
    a2 = rho_embed((0.3, 0.7), 2, 3, 3)
    assert a1[:2] == a2[:2] and a1[2] != a2[2]


def test_rho_embed_rejects_bad_k():
    with pytest.raises(ValueError):
        rho_embed((0.5, 0.5), 0, 3, 3)
    with pytest.raises(ValueError):
        rho_embed((0.5, 0.5), 4, 3, 3)


# -- comb continuity spot check ----------------------------------------------


def _comb_points(s, eps):
    pts = [(x, 0.0) for x in np.arange(0.0, 1.0 + eps / 2, eps)]
    for n, xs in comb_attachments(s, 8).items():
        h = s * c_fun(n, s)
        if h <= 0:
            continue
        for x in xs:
            steps = int(math.ceil(h / eps))
            pts.extend((x, min(j * eps, h)) for j in range(1, steps + 1))
    return np.array(pts)


def _comb_hausdorff(p, q):
    xp, hp = p[:, 0][:, None], p[:, 1][:, None]
    xq, hq = q[:, 0][None, :], q[:, 1][None, :]
    d = np.where(xp == xq, np.abs(hp - hq), hp + np.abs(xp - xq) + hq)
    return max(d.min(axis=1).max(), d.min(axis=0).max())


def test_comb_hausdorff_within_band_bound():
    eps = 2.0 ** -8
    s, t = 0.3, 0.26  # band n = 1, |s - t| < 2^-3
    bound = max(abs(s * c_fun(i, s) - t * c_fun(i, t)) for i in range(3))
    h = _comb_hausdorff(_comb_points(s, eps), _comb_points(t, eps))
    assert h <= bound + 2 * eps
