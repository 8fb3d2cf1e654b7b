import itertools
import math

import numpy as np
import pytest

from treegh import (
    Correspondence,
    FiniteMetricSpace,
    GHCapError,
    MetricTree,
    comb_tree,
    distortion,
    gh_exact,
    gh_lower_bound,
    gh_tree_interval,
    gh_upper_bound,
    greedy_tree_correspondence,
    subdivide,
    tree_from_edges,
)
from treegh.families import CombParams
from conftest import random_space


def two_point(diam):
    return FiniteMetricSpace(
        ("a", "b"), np.array([[0.0, diam], [diam, 0.0]])
    )


def brute_force_gh(x, y):
    """Minimum half-distortion over every covering relation, by enumeration."""
    cells = list(itertools.product(range(x.n), range(y.n)))
    best = math.inf
    for bits in range(1, 2 ** len(cells)):
        pairs = [cells[i] for i in range(len(cells)) if bits >> i & 1]
        if len({p for p, _ in pairs}) < x.n or len({q for _, q in pairs}) < y.n:
            continue
        dis = max(
            abs(x.dist[p1, p2] - y.dist[q1, q2])
            for (p1, q1) in pairs
            for (p2, q2) in pairs
        )
        best = min(best, dis)
    return best / 2.0


# -- frozen examples ----------------------------------------------------------


def test_lower_bound_cases():
    one = FiniteMetricSpace(("o",), np.zeros((1, 1)))
    assert gh_lower_bound(two_point(1.0), two_point(1.0)) == 0.0
    assert gh_lower_bound(two_point(2.0), two_point(1.0)) == 0.5
    assert gh_lower_bound(one, two_point(1.0)) == 0.5


def test_two_point_closed_form():
    assert gh_exact(two_point(1.0), two_point(2.0)) == 0.5
    assert gh_exact(two_point(0.3), two_point(0.3)) == 0.0


def test_exact_matches_enumeration_on_small_spaces():
    rng = np.random.default_rng(17)
    for _ in range(8):
        x = random_space(rng, n_lo=2, n_hi=3)
        y = random_space(rng, n_lo=2, n_hi=3)
        assert gh_exact(x, y) == pytest.approx(brute_force_gh(x, y), abs=1e-12)


def test_exact_is_zero_on_identical_spaces():
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = random_space(rng, n_lo=2, n_hi=6)
        assert gh_exact(x, x) == 0.0


def test_exact_is_symmetric():
    rng = np.random.default_rng(23)
    for _ in range(5):
        x = random_space(rng)
        y = random_space(rng)
        assert abs(gh_exact(x, y) - gh_exact(y, x)) <= 1e-12


def test_bounds_bracket_exact():
    rng = np.random.default_rng(29)
    for _ in range(10):
        x = random_space(rng)
        y = random_space(rng)
        v = gh_exact(x, y)
        lo = gh_lower_bound(x, y)
        hi = gh_upper_bound(x, y, greedy_tree_correspondence(x, y))
        assert lo - 1e-12 <= v <= hi + 1e-12


def test_triangle_inequality_sampled():
    rng = np.random.default_rng(31)
    spaces = [random_space(rng, n_hi=5) for _ in range(6)]
    for i, j, k in itertools.permutations(range(6), 3):
        dij = gh_exact(spaces[i], spaces[j])
        djk = gh_exact(spaces[j], spaces[k])
        dik = gh_exact(spaces[i], spaces[k])
        assert dik <= dij + djk + 1e-9


def test_cap_guard():
    rng = np.random.default_rng(2)
    big = random_space(rng, n_lo=9, n_hi=9)
    small = random_space(rng, n_lo=2, n_hi=2)
    with pytest.raises(GHCapError):
        gh_exact(big, small)
    # raising the cap admits the pair
    assert gh_exact(big, small, cap=9) >= 0.0


# -- correspondences ----------------------------------------------------------


def test_distortion_of_identity_is_zero():
    rng = np.random.default_rng(41)
    x = random_space(rng, n_lo=4, n_hi=4)
    ident = Correspondence.from_pairs([(i, i) for i in range(4)])
    assert ident.covers(4, 4)
    assert distortion(x, x, ident) == 0.0


def test_distortion_known_value():
    x = two_point(1.0)
    y = two_point(2.0)
    corr = Correspondence.from_pairs([(0, 0), (1, 1)])
    assert distortion(x, y, corr) == 1.0
    crossed = Correspondence.from_pairs([(0, 0), (1, 0), (0, 1)])
    assert distortion(x, y, crossed) == 2.0


def test_witness_is_deterministic_and_covering():
    rng = np.random.default_rng(47)
    x = random_space(rng, n_lo=4, n_hi=5)
    y = random_space(rng, n_lo=4, n_hi=5)
    v1, w1 = gh_exact(x, y, return_witness=True)
    v2, w2 = gh_exact(x, y, return_witness=True)
    assert v1 == v2
    assert w1.pairs == w2.pairs
    assert w1.covers(x.n, y.n)
    assert distortion(x, y, w1) == pytest.approx(2.0 * v1)


def test_greedy_correspondence_is_identity_on_copies():
    rng = np.random.default_rng(53)
    x = random_space(rng, n_lo=5, n_hi=8)
    corr = greedy_tree_correspondence(x, x)
    assert distortion(x, x, corr) == 0.0


# -- tree intervals -----------------------------------------------------------


def test_interval_exact_on_tiny_trees():
    t1 = tree_from_edges([("a", "b", 1.0)])
    t2 = tree_from_edges([("x", "y", 2.0)])
    iv = gh_tree_interval(t1, t2, eps=0.5)
    assert iv.method == "exact"
    assert iv.lo <= 0.5 <= iv.hi
    assert iv.hi == pytest.approx(1.0)


def test_interval_identical_trees():
    t = comb_tree(CombParams(s=0.375))
    iv = gh_tree_interval(t, t, eps=2.0 ** -4)
    assert iv.lo == 0.0
    assert iv.hi <= 2.0 ** -3


def test_interval_orders_and_contains_distance():
    # combs of parameter 1/2 and 3/8: aligning spines and clipping teeth
    # moves no point further than 3/16, so the true GH distance is at most
    # 0.1875 and any certified lower end must stay below that
    t1 = comb_tree(CombParams(s=0.5))
    t2 = comb_tree(CombParams(s=0.375))
    iv = gh_tree_interval(t1, t2, eps=2.0 ** -5)
    assert 0.0 <= iv.lo <= iv.hi
    assert iv.lo <= 0.1875 + 1e-9


def test_interval_rejects_bad_eps():
    t = tree_from_edges([("a", "b", 1.0)])
    with pytest.raises(ValueError):
        gh_tree_interval(t, t, eps=0.0)


def test_id_correspondence_beats_rank_alignment_on_reversed_comb():
    # the same comb with its vertex list reversed: rank alignment breaks
    # eccentricity ties by index and mismatches the copies, while pairing
    # equal vertex ids of the two samples is an isometry
    t = comb_tree(CombParams(s=0.5))
    u = MetricTree(tuple(reversed(t.vertices)), t.edges)
    eps = 2.0 ** -4
    s1, s2 = subdivide(t, eps), subdivide(u, eps)
    corr = Correspondence.from_pairs([(s1.index(v), s2.index(v)) for v in s1.vertices])
    plain = gh_tree_interval(t, u, eps)
    assert plain.method == "bounds" and plain.hi > 2.0 * eps
    assert gh_upper_bound(s1, s2, corr) == 0.0


def test_distortion_rejects_a_correspondence_off_the_samples():
    # the identity on the comb's own sample leaves most of the segment's
    # sample uncovered; its zero distortion must not certify a bound
    t = comb_tree(CombParams(s=0.5))
    seg = tree_from_edges([("a", "b", 3.0)])
    eps = 2.0 ** -4
    s1, s2 = subdivide(t, eps), subdivide(seg, eps)
    ident = Correspondence.from_pairs([(i, i) for i in range(s1.n)])
    with pytest.raises(ValueError):
        distortion(s1, s2, ident)
    iv = gh_tree_interval(t, seg, eps)
    assert iv.lo == 0.4375 and iv.hi == 1.5
    # one point of a two-point tree covers neither side
    tiny = tree_from_edges([("a", "b", 1.0)])
    with pytest.raises(ValueError):
        distortion(tiny, tiny, Correspondence.from_pairs([(0, 0)]))
