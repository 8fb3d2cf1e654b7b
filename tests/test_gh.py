import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import treegh.embedding
import treegh.gh
from treegh import (
    Correspondence,
    FiniteMetricSpace,
    GHCapError,
    MetricTree,
    comb_tree,
    continuity_scan,
    distortion,
    gh_exact,
    gh_lower_bound,
    gh_tree_interval,
    gh_upper_bound,
    greedy_tree_correspondence,
    replacement_path,
    subdivide,
    tree_from_edges,
)
from treegh.families import CombParams
from conftest import random_space, random_tree


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


class _SearchDone(Exception):
    """Unwinds the reference search once the lower bound is met."""


def branch_and_bound_gh(x, y):
    """Reference: the depth-first solver that the threshold search replaced,
    kept to check it against.  Every minimiser is dominated by a map giving
    each point of x one partner plus one repair partner for every uncovered
    point of y; that family is explored with pruning on running distortion,
    seeded by the rank-aligned correspondence."""
    nx, ny = x.n, y.n
    dX, dY = x.dist, y.dist
    floor = 2.0 * gh_lower_bound(x, y)
    best_pairs = None
    seed = greedy_tree_correspondence(x, y)
    best = math.nextafter(distortion(x, y, seed), math.inf)
    px, py = [], []

    def repair(u_idx, uncovered, cur):
        nonlocal best, best_pairs
        if u_idx == len(uncovered):
            if cur < best:
                best = cur
                best_pairs = tuple(zip(px, py))
                if best <= floor:
                    raise _SearchDone
            return
        u = uncovered[u_idx]
        row_y = dY[u]
        for xi in range(nx):
            inc = float(np.abs(dX[xi, px] - row_y[py]).max())
            nm = cur if cur >= inc else inc
            if nm < best:
                px.append(xi)
                py.append(u)
                repair(u_idx + 1, uncovered, nm)
                px.pop()
                py.pop()

    def assign(i, cur):
        if i == nx:
            used = set(py)
            repair(0, [u for u in range(ny) if u not in used], cur)
            return
        row_x = dX[i]
        for j in range(ny):
            inc = 0.0 if i == 0 else float(np.abs(row_x[px] - dY[j, py]).max())
            nm = cur if cur >= inc else inc
            if nm < best:
                px.append(i)
                py.append(j)
                assign(i + 1, nm)
                px.pop()
                py.pop()

    try:
        assign(0, 0.0)
    except _SearchDone:
        pass
    witness = seed if best_pairs is None else Correspondence.from_pairs(best_pairs)
    return gh_upper_bound(x, y, witness)


def panel_pair(n, k):
    """Pair k of the fixed cloud stream default_rng([2112, n]) that the
    gh-solve benchmark draws its 5- to 8-point clouds from."""
    panel = np.random.default_rng([2112, n])
    for _ in range(k + 1):
        px, py = panel.uniform(0, 1, (n, 3)), panel.uniform(0, 1, (n, 3))
    return tuple(
        FiniteMetricSpace.from_matrix(np.sqrt(((p[:, None] - p[None]) ** 2).sum(-1)))
        for p in (px, py)
    )


# -- frozen examples ----------------------------------------------------------


def test_lower_bound_cases():
    one = FiniteMetricSpace(("o",), np.zeros((1, 1)))
    assert gh_lower_bound(two_point(1.0), two_point(1.0)) == 0.0
    assert gh_lower_bound(two_point(2.0), two_point(1.0)) == 0.5
    assert gh_lower_bound(one, two_point(1.0)) == 0.5


def reference_lower_bound(x, y):
    """The diameter and eccentricity bound as written for spaces only:
    diameters from ``diameter()``, the largest matrix entry."""
    ex, ey = x.eccentricities(), y.eccentricities()
    gaps = np.abs(ex[:, None] - ey[None, :])
    ecc_hausdorff = max(float(gaps.min(axis=1).max()), float(gaps.min(axis=0).max()))
    return 0.5 * max(abs(x.diameter() - y.diameter()), ecc_hausdorff)


def test_lower_bound_on_spaces_equals_the_reference():
    rng = np.random.default_rng(303)
    for _ in range(300):
        x, y = random_space(rng, 1, 8), random_space(rng, 1, 8)
        assert gh_lower_bound(x, y).hex() == reference_lower_bound(x, y).hex()


def matrix_lower_bound(x, y):
    """The lower bound from the full matrix of eccentricity gaps, which the
    sorted search replaced; NaN gaps propagate through its min and max."""
    ex, ey = x.eccentricities(), y.eccentricities()
    gaps = np.abs(ex[:, None] - ey[None, :])
    ecc_hausdorff = max(float(gaps.min(axis=1).max()), float(gaps.min(axis=0).max()))
    return 0.5 * max(abs(float(ex.max()) - float(ey.max())), ecc_hausdorff)


def test_sorted_eccentricity_gaps_equal_the_gap_matrix():
    pairs = []
    for seed in range(400):
        rng = np.random.default_rng([7070, seed])
        x, y = random_tree(rng, 2, 40), random_tree(rng, 2, 40)
        pairs.append((subdivide(x, 0.3), subdivide(y, 0.3)) if seed % 2 else (x, y))
    combs = [comb_tree(CombParams(s=s)) for s in (0.5, 0.375)]
    pairs += [tuple(subdivide(t, 2.0 ** -k) for t in combs) for k in (4, 6, 8)]
    one, tree = MetricTree(("v",), ()), pairs[1][0]
    pairs += [(tree, tree), (one, one), (one, tree), (tree, one)]
    inf = FiniteMetricSpace.from_matrix([[0.0, math.inf, 1.0], [math.inf, 0.0, 2.0], [1.0, 2.0, 0.0]])
    # a NaN eccentricity among finite ones: every gap to it is NaN
    nan = FiniteMetricSpace.from_matrix([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0], [2.0, math.nan, 0.0]])
    pairs += [(inf, inf), (inf, tree), (tree, inf)]
    pairs += [(nan, tree), (tree, nan), (one, nan), (nan, one)]
    # eccentricities that overflow: inf, so that inf - inf is a NaN gap,
    # and NaN where twice a depth overflows too, so that inf - inf is a
    # NaN distance
    huge = tree_from_edges([("a", "b", 1.7e308), ("b", "c", 1.7e308), ("b", "d", 1.0)])
    pairs += [(huge, huge), (huge, tree), (tree, huge), (huge, one)]
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isinf(huge.eccentricities()).any() and np.isnan(huge.eccentricities()).any()
        for x, y in pairs:
            ex, ey = x.eccentricities(), y.eccentricities()
            for a, b in ((ex, ey), (ey, ex)):
                want = np.abs(a[:, None] - b[None, :]).min(axis=1)
                got = treegh.gh._least_gaps(a, b)
                assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]
            assert gh_lower_bound(x, y).hex() == matrix_lower_bound(x, y).hex(), (x, y)
        assert math.isnan(gh_lower_bound(huge, huge)) and math.isnan(gh_lower_bound(nan, tree))


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


def test_exact_matches_branch_and_bound_bit_for_bit():
    # both report half the distortion of an optimal correspondence, so the
    # floats agree exactly; sizes 1-6 are drawn independently per side
    rng = np.random.default_rng(61)
    for _ in range(150):
        x = random_space(rng, n_lo=1, n_hi=6)
        y = random_space(rng, n_lo=1, n_hi=6)
        value, witness = gh_exact(x, y, return_witness=True)
        assert value.hex() == branch_and_bound_gh(x, y).hex()
        assert witness.covers(x.n, y.n)
        assert distortion(x, y, witness) == 2.0 * value


# Values the branch-and-bound solver gave on the panel pairs that made its
# heavy tail (seconds per solve); the threshold search takes milliseconds.
PANEL_VALUES = {
    (8, 0): "0x1.801fad2d3626dp-3",
    (8, 1): "0x1.3c25ec9a47816p-3",
    (8, 2): "0x1.09d7cc7e84f37p-2",
    (8, 3): "0x1.5a0d4b5a2c348p-3",
    (7, 2): "0x1.c956a3939b3b0p-3",
    (7, 35): "0x1.0e478bc8f7f67p-2",
}


@pytest.mark.parametrize("n, k", sorted(PANEL_VALUES))
def test_exact_on_heavy_tail_panel_pairs(n, k):
    x, y = panel_pair(n, k)
    assert gh_exact(x, y).hex() == PANEL_VALUES[(n, k)]


def test_exact_takes_no_rank_aligned_seed(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("greedy_tree_correspondence called")

    monkeypatch.setattr(treegh.gh, "greedy_tree_correspondence", boom)
    rng = np.random.default_rng(67)
    pairs = [(random_space(rng, 1, 4), random_space(rng, 5, 8)) for _ in range(4)]
    for x, y in pairs + [panel_pair(8, 2)]:
        value, witness = gh_exact(x, y, return_witness=True)
        assert distortion(x, y, witness) == 2.0 * value


def reference_covering_within(mismatch, delta, nx: int, ny: int):
    """Reference: the decision that packed compatibility rows and memoised
    line supports replaced, kept verbatim to check against.  Bitset of a
    covering correspondence within ``delta``, or None."""
    ok = (mismatch <= delta) & (mismatch.T <= delta)
    compat = [int.from_bytes(r.tobytes(), "little") for r in np.packbits(ok, 1, bitorder="little")]
    lines = [((1 << ny) - 1) << (i * ny) for i in range(nx)]
    lines += [sum(1 << (i * ny + j) for i in range(nx)) for j in range(ny)]

    def search(live: int, chosen: int):
        # Compatibility is symmetric, so the nodes with a compatible live
        # node in a line are the union of that line's live bitsets.
        last = None
        while live != last:
            last = live
            for line in lines:
                support, rest = 0, live & line
                while rest:
                    low = rest & -rest
                    rest ^= low
                    support |= compat[low.bit_length() - 1]
                live &= support
        if chosen & ~live:
            return None
        open_lines = [line for line in lines if not chosen & line]
        if not open_lines:
            return chosen
        options = min((live & line for line in open_lines), key=int.bit_count)
        while options:
            low = options & -options
            options ^= low
            found = search(live & compat[low.bit_length() - 1], chosen | low)
            if found is not None:
                return found
            live ^= low
        return None

    return search((1 << (nx * ny)) - 1, 0)


def mismatch_matrix(x, y):
    nx, ny = x.n, y.n
    return np.abs(x.dist[:, None, :, None] - y.dist[None, :, None, :]).reshape(nx * ny, -1)


def reference_threshold_search(x, y):
    """Reference: the threshold search as it was before ``hi`` jumped to
    the witness's own distortion, on the reference decision.  Returns the
    value, the witness and every threshold it decided."""
    nx, ny = x.n, y.n
    mismatch = mismatch_matrix(x, y)
    thresholds = np.unique(mismatch)
    lo = int(np.searchsorted(thresholds, 2.0 * gh_lower_bound(x, y)))
    hi, chosen, visited = len(thresholds) - 1, None, []
    while lo < hi:
        mid = (lo + hi) // 2
        visited.append(thresholds[mid])
        found = reference_covering_within(mismatch, thresholds[mid], nx, ny)
        if found is None:
            lo = mid + 1
        else:
            hi, chosen = mid, found
    if chosen is None:
        visited.append(thresholds[hi])
        chosen = reference_covering_within(mismatch, thresholds[hi], nx, ny)
    witness = Correspondence.from_pairs(divmod(u, ny) for u in range(nx * ny) if chosen >> u & 1)
    return gh_upper_bound(x, y, witness), witness, visited


def seeded_pairs(seed, count):
    """``count`` pairs of random spaces, each side of 1 to 8 points."""
    rng = np.random.default_rng(seed)
    return [(random_space(rng, 1, 8), random_space(rng, 1, 8)) for _ in range(count)]


def test_decision_and_witness_match_the_reference(monkeypatch):
    # every threshold either search decides, on 400 seeded pairs and the
    # panel pairs of the old heavy tail
    pairs = seeded_pairs(1313, 400) + [panel_pair(n, k) for n, k in sorted(PANEL_VALUES)]
    assert any(x.n != y.n for x, y in pairs)
    assert {x.n for x, _ in pairs} == set(range(1, 9))
    visited = []
    compatibility = treegh.gh._compatibility

    def record(sym, delta):
        visited.append(delta)
        return compatibility(sym, delta)

    monkeypatch.setattr(treegh.gh, "_compatibility", record)
    decisions = 0
    for x, y in pairs:
        visited.clear()
        value, witness = gh_exact(x, y, return_witness=True)
        want_value, want_witness, want_visited = reference_threshold_search(x, y)
        assert value.hex() == want_value.hex()
        assert (witness.packed, witness.code) == (want_witness.packed, want_witness.code)
        mismatch = mismatch_matrix(x, y)
        sym, lines = np.maximum(mismatch, mismatch.T), treegh.gh._lines(x.n, y.n)
        for delta in sorted(set(visited) | set(want_visited)):
            got = treegh.gh._covering_within(compatibility(sym, delta), lines)
            assert got == reference_covering_within(mismatch, delta, x.n, y.n)
            decisions += 1
    assert decisions >= 2 * len(pairs)


def test_value_without_witness_builds_no_correspondence(monkeypatch):
    pairs = [panel_pair(n, k) for n, k in sorted(PANEL_VALUES)] + seeded_pairs(71, 60)
    want = []
    for x, y in pairs:
        value, witness = gh_exact(x, y, return_witness=True)
        assert value.hex() == (0.5 * distortion(x, y, witness)).hex()
        want.append(value.hex())

    def boom(*args, **kwargs):
        raise AssertionError("a correspondence was built or measured")

    monkeypatch.setattr(Correspondence, "from_pairs", boom)
    monkeypatch.setattr(treegh.gh, "distortion", boom)
    assert [gh_exact(x, y).hex() for x, y in pairs] == want
    with pytest.raises(AssertionError):
        gh_exact(*pairs[0], return_witness=True)


def test_cap_guard():
    rng = np.random.default_rng(2)
    big = random_space(rng, n_lo=9, n_hi=9)
    small = random_space(rng, n_lo=2, n_hi=2)
    with pytest.raises(GHCapError):
        gh_exact(big, small)
    # raising the cap admits the pair
    assert gh_exact(big, small, cap=9) >= 0.0


# -- correspondences ----------------------------------------------------------


def test_correspondence_packs_sorted_distinct_pairs():
    corr = Correspondence.from_pairs([(3, 1), (0, 0), (3, 1), (300, 2)])
    assert corr.pairs == ((0, 0), (3, 1), (300, 2)) and len(corr) == 3
    assert corr.rows.dtype == np.uint16 and len(corr.packed) == 12
    same = Correspondence.from_pairs([(300, 2), (0, 0), (3, 1)])
    assert corr == same and hash(corr) == hash(same)
    assert Correspondence.from_pairs([]).pairs == ()
    with pytest.raises(ValueError):
        Correspondence.from_pairs([(0, -1)])


def test_from_pairs_accepts_an_integer_array():
    rng = np.random.default_rng(43)
    raw = rng.integers(0, 300, size=(500, 2))
    raw[250:] = raw[:250]  # every pair twice
    corr = Correspondence.from_pairs(raw)
    assert corr == Correspondence.from_pairs(map(tuple, raw.tolist()))
    assert corr.pairs == tuple(sorted(set(map(tuple, raw.tolist()))))
    assert Correspondence.from_pairs(np.zeros((0, 2), dtype=np.int64)).pairs == ()
    with pytest.raises(ValueError):
        Correspondence.from_pairs(np.array([[0, 0], [2, -1]]))
    with pytest.raises(ValueError):
        Correspondence.from_pairs(np.array([[0.0, 1.0]]))


def test_covers_is_false_on_out_of_range_indices():
    corr = Correspondence.from_pairs([(0, 0), (1, 1), (2, 1)])
    assert corr.covers(3, 2)
    assert not corr.covers(2, 2)  # i = 2 lies outside range(2)
    assert not corr.covers(3, 1)  # j = 1 lies outside range(1)
    assert not corr.covers(4, 2)  # i = 3 is missing
    assert not corr.covers(3, 3)  # j = 2 is missing


def unblocked_distortion(x, y, corr):
    """The distortion formula as one |C| x |C| product, for reference."""
    I, J = corr.rows.T.astype(np.intp)
    A = x.dist[np.ix_(I, I)]
    A -= y.dist[np.ix_(J, J)]
    return float(np.abs(A, out=A).max())


def random_covering(rng, nx, ny, extra):
    """A covering correspondence whose points mostly recur in many pairs."""
    pairs = [(i, int(rng.integers(ny))) for i in range(nx)]
    pairs += [(int(rng.integers(nx)), j) for j in range(ny)]
    pairs += [(int(rng.integers(nx)), int(rng.integers(ny))) for _ in range(extra)]
    return Correspondence.from_pairs(pairs)


def test_blocked_distortion_equals_the_unblocked_formula(monkeypatch):
    rng = np.random.default_rng(59)
    cases = []
    for _ in range(30):
        x, y = random_space(rng, 2, 9), random_space(rng, 2, 9)
        cases.append((x, y, random_covering(rng, x.n, y.n, int(rng.integers(0, 20)))))
    for _ in range(10):
        x = subdivide(random_tree(rng, 2, 8), 0.1)
        y = subdivide(random_tree(rng, 2, 8), 0.1)
        cases.append((x, y, random_covering(rng, x.n, y.n, 3 * max(x.n, y.n))))
    for r, c in itertools.permutations(range(4), 2):
        # one mismatch off the diagonal of an asymmetric matrix: every
        # entry of the product counts, not one triangle of it
        d = np.zeros((4, 4))
        d[r, c] = 1.0
        x = FiniteMetricSpace(tuple("abcd"), d)
        ident = Correspondence.from_pairs([(i, i) for i in range(4)])
        cases.append((x, random_space(rng, 4, 4, spread=0.0), ident))
    for x, y, corr in cases:
        m = len(corr)
        want = unblocked_distortion(x, y, corr)
        uneven = next((k for k in range(2, m) if m % k), 1)
        # 1-row blocks, blocks of `uneven` rows with a short last one, one block
        for cells in (1, m * uneven, 10 ** 9):
            monkeypatch.setattr(treegh.gh, "_DISTORTION_BLOCK_CELLS", cells)
            assert distortion(x, y, corr) == want


def test_distortion_memory_stays_far_below_the_full_product():
    x = subdivide(comb_tree(CombParams(s=0.5)), 2.0 ** -8)
    y = subdivide(comb_tree(CombParams(s=0.375)), 2.0 ** -8)
    ny = y.n
    corr = Correspondence.from_pairs(
        [(i, (i * ny // x.n + step) % ny) for i in range(x.n) for step in (0, 1, 2)]
        + [(j * x.n // ny, j) for j in range(ny)]
    )
    assert len(corr) >= 1400
    x.dist, y.dist  # both matrices built before tracing
    tracemalloc.start()
    try:
        value = distortion(x, y, corr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == unblocked_distortion(x, y, corr)
    assert peak < len(corr) ** 2 * 8 / 8


def _certified_distortions(monkeypatch, run):
    """Run ``run()`` and return the ``(x, y, corr)`` of every upper bound
    that continuity_scan and replacement_path certify during it."""
    seen = []
    real_bound = treegh.embedding.gh_upper_bound

    def bound(x, y, corr):
        seen.append((x, y, corr))
        return real_bound(x, y, corr)

    monkeypatch.setattr(treegh.embedding, "gh_upper_bound", bound)
    run()
    monkeypatch.setattr(treegh.embedding, "gh_upper_bound", real_bound)
    return seen


def _star_pair(rng, leaves, stretched):
    """Two stars on one vertex order (centre first): y stretches the leaf
    edges of the given vertex indices, so the identity correspondence has
    its largest mismatch between the two stretched leaves only."""
    lengths = rng.uniform(0.5, 1.0, leaves)
    extra = np.zeros(leaves)
    extra[[v - 1 for v in stretched]] = [0.25, 0.5]
    names = ["c"] + ["l%d" % i for i in range(leaves)]
    x, y = (
        MetricTree(names, [("c", names[i + 1], float(w)) for i, w in enumerate(lengths + e)])
        for e in (np.zeros(leaves), extra)
    )
    return x, y, Correspondence.from_pairs([(i, i) for i in range(leaves + 1)])


def test_pruned_tree_distortion_equals_the_unblocked_formula(small_config, monkeypatch):
    rng = np.random.default_rng(2026)
    cases = []
    for lo, hi, eps in ((2, 8, 0.1), (2, 8, 0.1), (1, 3, 0.5), (5, 12, 0.05)) * 3:
        x = subdivide(random_tree(rng, lo, hi), eps)
        y = subdivide(random_tree(rng, lo, hi), eps)
        extra = int(rng.integers(0, 3 * max(x.n, y.n) + 1))
        cases.append((x, y, random_covering(rng, x.n, y.n, extra)))
    one = MetricTree(("v",), ())
    cases.append((one, MetricTree(("w",), ()), Correspondence.from_pairs([(0, 0)])))
    cases.append(_star_pair(rng, 99, stretched=(37, 70)))
    cells = [(lab, 1) for lab in small_config.h_space.labels if lab not in small_config.marked]
    adjacency = [(i, j) for i in range(len(cells)) for j in range(i + 1, len(cells))]
    cases += _certified_distortions(
        monkeypatch, lambda: continuity_scan(small_config, cells, adjacency, strict=False)
    )
    tripod = tree_from_edges([("a", "b", 1.0), ("b", "c", 0.8), ("b", "d", 0.6)])
    cases += _certified_distortions(
        monkeypatch, lambda: replacement_path(tripod, [0.0, 0.25, 0.3, 0.5, 1.0], eps=2.0 ** -4)
    )
    stride = treegh.gh._REPRESENTATIVE_STRIDE
    assert any(len(c) < stride for _, _, c in cases)
    assert sum(len(c) > 2 * stride for _, _, c in cases) >= 20

    def values(x, y, corr):
        m = len(corr)
        uneven = next((k for k in range(2, m) if m % k), 1)
        for cells in (1, m * uneven, 10 ** 9):
            monkeypatch.setattr(treegh.gh, "_DISTORTION_BLOCK_CELLS", cells)
            yield distortion(x, y, corr)

    # first planned from depth rows, with no fill made; then from the fills
    walked = [list(values(*case)) for case in cases]
    assert all(t._dist is None for x, y, _ in cases for t in (x, y))
    for x, y, _ in cases:
        x.dist, y.dist
    filled = [list(values(*case)) for case in cases]
    for (x, y, corr), got, read in zip(cases, walked, filled):
        want = unblocked_distortion(x, y, corr)
        assert got == read == [want] * 3


def _plan_cases(small_config, monkeypatch):
    rng = np.random.default_rng(2121)
    cases = []
    for lo, hi, eps in ((2, 8, 0.1), (5, 12, 0.05), (1, 3, 0.5)) * 4:
        x = subdivide(random_tree(rng, lo, hi), eps)
        y = subdivide(random_tree(rng, lo, hi), eps)
        cases.append((x, y, random_covering(rng, x.n, y.n, int(rng.integers(0, 2 * max(x.n, y.n))))))
    cells = [(lab, 2) for lab in small_config.h_space.labels if lab not in small_config.marked]
    cases += _certified_distortions(
        monkeypatch, lambda: continuity_scan(small_config, cells, [(0, 1), (1, 2), (2, 3)], strict=False)
    )
    return cases


@pytest.mark.parametrize("stride", [1, 32, 64])
def test_plan_bounds_every_row_and_stays_below_the_maximum(small_config, monkeypatch, stride):
    # Stride 1 makes every row of a correspondence of at most 256 pairs a
    # representative, so `low` is the largest entry itself.
    cases = _plan_cases(small_config, monkeypatch)
    monkeypatch.setattr(treegh.gh, "_REPRESENTATIVE_STRIDE", stride)
    for x, y, corr in cases:
        I, J = corr.rows.T.astype(np.intp)
        rows = np.abs(x.dist[np.ix_(I, I)] - y.dist[np.ix_(J, J)]).max(axis=1)
        fresh = [MetricTree(t.vertices, t.edges) for t in (x, y)]  # no fill
        # both plans read depth rows; the second is made on trees with a
        # cached fill, which the plan must ignore
        for plan in (treegh.gh._plan(*fresh, corr), treegh.gh._plan(x, y, corr)):
            assert plan.low <= rows.max() and np.all(plan.bound >= rows)
        assert all(t._dist is None for t in fresh)
        assert distortion(x, y, corr) == rows.max() == unblocked_distortion(x, y, corr)
        assert distortion(*fresh, corr) == rows.max()  # rows read from depth rows


def _reads(monkeypatch):
    """Record the rows each tree distortion reads: exact rows
    (``_row_maxima``) and rows read from depth rows (``_depth_mismatch``)."""
    read = {"exact": [], "depth": []}
    real_rows, real_depth = treegh.gh._row_maxima, treegh.gh._depth_mismatch

    def exact(dx, rx, cx, dy, ry, cy, rows):
        read["exact"].extend(rows.tolist())
        return real_rows(dx, rx, cx, dy, ry, cy, rows)

    def depth(x, I, cx, y, J, cy, rows):
        read["depth"].extend(rows.tolist())
        return real_depth(x, I, cx, y, J, cy, rows)

    monkeypatch.setattr(treegh.gh, "_row_maxima", exact)
    monkeypatch.setattr(treegh.gh, "_depth_mismatch", depth)
    return read


def test_distortion_reads_only_planned_rows(small_config, monkeypatch):
    # Fresh trees read only planned rows, from depth rows, and fill
    # nothing; the plans leave some sources unread.
    cases = _plan_cases(small_config, monkeypatch)
    plans = []
    real_plan = treegh.gh._plan

    def plan(x, y, corr):
        plans.append(real_plan(x, y, corr))
        return plans[-1]

    monkeypatch.setattr(treegh.gh, "_plan", plan)
    read = _reads(monkeypatch)
    skipped = 0
    for x, y, corr in cases:
        fresh = [MetricTree(t.vertices, t.edges) for t in (x, y)]
        for rows in read.values():
            rows.clear()
        distortion(*fresh, corr)
        assert all(t._dist is None for t in fresh)
        p = plans[-1]
        assert set(read["depth"]) <= set(np.flatnonzero(p.bound > p.low).tolist())
        assert not read["exact"]
        planned = np.unique(corr.rows[:, 0][p.bound > p.low])
        skipped += len(planned) < x.n
    assert skipped >= len(cases) // 2


def test_unique_maximum_in_a_skipped_row_is_found(monkeypatch):
    x, y, corr = _star_pair(np.random.default_rng(7), 99, stretched=(37, 70))
    stride = treegh.gh._REPRESENTATIVE_STRIDE
    I = corr.rows[:, 0].astype(np.intp)
    full = np.abs(x.dist[np.ix_(I, I)] - y.dist[np.ix_(I, I)])
    rows = np.flatnonzero((full == full.max()).any(axis=1))
    assert rows.tolist() == [37, 70] and all(r % stride for r in rows)
    fresh = [MetricTree(t.vertices, t.edges) for t in (x, y)]  # no fill: walked rows
    assert distortion(x, y, corr) == distortion(*fresh, corr) == full.max()
    assert full.max() == unblocked_distortion(x, y, corr)
    # a sum that overflows to NaN proves nothing about its row, so a plan
    # that reads only NaN rows bounds no row, and every row is read
    real_plan, real_rows = treegh.gh._plan, MetricTree._depth_rows

    def plan(x, y, corr):
        with monkeypatch.context() as nan:
            nan.setattr(MetricTree, "_depth_rows", lambda t, v: np.nan * real_rows(t, v))
            return real_plan(x, y, corr)

    monkeypatch.setattr(treegh.gh, "_plan", plan)
    read = _reads(monkeypatch)
    fresh = [MetricTree(t.vertices, t.edges) for t in (x, y)]
    assert distortion(x, y, corr) == distortion(*fresh, corr) == full.max()
    assert sorted(read["depth"]) == list(range(len(corr)))


def test_pruned_distortion_reads_few_rows(small_config, monkeypatch):
    cfg = dataclasses.replace(small_config, eps=2.0 ** -6, m=3)
    cells = [("g0_1", 1), ("g1_1", 1), ("g1_2", 1)]
    cases = _certified_distortions(
        monkeypatch, lambda: continuity_scan(cfg, cells, [(0, 1), (1, 2)], strict=False)
    )
    read = _reads(monkeypatch)
    for x, y, corr in cases:
        for rows in read.values():
            rows.clear()
        value = distortion(x, y, corr)
        assert len(corr) >= 1000
        rows = len(read["exact"]) + len(read["depth"])
        assert rows <= len(corr) / 2, (rows, len(corr))
        assert value == unblocked_distortion(x, y, corr)


def test_settled_distortion_equals_the_full_product():
    # fresh trees, so every value is read from depth rows and settled
    read = 0
    for seed in range(200):
        rng = np.random.default_rng([7070, seed])
        x = subdivide(random_tree(rng, 4, 12, 3.0), 0.3)
        y = subdivide(random_tree(rng, 4, 12, 3.0), 0.3)
        corr = greedy_tree_correspondence(
            MetricTree(x.vertices, x.edges), MetricTree(y.vertices, y.edges)
        )
        got = distortion(x, y, corr)
        assert x._dist is None and y._dist is None
        assert got.hex() == unblocked_distortion(x, y, corr).hex(), seed
        read += 1
    assert read == 200


def test_distortion_reads_the_full_product_once_both_trees_hold_a_fill(monkeypatch):
    # Two filled trees read every row from their fills and make no plan; a
    # filled tree and a fresh one, or two fresh trees, read depth rows and
    # fill no fresh tree.  Every value is the full product's, as float hex.
    rng = np.random.default_rng(2929)
    pairs = [
        tuple(subdivide(random_tree(rng, 4, 12), 0.2) for _ in range(2)) for _ in range(8)
    ]
    pairs.append(tuple(subdivide(comb_tree(CombParams(s=s)), 2.0 ** -8) for s in (0.5, 0.375)))
    assert pairs[-1][0].n == pairs[-1][1].n == 641

    def fresh(t):
        return MetricTree(t.vertices, t.edges)

    def unplanned(x, y, corr):
        raise AssertionError("a pair of filled trees was planned")

    read = _reads(monkeypatch)
    real_plan = treegh.gh._plan
    for x, y in pairs:
        corr = greedy_tree_correspondence(fresh(x), fresh(y))
        want = unblocked_distortion(fresh(x), fresh(y), corr).hex()
        for filled in ((False, False), (True, False), (False, True), (True, True)):
            a, b = fresh(x), fresh(y)
            for t, fill in zip((a, b), filled):
                if fill:
                    t.dist
            for rows in read.values():
                rows.clear()
            if all(filled):
                monkeypatch.setattr(treegh.gh, "_plan", unplanned)
            assert distortion(a, b, corr).hex() == want
            monkeypatch.setattr(treegh.gh, "_plan", real_plan)
            if all(filled):
                assert sorted(read["exact"]) == list(range(len(corr))) and not read["depth"]
            else:
                assert read["depth"] and not read["exact"]
            assert [t._dist is not None for t in (a, b)] == list(filled)


def test_isometric_pair_reads_every_row_from_depth_rows(monkeypatch):
    # Every entry of an isometric pair under an isometry is 0, so no row is
    # bounded below `low` and every row is read, from depth rows.
    x = subdivide(comb_tree(CombParams(s=0.5)), 2.0 ** -6)
    y = MetricTree(x.vertices, x.edges)
    assert x.n == 161
    ident = Correspondence.from_pairs([(i, i) for i in range(x.n)])
    read = _reads(monkeypatch)
    assert distortion(x, y, ident) == 0.0
    assert sorted(read["depth"]) == list(range(161)) and not read["exact"]
    assert x._dist is None and y._dist is None
    assert unblocked_distortion(x, y, ident) == 0.0


def test_planned_distortion_equals_the_full_product_on_degenerate_pairs(small_config, monkeypatch):
    # Isometric pairs, a cell paired with itself and trees whose distances
    # overflow to NaN: the planned value is the full product's over
    # the two fills, as float hex.
    rng = np.random.default_rng(3131)
    cases = []
    for _ in range(6):
        t = subdivide(random_tree(rng, 3, 12), 0.2)
        corr = greedy_tree_correspondence(t, MetricTree(t.vertices, t.edges))
        cases += [(t, t, corr), (t, t, random_covering(rng, t.n, t.n, t.n))]
    cells = [(lab, 1) for lab in small_config.h_space.labels if lab not in small_config.marked]
    cases += _certified_distortions(
        monkeypatch, lambda: continuity_scan(small_config, cells, [(0, 0), (2, 2)], strict=False)
    )
    huge = tree_from_edges([("a", "b", 1.7e308), ("b", "c", 1.7e308), ("b", "d", 1.0)])
    big = tree_from_edges([("a", "b", 1e308), ("b", "c", 1e308)])
    small = tree_from_edges([("x", "y", 1.0), ("y", "z", 2.0)])
    cases.append((huge, huge, Correspondence.from_pairs([(i, i) for i in range(4)])))
    values = set()
    with np.errstate(over="ignore", invalid="ignore"):
        for x, y in ((huge, huge), (huge, small), (small, huge), (big, small)):
            cases.append((x, y, greedy_tree_correspondence(
                MetricTree(x.vertices, x.edges), MetricTree(y.vertices, y.edges)
            )))
        for x, y, corr in cases:
            fresh = [MetricTree(t.vertices, t.edges) for t in (x, y)]
            got = distortion(*fresh, corr).hex()
            assert all(t._dist is None for t in fresh)
            assert got == unblocked_distortion(*fresh, corr).hex(), (x, y)
            values.add(got)
    assert {"nan", "0x0.0p+0"} <= values


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


def _tie_ranks(ecc):
    """Indices by eccentricity, one at a time: an eccentricity within
    n * 2**-50 times the largest of the one before it in sorted order joins
    its tie, and ties go by index."""
    values = ecc.tolist()
    by_value = sorted(range(len(values)), key=lambda i: (values[i], i))
    top = values[by_value[-1]]
    tol = len(values) * 2.0 ** -50 * (top if math.isfinite(top) else 0.0)
    group, ranks = 0, {}
    for prev, i in zip([None] + by_value, by_value):
        if prev is not None and not values[i] - values[prev] <= tol:
            group += 1
        ranks[i] = group
    return np.array(sorted(range(len(values)), key=lambda i: (ranks[i], i)), dtype=np.intp)


def zipped_greedy_correspondence(x, y):
    """greedy_tree_correspondence as it packed its pairs before: a zip of
    numpy scalars, one pair at a time, with ranks from _tie_ranks."""
    order_x = _tie_ranks(x.eccentricities())
    order_y = _tie_ranks(y.eccentricities())
    nx, ny = len(order_x), len(order_y)
    to_y = order_y[np.round(np.arange(nx) * (ny - 1) / max(1, nx - 1)).astype(int)]
    to_x = order_x[np.round(np.arange(ny) * (nx - 1) / max(1, ny - 1)).astype(int)]
    return Correspondence.from_pairs(zip(np.r_[order_x, to_x], np.r_[to_y, order_y]))


def test_greedy_correspondence_equals_the_zipped_pairs():
    # The comb samples that the intervals of the gh-solve benchmark align
    # (the quick-start pair and in-band pairs), seeded random trees, and
    # spaces, one of a single point.
    rng = np.random.default_rng(1820)
    pairs = []
    for s, t in [(0.5, 0.375)] + [(float(s), float(s) * 1.1) for s in rng.uniform(0.13, 0.9, 8)]:
        x, y = (subdivide(comb_tree(CombParams(s=v)), 2.0 ** -6) for v in (s, t))
        pairs.append((x, y))
    pairs += [(random_tree(rng, 1, 30), random_tree(rng, 1, 30)) for _ in range(40)]
    pairs += [(random_space(rng, 1, 6), random_space(rng, 1, 6)) for _ in range(20)]
    pairs.append((random_space(rng, 1, 1), random_space(rng, 3, 3)))
    for x, y in pairs:
        got, want = greedy_tree_correspondence(x, y), zipped_greedy_correspondence(x, y)
        assert (got.packed, got.code) == (want.packed, want.code)


def test_rank_alignment_does_not_depend_on_rounding(monkeypatch):
    # Mirror vertices of a comb have the same exact eccentricity, but their
    # distances round differently on non-dyadic combs; moving every
    # eccentricity by a few ulps leaves the correspondence as it is.
    rng = np.random.default_rng(3434)
    pairs = [
        tuple(subdivide(comb_tree(CombParams(s=v)), 2.0 ** -6) for v in (s, s * 1.1))
        for s in rng.uniform(0.13, 0.8, 6)
    ]
    for x, y in pairs:
        want = greedy_tree_correspondence(x, y)
        for t in (x, y):
            ecc = t.eccentricities()
            near = np.flatnonzero(np.isclose(ecc[:, None], ecc[None, :], rtol=1e-12).sum(axis=1) > 1)
            assert len(near) > 10  # the combs have near ties
        real = MetricTree.eccentricities
        for most in (1, 3):
            monkeypatch.setattr(
                MetricTree, "eccentricities",
                lambda t, most=most: _nudge(real(t), rng.integers(-most, most + 1, size=t.n)),
            )
            got = greedy_tree_correspondence(x, y)
            monkeypatch.setattr(MetricTree, "eccentricities", real)
            assert (got.packed, got.code) == (want.packed, want.code)


def _nudge(values, ulps):
    """Each value moved by its own number of ulps."""
    out = values.copy()
    for i, k in enumerate(ulps.tolist()):
        for _ in range(abs(int(k))):
            out[i] = np.nextafter(out[i], np.inf if k > 0 else -np.inf)
    return out


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
    # an infinite eps would certify [0, inf]; a NaN one, nothing
    t = tree_from_edges([("a", "b", 1.0)])
    for eps in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="eps must be positive and finite, got %s" % eps):
            gh_tree_interval(t, t, eps=eps)


def as_space_interval(t1, t2, eps, cap=treegh.gh.DEFAULT_CAP):
    """The interval computed on dense copies of both samples, as it was
    before the GH layer took trees: the reference for gh_tree_interval.
    Returns ``(lo, hi, method, witness)``."""
    xs = subdivide(t1, eps).as_space()
    ys = subdivide(t2, eps).as_space()
    if max(xs.n, ys.n) <= cap:
        value, witness = gh_exact(xs, ys, cap=cap, return_witness=True)
        return max(0.0, value - eps), value + eps, "exact", witness
    lo = max(0.0, reference_lower_bound(xs, ys) - eps)
    witness = greedy_tree_correspondence(xs, ys)
    return lo, 0.5 * unblocked_distortion(xs, ys, witness) + eps, "bounds", witness


def in_band_comb_pairs(rng, count):
    """Comb parameters ``(s, t)`` a band's fraction apart, as gh-solve draws them."""
    pairs = [(0.5, 0.375)]
    for _ in range(count):
        band = int(rng.integers(0, 3))
        s = float(rng.uniform(2.0 ** -(band + 1), 2.0 ** -band))
        delta = float(rng.uniform(0.05, 0.95)) * 2.0 ** -(band + 2)
        pairs.append((s, s + delta if s + delta <= 1.0 else s - delta))
    return pairs


def test_interval_on_trees_equals_the_as_space_path():
    # lo and hi as float hex, the method and the witness's bytes, on random
    # tree pairs in both modes and on in-band comb pairs
    rng = np.random.default_rng(1515)
    pairs = []
    for _ in range(1000):
        t1, t2 = random_tree(rng, 2, 9), random_tree(rng, 2, 9)
        pairs.append((t1, t2, float(rng.choice([1.0, 0.5, 0.25]))))
    for s, t in in_band_comb_pairs(rng, 15):
        pairs.append((comb_tree(CombParams(s=s)), comb_tree(CombParams(s=t)), 2.0 ** -6))
    methods = []
    for t1, t2, eps in pairs:
        iv = gh_tree_interval(t1, t2, eps)
        lo, hi, method, witness = as_space_interval(t1, t2, eps)
        assert (iv.lo.hex(), iv.hi.hex(), iv.method) == (lo.hex(), hi.hex(), method)
        assert (iv.hi_witness.code, iv.hi_witness.packed) == (witness.code, witness.packed)
        methods.append(method)
    assert methods.count("exact") >= 300 and methods.count("bounds") >= 300


def test_interval_copies_no_matrix(monkeypatch):
    def refuse(self):
        raise AssertionError("as_space copies the distance matrix")

    monkeypatch.setattr(MetricTree, "as_space", refuse)
    small = gh_tree_interval(
        tree_from_edges([("a", "b", 1.0)]), tree_from_edges([("x", "y", 2.0)]), eps=0.5
    )
    assert small.method == "exact"
    combs = gh_tree_interval(comb_tree(CombParams(s=0.5)), comb_tree(CombParams(s=0.375)), 2.0 ** -4)
    assert combs.method == "bounds"


def test_lower_bound_and_rank_alignment_read_trees_as_their_spaces(small_config):
    rng = np.random.default_rng(29)
    trees = [random_tree(rng, 1, 40) for _ in range(30)]
    trees += [subdivide(comb_tree(CombParams(s=0.5)), 2.0 ** -4)]
    trees += [subdivide(treegh.embedding.build_F(small_config, "g0_1", 1), 2.0 ** -4)]
    for x, y in zip(trees, trees[1:] + trees[:1]):
        sx, sy = x.as_space(), y.as_space()
        assert gh_lower_bound(x, y).hex() == gh_lower_bound(sx, sy).hex()
        tree_corr = greedy_tree_correspondence(x, y)
        space_corr = greedy_tree_correspondence(sx, sy)
        assert (tree_corr.code, tree_corr.packed) == (space_corr.code, space_corr.packed)


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
