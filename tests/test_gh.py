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
    that continuity_scan plans and replacement_path certifies during it."""
    seen = []
    real_plan, real_bound = treegh.embedding._plan, treegh.embedding.gh_upper_bound

    def plan(x, y, corr):
        seen.append((x, y, corr))
        return real_plan(x, y, corr)

    def bound(x, y, corr):
        seen.append((x, y, corr))
        return real_bound(x, y, corr)

    monkeypatch.setattr(treegh.embedding, "_plan", plan)
    monkeypatch.setattr(treegh.embedding, "gh_upper_bound", bound)
    run()
    monkeypatch.setattr(treegh.embedding, "_plan", real_plan)
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

    # first from walked rows, with no fill made; then from the fills with
    # their columns in preorder; then once the reference has permuted every
    # matrix to vertex order
    walked = [list(values(*case)) for case in cases]
    assert all(t._dist is None for x, y, _ in cases for t in (x, y))
    for x, y, _ in cases:
        x._filled(), y._filled()
    filled = [list(values(*case)) for case in cases]
    for (x, y, corr), got, read in zip(cases, walked, filled):
        want = unblocked_distortion(x, y, corr)
        assert got == read == list(values(x, y, corr)) == [want] * 3


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
    # representative, so `low` sits within the slack of the largest entry:
    # the slack is what keeps it below.
    cases = _plan_cases(small_config, monkeypatch)
    monkeypatch.setattr(treegh.gh, "_REPRESENTATIVE_STRIDE", stride)
    for x, y, corr in cases:
        I, J = corr.rows.T.astype(np.intp)
        rows = np.abs(x.dist[np.ix_(I, I)] - y.dist[np.ix_(J, J)]).max(axis=1)
        fresh = [MetricTree(t.vertices, t.edges) for t in (x, y)]  # no fill
        # planned from depth rows, then from the fills' own rows
        for plan in (treegh.gh._plan(*fresh, corr), treegh.gh._plan(x, y, corr)):
            assert plan.low <= rows.max() and np.all(plan.bound >= rows)
            keep = plan.bound > plan.low
            assert plan.x_rows.tolist() == sorted(set(I[keep].tolist()))
            assert plan.y_rows.tolist() == sorted(set(J[keep].tolist()))
        assert all(t._dist is None for t in fresh)
        assert distortion(x, y, corr) == rows.max() == unblocked_distortion(x, y, corr)
        assert distortion(*fresh, corr) == rows.max()  # walked rows


def _reads(monkeypatch):
    """Record the rows each tree distortion reads: exact rows
    (``_row_maxima``), rows read from depth rows (``_depth_mismatch``),
    the rows of the entries it settles and the rows it walks."""
    read = {"exact": [], "depth": [], "settled": [], "walked": []}
    real_rows, real_depth = treegh.gh._row_maxima, treegh.gh._depth_mismatch
    real_entries, real_walk = MetricTree._fill_entries, MetricTree._rows

    def exact(dx, rx, cx, dy, ry, cy, rows):
        read["exact"].extend(rows.tolist())
        return real_rows(dx, rx, cx, dy, ry, cy, rows)

    def depth(x, I, cx, y, J, cy, rows):
        read["depth"].extend(rows.tolist())
        return real_depth(x, I, cx, y, J, cy, rows)

    def entries(tree, sources, targets):
        read["settled"].append((tree, sources.tolist()))
        return real_entries(tree, sources, targets)

    def walk(tree, vertices):
        read["walked"].append((tree, len(vertices)))
        return real_walk(tree, vertices)

    monkeypatch.setattr(treegh.gh, "_row_maxima", exact)
    monkeypatch.setattr(treegh.gh, "_depth_mismatch", depth)
    monkeypatch.setattr(MetricTree, "_fill_entries", entries)
    monkeypatch.setattr(MetricTree, "_rows", walk)
    return read


def test_distortion_reads_only_planned_rows(small_config, monkeypatch):
    # Fresh trees read only planned rows, from depth rows, and settle
    # entries of rows they read; the walked rows of a plan hold only
    # planned sources, and reading any other raises.
    cases = _plan_cases(small_config, monkeypatch)
    plans = []
    real_plan = treegh.gh._plan

    def plan(x, y, corr):
        plans.append(real_plan(x, y, corr))
        return plans[-1]

    monkeypatch.setattr(treegh.gh, "_plan", plan)
    read = _reads(monkeypatch)
    skipped = walked = 0
    for x, y, corr in cases:
        fresh = [MetricTree(t.vertices, t.edges) for t in (x, y)]
        for rows in read.values():
            rows.clear()
        distortion(*fresh, corr)
        assert all(t._dist is None for t in fresh)
        p = plans[-1]
        assert set(read["depth"]) <= set(np.flatnonzero(p.bound > p.low).tolist())
        assert set(read["exact"]) <= set(read["depth"])
        I, J = corr.rows.T
        sources = {t: set(v.tolist()) for t, v in zip(fresh, (I[read["depth"]], J[read["depth"]]))}
        assert all(set(v) <= sources[t] for t, v in read["settled"])
        # only a pair of a few vertices has more entries within reach of
        # the largest than vertices, and walks their rows
        assert not read["walked"] or max(x.n, y.n) < 10, (x.n, y.n)
        walked += bool(read["walked"])
        x_rows, slot, pos = treegh.gh._walked(fresh[0], p.x_rows)
        unplanned = np.setdiff1d(np.arange(x.n), p.x_rows)
        skipped += len(unplanned) > 0
        if len(unplanned):
            with pytest.raises(IndexError):
                x_rows[slot[unplanned]]
        assert np.array_equal(x_rows[slot[p.x_rows]], fresh[0]._filled()[0][p.x_rows])
    assert skipped >= len(cases) // 2
    assert walked <= 1


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
    # a sum that overflows to NaN proves nothing about its row, so every
    # row is still planned and read
    real = MetricTree._depth_rows
    monkeypatch.setattr(MetricTree, "_depth_rows", lambda t, v: np.nan * real(t, v))
    fresh = [MetricTree(t.vertices, t.edges) for t in (x, y)]
    assert distortion(x, y, corr) == distortion(*fresh, corr) == full.max()


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


def test_isometric_pair_takes_the_walked_rows(monkeypatch):
    # Every entry of an isometric pair under an isometry is 0, so all of
    # them are within reach of the largest: too many to settle, so the rows
    # holding them are walked.
    x = subdivide(comb_tree(CombParams(s=0.5)), 2.0 ** -6)
    y = MetricTree(x.vertices, x.edges)
    assert x.n == 161
    ident = Correspondence.from_pairs([(i, i) for i in range(x.n)])
    read = _reads(monkeypatch)
    assert distortion(x, y, ident) == 0.0
    assert not read["settled"] and read["walked"] == [(x, 161), (y, 161)]
    assert x._dist is None and y._dist is None
    assert unblocked_distortion(x, y, ident) == 0.0


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


def zipped_greedy_correspondence(x, y):
    """greedy_tree_correspondence as it packed its pairs before: a zip of
    numpy scalars, one pair at a time."""
    order_x = np.argsort(x.eccentricities(), kind="stable")
    order_y = np.argsort(y.eccentricities(), kind="stable")
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
