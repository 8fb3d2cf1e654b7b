"""Gromov-Hausdorff distance between finite metric spaces and metric trees.

The distance is half the minimal distortion over covering correspondences.
Each function takes a :class:`~treegh.metric.FiniteMetricSpace` or a
:class:`~treegh.tree.MetricTree` for each argument (the ``Space`` union); a
tree is read through its own distances and eccentricities, never copied into
a space.  Within a point-count cap a threshold search computes it exactly (see
:func:`gh_exact`): each threshold is decided by arc consistency and
branching over Python-int bitsets of compatible pairs, all cut from one
packed matrix, and each feasible decision moves the search to its witness's
own distortion.  Beyond the cap, certified two-sided bounds are produced
instead (a diameter/eccentricity lower bound and the distortion of a
deterministic rank-aligned correspondence as upper bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from .metric import FiniteMetricSpace
from .tree import MetricTree, subdivide

__all__ = [
    "Correspondence",
    "GHInterval",
    "GHCapError",
    "distortion",
    "gh_exact",
    "gh_lower_bound",
    "gh_upper_bound",
    "greedy_tree_correspondence",
    "gh_tree_interval",
]

DEFAULT_CAP = 8
# Entries per block of the distortion product.  A block of rows then stays
# within L2 cache on the continuity-scan sizes (|C| from 1000 to 1500), where
# 2**16 ran about three times faster than one whole |C|^2 pass and faster
# than 2**13 or 2**20; metric._BLOCK_CELLS (4M) would hold all of |C|^2 in
# one block and gain nothing.
_DISTORTION_BLOCK_CELLS = 1 << 16
# Between trees, distortion bounds every row of the product from at most
# _REPRESENTATIVES representative rows: first one row per
# _REPRESENTATIVE_STRIDE rows, evenly spaced, then batches of
# _REPRESENTATIVE_BATCH rows.
_REPRESENTATIVE_STRIDE = 64
_REPRESENTATIVES = 256
_REPRESENTATIVE_BATCH = 8


class GHCapError(ValueError):
    """Raised when exact search is requested beyond the point-count cap."""


@dataclass(frozen=True, slots=True)
class Correspondence:
    """A relation between point indices of two spaces: distinct ``(i, j)``
    pairs in sorted order, packed in the narrowest unsigned numpy type ``code``."""

    packed: bytes
    code: str

    @classmethod
    def from_pairs(
        cls, pairs: Union[Iterable[Tuple[int, int]], np.ndarray]
    ) -> "Correspondence":
        """Pack pairs given as an iterable of ``(i, j)`` or an ``(m, 2)``
        integer array; duplicates collapse and the order is ``(i, j)``."""
        if isinstance(pairs, np.ndarray):
            if pairs.size and not np.issubdtype(pairs.dtype, np.integer):
                raise ValueError("correspondence indices must be integers")
            rows = pairs.astype(np.int64).reshape(-1, 2)
        else:
            rows = np.array([(int(i), int(j)) for i, j in pairs], np.int64).reshape(-1, 2)
        if rows.size and rows.min() < 0:
            raise ValueError("correspondence indices must be nonnegative")
        rows = rows[np.lexsort((rows[:, 1], rows[:, 0]))]
        fresh = np.ones(len(rows), dtype=bool)
        differs = rows[1:] != rows[:-1]
        np.logical_or(differs[:, 0], differs[:, 1], out=fresh[1:])
        rows = rows[fresh].astype(np.min_scalar_type(int(rows.max(initial=0))))
        return cls(rows.tobytes(), rows.dtype.char)

    @property
    def rows(self) -> np.ndarray:
        """The pairs as a read-only ``(len, 2)`` array."""
        return np.frombuffer(self.packed, dtype=self.code).reshape(-1, 2)

    @property
    def pairs(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(map(tuple, self.rows.tolist()))

    def covers(self, nx: int, ny: int) -> bool:
        """Whether the pairs use every index of ``range(nx)`` and of
        ``range(ny)`` and no index outside them."""
        for side, n in zip(self.rows.T, (nx, ny)):
            hit = np.zeros(n, dtype=bool)
            try:
                hit[side] = True
            except IndexError:
                return False
            if not hit.all():
                return False
        return True

    def __len__(self):
        return len(self.rows)


Space = Union[FiniteMetricSpace, MetricTree]


def distortion(x: Space, y: Space, corr: Correspondence) -> float:
    """Largest distance mismatch over a covering correspondence.

    ``max |d_X(a, a') - d_Y(b, b')|`` over pairs ``c = (a, b), c' = (a', b')``
    of the correspondence: the largest entry of the ``|C| x |C|`` mismatch
    product, whose row ``c`` runs over every ``c'``.  Rows are computed in
    blocks holding about ``_DISTORTION_BLOCK_CELLS`` (2**16) entries, so the
    memory added beyond the rows read is O(block), not O(|C|^2).  Both
    triangles are read because a tree matrix need not be bit-symmetric.
    Raises if the relation fails to cover both spaces.

    A :class:`FiniteMetricSpace` need not satisfy the triangle inequality,
    so two spaces (or a space and a tree) walk the whole product.  Between
    two :class:`MetricTree` objects the rows that can hold the maximum are
    planned first (:func:`_plan`), and only planned rows are read
    (:func:`_planned_maximum`): from the trees' cached fills, or else from
    depth rows, which need no walk.  The few entries of those rows that
    can be the largest are then settled, recomputed with the fill's own
    floats from their sources' root paths; the plan's slack bounds how far
    a depth-row mismatch can be from the fill's (a depth-row entry is
    within 4n units of ``2**-53 L`` of the exact distance and a fill entry
    within 2(n - 1)).  So the value is bit for bit the full product's
    maximum.
    """
    if not (isinstance(x, MetricTree) and isinstance(y, MetricTree)):
        if not corr.covers(x.n, y.n):
            raise ValueError("correspondence does not cover both spaces")
        I, J = corr.rows.T.astype(np.intp)
        (dx, px), (dy, py) = _filled(x), _filled(y)
        cx = I if px is None else px[I]
        cy = J if py is None else py[J]
        return float(_row_maxima(dx, I, cx, dy, J, cy, np.arange(len(I))).max(initial=0.0))
    return _planned_maximum(_plan(x, y, corr), x, y)


def _filled(space: Space) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    # A distance matrix and, if its columns are not in point order, the
    # column of each point.
    if isinstance(space, MetricTree):
        return space._filled()
    return space.dist, None


class _Plan(NamedTuple):
    """What :func:`_plan` proves about the mismatch product between two
    trees: a bound on each row's largest entry and a lower bound on the
    largest entry, and the vertices whose rows the rows above it read."""

    I: np.ndarray  # the pairs' points, as in Correspondence.rows
    J: np.ndarray
    bound: np.ndarray  # at least the largest entry of each row (inf if unknown)
    low: float  # at most the largest entry
    x_rows: np.ndarray  # the sorted sources in x of the rows with bound > low
    y_rows: np.ndarray
    slack: float  # how far an entry read from depth rows may be from the fill's


# The rows a tree distortion reads: the matrix they are in, the row of each
# vertex in it (None: the vertex's own index) and the column of each vertex.
_Rows = Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]


def _plan(x: MetricTree, y: MetricTree, corr: Correspondence) -> _Plan:
    """Bounds on the rows of the mismatch product between two trees that
    walk and fill no row: a tree without a cached fill is read through its
    depths.

    At most ``_REPRESENTATIVES`` pairs are representatives ``r = (a_r,
    b_r)``.  With ``A``, ``B`` the distances from its points, read
    from a tree's cached fill when it has one and else from
    :meth:`MetricTree._depth_rows`, its row's largest entry
    is about ``near(r) = max_c |A(a_r, a) - B(b_r, b)|``, and every row
    ``c = (a, b)`` is bounded by the least ``near(r) + A(a_r, a) +
    B(b_r, b) + slack`` (the triangle inequality on both sides), while
    ``low = max_r near(r) - slack`` is at most the largest entry.  A sum
    that overflows to NaN proves nothing, so it bounds no row (a row no
    finite sum bounds keeps bound inf) and raises no ``low``, and a ``low``
    that is not finite becomes -inf.

    The representatives are chosen in batches, one depth-row call per side
    each: a first batch of one pair in ``_REPRESENTATIVE_STRIDE``, evenly
    spaced in the correspondence's order, then up to
    ``_REPRESENTATIVE_BATCH`` at a time by Gonzalez's farthest-point sweep
    (TCS 1985) in the distance that bounds rows, each next pair the one
    whose bound ``near(r) + A + B`` is largest (:func:`_farthest`).  That
    puts representatives on the rows that would be read, so few are.  The
    sweep stops once no more rows have a bound above ``low`` than the next
    batch would take, since reading those rows costs no more than the
    batch.  A batch is at most a block of ``_DISTORTION_BLOCK_CELLS``
    entries.  Any choice keeps the value bit for bit: the plan only bounds
    rows.

    The slack is ``6 * 2**-52 * ((n_X + 1) L_X + (n_Y + 1) L_Y)``, with L the
    total edge length; per tree it is ``12 (n + 1)`` units of ``2**-53 L``.
    Each fill entry is within ``e = 2(n - 1)`` units of the exact distance
    (at most 2(n - 1) roundings of values at most L), and each entry read
    within ``h = 4n``: a depth-row entry (see
    :meth:`MetricTree._depth_rows`) or a fill entry (``e < h``).  The
    exact triangle inequality bounds a row of fill entries by the exact
    representative row plus two exact distances, plus ``e`` per tree; each
    of those three terms is its depth-row value within ``h``, and the
    representative's maximum is ``near(r)`` within one more rounding of a
    difference.  Summing two terms and adding ``near`` and the slack round
    three times, values at most 2(L_X + L_Y).  That is ``2h + e + 6 = 10n +
    4`` units per tree, below ``12(n + 1)``.  Likewise ``near(r)`` exceeds
    its representative's true row maximum by at most ``h + e + 1 = 6n - 1``
    units, and subtracting the slack rounds once more, so ``low`` never
    exceeds the largest entry.  The same slack covers the settle step of
    :func:`_planned_maximum`: a depth-row entry and a fill entry differ by
    at most ``h + e = 6n - 2`` units, and a mismatch of them by ``6n``
    units per tree, half the slack.
    """
    if not corr.covers(x.n, y.n):
        raise ValueError("correspondence does not cover both spaces")
    I, J = corr.rows.T.astype(np.intp)
    from_x, from_y = _sketch(x, I), _sketch(y, J)
    count = min(_REPRESENTATIVES, len(I))
    step = _block_rows(max(len(I), x.n, y.n))
    bound = np.full(len(I), np.inf)
    owner = np.zeros(len(I), dtype=np.intp)  # the representative that bounds each row
    low = -math.inf
    first = min(step, count, -(-len(I) // _REPRESENTATIVE_STRIDE))
    r = np.arange(first) * len(I) // first  # the first batch evenly spaced
    taken = 0
    while True:
        a = from_x(I[r])
        b = from_y(J[r])
        near = np.abs(a - b).max(axis=1)
        low = max(low, float(near.max()))  # a NaN block proves nothing
        a += b
        a += near[:, None]
        taken += len(r)
        if taken >= count:
            np.fmin(bound, a.min(axis=0), out=bound)
            break
        for k, row in enumerate(a, taken - len(r)):
            np.copyto(owner, k, where=row < bound)
            np.fmin(bound, row, out=bound)
        k = min(step, _REPRESENTATIVE_BATCH, count - taken)
        if np.count_nonzero(bound > low) <= k:
            break  # reading the rows left costs no more than another batch
        r = _farthest(bound, owner, low, k)
    slack = 6.0 * 2.0 ** -52 * (
        (x.n + 1) * x.total_edge_length() + (y.n + 1) * y.total_edge_length()
    )
    bound += slack
    low -= slack
    if not math.isfinite(low):
        low = -math.inf
    keep = bound > low
    return _Plan(I, J, bound, low, np.unique(I[keep]), np.unique(J[keep]), slack)


def _farthest(bound: np.ndarray, owner: np.ndarray, low: float, k: int) -> np.ndarray:
    """The next at most ``k`` representatives of :func:`_plan`: the pairs
    farthest from the representatives so far, in the distance that bounds
    rows (largest ``bound``), one per representative's own rows (``owner``)
    and none whose bound is at most ``low``.  With ``k`` = 1 that is the
    farthest pair, one step of Gonzalez's farthest-point sweep."""
    if k == 1:
        return np.array([int(np.argmax(bound))])
    far = np.full(int(owner.max()) + 1, -np.inf)
    np.maximum.at(far, owner, bound)
    hit = np.flatnonzero(bound == far[owner])
    hit = hit[np.unique(owner[hit], return_index=True)[1]]
    hit = hit[bound[hit] > low]
    return hit[np.argsort(-bound[hit], kind="stable")[:k]]


def _sketch(tree: MetricTree, points: np.ndarray):
    """How :func:`_plan` reads the distances from chosen vertices to
    ``points``: from the tree's cached fill when it has one, else from
    depth rows, which need no walk."""
    if tree._dist is not None:
        d, cols = tree._filled()
        at = points if cols is None else cols[points]
        return lambda src: d[src][:, at]
    at = tree._preorder().pos[points]
    return lambda src: tree._depth_rows(src)[:, at]


def _tree_rows(tree: MetricTree, vertices: np.ndarray) -> _Rows:
    """The rows of ``vertices``: the cached fill when the tree has one,
    else those rows alone, walked (a vertex not asked for has no row)."""
    if tree._dist is not None:
        d, cols = tree._filled()
        return d, None, cols
    return _walked(tree, vertices)


def _walked(tree: MetricTree, vertices: np.ndarray) -> _Rows:
    """The walked rows of ``vertices``; any other vertex's row index is one
    past the last row, so reading it raises IndexError."""
    slot = np.full(tree.n, len(vertices), dtype=np.intp)
    slot[vertices] = np.arange(len(vertices))
    return tree._rows(vertices), slot, tree._preorder().pos


def _planned_maximum(plan: _Plan, x: MetricTree, y: MetricTree) -> float:
    """The largest entry of the mismatch product between the trees ``x``
    and ``y`` that ``plan`` bounds, reading only rows whose bound exceeds
    ``plan.low``.

    A tree with a cached fill is read from it (:func:`_read_maximum`).
    Otherwise no row is walked: rows are read from depth rows
    (:meth:`MetricTree._depth_rows`) in order of decreasing bound, a block
    at a time, each block cut to the rows whose bound exceeds both ``low``
    and the largest entry read so far less the slack; the loop ends at the
    first empty block.  Then the entries within twice the slack of the
    largest one read, and not below ``low`` less the slack, are settled:
    recomputed with the fill's own floats
    (:meth:`MetricTree._fill_entries`).

    Proof, with ``d`` the plan's slack.  A depth-row entry is within 4n
    units of ``2**-53 L`` of the exact distance and a fill entry within
    2(n - 1) (see :func:`_plan`), so the two differ by at most ``6n - 2``
    units per tree, and a mismatch read from depth rows is within ``6n``
    units per tree of the fill's, at most half of ``d``.  So the largest
    fill entry among the rows read is at least the largest entry read
    less ``d``, every row left unread is bounded by ``low`` or by that
    entry, and the entry itself was read within ``2d`` of the largest and
    is settled.  The value is the largest settled entry or ``low``,
    whichever is larger: an entry of the product, bit for bit, as in
    :func:`_read_maximum`.

    Settling an entry sums a root path, so when more entries are within
    reach than the larger tree has vertices (as for two isometric trees
    paired by an isometry) the rows holding them are walked instead
    (:meth:`MetricTree._rows`), under the walk's memory budget.  A NaN
    entry (distances that overflowed) reads the walked rows of the whole
    plan, so it is the value as it is the full product's maximum.
    """
    if x._dist is not None or y._dist is not None:
        return _read_maximum(plan, _tree_rows(x, plan.x_rows), _tree_rows(y, plan.y_rows))
    I, J, bound, low, slack = plan.I, plan.J, plan.bound, plan.low, plan.slack
    cx, cy = x._preorder().pos[I], y._preorder().pos[J]
    limit = max(x.n, y.n)
    order = np.argsort(-bound, kind="stable")
    best = -math.inf
    read, tops = [], []  # the rows read, and each one's largest entry read
    held = np.empty((0, 2), dtype=np.intp)  # (row, column) of each entry within reach
    value = np.empty(0)  # those entries as read
    step = _block_rows(max(len(I), x.n, y.n))
    for start in range(0, len(order), step):
        rows = order[start : start + step]
        rows = rows[bound[rows] > max(low, best - slack)]
        if not len(rows):
            break
        block = _depth_mismatch(x, I, cx, y, J, cy, rows)
        top = block.max(axis=1)
        if np.isnan(top).any():
            return _read_maximum(plan, _walked(x, plan.x_rows), _walked(y, plan.y_rows))
        best = max(best, float(top.max()))
        read.append(rows)
        tops.append(top)
        if held is None:
            continue  # too many within reach: their rows are walked
        reach = max(best - 2.0 * slack, low - slack)
        keep = value >= reach
        r, c = np.nonzero(block >= reach)
        held = np.concatenate([held[keep], np.column_stack([rows[r], c])])
        value = np.concatenate([value[keep], block[r, c]])
        if len(value) > limit:
            held = value = None
    reach = max(best - 2.0 * slack, low - slack)
    if held is not None:
        rc = held[value >= reach]
        if not len(rc):
            return float(low)
        r, c = rc.T
        settled = np.abs(x._fill_entries(I[r], I[c]) - y._fill_entries(J[r], J[c]))
        return float(np.maximum(low, settled.max()))
    rows = np.concatenate(read)[np.concatenate(tops) >= reach]
    (dx, sx, px), (dy, sy, py) = _walked(x, np.unique(I[rows])), _walked(y, np.unique(J[rows]))
    return float(np.maximum(low, _row_maxima(dx, sx[I], px[I], dy, sy[J], py[J], rows).max()))


def _depth_mismatch(
    x: MetricTree, I: np.ndarray, cx: np.ndarray,
    y: MetricTree, J: np.ndarray, cy: np.ndarray, rows: np.ndarray,
) -> np.ndarray:
    """The given rows of the mismatch product read from depth rows: row
    ``c`` is ``|A(I[c], .) - B(J[c], .)|`` at the columns ``cx``, ``cy``
    (the preorder positions of the pairs' points)."""
    ux, rx = np.unique(I[rows], return_inverse=True)
    uy, ry = np.unique(J[rows], return_inverse=True)
    block = x._depth_rows(ux).take(cx, axis=1)[rx]
    block -= y._depth_rows(uy).take(cy, axis=1)[ry]
    return np.abs(block, out=block)


def _read_maximum(plan: _Plan, xs: _Rows, ys: _Rows) -> float:
    """The largest entry of the mismatch product, reading only rows whose
    bound exceeds ``plan.low`` from exact rows: a cached fill or walked
    rows.

    Rows are read in order of decreasing bound, a block at a time, each
    block cut to the rows whose bound exceeds both ``low`` and the largest
    entry read so far; the loop ends at the first empty block.  Every row
    left unread is then bounded by ``max(low, best)``, every row read is at
    most ``best``, and the largest entry is at least both, so it is
    ``max(low, best)``: an entry of the product, bit for bit.  A NaN entry
    (distances that overflowed) ends the loop and is the value, as it is
    the full product's maximum.
    """
    (dx, rx, cx), (dy, ry, cy) = xs, ys
    I, J, bound, low = plan.I, plan.J, plan.bound, plan.low
    rx = I if rx is None else rx[I]
    ry = J if ry is None else ry[J]
    cx = I if cx is None else cx[I]
    cy = J if cy is None else cy[J]
    order = np.argsort(-bound, kind="stable")
    best = -math.inf
    step = _block_rows(len(I))
    for start in range(0, len(order), step):
        rows = order[start : start + step]
        rows = rows[bound[rows] > np.maximum(low, best)]
        if not len(rows):
            break
        best = np.maximum(best, _row_maxima(dx, rx, cx, dy, ry, cy, rows).max())
    return float(np.maximum(low, best))


def _block_rows(m: int) -> int:
    """Rows of an ``m``-column block of about ``_DISTORTION_BLOCK_CELLS`` entries."""
    return max(1, _DISTORTION_BLOCK_CELLS // max(1, m))


def _row_maxima(dx, rx, cx, dy, ry, cy, rows: np.ndarray) -> np.ndarray:
    """Largest entry of each given row of the mismatch product.

    Row ``c`` holds ``|dx[rx[c], cx] - dy[ry[c], cy]|``, where ``rx``/``ry``
    are the matrix rows and ``cx``/``cy`` the matrix columns of the
    correspondence's points.
    """
    out = np.empty(len(rows))
    step = _block_rows(len(cx))
    for start in range(0, len(rows), step):
        blk = rows[start : start + step]
        block = dx[rx[blk]][:, cx]
        block -= dy[ry[blk]][:, cy]
        np.abs(block, out=block).max(axis=1, out=out[start : start + step])
    return out


def gh_exact(
    x: Space,
    y: Space,
    cap: int = DEFAULT_CAP,
    return_witness: bool = False,
):
    """Exact Gromov-Hausdorff distance by a search over distortion thresholds.

    Every distortion is one of the mismatches ``|d_X(a, a') - d_Y(b, b')|``,
    so the optimum is binary-searched among their distinct values, from
    twice :func:`gh_lower_bound` (a mismatch never above the optimum) to the
    largest, which the full product ``x × y`` meets.  Each step asks
    :func:`_covering_within` for a covering correspondence within the
    threshold.  A feasible step moves ``hi`` down to the index of the found
    correspondence's own distortion, not just to the threshold asked.

    The value is ``0.5 * thresholds[hi]`` once ``lo == hi``, so no
    correspondence is built unless ``return_witness`` asks for one.  Proof:
    the distortion of the witness found at ``thresholds[hi]`` is the largest
    mismatch among its pairs, rounded as the mismatch matrix rounds it, so
    it is itself a threshold no larger than ``thresholds[hi]``; every
    threshold below ``lo`` is infeasible (decided so, or below the lower
    bound).  Hence the witness's distortion is ``thresholds[hi]`` bit for
    bit.  The witness returned is the one found at ``thresholds[hi]``,
    decided again when the last feasible step was made at another threshold.

    Args:
        x, y: finite metric spaces or metric trees with at most ``cap``
            points each.
        cap: exactness cap on point counts.
        return_witness: also return the minimising :class:`Correspondence`.

    Returns:
        The distance, or ``(distance, witness)`` when requested.
    """
    nx, ny = x.n, y.n
    if nx == 0 or ny == 0:
        raise ValueError("Gromov-Hausdorff distance needs nonempty spaces")
    if max(nx, ny) > cap:
        raise GHCapError(
            "exact search capped at %d points, got %d and %d" % (cap, nx, ny)
        )
    # mismatch[i * ny + j, k * ny + l] = |d_X(i, k) - d_Y(j, l)|, rounded as in distortion
    mismatch = np.abs(x.dist[:, None, :, None] - y.dist[None, :, None, :]).reshape(nx * ny, -1)
    thresholds = np.sort(mismatch, axis=None)
    thresholds = thresholds[np.r_[True, thresholds[1:] != thresholds[:-1]]]
    # Two nodes are compatible within delta when both triangles are.
    sym = np.maximum(mismatch, mismatch.T)
    lines = _lines(nx, ny)
    lo = int(np.searchsorted(thresholds, 2.0 * gh_lower_bound(x, y)))
    hi, chosen, chosen_at = len(thresholds) - 1, None, None
    while lo < hi:
        mid = (lo + hi) // 2
        found = _covering_within(_compatibility(sym, thresholds[mid]), lines)
        if found is None:
            lo = mid + 1
        else:
            nodes = _members(found)
            hi = int(np.searchsorted(thresholds, mismatch[np.ix_(nodes, nodes)].max()))
            chosen, chosen_at = found, mid
    value = 0.5 * float(thresholds[hi])
    if not return_witness:
        return value
    if chosen_at != hi:
        chosen = _covering_within(_compatibility(sym, thresholds[hi]), lines)
    witness = Correspondence.from_pairs(divmod(u, ny) for u in _members(chosen))
    return value, witness


def _lines(nx: int, ny: int) -> List[int]:
    """Bitsets of the nodes ``i * ny + j`` of each row ``i``, then of each
    column ``j``."""
    lines = [((1 << ny) - 1) << (i * ny) for i in range(nx)]
    lines += [sum(1 << (i * ny + j) for i in range(nx)) for j in range(ny)]
    return lines


def _compatibility(sym: np.ndarray, delta) -> List[int]:
    """Bitset of the nodes ``v`` with ``sym[u, v] <= delta``, for each node
    ``u``: the rows of one packed matrix, read as one integer and cut apart."""
    packed = np.packbits(sym <= delta, axis=1, bitorder="little")
    width = 8 * packed.shape[1]
    bits = int.from_bytes(packed.tobytes(), "little")
    mask = (1 << width) - 1
    return [bits >> (u * width) & mask for u in range(len(sym))]


def _members(bits: int) -> List[int]:
    """Positions of the set bits, in increasing order."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def _covering_within(compat: List[int], lines: List[int]) -> Optional[int]:
    """Bitset of a covering correspondence within a threshold, or None.

    Node ``i * ny + j`` is the pair ``(i, j)``.  ``compat[u]`` is the
    bitset of the nodes within the threshold of node ``u`` (see
    :func:`_compatibility`) and ``lines`` the row and column
    bitsets (see :func:`_lines`).  Live nodes with no compatible live node
    in some open line are dropped to a fixpoint (arc consistency); the
    search then branches on the open line with the fewest live nodes, ANDs
    each chosen node's bitset into the live set and drops failed nodes.

    A line is open while it holds no chosen node.  A closed line drops
    nothing: every live node lies in the bitset of the chosen node ``c`` in
    it, so ``c`` supports it there as long as ``c`` is live.  The fixpoint
    is the greatest arc-consistent subset of the live set, so it does not
    depend on the order lines are visited in.  The support of a line, the
    union of the bitsets of its live nodes, is memoised under that live
    subset for the whole decision.
    """
    return _search(compat, {}, (1 << len(compat)) - 1, 0, lines)


def _search(
    compat: List[int], supports: Dict[int, int], live: int, chosen: int, open_lines: List[int]
) -> Optional[int]:
    """The search of :func:`_covering_within` below the node ``chosen``,
    with ``supports`` the memo of line supports.  A module function rather
    than a closure, so that a decision's memo is freed when it returns and
    not at the next garbage collection."""
    # Compatibility is symmetric, so the nodes with a compatible live
    # node in a line are the union of that line's live bitsets.
    last = None
    while live != last:
        last = live
        for line in open_lines:
            rest = live & line
            support = supports.get(rest)
            if support is None:
                key, support = rest, 0
                while rest:
                    low = rest & -rest
                    rest ^= low
                    support |= compat[low.bit_length() - 1]
                supports[key] = support
            live &= support
    if chosen & ~live:
        return None
    if not open_lines:
        return chosen
    options = min((live & line for line in open_lines), key=int.bit_count)
    while options:
        low = options & -options
        options ^= low
        found = _search(
            compat,
            supports,
            live & compat[low.bit_length() - 1],
            chosen | low,
            [line for line in open_lines if not line & low],
        )
        if found is not None:
            return found
        live ^= low
    return None


def gh_lower_bound(x: Space, y: Space) -> float:
    """Certified lower bound: diameter gap and eccentricity-profile gap.

    Any covering correspondence moves eccentricities by at most its
    distortion, so half the Hausdorff distance between the two sets of
    eccentricities (as subsets of the line) never exceeds the true
    distance; the diameter gap is the classical bound.  Each diameter is
    the largest eccentricity, which is the largest distance bit for bit on
    a space and on a tree alike.
    """
    if x.n == 0 or y.n == 0:
        raise ValueError("Gromov-Hausdorff bounds need nonempty spaces")
    ex = x.eccentricities()
    ey = y.eccentricities()
    gaps = np.abs(ex[:, None] - ey[None, :])
    ecc_hausdorff = max(float(gaps.min(axis=1).max()), float(gaps.min(axis=0).max()))
    diam_gap = abs(float(ex.max()) - float(ey.max()))
    return 0.5 * max(diam_gap, ecc_hausdorff)


def gh_upper_bound(x: Space, y: Space, corr: Correspondence) -> float:
    """Upper bound from an explicit covering correspondence; like
    :func:`distortion`, it accepts spaces or metric trees."""
    return 0.5 * distortion(x, y, corr)


def greedy_tree_correspondence(x: Space, y: Space) -> Correspondence:
    """Deterministic covering correspondence by eccentricity rank alignment.

    Takes spaces or metric trees.  Both vertex sets are sorted by
    (eccentricity, index) and matched at proportional ranks, in both
    directions.  On two copies of one space this yields the identity, hence
    zero distortion.
    """
    order_x = np.argsort(x.eccentricities(), kind="stable")
    order_y = np.argsort(y.eccentricities(), kind="stable")
    nx, ny = len(order_x), len(order_y)
    to_y = order_y[np.round(np.arange(nx) * (ny - 1) / max(1, nx - 1)).astype(int)]
    to_x = order_x[np.round(np.arange(ny) * (nx - 1) / max(1, ny - 1)).astype(int)]
    return Correspondence.from_pairs(np.column_stack([np.r_[order_x, to_x], np.r_[to_y, order_y]]))


@dataclass(frozen=True, slots=True)
class GHInterval:
    """A certified enclosure ``[lo, hi]`` of a Gromov-Hausdorff distance."""

    lo: float
    hi: float
    eps: float
    method: str
    lo_witness: str
    hi_witness: Optional[Correspondence]


def gh_tree_interval(
    t1: MetricTree, t2: MetricTree, eps: float, cap: int = DEFAULT_CAP
) -> GHInterval:
    """Two-sided Gromov-Hausdorff bounds between metric trees.

    Both trees are subdivided to resolution ``eps`` so that vertex samples
    are ``eps/2``-dense in the underlying continua; the half-distortion
    computed on samples is then correct for the continua up to ``eps``.
    Within the cap the sampled distance is computed exactly; otherwise the
    interval combines the certified lower bound with the upper bound from
    the rank-aligned correspondence.  The two samples go to the solver and
    the bounds as trees, so no distance matrix is copied: the lower bound
    fills each sample's matrix for its eccentricities, and
    :func:`distortion` reads its planned rows from those fills.

    Args:
        t1, t2: metric trees.
        eps: sampling resolution (also the interval widening).
        cap: exactness cap on sampled point counts.

    Returns:
        A :class:`GHInterval` with ``lo <= hi``.

    Raises:
        ValueError: ``eps`` is not positive and finite; an infinite ``eps``
            would widen the interval to ``[0, inf]``.
    """
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError("eps must be positive and finite, got %r" % (eps,))
    xs = subdivide(t1, eps)
    ys = subdivide(t2, eps)
    if max(xs.n, ys.n) <= cap:
        value, witness = gh_exact(xs, ys, cap=cap, return_witness=True)
        lo = max(0.0, value - eps)
        hi = value + eps
        return GHInterval(lo, hi, eps, "exact", "exact sampled distance - eps", witness)
    lo = max(0.0, gh_lower_bound(xs, ys) - eps)
    witness = greedy_tree_correspondence(xs, ys)
    hi = gh_upper_bound(xs, ys, witness) + eps
    return GHInterval(lo, hi, eps, "bounds", "diameter/eccentricity bound - eps", witness)
