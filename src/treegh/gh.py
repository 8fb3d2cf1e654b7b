"""Gromov-Hausdorff distance between finite metric spaces.

The distance is half the minimal distortion over covering correspondences.
Within a point-count cap a threshold search computes it exactly (see
:func:`gh_exact`); beyond the cap, certified two-sided bounds are produced
instead (a diameter/eccentricity lower bound and the distortion of a
deterministic rank-aligned correspondence as upper bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple, Union

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

    ``max |d_X(a, a') - d_Y(b, b')|`` over pairs ``(a, b), (a', b')`` of the
    correspondence.  Only ``.n`` and ``.dist`` are read, so a
    :class:`MetricTree` is indexed in its vertex order without copying its
    matrix.  The full ``|C| x |C|`` product is walked in blocks of whole
    rows holding about ``_DISTORTION_BLOCK_CELLS`` (2**16) entries, so the
    memory it adds beyond the two matrices is O(block), not O(|C|^2).  The
    maximum over the same entries is exact, so blocking leaves the value
    bit for bit unchanged; both triangles are read because a tree matrix
    need not be bit-symmetric.  Raises if the relation fails to cover both
    spaces.
    """
    if not corr.covers(x.n, y.n):
        raise ValueError("correspondence does not cover both spaces")
    I, J = corr.rows.T.astype(np.intp)
    dx, dy = x.dist, y.dist
    step = max(1, _DISTORTION_BLOCK_CELLS // max(1, len(I)))
    worst = 0.0
    for start in range(0, len(I), step):
        block = dx[I[start : start + step]][:, I]
        block -= dy[J[start : start + step]][:, J]
        worst = np.maximum(worst, np.abs(block, out=block).max())
    return float(worst)


def gh_exact(
    x: FiniteMetricSpace,
    y: FiniteMetricSpace,
    cap: int = DEFAULT_CAP,
    return_witness: bool = False,
):
    """Exact Gromov-Hausdorff distance by a search over distortion thresholds.

    Every distortion is one of the mismatches ``|d_X(a, a') - d_Y(b, b')|``,
    so the optimum is binary-searched among their distinct values, from
    twice :func:`gh_lower_bound` (a mismatch never above the optimum) to the
    largest, which the full product ``x × y`` meets.  Each step asks
    :func:`_covering_within` for a covering correspondence within the
    threshold; the one found at the smallest feasible threshold is the
    deterministic witness, and the value is half its distortion.

    Args:
        x, y: finite metric spaces with at most ``cap`` points each.
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
    lo = int(np.searchsorted(thresholds, 2.0 * gh_lower_bound(x, y)))
    hi, chosen = len(thresholds) - 1, None
    while lo < hi:
        mid = (lo + hi) // 2
        found = _covering_within(mismatch, thresholds[mid], nx, ny)
        if found is None:
            lo = mid + 1
        else:
            hi, chosen = mid, found
    if chosen is None:
        chosen = _covering_within(mismatch, thresholds[hi], nx, ny)
    witness = Correspondence.from_pairs(divmod(u, ny) for u in range(nx * ny) if chosen >> u & 1)
    value = gh_upper_bound(x, y, witness)
    return (value, witness) if return_witness else value


def _covering_within(mismatch, delta, nx: int, ny: int) -> Optional[int]:
    """Bitset of a covering correspondence within ``delta``, or None.

    Node ``i * ny + j`` is the pair ``(i, j)``; its bitset holds the nodes
    within ``delta`` of it.  Live nodes with no compatible live node in some
    row or column are dropped to a fixpoint (arc consistency); the search
    then branches on the uncovered row or column with the fewest live nodes,
    ANDs each chosen node's bitset into the live set and drops failed nodes.
    """
    ok = (mismatch <= delta) & (mismatch.T <= delta)
    compat = [int.from_bytes(r.tobytes(), "little") for r in np.packbits(ok, 1, bitorder="little")]
    lines = [((1 << ny) - 1) << (i * ny) for i in range(nx)]
    lines += [sum(1 << (i * ny + j) for i in range(nx)) for j in range(ny)]

    def search(live: int, chosen: int) -> Optional[int]:
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


def gh_lower_bound(x: FiniteMetricSpace, y: FiniteMetricSpace) -> float:
    """Certified lower bound: diameter gap and eccentricity-profile gap.

    Any covering correspondence moves eccentricities by at most its
    distortion, so half the Hausdorff distance between the two sets of
    eccentricities (as subsets of the line) never exceeds the true
    distance; the diameter gap is the classical bound.
    """
    if x.n == 0 or y.n == 0:
        raise ValueError("Gromov-Hausdorff bounds need nonempty spaces")
    ex = x.eccentricities()
    ey = y.eccentricities()
    gaps = np.abs(ex[:, None] - ey[None, :])
    ecc_hausdorff = max(float(gaps.min(axis=1).max()), float(gaps.min(axis=0).max()))
    diam_gap = abs(x.diameter() - y.diameter())
    return 0.5 * max(diam_gap, ecc_hausdorff)


def gh_upper_bound(x: Space, y: Space, corr: Correspondence) -> float:
    """Upper bound from an explicit covering correspondence; like
    :func:`distortion`, it accepts spaces or metric trees."""
    return 0.5 * distortion(x, y, corr)


def greedy_tree_correspondence(
    x: FiniteMetricSpace, y: FiniteMetricSpace
) -> Correspondence:
    """Deterministic covering correspondence by eccentricity rank alignment.

    Both vertex sets are sorted by (eccentricity, index) and matched at
    proportional ranks, in both directions.  On two copies of one space
    this yields the identity, hence zero distortion.
    """
    order_x = np.argsort(x.eccentricities(), kind="stable")
    order_y = np.argsort(y.eccentricities(), kind="stable")
    nx, ny = len(order_x), len(order_y)
    to_y = order_y[np.round(np.arange(nx) * (ny - 1) / max(1, nx - 1)).astype(int)]
    to_x = order_x[np.round(np.arange(ny) * (nx - 1) / max(1, ny - 1)).astype(int)]
    return Correspondence.from_pairs(zip(np.r_[order_x, to_x], np.r_[to_y, order_y]))


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
    the rank-aligned correspondence.

    Args:
        t1, t2: metric trees.
        eps: sampling resolution (also the interval widening).
        cap: exactness cap on sampled point counts.

    Returns:
        A :class:`GHInterval` with ``lo <= hi``.

    Raises:
        ValueError: ``eps`` is not positive.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    xs = subdivide(t1, eps).as_space()
    ys = subdivide(t2, eps).as_space()
    if max(xs.n, ys.n) <= cap:
        value, witness = gh_exact(xs, ys, cap=cap, return_witness=True)
        lo = max(0.0, value - eps)
        hi = value + eps
        return GHInterval(lo, hi, eps, "exact", "exact sampled distance - eps", witness)
    lo = max(0.0, gh_lower_bound(xs, ys) - eps)
    witness = greedy_tree_correspondence(xs, ys)
    hi = gh_upper_bound(xs, ys, witness) + eps
    return GHInterval(lo, hi, eps, "bounds", "diameter/eccentricity bound - eps", witness)
