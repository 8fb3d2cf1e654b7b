"""Gromov-Hausdorff distance between finite metric spaces.

The distance is computed as half the minimal distortion over covering
correspondences.  Exact minimisation explores assignments with branch and
bound and is capped by point count; beyond the cap, certified two-sided
bounds are produced instead (a diameter/eccentricity lower bound and the
distortion of a deterministic rank-aligned correspondence as upper bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

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


class GHCapError(ValueError):
    """Raised when exact search is requested beyond the point-count cap."""


class _SearchDone(Exception):
    """Internal: unwinds the branch-and-bound once the lower bound is met."""


@dataclass(frozen=True)
class Correspondence:
    """A relation between point indices of two spaces, stored as sorted pairs."""

    pairs: Tuple[Tuple[int, int], ...]

    @classmethod
    def from_pairs(cls, pairs: Sequence[Tuple[int, int]]) -> "Correspondence":
        return cls(tuple(sorted({(int(i), int(j)) for i, j in pairs})))

    def covers(self, nx: int, ny: int) -> bool:
        return (
            {i for i, _ in self.pairs} == set(range(nx))
            and {j for _, j in self.pairs} == set(range(ny))
        )

    def __len__(self):
        return len(self.pairs)


Space = Union[FiniteMetricSpace, MetricTree]


def distortion(x: Space, y: Space, corr: Correspondence) -> float:
    """Largest distance mismatch over a covering correspondence.

    ``max |d_X(a, a') - d_Y(b, b')|`` over pairs ``(a, b), (a', b')`` of the
    correspondence.  Only ``.n`` and ``.dist`` are read, so a
    :class:`MetricTree` is indexed in its vertex order without copying its
    matrix.  Raises if the relation fails to cover both spaces.
    """
    if not corr.covers(x.n, y.n):
        raise ValueError("correspondence does not cover both spaces")
    I = np.array([i for i, _ in corr.pairs], dtype=int)
    J = np.array([j for _, j in corr.pairs], dtype=int)
    A = x.dist[np.ix_(I, I)]
    A -= y.dist[np.ix_(J, J)]
    return float(np.abs(A, out=A).max())


def gh_exact(
    x: FiniteMetricSpace,
    y: FiniteMetricSpace,
    cap: int = DEFAULT_CAP,
    return_witness: bool = False,
):
    """Exact Gromov-Hausdorff distance by branch-and-bound.

    Minimises distortion over all covering correspondences: every minimiser
    is dominated by a map assigning each point of ``x`` one partner in
    ``y`` plus one repair partner for every uncovered point of ``y``, so
    only that family is explored, depth-first with pruning on the running
    distortion.  The reported witness is the first minimiser in exploration
    order, which is deterministic.

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
    dX, dY = x.dist, y.dist
    # No correspondence can distort less than the certified lower bound, so
    # once the running best hits it the remaining search cannot improve.
    floor = 2.0 * gh_lower_bound(x, y)

    best_pairs: Optional[Tuple[Tuple[int, int], ...]] = None
    # Seed the pruning threshold with the rank-aligned correspondence; the
    # strict inequality below still lets the first optimal leaf through.
    seed = greedy_tree_correspondence(x, y)
    best = math.nextafter(distortion(x, y, seed), math.inf)
    px: List[int] = []  # x side of pairs chosen so far
    py: List[int] = []

    def repair(u_idx: int, uncovered: List[int], cur: float):
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

    def assign(i: int, cur: float):
        nonlocal best, best_pairs
        if i == nx:
            used = set(py)
            uncovered = [u for u in range(ny) if u not in used]
            repair(0, uncovered, cur)
            return
        row_x = dX[i]
        for j in range(ny):
            if i == 0:
                inc = 0.0
            else:
                inc = float(np.abs(row_x[px] - dY[j, py]).max())
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
    # The optimal leaf always beats the threshold, so the seed fallback is
    # unreachable.
    witness = seed if best_pairs is None else Correspondence.from_pairs(best_pairs)
    value = gh_upper_bound(x, y, witness)
    if return_witness:
        return value, witness
    return value


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
    pairs = []
    for r, i in enumerate(order_x):
        j = order_y[round(r * (ny - 1) / max(1, nx - 1))] if nx > 1 else order_y[0]
        pairs.append((i, j))
    for r, j in enumerate(order_y):
        i = order_x[round(r * (nx - 1) / max(1, ny - 1))] if ny > 1 else order_x[0]
        pairs.append((i, j))
    return Correspondence.from_pairs(pairs)


@dataclass(frozen=True)
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
