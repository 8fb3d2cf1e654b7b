"""Parametric families of metric trees: combs and stars.

A comb of parameter ``s`` is a unit spine with vertical teeth attached at
dyadic points; generation ``n`` teeth sit at the odd multiples of
``2^-(n+1)`` and have height ``s * c_n(s)`` for a piecewise-linear cutoff
``c_n``.  As ``s`` grows, fine generations shrink and vanish, so the family
interpolates continuously between a plain segment (``s = 0`` and ``s = 1``)
and ever denser combs.

A star of coefficient vector ``a`` is a central vertex with branches
``0..N``; branch 0 has unit length and branch ``i`` has length ``a_i``,
everything scaled by a global factor.  Distances between branch points are
measured through the center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .tree import _MAX_SUBDIVIDE_VERTICES, MetricTree

__all__ = [
    "CombParams",
    "StarParams",
    "c_fun",
    "comb_dist",
    "comb_tree",
    "star_metric",
    "star_tree",
    "tau",
    "rho_embed",
    "comb_attachments",
    "cube_interval",
]


def c_fun(n: int, s: float) -> float:
    """Cutoff profile of tooth generation ``n`` at comb parameter ``s``.

    Equals 1 up to ``2^-(n+1)``, decays linearly to 0 at ``2^-n``, and
    vanishes beyond.  Generation ``n`` teeth have height ``s * c_fun(n, s)``.
    """
    if n < 0:
        raise ValueError("generation index must be nonnegative")
    if s < 0:
        raise ValueError("comb parameter must be nonnegative")
    hi = 2.0 ** (-n)
    lo = 2.0 ** (-(n + 1))
    if s <= lo:
        return 1.0
    if s >= hi:
        return 0.0
    return 2.0 ** (n + 1) * (hi - s)


def comb_dist(p: Tuple[float, float], q: Tuple[float, float]) -> float:
    """Path distance between comb points ``(x, h)``: spine position, height.

    Points above the same spine position differ by their heights; otherwise
    a path descends to the spine, runs along it, and climbs back up.
    """
    x1, h1 = p
    x2, h2 = q
    if h1 < 0 or h2 < 0:
        raise ValueError("tooth heights must be nonnegative")
    if x1 == x2:
        return abs(h1 - h2)
    return h1 + abs(x1 - x2) + h2


@dataclass(frozen=True)
class CombParams:
    """Comb parameters: teeth size ``s``, overall scale, generation cap."""

    s: float
    scale: float = 1.0
    depth_cap: int = 8

    def __post_init__(self):
        if not (0.0 <= self.s <= 1.0):
            raise ValueError("comb parameter s must lie in [0, 1], got %r" % (self.s,))
        if not 0.0 < self.scale <= 1.0:
            raise ValueError("scale must lie in (0, 1], got %r" % (self.scale,))
        if self.depth_cap < 0:
            raise ValueError("depth_cap must be nonnegative")


def _active_generations(s: float, cap: int) -> List[int]:
    # s < 2^-n holds for n = 0, 1, ... up to some n and for none after, so
    # the walk stops there, however large the cap.
    n = 0
    while s > 0.0 and n <= cap and s < 2.0 ** (-n):
        n += 1
    return list(range(n))


def comb_attachments(s: float, cap: int) -> Dict[int, List[float]]:
    """Spine positions of teeth per active generation (dyadic points).

    Raises:
        ValueError: the comb would have more than 2**20 vertices (checked
            before anything is built).
    """
    gens = _active_generations(s, cap)
    # 3 + 2 + 4 + ... + 2^g teeth for generations 0..g, and as many spine
    # vertices under them.
    vertices = 2 * (2 ** len(gens) + 1) if gens else 2
    if vertices > _MAX_SUBDIVIDE_VERTICES:
        raise ValueError(
            "a comb of s=%r and depth_cap=%d would have %d vertices, more than %d"
            % (s, cap, vertices, _MAX_SUBDIVIDE_VERTICES)
        )
    out: Dict[int, List[float]] = {}
    for n in gens:
        if n == 0:
            out[n] = [0.0, 0.5, 1.0]
        else:
            step = 2.0 ** (-(n + 1))
            out[n] = [(2 * j + 1) * step for j in range(2 ** n)]
    return out


def _tooth_heights(s: float, cap: int) -> Dict[float, float]:
    """Tooth height ``s * c_n(s)`` at the spine position of every active tooth."""
    return {
        x: s * c_fun(n, s)
        for n, xs in comb_attachments(s, cap).items()
        for x in xs
    }


def comb_tree(params: CombParams) -> MetricTree:
    """Materialise a comb as a metric tree.

    The spine covers ``[0, scale]`` with vertices at every active tooth
    position (ids ``spine:<x>`` in normalised coordinates); each tooth is a
    single edge to ``tooth:<x>:<h>``.  With ``s = 0`` (or no active
    generation) the result is the plain two-vertex segment.  Generations
    beyond ``depth_cap`` are dropped; the resulting omission is at most
    ``scale * s`` and is recorded as ``metadata["truncation_error"]``.
    A spine with teeth is a tree by construction, so it is not proved one;
    only when a tiny ``scale`` rounds an edge length to zero does the tree
    go through the checked constructor, which raises
    :class:`~treegh.tree.TreeStructureError` naming that edge.
    """
    s, M, cap = params.s, params.scale, params.depth_cap
    heights = _tooth_heights(s, cap)
    points: Dict[str, Tuple[float, float]] = {}

    xs = sorted({0.0, 1.0} | set(heights))

    vertices: List[str] = []
    edges: List[Tuple[str, str, float]] = []
    spine_ids = {}
    for x in xs:
        vid = "spine:%r" % x
        spine_ids[x] = vid
        vertices.append(vid)
        points[vid] = (x, 0.0)
    for i in range(len(xs) - 1):
        edges.append((spine_ids[xs[i]], spine_ids[xs[i + 1]], float(M * (xs[i + 1] - xs[i]))))
    for x in xs:
        h = heights.get(x, 0.0)
        if h > 0.0:
            tid = "tooth:%r:%r" % (x, h)
            vertices.append(tid)
            points[tid] = (x, h)
            edges.append((spine_ids[x], tid, float(M * h)))

    truncation = M * s if (s > 0.0 and s < 2.0 ** (-(cap + 1))) else 0.0
    meta = {
        "generator": "comb",
        "s": s,
        "scale": M,
        "depth_cap": cap,
        "truncation_error": truncation,
        "points": points,
    }
    if all(w > 0.0 for _, _, w in edges):
        # A spine path with one tooth per spine vertex, distinct ids: a tree.
        return MetricTree._unchecked(vertices, edges, {}, meta)
    # A tiny scale can round a length to zero; the constructor names it.
    return MetricTree(vertices, edges, metadata=meta)


@dataclass(frozen=True)
class StarParams:
    """Star parameters: branch coefficients ``a_1..a_N`` (branch 0 is unit),
    a global scale, and the sampling resolution along branches."""

    a: Tuple[float, ...]
    scale: float
    eps: float = 0.125

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(x) for x in self.a))
        if len(self.a) < 1:
            raise ValueError("need at least one branch coefficient")
        if any(not (x > 0) or not math.isfinite(x) for x in self.a):
            raise ValueError("branch coefficients must be positive and finite")
        if not (self.scale >= 0 and math.isfinite(self.scale)):
            raise ValueError("scale must be nonnegative and finite, got %r" % (self.scale,))
        if not (self.eps > 0 and math.isfinite(self.eps)):
            raise ValueError("eps must be positive and finite, got %r" % (self.eps,))

    def coefficient(self, i: int) -> float:
        """Branch coefficient, with the implicit unit branch 0."""
        if i == 0:
            return 1.0
        if 1 <= i <= len(self.a):
            return self.a[i - 1]
        raise IndexError("branch index %d out of range 0..%d" % (i, len(self.a)))


def star_metric(params: StarParams, x: Tuple[float, int], y: Tuple[float, int]) -> float:
    """Distance between star points ``(s, i)``: branch parameter and index.

    ``s = 0`` is the center regardless of the branch index.  Points on one
    branch differ along it; otherwise the path passes through the center.
    Scaled by ``params.scale``.
    """
    s, i = float(x[0]), int(x[1])
    t, j = float(y[0]), int(y[1])
    for val, idx in ((s, i), (t, j)):
        if not (0.0 <= val <= 1.0):
            raise ValueError("branch parameter must lie in [0, 1], got %r" % (val,))
        params.coefficient(idx)
    K = params.scale
    if s == 0.0 and t == 0.0:
        return 0.0
    if s == 0.0:
        return K * params.coefficient(j) * t
    if t == 0.0:
        return K * params.coefficient(i) * s
    if i == j:
        return K * params.coefficient(i) * abs(s - t)
    return K * (params.coefficient(i) * s + params.coefficient(j) * t)


def star_tree(params: StarParams) -> MetricTree:
    """Materialise a star as a metric tree.

    Branch ``i`` runs from ``center`` to ``branch:<i>:1.0`` with physical
    length ``scale * a_i``, sampled at resolution ``eps`` (ids carry the
    normalised branch parameter).  ``scale = 0`` collapses to the single
    center vertex.

    Raises:
        ValueError: the star would have more than 2**20 vertices (checked
            before anything is built).
    """
    K = params.scale
    lengths = [K * params.coefficient(i) for i in range(len(params.a) + 1)] if K > 0 else []
    with np.errstate(over="ignore"):
        counts = np.maximum(1.0, np.ceil(np.array(lengths) / params.eps - 1e-12))
    if 1.0 + counts.sum() > _MAX_SUBDIVIDE_VERTICES:
        raise ValueError(
            "a star sampled at eps=%r would have %.0f vertices, more than %d"
            % (params.eps, 1.0 + counts.sum(), _MAX_SUBDIVIDE_VERTICES)
        )
    vertices: List[str] = ["center"]
    edges: List[Tuple[str, str, float]] = []
    points: Dict[str, Tuple[int, float]] = {"center": (0, 0.0)}
    for i, (length, pieces) in enumerate(zip(lengths, counts.astype(int).tolist())):
        prev_id, prev_pos = "center", 0.0
        for j in range(1, pieces + 1):
            sv = j / pieces
            pos = length * j / pieces
            vid = "branch:%d:%r" % (i, sv)
            vertices.append(vid)
            points[vid] = (i, sv)
            edges.append((prev_id, vid, pos - prev_pos))
            prev_id, prev_pos = vid, pos
    meta = {
        "generator": "star",
        "a": list(params.a),
        "scale": params.scale,
        "eps": params.eps,
        "points": points,
    }
    return MetricTree(vertices, edges, metadata=meta)


def _assembly_star_parts(
    params: StarParams,
) -> Tuple[List[str], List[Tuple[str, str, float]], Dict[str, Tuple[int, float]]]:
    """Vertices, edges and ``(branch, parameter)`` points of the star of
    :func:`star_tree` with one interior vertex per branch, unvalidated, for
    callers that glue it into a larger tree.

    The interior vertex is the last eps-sample, at ``L (p - 1) / p`` with
    ``p = ceil(L / eps)`` pieces (at least 2) on a branch of length ``L``,
    so :func:`~treegh.tree.subdivide` at ``eps`` puts the other samples
    back.  It keeps a branch whose two ends both have degree >= 3 a
    degree-<=2 component.  The tip edge ``L - L (p - 1) / p`` is exact
    (Sterbenz), so each branch's two edges sum to ``L`` exactly.

    Raises:
        ValueError: eps is so fine against a branch that ``L / eps``
            overflows, or that the last sample rounds onto the tip or the
            center (checked before anything is built).
    """
    K = params.scale
    samples = []  # per branch: its length, its last sample's position and parameter
    for i in range(len(params.a) + 1 if K > 0 else 0):
        length = K * params.coefficient(i)
        ratio = length / params.eps
        if math.isfinite(ratio):
            pieces = max(2, int(math.ceil(ratio - 1e-12)))
            inner, sv = length * (pieces - 1) / pieces, (pieces - 1) / pieces
            if sv < 1.0 and 0.0 < inner < length:
                samples.append((length, inner, sv))
                continue
        raise ValueError(
            "eps=%r is too fine for star branch %d of length %r: its last sample "
            "does not fall strictly inside the branch" % (params.eps, i, length)
        )
    vertices: List[str] = ["center"]
    edges: List[Tuple[str, str, float]] = []
    points: Dict[str, Tuple[int, float]] = {"center": (0, 0.0)}
    for i, (length, inner, sv) in enumerate(samples):
        mid, tip = "branch:%d:%r" % (i, sv), "branch:%d:1.0" % i
        vertices += [mid, tip]
        points[mid], points[tip] = (i, sv), (i, 1.0)
        edges += [("center", mid, inner), (mid, tip, length - inner)]
    return vertices, edges, points


def tau(a: Sequence[float], b: Sequence[float]) -> float:
    """Sup-distance between coefficient vectors of equal length."""
    if len(a) != len(b):
        raise ValueError("coefficient vectors differ in length: %d vs %d" % (len(a), len(b)))
    if len(a) == 0:
        return 0.0
    return float(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))))


def cube_interval(i: int) -> Tuple[float, float]:
    """Admissible range of the i-th branch coefficient, ``[4^-i, 2*4^-i]``."""
    if i < 1:
        raise ValueError("branch index must be >= 1")
    lo = 2.0 ** (-2 * i)
    return lo, 2.0 * lo


# The most branches rho_embed encodes: past it the coefficient
# 1.5 * 2**(-2 * i) underflows to zero, which no star takes.
_MAX_BRANCHES = 537


def rho_embed(
    u: Tuple[float, float], k: int, m: int, branches: int
) -> Tuple[float, ...]:
    """Coefficient vector encoding a plane point and a fiber index.

    The first two coefficients carry the coordinates of ``u`` in [0, 1]^2,
    the third carries ``k`` among ``m`` fibers, and the remaining branches
    sit at the midpoints of their admissible ranges.  Distinct ``(u, k)``
    give distinct vectors, separated in the sup-distance.

    Args:
        u: point of the unit square.
        k: fiber index in ``1..m``.
        m: number of fibers.
        branches: total number of nontrivial coefficients, 3 to
            ``_MAX_BRANCHES`` (537).

    Returns:
        ``(a_1, ..., a_branches)`` with ``a_i`` inside ``cube_interval(i)``.
    """
    u1, u2 = float(u[0]), float(u[1])
    if not (0.0 <= u1 <= 1.0 and 0.0 <= u2 <= 1.0):
        raise ValueError("u must lie in the unit square, got %r" % (u,))
    if not (1 <= k <= m):
        raise ValueError("fiber index k=%r outside 1..%r" % (k, m))
    if branches < 3:
        raise ValueError("need at least 3 branches to encode (u, k)")
    if branches > _MAX_BRANCHES:
        raise ValueError("at most %d branches, got %d" % (_MAX_BRANCHES, branches))
    a = [
        2.0 ** (-2) * (1.0 + u1),
        2.0 ** (-4) * (1.0 + u2),
        2.0 ** (-6) * (1.0 + (k - 1) / max(1, m - 1)),
    ]
    for i in range(4, branches + 1):
        a.append(1.5 * 2.0 ** (-2 * i))
    return tuple(a)
