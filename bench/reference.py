"""Reference values the benchmark checks the program against.

Everything here is computed from raw inputs (coordinates, edge lists,
point sets) with code that shares nothing with the treegh package, so a
fault in the package cannot hide itself by also being in its check.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict


def two_sweep_diameter(edges):
    """Diameter of a tree given as ``(a, b, length)`` edges.

    The farthest vertex from any start is an end of a longest path, so a
    second sweep from it measures the diameter.
    """
    adj = defaultdict(list)
    for a, b, w in edges:
        adj[a].append((b, float(w)))
        adj[b].append((a, float(w)))
    if not adj:
        return 0.0

    def farthest(src):
        dist = {src: 0.0}
        stack = [src]
        while stack:
            u = stack.pop()
            for v, w in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + w
                    stack.append(v)
        far = max(dist, key=dist.get)
        return far, dist[far]

    end, _ = farthest(next(iter(adj)))
    return farthest(end)[1]


def euclidean(points):
    """Pairwise Euclidean distances of a list of coordinate tuples."""
    return [[math.dist(p, q) for q in points] for p in points]


def diameter(points):
    return max((math.dist(p, q) for p in points for q in points), default=0.0)


def brute_gh(dx, dy):
    """Gromov-Hausdorff distance by enumerating every relation.

    Half the least distortion over all subsets of X x Y that cover both
    sides.  Only for spaces of at most three points each.
    """
    nx, ny = len(dx), len(dy)
    if nx * ny > 9:
        raise ValueError("enumeration is for spaces of at most three points")
    cells = [(i, j) for i in range(nx) for j in range(ny)]
    best = math.inf
    for mask in range(1, 1 << len(cells)):
        rel = [cells[b] for b in range(len(cells)) if mask >> b & 1]
        if {i for i, _ in rel} != set(range(nx)) or {j for _, j in rel} != set(range(ny)):
            continue
        dis = max(abs(dx[i][k] - dy[j][l]) for i, j in rel for k, l in rel)
        best = min(best, dis)
    return 0.5 * best


def cutoff(n, s):
    """The paper's cutoff c_n(s): 1 up to 2^-(n+1), linear to 0 at 2^-n."""
    if s <= 2.0 ** -(n + 1):
        return 1.0
    if s >= 2.0 ** -n:
        return 0.0
    return (2.0 ** -n - s) / 2.0 ** -(n + 1)


def comb_hausdorff_modulus(s, t, depth_cap):
    """Hausdorff distance between unit combs s and t on a common spine.

    Both combs sit isometrically inside the comb whose teeth take the
    larger of the two heights, and there a tooth of height h lies within
    |h - h'| of the tooth of height h' at the same spine point, so the
    largest per-generation height gap bounds the GH distance from above.
    """
    return max(abs(s * cutoff(n, s) - t * cutoff(n, t)) for n in range(depth_cap + 1))


def star_coefficients(u, k, m, branches):
    """The paper's encoding of a grid point u and fiber k as star branches."""
    a = [
        0.25 * (1.0 + u[0]),
        0.0625 * (1.0 + u[1]),
        (1.0 + (k - 1) / max(1, m - 1)) / 64.0,
    ]
    a.extend(1.5 / 4.0 ** i for i in range(4, branches + 1))
    return a


def star_scale(u, marked_coords, grid_diameter):
    """Star scale xi(u) = 32 min_i |u - v_i| / (2 diam H)."""
    return 32.0 * min(math.dist(u, v) for v in marked_coords) / (2.0 * grid_diameter)


def grid_adjacency(coords):
    """Index pairs of points at the least positive distance, in order."""
    spacing = min(
        math.dist(p, q) for p, q in itertools.combinations(coords, 2) if p != q
    )
    return [
        (i, j)
        for i, j in itertools.combinations(range(len(coords)), 2)
        if 0 < math.dist(coords[i], coords[j]) <= spacing * (1 + 1e-9)
    ]
