"""Combinatorial metric trees with positive edge lengths.

A tree here is a finite vertex/edge model of a geodesic tree: vertices carry
string identifiers and edges carry positive lengths.  Construction checks
each edge (known endpoints, no self-loop, positive finite length) and then
proves the edge list is a tree by counting: one depth-first walk from vertex
0 must reach all n vertices over exactly n - 1 edges.  Only when that fails
is the graph searched again, to name a cycle or the components.  The same
walk, as a preorder with parents and edge lengths, fills the full matrix of
path distances when it is first needed (then cached; its columns stay in
preorder until ``dist`` is read) and finds geodesics;
operations that need one source's distances or only edge lengths (balls,
degree-<=2 components, edge replacement) never build the matrix.  Points of
the underlying continuum exist only once an operation materialises them --
subdivision, chunk boundaries and ball cuts all insert explicit vertices.

Operations that insert vertices record them in ``metadata["inserted"]`` as
``new_id -> (u, v, offset)``, meaning the new vertex sits on the former
edge (u, v) at distance ``offset`` from ``u``.  Downstream code uses these
records to track coordinates without parsing identifiers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .metric import FiniteMetricSpace

__all__ = [
    "MetricTree",
    "TreeStructureError",
    "ReplacementError",
    "Deg2Component",
    "TreeSegment",
    "Deg2Decomposition",
    "ReplacementEntry",
    "tree_from_edges",
    "geodesic",
    "deg2_components",
    "decompose_deg2",
    "refine_at_radius",
    "closed_ball_subtree",
    "wedge_sum",
    "replace_edges",
    "subdivide",
]

_EPS_VERTEX = 1e-12  # slack for "a position lands exactly on a vertex"
# Entries per block when `dist` permutes the fill's columns: the only
# temporary beside the matrix, small enough to stay in cache.
_PERMUTE_BLOCK_CELLS = 1 << 16


class TreeStructureError(ValueError):
    """Raised for edge lists that do not describe a metric tree."""


class ReplacementError(ValueError):
    """Raised when an edge-replacement plan is inconsistent with its host."""


class MetricTree:
    """A finite metric tree: unique string vertex ids, positive edge lengths.

    Attributes:
        vertices: vertex identifiers in insertion order.
        edges: tuples ``(a, b, length)``.
        dist: matrix of path distances (float64, read-only), filled with
            its columns in DFS preorder when first needed, permuted to
            vertex order on the first read of ``dist`` and cached;
            :meth:`row` gives one source's distances in O(n) without it.
        labels: optional display labels per vertex id.
        metadata: free-form provenance (generators fill this in).
    """

    def __init__(
        self,
        vertices: Sequence[str],
        edges: Sequence[Tuple[str, str, float]],
        labels: Optional[Dict[str, str]] = None,
        metadata: Optional[dict] = None,
    ):
        self.vertices: Tuple[str, ...] = tuple(str(v) for v in vertices)
        self.edges: Tuple[Tuple[str, str, float], ...] = tuple(
            (str(a), str(b), float(w)) for a, b, w in edges
        )
        self.labels: Dict[str, str] = dict(labels or {})
        self.metadata: dict = dict(metadata or {})
        self._index: Dict[str, int] = {v: i for i, v in enumerate(self.vertices)}
        n = len(self.vertices)
        if n == 0:
            raise TreeStructureError("a tree needs at least one vertex")
        if len(self._index) != n:
            # an id listed twice maps to its last position only
            dupes = {v for i, v in enumerate(self.vertices) if self._index[v] != i}
            raise TreeStructureError("duplicate vertex ids: %s" % sorted(dupes)[:3])
        self._adj: List[List[Tuple[int, float]]] = [[] for _ in self.vertices]
        for a, b, w in self.edges:
            ia, ib = self._index.get(a), self._index.get(b)
            if ia is None or ib is None:
                raise TreeStructureError("edge (%s, %s) references unknown vertex" % (a, b))
            if ia == ib:
                raise TreeStructureError("self-loop at vertex %s" % a)
            if not (w > 0) or not math.isfinite(w):
                raise TreeStructureError(
                    "edge (%s, %s) must have positive finite length, got %r" % (a, b, w)
                )
            self._adj[ia].append((ib, w))
            self._adj[ib].append((ia, w))
        # A graph on n vertices is a tree iff it is connected with n - 1 edges.
        if len(self.edges) != n - 1 or sum(1 for _ in self._walk(0)) != n:
            raise TreeStructureError(self._not_a_tree())
        # The filled distance matrix, and while its columns are still in
        # DFS preorder, the preorder position of each vertex.
        self._dist: Optional[np.ndarray] = None
        self._cols: Optional[np.ndarray] = None

    # -- construction helpers -------------------------------------------------

    def _walk(self, root: int, seen: Optional[List[bool]] = None):
        """Iterative DFS preorder from root over the integer adjacency.

        Yields ``(v, parent, w)``: a vertex, the vertex it was reached from
        and the length of that edge (``-1`` and ``0.0`` for the root).  The
        subtree of each vertex is a contiguous run of the sequence.  ``seen``
        holds reached-flags and may be shared by walks of one forest.
        """
        if seen is None:
            seen = [False] * len(self._adj)
        seen[root] = True
        stack = [(root, -1, 0.0)]
        while stack:
            item = stack.pop()
            yield item
            u = item[0]
            for v, w in self._adj[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append((v, u, w))

    def _not_a_tree(self) -> str:
        # Error path only: walk every component and name the first edge, in
        # edge-list order, that no walk crossed (it closes a cycle through
        # the walk tree), or else the components.
        n = len(self.vertices)
        seen = [False] * n
        parent = [-1] * n
        depth = [0] * n
        for r in range(n):
            if not seen[r]:
                for v, p, _ in self._walk(r, seen):
                    if p >= 0:
                        parent[v], depth[v] = p, depth[p] + 1
        crossed = [False] * n  # the edge to a vertex's parent was matched
        for a, b, _ in self.edges:
            ia, ib = self._index[a], self._index[b]
            for c, p in ((ib, ia), (ia, ib)):
                if parent[c] == p and not crossed[c]:
                    crossed[c] = True
                    break
            else:
                head, tail = [ia], [ib]
                while head[-1] != tail[-1]:
                    deeper = head if depth[head[-1]] >= depth[tail[-1]] else tail
                    deeper.append(parent[deeper[-1]])
                cycle = head + tail[-2::-1] + [ia]
                return "cycle detected: %s" % " -> ".join(self.vertices[i] for i in cycle)
        reps = sorted(self.vertices[r] for r in range(n) if parent[r] < 0)
        return "tree is disconnected (components containing %s)" % ", ".join(reps[:4])

    def _all_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        # In the DFS preorder from vertex 0 the subtree of the vertex at
        # position i is the range [i, i + size).  Moving the source from a
        # parent p to its child v across an edge of length w adds w to the
        # distance of every vertex outside v's subtree and subtracts w inside
        # it, so each row is one vectorized update of its parent's row.  Rows
        # are stored at their vertex's index with columns in preorder; the
        # matrix is returned with the preorder position of each vertex, and
        # `dist` permutes the columns to vertex order on its first read.
        n = len(self.vertices)
        # One allocation, made before the walk's lists, holds the matrix and
        # the preorder positions that live as long as it: a small long-lived
        # array allocated after a matrix can split the heap hole that a
        # later fill needs, and peak memory over repeated scans then crept
        # up by a matrix.
        buf = np.empty(n * n + n)
        d = buf[: n * n].reshape(n, n)
        cols = buf[n * n :].view(np.int64)
        walk = list(self._walk(0))
        pos = [0] * n  # preorder position of each vertex
        for i, (v, _, _) in enumerate(walk):
            pos[v] = i
        size = [1] * n  # subtree size, by preorder position
        for i in range(n - 1, 0, -1):
            size[pos[walk[i][1]]] += size[i]
        root = d[0]
        root[0] = 0.0
        for i in range(1, n):
            _, p, w = walk[i]
            root[i] = root[pos[p]] + w
        for i in range(1, n):
            v, p, w = walk[i]
            prow, row, end = d[p], d[v], i + size[i]
            np.add(prow, w, out=row)
            np.subtract(prow[i:end], w, out=row[i:end])
        cols[:] = pos
        d[np.arange(n), cols] = 0.0
        return d, cols

    # -- queries --------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    def index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise KeyError("vertex %r not in tree" % (v,)) from None

    def has_vertex(self, v: str) -> bool:
        return v in self._index

    def degree(self, v: str) -> int:
        return len(self._adj[self.index(v)])

    def neighbors(self, v: str) -> List[Tuple[str, float]]:
        return [(self.vertices[j], w) for j, w in self._adj[self.index(v)]]

    @property
    def dist(self) -> np.ndarray:
        """Matrix of path distances in vertex order, built on first read.

        The fill leaves its columns in DFS preorder; the first read of
        ``dist`` permutes them in place, a block of rows at a time, so the
        matrix is held once.  Callers that only gather blocks of it (such as
        :func:`treegh.gh.distortion`) read the unpermuted fill through
        :meth:`_filled` and never pay for the permutation.
        """
        d, cols = self._filled()
        if cols is not None:
            step = max(1, _PERMUTE_BLOCK_CELLS // self.n)
            for lo in range(0, self.n, step):
                d[lo:lo + step] = d[lo:lo + step, cols]
            d.setflags(write=False)
            self._cols = None
        return d

    def _filled(self) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """The distance matrix, filled on first call, and the preorder
        position of each vertex while its columns are still in preorder
        (None once ``dist`` has permuted them to vertex order).

        Row ``u``, column ``pos[v]`` (or ``v``) is then the distance from
        ``u`` to ``v``.  The matrix is private: do not write it.
        """
        if self._dist is None:
            self._dist, self._cols = self._all_pairs()
        return self._dist, self._cols

    def row(self, v: str) -> np.ndarray:
        """Distances from vertex v to every vertex, in vertex order (read-only).

        Reads the cached matrix when it has been built; otherwise one O(n)
        traversal from v, which leaves the matrix unbuilt.
        """
        s = self.index(v)
        if self._dist is not None:
            if self._cols is None:
                return self._dist[s]
            d = self._dist[s, self._cols]
            d.setflags(write=False)
            return d
        d = np.zeros(self.n, dtype=float)
        seen = [False] * self.n
        seen[s] = True
        stack = [s]
        while stack:
            u = stack.pop()
            du = d[u]
            for x, w in self._adj[u]:
                if not seen[x]:
                    seen[x] = True
                    d[x] = du + w
                    stack.append(x)
        d.setflags(write=False)
        return d

    def distance(self, x: str, y: str) -> float:
        return float(self.dist[self.index(x), self.index(y)])

    def _edge_length(self, a: str, b: str) -> float:
        """Length of the edge (a, b); raises KeyError if a and b are not adjacent."""
        ib = self.index(b)
        for j, w in self._adj[self.index(a)]:
            if j == ib:
                return w
        raise KeyError("no edge (%s, %s) in tree" % (a, b))

    def _path_length(self, path: Sequence[str]) -> float:
        """Length of a vertex path whose consecutive vertices are adjacent."""
        return float(
            sum(self._edge_length(path[i], path[i + 1]) for i in range(len(path) - 1))
        )

    def eccentricity(self, v: str) -> float:
        return float(self.row(v).max())

    def diameter(self) -> float:
        """Largest distance, from two single-source rows: the vertex farthest
        from any vertex ends a diameter of a tree."""
        far = self.vertices[int(self.row(self.vertices[0]).argmax())]
        return float(self.row(far).max())

    def total_edge_length(self) -> float:
        return float(sum(w for _, _, w in self.edges))

    def as_space(self) -> FiniteMetricSpace:
        return FiniteMetricSpace(self.vertices, self.dist)

    def __repr__(self):
        return "MetricTree(%d vertices, %d edges)" % (self.n, len(self.edges))


def tree_from_edges(
    edges: Sequence[Tuple[str, str, float]],
    vertices: Optional[Sequence[str]] = None,
    labels: Optional[Dict[str, str]] = None,
    metadata: Optional[dict] = None,
) -> MetricTree:
    """Build a :class:`MetricTree` from an edge list.

    Vertex order defaults to first appearance in the edge list.  Raises
    :class:`TreeStructureError` on cycles, disconnection, duplicate ids or
    nonpositive lengths.
    """
    if vertices is None:
        seen: List[str] = []
        have = set()
        for a, b, _ in edges:
            for v in (a, b):
                if v not in have:
                    have.add(v)
                    seen.append(v)
        vertices = seen
    return MetricTree(vertices, edges, labels=labels, metadata=metadata)


def geodesic(tree: MetricTree, x: str, y: str) -> List[str]:
    """The unique vertex path from x to y (inclusive)."""
    ix, iy = tree.index(x), tree.index(y)
    prev = {}
    for v, p, _ in tree._walk(ix):
        prev[v] = p
        if v == iy:
            break
    path = [iy]
    while path[-1] != ix:
        path.append(prev[path[-1]])
    return [tree.vertices[i] for i in reversed(path)]


# -- degree <= 2 structure ----------------------------------------------------


@dataclass(frozen=True)
class Deg2Component:
    """A maximal path of vertices of degree <= 2.

    ``vertices`` is the component path itself; ``delimiters`` are the 0-2
    adjacent branch vertices (degree >= 3) just outside it.  The closure
    path extends the component by those delimiters, and
    ``closure_diameter`` is its length, i.e. the distance between the two
    closure endpoints (leaf ends count as endpoints).
    """

    vertices: Tuple[str, ...]
    delimiters: Tuple[str, ...]
    closure_path: Tuple[str, ...]
    closure_diameter: float


def deg2_components(tree: MetricTree) -> List[Deg2Component]:
    """Connected components of the set of vertices with degree <= 2.

    Each component of a tree is a path; components are returned with a
    canonical orientation (lexicographically smaller closure endpoint
    first) and sorted by their closure paths.
    """
    adj, names = tree._adj, tree.vertices
    # A neighbour of a component vertex is in the component iff it is low,
    # so each component is the path of low vertices between its two ends.
    low = [len(nbrs) <= 2 for nbrs in adj]
    seen = [False] * len(adj)
    out: List[Deg2Component] = []
    for v, nbrs in enumerate(adj):
        if len(nbrs) > 2 or seen[v]:
            continue
        if len(nbrs) == 2 and low[nbrs[0][0]] and low[nbrs[1][0]]:
            continue  # inside a path: only an end starts a walk
        ordered, lengths = [v], []
        step = next(((x, w) for x, w in nbrs if low[x]), None)
        while step is not None:
            prev, (cur, w) = ordered[-1], step
            ordered.append(cur)
            lengths.append(w)
            # cur is low, so besides prev it has at most one neighbour.
            step = None
            for x, wx in adj[cur]:
                if x != prev:
                    if low[x]:
                        step = (x, wx)
                    break
        seen[v] = seen[ordered[-1]] = True
        if names[ordered[-1]] < names[ordered[0]]:  # run from the smaller end
            ordered.reverse()
            lengths.reverse()
        # A lone vertex takes its first two outside neighbours as delimiters.
        head = [(x, w) for x, w in adj[ordered[0]] if not low[x]][:1]
        tail = [(x, w) for x, w in adj[ordered[-1]] if not low[x] and (x, w) not in head][:1]
        closure = [x for x, _ in head] + ordered + [x for x, _ in tail]
        lengths = [w for _, w in head] + lengths + [w for _, w in tail]
        if names[closure[0]] > names[closure[-1]]:
            closure.reverse()
            ordered.reverse()
            lengths.reverse()
        out.append(
            Deg2Component(
                vertices=tuple(names[u] for u in ordered),
                delimiters=tuple(sorted({names[x] for x, _ in head + tail})),
                closure_path=tuple(names[u] for u in closure),
                closure_diameter=float(sum(lengths)),
            )
        )
    out.sort(key=lambda c: c.closure_path)
    return out


@dataclass(frozen=True)
class TreeSegment:
    """A geodesic segment [a, b] of a tree, with its vertex path and length."""

    a: str
    b: str
    length: float
    path: Tuple[str, ...]


@dataclass(frozen=True)
class Deg2Decomposition:
    """Chunked closure paths of all degree-<=2 components.

    ``tree`` is the host with any chunk-boundary vertices inserted (ids
    ``chop:k``); ``segments`` covers every component closure with geodesic
    segments of length at most the requested cap, consecutive segments
    sharing exactly one vertex.
    """

    tree: MetricTree
    segments: Tuple[TreeSegment, ...]


def decompose_deg2(tree: MetricTree, max_len: float = 1.0) -> Deg2Decomposition:
    """Chop every degree-<=2 component closure into segments of length <= max_len.

    Chunking is greedy from the lexicographically smallest closure endpoint,
    taking length exactly ``max_len`` until the remainder.  Boundaries that
    fall in the middle of an edge are materialised as new ``chop:k``
    vertices in the returned host tree.
    """
    if not max_len > 0:
        raise ValueError("max_len must be positive")
    comps = deg2_components(tree)

    # Component closures cover every edge touching a degree-<=2 vertex; an
    # edge joining two branch vertices is covered by nobody, yet its interior
    # is still a plain run of the tree, so chunk it as its own closure.
    covered = set()
    for comp in comps:
        path = comp.closure_path
        for i in range(len(path) - 1):
            covered.add(frozenset((path[i], path[i + 1])))
    bare = sorted(
        tuple(sorted((a, b))) for a, b, _ in tree.edges
        if frozenset((a, b)) not in covered
    )
    closures: List[Tuple[str, ...]] = [c.closure_path for c in comps] + [
        tuple(pair) for pair in bare
    ]

    # Walk each closure path, planning chunk boundaries.  A boundary is
    # either an existing vertex or (edge position) to be inserted.
    pending: List[Tuple[str, str, float, str]] = []  # (u, v, offset, new_id)
    plans: List[List[str]] = []  # per segment: symbolic vertex paths
    counter = 0
    for path in closures:
        if len(path) < 2:
            continue
        seg_paths: List[List[str]] = [[path[0]]]
        remaining = max_len
        for i in range(len(path) - 1):
            u, v = path[i], path[i + 1]
            edge_len = tree._edge_length(u, v)
            pos = 0.0
            while edge_len - pos > remaining + _EPS_VERTEX:
                off = pos + remaining
                new_id = "chop:%d" % counter
                counter += 1
                pending.append((u, v, off, new_id))
                seg_paths[-1].append(new_id)
                seg_paths.append([new_id])
                pos = off
                remaining = max_len
            # rest of this edge fits in the current chunk
            consumed = edge_len - pos
            remaining -= consumed
            seg_paths[-1].append(v)
            if remaining <= _EPS_VERTEX and i < len(path) - 2:
                seg_paths.append([v])
                remaining = max_len
        plans.extend(p for p in seg_paths if len(p) >= 2)

    if pending:
        host = _insert_points(tree, pending, generator="chop")
    else:
        host = tree

    segments = []
    for p in plans:
        segments.append(TreeSegment(a=p[0], b=p[-1], length=host._path_length(p), path=tuple(p)))
    return Deg2Decomposition(tree=host, segments=tuple(segments))


def _insert_points(
    tree: MetricTree,
    points: Sequence[Tuple[str, str, float, str]],
    generator: str,
    extra_metadata: Optional[dict] = None,
) -> MetricTree:
    """Rebuild a tree with new vertices on edges.

    ``points`` holds ``(u, v, offset, new_id)`` with offset measured from
    ``u`` along the edge (u, v); multiple insertions per edge are allowed.
    """
    per_edge: Dict[Tuple[str, str], List[Tuple[float, str]]] = {}
    edge_key = {}
    for a, b, w in tree.edges:
        edge_key[(a, b)] = (a, b, w)
        edge_key[(b, a)] = (a, b, w)
    for u, v, off, new_id in points:
        if (u, v) not in edge_key:
            raise TreeStructureError("no edge (%s, %s) to insert into" % (u, v))
        a, b, w = edge_key[(u, v)]
        off_a = off if (u, v) == (a, b) else w - off
        per_edge.setdefault((a, b), []).append((off_a, new_id))

    new_edges: List[Tuple[str, str, float]] = []
    order: List[str] = list(tree.vertices)
    inserted: Dict[str, Tuple[str, str, float]] = {}
    for a, b, w in tree.edges:
        if (a, b) not in per_edge:
            new_edges.append((a, b, w))
            continue
        cuts = sorted(per_edge[(a, b)])
        prev_id, prev_off = a, 0.0
        for off, new_id in cuts:
            if not (0.0 < off < w):
                raise TreeStructureError(
                    "insertion offset %r outside edge (%s, %s) of length %r"
                    % (off, a, b, w)
                )
            new_edges.append((prev_id, new_id, off - prev_off))
            order.append(new_id)
            inserted[new_id] = (a, b, off)
            prev_id, prev_off = new_id, off
        new_edges.append((prev_id, b, w - prev_off))
    meta = {"generator": generator, "inserted": inserted}
    meta.update(extra_metadata or {})
    return MetricTree(order, new_edges, labels=dict(tree.labels), metadata=meta)


# -- balls --------------------------------------------------------------------


def _sphere_crossings(tree: MetricTree, d: np.ndarray, r: float):
    """Edges crossing the sphere of radius r about the source of row d, with offsets."""
    crossings = []
    for a, b, w in tree.edges:
        da, db = d[tree.index(a)], d[tree.index(b)]
        lo_id, lo, hi = (a, da, db) if da <= db else (b, db, da)
        if lo <= r < hi:
            off = r - lo
            if off > _EPS_VERTEX and (hi - r) > _EPS_VERTEX:
                crossings.append((lo_id, a if lo_id == b else b, off))
    return crossings


def refine_at_radius(tree: MetricTree, origin: str, r: float) -> MetricTree:
    """Insert vertices at distance exactly r from origin on crossing edges.

    The tree itself is unchanged geometrically; if no edge crosses the
    sphere the input tree is returned as-is.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    return _refine(tree, origin, r, tree.row(origin))


def _refine(tree: MetricTree, origin: str, r: float, d: np.ndarray) -> MetricTree:
    # refine_at_radius, given the row d of distances from origin
    crossings = _sphere_crossings(tree, d, r)
    if not crossings:
        return tree
    base = 0
    for v in tree.vertices:
        if v.startswith("cut:"):
            try:
                base = max(base, int(v[4:]) + 1)
            except ValueError:
                pass
    points = [
        (u, v, off, "cut:%d" % (base + k)) for k, (u, v, off) in enumerate(crossings)
    ]
    return _insert_points(
        tree, points, generator="refine", extra_metadata={"origin": origin, "radius": r}
    )


def closed_ball_subtree(tree: MetricTree, origin: str, r: float) -> MetricTree:
    """The closed ball of radius r about origin, as a subtree.

    Boundary points in the middle of an edge become new ``cut:k`` vertices.
    ``r = 0`` gives the single-vertex tree at origin; ``r`` at least the
    eccentricity of origin (or infinite) returns the input tree itself.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    d = tree.row(origin)
    if math.isinf(r) or r >= float(d.max()):
        return tree
    refined = _refine(tree, origin, r, d)
    dr = refined.row(origin)
    keep = [v for v in refined.vertices if dr[refined.index(v)] <= r + _EPS_VERTEX]
    keep_set = set(keep)
    edges = [
        (a, b, w) for a, b, w in refined.edges if a in keep_set and b in keep_set
    ]
    inserted = {
        k: v
        for k, v in refined.metadata.get("inserted", {}).items()
        if k in keep_set
    }
    meta = {
        "generator": "ball",
        "origin": origin,
        "radius": r,
        "inserted": inserted,
    }
    labels = {k: v for k, v in tree.labels.items() if k in keep_set}
    return MetricTree(keep, edges, labels=labels, metadata=meta)


# -- gluing -------------------------------------------------------------------


def wedge_sum(parts: Sequence[Tuple[MetricTree, str]]) -> MetricTree:
    """Glue trees at basepoints: all basepoints become one wedge vertex ``p``.

    Distances within one part are untouched; distances across parts go
    through the wedge point.  A single part is returned unchanged.
    """
    if len(parts) == 0:
        raise ValueError("wedge_sum needs at least one part")
    for i, (t, bp) in enumerate(parts):
        if not t.has_vertex(bp):
            raise TreeStructureError(
                "part %d has no basepoint vertex %r" % (i, bp)
            )
    if len(parts) == 1:
        return parts[0][0]
    return _wedge([(t.vertices, t.edges, t.labels, bp) for t, bp in parts])


def _wedge(
    parts: Sequence[
        Tuple[Sequence[str], Sequence[Tuple[str, str, float]], Dict[str, str], str]
    ],
) -> MetricTree:
    """:func:`wedge_sum` of parts given as ``(vertices, edges, labels,
    basepoint)`` lists; the result is validated as a whole."""
    vertices: List[str] = ["p"]
    edges: List[Tuple[str, str, float]] = []
    labels: Dict[str, str] = {}
    meta_parts = []
    for i, (part_vertices, part_edges, part_labels, bp) in enumerate(parts):
        prefix = "P%d." % i
        meta_parts.append({"prefix": prefix, "basepoint": bp})
        rename = {v: prefix + v for v in part_vertices}
        rename[bp] = "p"
        vertices.extend(rename[v] for v in part_vertices if v != bp)
        edges.extend((rename[a], rename[b], w) for a, b, w in part_edges)
        labels.update((rename[k], v) for k, v in part_labels.items())
    meta = {"generator": "wedge", "parts": meta_parts, "wedge_vertex": "p"}
    return MetricTree(vertices, edges, labels=labels, metadata=meta)


@dataclass(frozen=True)
class ReplacementEntry:
    """One edge-replacement instruction.

    The geodesic [a, b] of the host is removed (interior only) and the
    replacement tree is glued in with ``alpha -> a`` and ``beta -> b``.
    The replacement must span the same distance between its marks as the
    host does between a and b.
    """

    a: str
    b: str
    tree: MetricTree
    alpha: str
    beta: str


ReplacementPlan = Sequence[ReplacementEntry]


def replace_edges(
    tree: MetricTree, plan: ReplacementPlan, tol: float = 1e-9
) -> MetricTree:
    """Replace host geodesics by marked trees.

    Args:
        tree: host tree.
        plan: replacement entries; replaced geodesics may pairwise share at
            most one vertex and their interiors must be plain degree-2 paths
            containing no endpoint of another entry.
        tol: tolerance for the span check
            ``|d_repl(alpha, beta) - d_host(a, b)| <= tol``.

    Returns:
        The tree with each geodesic interior replaced; replacement vertex
        ids are prefixed ``R<k>.`` except the marks, which take the host
        endpoint ids.
    """
    paths: List[List[str]] = []
    endpoint_ids = set()
    for k, e in enumerate(plan):
        if e.a == e.b:
            raise ReplacementError("entry %d: endpoints coincide (%s)" % (k, e.a))
        tree.index(e.a), tree.index(e.b)
        e.tree.index(e.alpha), e.tree.index(e.beta)
        if e.alpha == e.beta:
            raise ReplacementError("entry %d: marks coincide (%s)" % (k, e.alpha))
        path = geodesic(tree, e.a, e.b)
        span_host = tree._path_length(path)
        span_repl = float(e.tree.row(e.alpha)[e.tree.index(e.beta)])
        if abs(span_host - span_repl) > tol:
            raise ReplacementError(
                "entry %d: replacement spans %.12g between marks but host "
                "geodesic [%s, %s] has length %.12g"
                % (k, span_repl, e.a, e.b, span_host)
            )
        paths.append(path)
        endpoint_ids.update((e.a, e.b))

    interiors: List[set] = [set(p[1:-1]) for p in paths]
    for k, p in enumerate(paths):
        for v in p[1:-1]:
            if tree.degree(v) != 2:
                raise ReplacementError(
                    "entry %d: interior vertex %s has degree %d; replaced "
                    "geodesics must have plain degree-2 interiors"
                    % (k, v, tree.degree(v))
                )
            if v in endpoint_ids:
                raise ReplacementError(
                    "entry %d: interior vertex %s is an endpoint of another entry"
                    % (k, v)
                )
    for i in range(len(paths)):
        for j in range(i + 1, len(paths)):
            shared = set(paths[i]) & set(paths[j])
            if len(shared) > 1:
                raise ReplacementError(
                    "entries %d and %d overlap along %s"
                    % (i, j, sorted(shared)[:3])
                )

    removed_edges = set()
    removed_vertices = set()
    for p in paths:
        for i in range(len(p) - 1):
            removed_edges.add(frozenset((p[i], p[i + 1])))
        removed_vertices.update(p[1:-1])

    vertices = [v for v in tree.vertices if v not in removed_vertices]
    edges = [
        (a, b, w)
        for a, b, w in tree.edges
        if frozenset((a, b)) not in removed_edges
    ]
    labels = {k: v for k, v in tree.labels.items() if k not in removed_vertices}
    meta_entries = []
    for k, e in enumerate(plan):
        prefix = "R%d." % k

        def rename(v, e=e, prefix=prefix):
            if v == e.alpha:
                return e.a
            if v == e.beta:
                return e.b
            return prefix + v

        for v in e.tree.vertices:
            if v not in (e.alpha, e.beta):
                vertices.append(rename(v))
        for a, b, w in e.tree.edges:
            edges.append((rename(a), rename(b), w))
        meta_entries.append(
            {"a": e.a, "b": e.b, "alpha": e.alpha, "beta": e.beta, "prefix": prefix}
        )
    meta = {"generator": "replace", "entries": meta_entries}
    return MetricTree(vertices, edges, labels=labels, metadata=meta)


def subdivide(tree: MetricTree, eps: float) -> MetricTree:
    """Split every edge longer than eps into equal pieces of length <= eps.

    Original vertices and their pairwise distances are preserved; inserted
    vertices get ids ``sub:k``.  If no edge exceeds eps the input tree is
    returned unchanged.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    points: List[Tuple[str, str, float, str]] = []
    counter = 0
    for a, b, w in tree.edges:
        if w <= eps * (1 + 1e-12):
            continue
        k = int(math.ceil(w / eps - 1e-12))
        for j in range(1, k):
            points.append((a, b, w * j / k, "sub:%d" % counter))
            counter += 1
    if not points:
        return tree
    return _insert_points(tree, points, generator="subdivide", extra_metadata={"eps": eps})
