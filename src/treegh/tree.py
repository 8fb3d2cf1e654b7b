"""Combinatorial metric trees with positive edge lengths.

A tree here is a finite vertex/edge model of a geodesic tree: vertices carry
string identifiers and edges carry positive lengths.  Construction checks
each edge (known endpoints, no self-loop, positive finite length) and then
proves the edge list is a tree by counting: one depth-first walk from vertex
0 must reach all n vertices over exactly n - 1 edges.  Only when that fails
is the graph searched again, to name a cycle or the components.
Operations that keep a tree a tree skip the proof: subdivision, chunk
boundaries and ball cuts put vertices on the edges of a valid tree and
check only the new ids and pieces, a closed ball keeps a connected set of
vertices, and edge replacement glues trees across plain paths that its
entry checks have vetted.  A subdivision also defers its ids, edges and
index: it keeps its host, the cuts per host edge and its edge lengths,
and names no vertex until one is read.  The same walk, as a preorder with
parents, edge lengths and depths (cached; a subdivision splices its own
from its host's instead of walking), gives every distance by one formula,
``(depth u + depth v) - 2 depth lca(u, v)``: the full matrix when it is
first needed (then cached, in vertex order; refused above 2**14
vertices), single rows and entries, and rows of chosen sources for tree
distortions (see :func:`treegh.gh.distortion`), the same floats whichever
reads them.  It also finds geodesics.
Operations that need one source's distances or only edge lengths (balls,
degree-<=2 components, edge replacement) never build the matrix.  Points
of the underlying continuum exist only once an operation materialises
them -- subdivision, chunk boundaries and ball cuts all insert explicit
vertices.

Operations that insert vertices record them in ``metadata["inserted"]`` as
``new_id -> (u, v, offset)``, meaning the new vertex sits on the former
edge (u, v) at distance ``offset`` from ``u``.  The records are built from
compact runs on first read, so samples that nothing asks about never hold
them.  Downstream code uses these records to track coordinates without
parsing identifiers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

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
# Entries per block when the fill writes its distances (the only temporary
# beside the matrix): small enough to stay in cache.
_FILL_BLOCK_CELLS = 1 << 14
# Most vertices `subdivide` inserts: a finer eps fails at once instead of
# allocating without bound.
_MAX_SUBDIVIDE_VERTICES = 1 << 20
# Most vertices a distance matrix is filled for (2 GiB): a larger tree fails
# at once instead of exhausting memory.
_MAX_FILL_VERTICES = 1 << 14
# Most distances read as rows of one tree for one distortion, as many as
# the largest fill holds (2 GiB): a degenerate pair of fine samples fails
# at once instead of reading for hours.
_MAX_ROW_ENTRIES = 1 << 28
# Positions per block of the range minima that `_depth_rows` reads.
_DEPTH_BLOCK = 64


class _Preorder(NamedTuple):
    """The DFS preorder from vertex 0 (see :meth:`MetricTree._walk`)."""

    order: List[int]  # vertex at each position
    pos: np.ndarray  # position of each vertex
    parent: np.ndarray  # position of each position's parent, -1 at the root
    weight: List[float]  # length of the edge to the parent, 0.0 at the root
    end: np.ndarray  # one past the last position of each subtree
    depth: np.ndarray  # distance from vertex 0 by position, as every distance reads it


class _InsertedRuns(NamedTuple):
    """The vertices :func:`_split_edges` or :func:`subdivide` inserted, as
    runs: the ends of each split edge, the run lengths and the offsets of
    every inserted vertex, which follow the first ``first`` vertices in run
    order."""

    ends: List[Tuple[str, str]]
    cuts: List[int]
    offsets: np.ndarray
    first: int

    def records(self, vertices: Sequence[str]) -> Dict[str, Tuple[str, str, float]]:
        """``new_id -> (u, v, offset)`` in insertion order."""
        ends = [end for end, c in zip(self.ends, self.cuts) for _ in range(c)]
        return {
            vid: (a, b, off)
            for vid, (a, b), off in zip(vertices[self.first:], ends, self.offsets.tolist())
        }


class _Subdivision(NamedTuple):
    """What :func:`subdivide` keeps of a sample in place of its ids, edges
    and index, which are built from it on first read: the host tree, the
    number of vertices inserted on each host edge, the sample's edge
    lengths in edge order, and the offsets of the inserted vertices (the
    array :class:`_InsertedRuns` holds)."""

    host: "MetricTree"
    cuts: np.ndarray
    pieces: np.ndarray
    offsets: np.ndarray


class TreeStructureError(ValueError):
    """Raised for edge lists that do not describe a metric tree."""


class ReplacementError(ValueError):
    """Raised when an edge-replacement plan is inconsistent with its host."""


class MetricTree:
    """A finite metric tree: unique string vertex ids, positive edge lengths.

    Attributes:
        vertices: vertex identifiers in insertion order.
        edges: tuples ``(a, b, length)``.
        n: the number of vertices, stored.  A sample from :func:`subdivide`
            builds ``vertices``, ``edges`` and the id index on first read,
            from its host and the lengths it keeps (:class:`_Subdivision`);
            its size, preorder, depth rows, total length and the id of one
            vertex (:meth:`_name`) read none of them.
        dist: matrix of path distances in vertex order (float64,
            read-only, bit-symmetric), filled when first needed and cached.
            Every distance is ``(depth u + depth v) - 2 depth lca(u, v)``
            with the depths of :meth:`_preorder`, in that order: the fill,
            :meth:`row` and :meth:`distance` (each in O(n) or less without
            the fill) and :meth:`_depth_rows` (the rows of chosen sources
            that tree distortions read) give the same floats, within
            ``4n`` units of ``2**-53 L`` of the exact distance, L the total
            edge length.  A fill of more than 2**14 vertices is refused
            before it is allocated.
        labels: optional display labels per vertex id.
        metadata: free-form provenance (generators fill this in; the
            ``inserted`` records are built on first read).
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
        self._metadata: dict = dict(metadata or {})
        self._inserted: Optional[_InsertedRuns] = None
        self._split: Optional[_Subdivision] = None
        self._index: Dict[str, int] = {v: i for i, v in enumerate(self.vertices)}
        self._n = n = len(self.vertices)
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
        self._dist: Optional[np.ndarray] = None
        self._total_length: Optional[float] = None
        self._pre: Optional[_Preorder] = None
        self._minima: Optional[Tuple[np.ndarray, ...]] = None

    @classmethod
    def _unchecked(
        cls,
        vertices: List[str],
        edges: List[Tuple[str, str, float]],
        labels: Dict[str, str],
        metadata: dict,
    ) -> "MetricTree":
        """A tree from parts already known to form one, such as a valid tree
        with vertices inserted on its edges or the connected subset of a
        ball: string ids and Python float lengths.  The index is linked
        here and the adjacency lists on first read (:attr:`_adj`); nothing
        is checked and no walk is made."""
        t = cls.__new__(cls)
        t.vertices, t.edges = tuple(vertices), tuple(edges)
        t.labels, t._metadata, t._inserted, t._split = labels, metadata, None, None
        t._index = {v: i for i, v in enumerate(t.vertices)}
        t._n = len(t.vertices)
        t._dist = t._total_length = t._pre = t._minima = None
        return t

    @classmethod
    def _subdivision(
        cls, host: "MetricTree", cuts: np.ndarray, pieces: np.ndarray,
        metadata: dict, runs: _InsertedRuns,
    ) -> "MetricTree":
        """The sample of ``host`` with ``cuts[e]`` vertices ``sub:k`` on
        each edge e and edge lengths ``pieces``, as :func:`subdivide` makes
        it: nothing is checked, and its ids, edges and index are built on
        first read (:attr:`vertices`, :attr:`edges`, :attr:`_index`)."""
        t = cls.__new__(cls)
        t.labels, t._metadata, t._inserted = dict(host.labels), metadata, runs
        t._split = _Subdivision(host, cuts, pieces, runs.offsets)
        t._n = host.n + len(runs.offsets)
        t._dist = t._total_length = t._pre = t._minima = None
        return t

    @cached_property
    def vertices(self) -> Tuple[str, ...]:
        """A subdivision's ids, built on first read: its host's, then
        ``sub:0``, ``sub:1``, ... along the host's edges.  Every other tree
        sets them when it is built."""
        host = self._split.host
        return host.vertices + tuple(["sub:%d" % k for k in range(self._n - host.n)])

    @cached_property
    def edges(self) -> Tuple[Tuple[str, str, float], ...]:
        """A subdivision's edges, built on first read: each host edge in
        turn, as the run of its pieces through the ids inserted on it."""
        host, cuts, pieces, _ = self._split
        ids = self.vertices[host.n:]
        left: List[str] = []
        right: List[str] = []
        s = 0
        for (a, b, _), c in zip(host.edges, cuts.tolist()):
            run = ids[s:s + c]
            s += c
            left += (a, *run)
            right += (*run, b)
        return tuple(zip(left, right, pieces.tolist()))

    @cached_property
    def _index(self) -> Dict[str, int]:
        """A subdivision's vertex index by id, built on first read."""
        return {v: i for i, v in enumerate(self.vertices)}

    def _name(self, i: int) -> str:
        """The id of vertex ``i``; a subdivision writes it from its host
        without building its ids."""
        split = self._split
        if split is None:
            return self.vertices[i]
        k = i - split.host.n
        return split.host.vertices[i] if k < 0 else "sub:%d" % k

    @cached_property
    def _adj(self) -> List[List[Tuple[int, float]]]:
        """Each vertex's ``(neighbour, length)`` list, linked in edge order
        as the constructor links it.  The constructor sets it while it
        checks the edges; a tree from :meth:`_unchecked` links it on first
        read, so a sample whose preorder is spliced from its host's
        (:func:`subdivide`) and that nothing else walks never has one."""
        index, adj = self._index, [[] for _ in self.vertices]
        for a, b, w in self.edges:
            ia, ib = index[a], index[b]
            adj[ia].append((ib, w))
            adj[ib].append((ia, w))
        return adj

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

    def _preorder(self) -> "_Preorder":
        """The DFS preorder from vertex 0 whose depths give every distance
        (see :attr:`dist`), each depth summed as its parent's plus its edge
        length; built on first call and cached."""
        if self._pre is None:
            n = self.n
            order, parent, weight, depth = [0], [-1], [0.0], [0.0]
            pos = [0] * n
            walk = self._walk(0)
            next(walk)  # the root
            for v, p, w in walk:
                at = pos[p]
                pos[v] = len(order)
                order.append(v)
                parent.append(at)
                weight.append(w)
                depth.append(depth[at] + w)
            size = [1] * n
            for i in range(n - 1, 0, -1):
                size[parent[i]] += size[i]
            self._pre = _Preorder(
                order, np.array(pos, dtype=np.intp), np.array(parent, dtype=np.intp),
                weight, np.arange(n) + size, np.array(depth),
            )
        return self._pre

    def _all_pairs(self) -> np.ndarray:
        # Each entry is (depth u + depth v) - 2 depth lca(u, v).  In the DFS
        # preorder from vertex 0 the subtree of the vertex at position i is
        # the range [i, end), so the row of 2 depth lca from a child is its
        # parent's row with 2 depth child written over the child's subtree,
        # and the root's row is 0.  Rows and columns are in vertex order, so
        # the matrix is held once; then, a block of rows at a time, each
        # entry is made the formula's.  The sum is symmetric and doubling is
        # exact, so the matrix is bit-symmetric, with a zero diagonal
        # wherever twice a depth is finite.
        n = self.n
        if n > _MAX_FILL_VERTICES:
            raise ValueError(
                "the distance matrix of a tree of %d vertices would take %d "
                "bytes; at most %d vertices are filled"
                % (n, 8 * n * n, _MAX_FILL_VERTICES)
            )
        pre = self._preorder()
        d = np.empty((n, n))
        order = pre.order
        below = np.asarray(order)  # the vertices of each subtree, as a run
        d[0] = 0.0  # vertex 0 is the root
        twice = (2.0 * pre.depth).tolist()
        for i, (p, e) in enumerate(np.column_stack((pre.parent, pre.end))[1:].tolist(), 1):
            row = d[order[i]]
            np.copyto(row, d[order[p]])
            row[below[i:e]] = twice[i]
        depth = pre.depth[pre.pos]  # by vertex
        step = max(1, _FILL_BLOCK_CELLS // n)
        sums = np.empty((step, n))
        for lo in range(0, n, step):
            block = d[lo:lo + step]
            total = sums[:len(block)]
            np.add(depth[lo:lo + step, None], depth, out=total)
            np.subtract(total, block, out=block)
        d.setflags(write=False)
        return d

    def _refuse_rows(self, k: int) -> None:
        """Raise ValueError if ``k`` distance rows of this tree hold more
        than ``_MAX_ROW_ENTRIES`` distances: a distortion that would read
        that many fails at once, as a too-large fill does, instead of
        reading for hours."""
        size = k * self.n
        if size > _MAX_ROW_ENTRIES:
            raise ValueError(
                "%d distance rows of a tree of %d vertices would hold %d distances; "
                "at most %d are read" % (k, self.n, size, _MAX_ROW_ENTRIES)
            )

    def _depth_minima(self) -> Tuple[np.ndarray, ...]:
        """The tables :meth:`_depth_rows` reads, built on first call and
        cached: each position's parent depth in blocks of ``_DEPTH_BLOCK``
        positions (inf past the last), the running minima of every block
        from its tail and from its head (stacked, so one gather reads
        either), each block's minimum, and the depths padded with zeros to
        whole blocks."""
        if self._minima is None:
            pre, n, B = self._preorder(), self.n, _DEPTH_BLOCK
            nb = -(-n // B)
            up = np.full(nb * B, np.inf)
            up[1:n] = pre.depth[pre.parent[1:]]
            blocks = up.reshape(nb, B)
            ends = np.full((2, nb, B), np.inf)
            # ends[0, k, t] is the least of blocks[k, t + 1:], ends[1, k, t]
            # the least of blocks[k, :t + 1].
            ends[0, :, :-1] = np.minimum.accumulate(blocks[:, :0:-1], axis=1)[:, ::-1]
            np.minimum.accumulate(blocks, axis=1, out=ends[1])
            depth = np.zeros(nb * B)
            depth[:n] = pre.depth
            self._minima = blocks, ends, ends[1, :, -1].copy(), depth
        return self._minima

    def _depth_rows(self, vertices: np.ndarray) -> np.ndarray:
        """Distances from the given vertices to every vertex, columns in
        preorder, as ``(depth[u] + depth[v]) - 2 depth[lca]`` with the
        depths of :meth:`_preorder`: the fill's floats, with no fill.

        A depth is its parent's plus a positive length, rounded, so depths
        never fall along a root path.  For positions ``a < b`` the depth of
        the lowest common ancestor is then the least parent depth over the
        positions ``(a, b]``: they lie inside the ancestor's subtree, below
        it, and include its child toward the later vertex.  That minimum is
        read from the blocks of :meth:`_depth_minima`: per source, the
        running minima of the block minima outward from the source's block,
        then, in one gather, the head of each later block and the tail of
        each earlier one, and running minima from the source inside its own
        block; so a call costs O(n) per source.  The sums run over whole
        blocks, as the padded depths are.

        Error, for every reader of a distance: a depth adds its root path
        in order, each step rounding a value at most the total length L.
        The steps above the lowest common ancestor are the same floats in
        all three depths and cancel, so for k edges between u and v the
        depths err by at most k roundings; the sum rounds a value at most
        2L and the difference one at most L, and the doubling is exact.  An
        entry is within (k + 3) 2**-53 L of the exact distance, up to
        second-order terms, below the 4n units of :func:`treegh.gh._plan`.
        """
        pre = self._preorder()
        blocks, ends, least, padded = self._depth_minima()
        depth, n, (nb, B) = pre.depth, self.n, blocks.shape
        src = pre.pos[np.asarray(vertices, dtype=np.intp)]
        rows = np.arange(len(src))
        ka, ta = np.divmod(src, B)
        later = np.arange(nb) > ka[:, None]
        # Toward a later block: the tail of the source's block, then the
        # block minima in order; toward an earlier one: the head of the
        # source's block, then the block minima in reverse.
        after = np.where(later, least, np.inf)
        after[rows, ka] = ends[0, ka, ta]
        np.minimum.accumulate(after, axis=1, out=after)
        before = np.where(later, np.inf, least)
        before[rows, ka] = ends[1, ka, ta]
        before = np.minimum.accumulate(before[:, ::-1], axis=1)[:, ::-1]
        # between[s, k]: the least parent depth from the source up to block
        # k, or from block k up to the source, block k left out.
        between = np.empty((len(src), nb))
        between[:, 1:] = after[:, :-1]
        np.copyto(between[:, :-1], before[:, 1:], where=~later[:, :-1])
        # A later block's head up to the target, an earlier block's tail
        # after it (later as 0/1 picks the table).
        lca = ends[later.view(np.int8), np.arange(nb)]
        np.minimum(lca, between[:, :, None], out=lca)
        # Inside the source's own block: the running minima from the source.
        t = np.arange(B)
        own = np.where(t > ta[:, None], blocks[ka], np.inf)
        np.minimum.accumulate(own, axis=1, out=own)
        back = np.where(t <= ta[:, None], blocks[ka], np.inf)
        back = np.minimum.accumulate(back[:, ::-1], axis=1)[:, ::-1]
        np.minimum(own[:, :-1], back[:, 1:], out=own[:, :-1])
        lca[rows, ka] = own
        lca = lca.reshape(len(src), nb * B)
        lca[rows, src] = depth[src]
        lca *= 2.0
        np.subtract(depth[src][:, None] + padded, lca, out=lca)
        return lca[:, :n]

    # -- queries --------------------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def metadata(self) -> dict:
        """Free-form provenance.  Its ``inserted`` records (see the module
        docstring) are built on the first read from the runs that
        :func:`_split_edges` and :func:`subdivide` keep, so a sample that
        nothing asks about holds a few bytes per inserted vertex instead of
        a dict entry and a tuple."""
        if self._inserted is not None:
            self._metadata["inserted"] = self._inserted.records(self.vertices)
            self._inserted = None
        return self._metadata

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
        """Matrix of path distances in vertex order (read-only), filled on
        first read and cached."""
        if self._dist is None:
            self._dist = self._all_pairs()
        return self._dist

    def row(self, v: str) -> np.ndarray:
        """Distances from vertex v to every vertex, in vertex order
        (read-only): the cached matrix's row, or the same floats in O(n)
        from depths, which leaves the matrix unbuilt.  The lowest common
        ancestors' depths are running minima of the parent depths from v's
        position outward (see :meth:`_depth_rows`)."""
        s = self.index(v)
        if self._dist is not None:
            return self._dist[s]
        pre = self._preorder()
        depth, a = pre.depth, pre.pos[s]
        up = depth[pre.parent]  # each position's parent depth
        lca = np.empty(self.n)
        np.minimum.accumulate(up[a + 1:], out=lca[a + 1:])
        np.minimum.accumulate(up[a:0:-1], out=lca[:a][::-1])
        lca[a] = depth[a]
        lca *= 2.0
        np.subtract(depth[a] + depth, lca, out=lca)
        d = lca[pre.pos]
        d.setflags(write=False)
        return d

    def distance(self, x: str, y: str) -> float:
        """The distance between x and y: the cached matrix's entry, or the
        same float from depths, the lowest common ancestor's depth being
        the least parent depth over the preorder positions between them."""
        i, j = self.index(x), self.index(y)
        if self._dist is not None:
            return float(self._dist[i, j])
        pre = self._preorder()
        depth, (a, b) = pre.depth, pre.pos[[i, j]].tolist()
        lo, hi = min(a, b), max(a, b)
        lca = depth[pre.parent[lo + 1:hi + 1]].min() if lo < hi else depth[lo]
        return float((depth[a] + depth[b]) - 2.0 * lca)

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

    def eccentricities(self) -> np.ndarray:
        """Distance from each vertex to its farthest vertex, in vertex order:
        the row maxima of ``dist``, the same floats as
        ``as_space().eccentricities()``."""
        return self.dist.max(axis=1)

    def diameter(self) -> float:
        """Largest distance, from two single-source rows: the vertex farthest
        from any vertex ends a diameter of a tree."""
        far = self.vertices[int(self.row(self.vertices[0]).argmax())]
        return float(self.row(far).max())

    def total_edge_length(self) -> float:
        """Sum of the edge lengths in edge order, computed on the first
        call and cached; a subdivision sums its pieces and builds no edge."""
        if self._total_length is None:
            if self._split is not None:
                lengths = self._split.pieces.tolist()
            else:
                lengths = [w for _, _, w in self.edges]
            self._total_length = float(sum(lengths))
        return self._total_length

    def as_space(self) -> FiniteMetricSpace:
        return FiniteMetricSpace(self.vertices, self.dist)

    def __repr__(self):
        return "MetricTree(%d vertices, %d edges)" % (self.n, self.n - 1)


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
    return _components(tree._adj, tree.vertices)


def _components(
    adj: Sequence[Sequence[Tuple[int, float]]], names: Sequence[str], branch: int = -1
) -> List[Deg2Component]:
    """:func:`deg2_components` of the tree with adjacency lists ``adj`` and
    vertex ids ``names``, with vertex ``branch`` (an index, or -1 for none)
    counted as a branch vertex whatever its degree.

    Wedged with other trees at a vertex that has degree >= 3 in the wedge,
    a tree keeps, inside the wedge, the components it has alone with that
    vertex made a branch vertex, under the wedge's ids: no walk passes the
    wedge vertex, and :func:`_wedge` keeps every other vertex's edges in
    their order.
    """
    # A neighbour of a component vertex is in the component iff it is low,
    # so each component is the path of low vertices between its two ends.
    low = [len(nbrs) <= 2 for nbrs in adj]
    if branch >= 0:
        low[branch] = False
    seen = [False] * len(adj)
    out: List[Deg2Component] = []
    for v, nbrs in enumerate(adj):
        if not low[v] or seen[v]:
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


@dataclass(frozen=True, slots=True)
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

    Raises:
        ValueError: max_len is not positive, or the closures would take
            more than 2**20 chunk boundaries (counted before any is placed).
    """
    if not max_len > 0:
        raise ValueError("max_len must be positive")
    max_len = float(max_len)
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
        (tuple(sorted((a, b))), w) for a, b, w in tree.edges
        if frozenset((a, b)) not in covered
    )
    closures: List[Tuple[str, ...]] = [c.closure_path for c in comps] + [
        pair for pair, _ in bare
    ]
    # A closure of length L takes fewer than L / max_len boundaries: as many
    # as subdivide's pieces at max_len, less one.  They are counted only
    # when the total length allows more than the limit, and too many fail
    # here, before the walk below, which past 2**53 max_len would no longer
    # advance.
    spans = [c.closure_diameter for c in comps] + [w for _, w in bare]
    if sum(spans) > _MAX_SUBDIVIDE_VERTICES * max_len:
        boundaries = float((_pieces(np.array(spans), max_len) - 1).sum())
        if boundaries > _MAX_SUBDIVIDE_VERTICES:
            raise ValueError(
                "chopping at max_len=%r would place %.0f chunk boundaries, more than %d"
                % (max_len, boundaries, _MAX_SUBDIVIDE_VERTICES)
            )

    # Walk each closure path, placing chunk boundaries on its edges.  Each
    # closure covers its own edges, so an edge is walked once, from u.
    at = {}
    for e, (a, b, _) in enumerate(tree.edges):
        at[a, b] = at[b, a] = e
    base = _next_free(tree, "chop:")
    cuts = [0] * len(tree.edges)
    runs: Dict[int, Tuple[List[float], List[str]]] = {}  # offsets from a, ids
    walks = []  # per closure: its first vertex and, per edge, the step taken
    placed = 0
    for path in closures:
        if len(path) < 2:
            continue
        steps = []
        remaining = max_len
        for i in range(len(path) - 1):
            u, v = path[i], path[i + 1]
            e = at[u, v]
            a, _, w = tree.edges[e]
            offs = _chunk_offsets(w, remaining, max_len)
            ids: List[str] = []
            if offs is None:
                remaining -= w  # the whole edge fits in the current chunk
            else:
                ids = ["chop:%d" % k for k in range(base + placed, base + placed + len(offs))]
                placed += len(ids)
                cuts[e] = len(ids)
                # the rest of the edge, past its last boundary, starts a chunk
                remaining = max_len - (w - float(offs[-1]))
                if u == a:
                    runs[e] = offs.tolist(), ids
                else:
                    runs[e] = (w - offs[::-1]).tolist(), ids[::-1]
            closes = remaining <= _EPS_VERTEX and i < len(path) - 2
            if closes:
                remaining = max_len
            steps.append((e, u == a, ids, v, closes))
        walks.append((path[0], steps))

    if not placed:
        host = tree
    else:
        order = sorted(runs)
        offsets = [off for e in order for off in runs[e][0]]
        host = _split_edges(tree, cuts, offsets, [x for e in order for x in runs[e][1]], "chop")
    # Edge e of the tree is host edges first[e] .. first[e] + cuts[e]; a
    # segment's length sums their pieces along its path, as a walk of the
    # host would.
    lengths = [w for _, _, w in host.edges]
    first = (np.arange(len(cuts)) + np.cumsum(cuts) - cuts).tolist()
    segments: List[TreeSegment] = []

    def close(path: List[str], pieces: List[float]) -> None:
        segments.append(TreeSegment(path[0], path[-1], float(sum(pieces)), tuple(path)))

    for start, steps in walks:
        path, pieces = [start], []
        for e, forward, ids, v, closes in steps:
            run = lengths[first[e]:first[e] + len(ids) + 1]
            if not forward:
                run.reverse()
            if ids:
                path.append(ids[0])
                pieces.append(run[0])
                close(path, pieces)
                segments.extend(map(TreeSegment, ids, ids[1:], run[1:-1], zip(ids, ids[1:])))
                path, pieces = [ids[-1]], []
            path.append(v)
            pieces.append(run[-1])
            if closes:
                close(path, pieces)
                path, pieces = [v], []
        close(path, pieces)
    return Deg2Decomposition(tree=host, segments=tuple(segments))


def _chunk_offsets(w: float, remaining: float, max_len: float) -> Optional[np.ndarray]:
    """Where the greedy chunking puts boundaries on an edge of length w
    entered with ``remaining`` left in the current chunk: offsets from the
    entry end, or None for none.  A boundary goes at pos + remaining while
    ``w - pos > remaining + 1e-12``; the first at ``remaining``, each later
    one ``max_len`` past the one before, summed in sequence as
    ``np.add.accumulate`` sums."""
    if not w > remaining + _EPS_VERTEX:  # w - 0.0 is w
        return None
    # n candidates reach w up to the sums' rounding, which stays far below
    # max_len for the at most 2**20 boundaries decompose_deg2 allows, so
    # the last one is never followed by another boundary.
    n = int((w - remaining) / max_len) + 2
    offs = np.add.accumulate(np.r_[remaining, np.full(n - 1, max_len)])
    # the boundary after offs[j] is placed while w - offs[j] > max_len + 1e-12
    more = w - offs > max_len + _EPS_VERTEX
    return offs[:1 + int(np.argmin(more))]


def _next_free(tree: MetricTree, prefix: str) -> int:
    """The least k past every id ``<prefix><k>`` of the tree: the ids
    ``<prefix><k>``, ``<prefix><k+1>``, ... are free."""
    base = 0
    for v in tree.vertices:
        if v.startswith(prefix):
            try:
                base = max(base, int(v[len(prefix):]) + 1)
            except ValueError:
                pass
    return base


def _split_edges(
    tree: MetricTree,
    cuts: Sequence[int],
    offsets: Sequence[float],
    ids: Sequence[str],
    generator: str,
    **extra,
) -> MetricTree:
    """``tree`` with new vertices on its edges: the builder of chunk-boundary
    and ball-cut vertices (:func:`subdivide` defers its own).

    Edge e of ``tree.edges`` gets the next ``cuts[e]`` of ``offsets``
    (Python floats, from the edge's first end) and of ``ids``.  The new
    vertices follow the old ones in that order and are recorded in
    ``metadata["inserted"]``, after ``generator`` and before ``extra``.
    A tree with vertices on its edges is a tree, so only what can go wrong
    is checked: a piece that is not positive (offsets out of order or off
    their edge) and a new id the tree already has.
    """
    edges: List[Tuple[str, str, float]] = []
    ends: List[Tuple[str, str]] = []
    runs: List[int] = []
    s = 0
    for (a, b, w), c in zip(tree.edges, cuts):
        if not c:
            edges.append((a, b, w))
            continue
        run, offs = ids[s:s + c], offsets[s:s + c]
        s += c
        pieces = [offs[0], *[y - x for x, y in zip(offs, offs[1:])], w - offs[-1]]
        if not all(p > 0 for p in pieces):
            raise TreeStructureError(
                "inserting vertices on edge (%s, %s) of length %r leaves a piece that "
                "is not positive" % (a, b, w)
            )
        edges.extend(zip([a, *run], [*run, b], pieces))
        ends.append((a, b))
        runs.append(c)
    taken = tree._index.keys() & ids
    if taken:
        raise TreeStructureError("duplicate vertex ids: %s" % sorted(taken)[:3])
    # "inserted" keeps its place among the keys and is filled on first read
    meta = {"generator": generator, "inserted": None, **extra}
    out = MetricTree._unchecked([*tree.vertices, *ids], edges, dict(tree.labels), meta)
    out._inserted = _InsertedRuns(ends, runs, np.array(offsets[:s], dtype=float), tree.n)
    return out


# -- balls --------------------------------------------------------------------


def _sphere_crossings(
    tree: MetricTree, d: np.ndarray, r: float
) -> Tuple[List[int], List[float]]:
    """Where the sphere of radius r about the source of row d crosses the
    edges, as the per-edge runs :func:`_split_edges` takes: how many
    crossings each edge has, and their offsets from the edge's first end,
    in edge order.  An edge is crossed at most once, between its nearer
    end and its farther one."""
    cuts, offsets = [], []
    row, index = d.tolist(), tree._index
    for a, b, w in tree.edges:
        da, db = row[index[a]], row[index[b]]
        lo_id, lo, hi = (a, da, db) if da <= db else (b, db, da)
        off = float(r - lo)
        crossed = lo <= r < hi and off > _EPS_VERTEX and (hi - r) > _EPS_VERTEX
        if crossed:
            offsets.append(off if lo_id == a else w - off)
        cuts.append(int(crossed))
    return cuts, offsets


def refine_at_radius(tree: MetricTree, origin: str, r: float) -> MetricTree:
    """Insert vertices at distance exactly r from origin on crossing edges.

    The tree itself is unchanged geometrically; if no edge crosses the
    sphere the input tree is returned as-is.

    Raises:
        ValueError: r is negative or NaN.
    """
    if not r >= 0:
        raise ValueError("radius must be nonnegative, got %r" % (r,))
    return _refine(tree, origin, r, tree.row(origin))


def _refine(tree: MetricTree, origin: str, r: float, d: np.ndarray) -> MetricTree:
    # refine_at_radius, given the row d of distances from origin
    cuts, offsets = _sphere_crossings(tree, d, r)
    if not offsets:
        return tree
    base = _next_free(tree, "cut:")
    ids = ["cut:%d" % (base + k) for k in range(len(offsets))]
    return _split_edges(tree, cuts, offsets, ids, "refine", origin=origin, radius=r)


def closed_ball_subtree(tree: MetricTree, origin: str, r: float) -> MetricTree:
    """The closed ball of radius r about origin, as a subtree.

    Boundary points in the middle of an edge become new ``cut:k`` vertices.
    ``r = 0`` gives the single-vertex tree at origin; ``r`` at least the
    eccentricity of origin (or infinite) returns the input tree itself.

    Raises:
        ValueError: r is negative or NaN.
    """
    if not r >= 0:
        raise ValueError("radius must be nonnegative, got %r" % (r,))
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
    # A ball of a tree is connected, so its vertices and edges form a tree.
    return MetricTree._unchecked(keep, edges, labels, meta)


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
        endpoint ids.  The checks on the entries show that the result is a
        tree, so it is not proved one again; only a replacement id that a
        kept host vertex already has is refused, as the constructor would
        refuse it.

    Raises:
        ReplacementError: an entry fails its checks.
        TreeStructureError: ``duplicate vertex ids`` when a ``R<k>.`` id is
            a kept host id.
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
        span_repl = e.tree.distance(e.alpha, e.beta)
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
    kept = len(vertices)
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
    # Each replaced geodesic is a plain path whose interior leaves the host,
    # and the geodesics share no edge, so gluing a tree across each one's
    # ends keeps a tree.  Only a new id that a kept host vertex has can go
    # wrong; the ids of different entries differ in their R<k>. prefixes.
    taken = set(vertices[:kept]).intersection(vertices[kept:])
    if taken:
        raise TreeStructureError("duplicate vertex ids: %s" % sorted(taken)[:3])
    meta = {"generator": "replace", "entries": meta_entries}
    return MetricTree._unchecked(vertices, edges, labels, meta)


def _pieces(lengths: np.ndarray, eps: float) -> np.ndarray:
    """How many equal pieces :func:`subdivide` cuts each edge length into
    at eps: 1 for a length of at most ``eps`` (up to a relative 1e-12),
    else ``ceil(w / eps)`` less the same slack.  The counts are floats, so
    an eps far below a length gives a huge or infinite count, not an error.
    """
    with np.errstate(over="ignore"):
        k = np.ceil(lengths / eps - 1e-12)
    k[lengths <= eps * (1 + 1e-12)] = 1.0
    return k


def _offsets(lengths: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Where :func:`subdivide` puts its vertices: the offsets ``w * j / k``,
    j = 1..k-1, from the first end of each edge of length w cut into
    ``k = cuts + 1`` equal pieces, concatenated in edge order."""
    runs = np.cumsum(cuts) - cuts  # where each edge's offsets start
    j = np.arange(1, int(cuts.sum()) + 1) - np.repeat(runs, cuts)
    with np.errstate(over="ignore"):  # w * j can pass the largest float
        return np.repeat(lengths, cuts) * j / np.repeat(cuts + 1, cuts)


def subdivide(tree: MetricTree, eps: float) -> MetricTree:
    """Split every edge longer than eps into equal pieces of length <= eps.

    Original vertices and their pairwise distances are preserved; inserted
    vertices get ids ``sub:k``, numbered along the edges in edge order, and
    follow the original vertices.  If no edge exceeds eps the input tree is
    returned unchanged.  The sample is the input tree with vertices on its
    edges, so it is not proved a tree again: only its pieces (from one
    difference over the offsets) and its new ids are checked.  It keeps
    the input tree, the cuts per edge, the pieces and the offsets, and
    builds its ids, edges and index only when one of them is first read
    (:meth:`MetricTree._subdivision`); its preorder is spliced from the
    input tree's (:func:`_spliced_preorder`), so building it walks and
    names no sample vertex.

    Raises:
        ValueError: eps is not positive, or the sample would insert more
            than 2**20 vertices (checked before anything is built).
        TreeStructureError: a ``sub:k`` id is already a vertex (as when a
            sample is subdivided again), or an edge so long that ``w * j``
            overflows would get a piece that is not positive.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    lengths = np.array([w for _, _, w in tree.edges])
    counts = _pieces(lengths, eps)
    added = float(counts.sum()) - len(counts)
    if added > _MAX_SUBDIVIDE_VERTICES:
        raise ValueError(
            "subdividing at eps=%r would insert %.0f vertices, more than %d"
            % (eps, added, _MAX_SUBDIVIDE_VERTICES)
        )
    if added == 0:
        return tree
    cuts = counts.astype(np.intp) - 1
    offsets = _offsets(lengths, cuts)
    # Each edge's offsets, then its length; a difference per piece, and at
    # each edge's head its first offset (or its length).
    ends = np.insert(offsets, np.cumsum(cuts), lengths)
    pieces = np.diff(ends, prepend=0.0)
    heads = np.cumsum(cuts + 1) - (cuts + 1)
    pieces[heads] = ends[heads]
    bad = np.flatnonzero(~(pieces > 0))
    if len(bad):
        a, b, w = tree.edges[int(np.searchsorted(heads, bad[0], "right")) - 1]
        raise TreeStructureError(
            "subdividing edge (%s, %s) of length %r at eps=%r leaves a piece that is "
            "not positive" % (a, b, w, eps)
        )
    taken = _numbered(tree.vertices, "sub:", len(offsets))
    if taken:
        raise TreeStructureError("duplicate vertex ids: %s" % sorted(taken)[:3])
    cut = np.flatnonzero(cuts).tolist()
    runs = _InsertedRuns([tree.edges[e][:2] for e in cut], cuts[cut].tolist(), offsets, tree.n)
    # "inserted" keeps its place among the keys and is filled on first read
    meta = {"generator": "subdivide", "inserted": None, "eps": eps}
    sample = MetricTree._subdivision(tree, cuts, pieces, meta, runs)
    sample._pre = _spliced_preorder(tree, cuts, pieces)
    return sample


def _numbered(vertices: Sequence[str], prefix: str, m: int) -> List[str]:
    """The ids among ``vertices`` that are ``prefix`` followed by the
    decimal of some k < m, as ``"%s%d" % (prefix, k)`` writes it."""
    width = len(str(m))
    out = []
    for v in vertices:
        k = v[len(prefix):]
        if v.startswith(prefix) and k.isascii() and k.isdigit() and len(k) <= width:
            if int(k) < m and str(int(k)) == k:
                out.append(v)
    return out


def _spliced_preorder(tree: MetricTree, cuts: np.ndarray, pieces: np.ndarray) -> _Preorder:
    """The preorder of the sample of ``tree`` with ``cuts[e]`` vertices
    inserted on each edge e and edge lengths ``pieces`` (see
    :func:`subdivide`), from the preorder of ``tree``: field for field what
    walking the sample gives.

    The sample's adjacency lists are the tree's, with each neighbour
    replaced by the first inserted vertex on that edge, and an inserted
    vertex's only neighbour besides the one it was reached from is the
    next vertex along its edge.  So the walk reaches the same children in
    the same order, and each edge's inserted run comes just before the
    child end of that edge, in walk order: forward along the edge when its
    first end is the parent, else backward.  Each position's length is the
    sample's piece in that direction, and the depths are summed again as
    ``parent depth + piece``, in preorder (:func:`_depths`), as the walk's
    preorder sums them.
    """
    pre, n, index = tree._preorder(), tree.n, tree._index
    ends = pre.pos[np.array([(index[a], index[b]) for a, b, _ in tree.edges], dtype=np.intp)]
    child = ends.max(axis=1)  # a parent comes before its children
    edge = np.zeros(n, dtype=np.intp)
    edge[child] = np.arange(len(child))
    forward = np.zeros(n, dtype=bool)
    forward[child] = ends[:, 0] < ends[:, 1]
    run = np.zeros(n, dtype=np.intp)  # inserted vertices before each position
    run[child] = cuts
    size = run + 1
    start = np.cumsum(size) - size  # where each position's run starts in the sample
    m = int(size.sum())
    host = np.repeat(np.arange(n), size)  # the tree position of each sample position
    k = np.arange(m) - start[host]  # the offset within the run
    c, e, fwd = run[host], edge[host], forward[host]
    j = np.where(fwd, k, c - k)  # the piece, counted from the edge's first end
    taken = np.cumsum(cuts) - cuts  # inserted vertices on the edges before each
    order = np.where(
        k < c, n + taken[e] + j - ~fwd, np.asarray(pre.order, dtype=np.intp)[host]
    )
    weight = pieces[e + taken[e] + j]
    weight[0] = 0.0
    parent = np.arange(m) - 1
    heads = start + run  # where each tree position sits in the sample
    parent[k == 0] = heads[pre.parent[host[k == 0]]]
    parent[0] = -1
    end = np.r_[start, m][pre.end[host]]
    pos = np.empty(m, dtype=np.intp)
    pos[order] = np.arange(m)
    return _Preorder(order.tolist(), pos, parent, weight.tolist(), end, _depths(parent, weight))


def _depths(parent: np.ndarray, weight: Sequence[float]) -> np.ndarray:
    """Distances from vertex 0 by preorder position, each summed as its
    parent's plus its edge length, in preorder.  A run of positions each
    the child of the one before (the vertices inserted along one edge, the
    edge's end and its first descendants) is summed by one
    ``np.add.accumulate``, which adds in that same order, so every depth
    is the plain loop's bit for bit."""
    depth = np.array(weight, dtype=float)
    depth[0] = 0.0
    n = len(depth)
    heads = (np.flatnonzero(parent[1:] != np.arange(n - 1)) + 1).tolist()
    for h, e in zip([0] + heads, heads + [n]):
        if h:
            depth[h] += depth[parent[h]]
        if e - h > 1:
            np.add.accumulate(depth[h:e], out=depth[h:e])
    return depth
