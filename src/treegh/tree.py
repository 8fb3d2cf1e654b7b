"""Combinatorial metric trees with positive edge lengths.

A tree here is a finite vertex/edge model of a geodesic tree: vertices carry
string identifiers and edges carry positive lengths.  Construction checks
each edge (known endpoints, no self-loop, positive finite length) and then
proves the edge list is a tree by counting: one depth-first walk from vertex
0 must reach all n vertices over exactly n - 1 edges.  Only when that fails
is the graph searched again, to name a cycle or the components.
Operations that keep a tree a tree skip the proof: subdivision, chunk
boundaries and ball cuts put vertices on the edges of a valid tree through
one builder that checks only the new ids and pieces, a closed ball keeps a
connected set of vertices, and edge replacement glues trees across plain
paths that its entry checks have vetted.  The same walk, as a preorder with
parents, edge lengths and depths (cached; a subdivision splices its own
from its host's instead of walking), fills the full matrix of path
distances when it is first needed (then cached; its columns stay in
preorder until ``dist`` is read; refused above 2**14 vertices) and finds
geodesics.  Without the matrix it gives, bit for bit, the fill's rows of
chosen sources (walked, at a row update per vertex on their root paths)
and single entries (each summed along its source's root path), and
distances within a proven rounding error from depths alone, with no walk;
tree distortions read those (see :func:`treegh.gh.distortion`).
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
# Entries per block when `dist` permutes the fill's columns (the only
# temporary beside the matrix) and per block of `_fill_entries`' sums:
# small enough to stay in cache.
_PERMUTE_BLOCK_CELLS = 1 << 16
# Most vertices `subdivide` inserts: a finer eps fails at once instead of
# allocating without bound.
_MAX_SUBDIVIDE_VERTICES = 1 << 20
# Most vertices a distance matrix is filled for (2 GiB): a larger tree fails
# at once instead of exhausting memory.
_MAX_FILL_VERTICES = 1 << 14
# Most bytes of distance rows walked in one tree, the fill's budget.
_MAX_ROW_BYTES = 1 << 31
# Positions per block of the range minima that `_depth_rows` reads.
_DEPTH_BLOCK = 64


class _Preorder(NamedTuple):
    """The DFS preorder from vertex 0 (see :meth:`MetricTree._walk`)."""

    order: List[int]  # vertex at each position
    pos: np.ndarray  # position of each vertex
    parent: np.ndarray  # position of each position's parent, -1 at the root
    weight: List[float]  # length of the edge to the parent, 0.0 at the root
    end: np.ndarray  # one past the last position of each subtree
    depth: np.ndarray  # distance from vertex 0 by position, as the fill sums it


class _InsertedRuns(NamedTuple):
    """The vertices :func:`_split_edges` inserted, as runs: the ends of
    each split edge, the run lengths and the offsets of every inserted
    vertex, which follow the first ``first`` vertices in run order."""

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
            Tree distortions read no matrix: :meth:`_depth_rows` gives
            rows within a proven error from depths, :meth:`_fill_entries`
            the fill's entries bit for bit from root paths, and
            :meth:`_rows` the fill's rows of chosen sources, walked with
            O(log n) working rows.  A fill of more than 2**14 vertices, or
            walked rows of more than 2 GiB, is refused before it is
            allocated.
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
        t.labels, t._metadata, t._inserted = labels, metadata, None
        t._index = {v: i for i, v in enumerate(t.vertices)}
        t._dist = t._cols = t._total_length = t._pre = t._minima = None
        return t

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
        """The DFS preorder from vertex 0 that the fill, the row walk and
        the row plans of :func:`treegh.gh.distortion` share; built on first
        call and cached."""
        if self._pre is None:
            walk = list(self._walk(0))
            n = len(walk)
            order = [v for v, _, _ in walk]
            pos = [0] * n
            for i, v in enumerate(order):
                pos[v] = i
            parent = [-1] + [pos[p] for _, p, _ in walk[1:]]
            weight = [w for _, _, w in walk]
            size = [1] * n
            for i in range(n - 1, 0, -1):
                size[parent[i]] += size[i]
            self._pre = _Preorder(
                order, np.array(pos, dtype=np.intp), np.array(parent, dtype=np.intp),
                weight, np.arange(n) + size, _depths(parent, weight),
            )
        return self._pre

    def _all_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        # In the DFS preorder from vertex 0 the subtree of the vertex at
        # position i is the range [i, end).  Moving the source from a parent
        # p to its child v across an edge of length w adds w to the distance
        # of every vertex outside v's subtree and subtracts w inside it, so
        # each row is one vectorized update of its parent's row.  Rows are
        # stored at their vertex's index with columns in preorder; the
        # matrix is returned with the preorder position of each vertex, and
        # `dist` permutes the columns to vertex order on its first read.
        n = len(self.vertices)
        if n > _MAX_FILL_VERTICES:
            raise ValueError(
                "the distance matrix of a tree of %d vertices would take %d "
                "bytes; at most %d vertices are filled"
                % (n, 8 * (n * n + n), _MAX_FILL_VERTICES)
            )
        pre = self._preorder()
        # One allocation, made after the walk's lists, holds the matrix and
        # the preorder positions that live as long as it: a small long-lived
        # array allocated after a matrix can split the heap hole that a
        # later fill needs, and peak memory over repeated scans then crept
        # up by a matrix.
        buf = np.empty(n * n + n)
        d = buf[: n * n].reshape(n, n)
        cols = buf[n * n :].view(np.int64)
        order, weight = pre.order, pre.weight
        d[0] = pre.depth
        for i, (p, e) in enumerate(np.column_stack((pre.parent, pre.end))[1:].tolist(), 1):
            prow, row, w = d[order[p]], d[order[i]], weight[i]
            np.add(prow, w, out=row)
            np.subtract(prow[i:e], w, out=row[i:e])
        cols[:] = pre.pos
        d[np.arange(n), cols] = 0.0
        return d, cols

    def _rows(self, vertices: np.ndarray) -> np.ndarray:
        """The fill's rows of the distinct ``vertices``, bit for bit, with no
        fill: row k holds the distances from ``vertices[k]`` with columns in
        preorder, as ``_all_pairs()[0][vertices[k]]`` holds them.

        The walk makes the fill's float operations: each row is its
        parent's row plus w, less w on the row's own subtree, and the
        diagonal is zeroed only in the rows written out, after every row
        that reads them.  It visits only the vertices that are asked for or
        have a descendant that is, and at each vertex the child with the
        most asked-for vertices below it comes last.  A row is held until
        its last child has read it, then goes back to a pool of buffers.  A
        held row that is not written out belongs to an ancestor left through
        another child, which has at most half the ancestor's asked-for
        vertices below it, so the walk holds at most log2(k) + 2 buffers
        besides the k rows it writes out.  More rows than
        ``_MAX_ROW_BYTES`` hold are refused before any is allocated.
        """
        self._refuse_rows(len(vertices))
        pre = self._preorder()
        n = self.n
        keep = pre.pos[np.asarray(vertices, dtype=np.intp)]
        out = np.empty((len(keep), n))
        slot = np.full(n, -1, dtype=np.intp)
        slot[keep] = np.arange(len(keep))
        up, end = pre.parent, pre.end
        asked = np.zeros(n + 1, dtype=np.intp)
        asked[keep + 1] = 1
        asked = np.cumsum(asked)  # asked-for positions before each position
        wanted = asked[end] - asked[:n]  # asked-for positions in each subtree
        needed = wanted > 0
        seen = np.r_[0, np.cumsum(needed)]  # needed positions before each
        size = seen[end] - seen[:n]  # needed positions in each subtree
        child = np.flatnonzero(needed[1:]) + 1
        parent = up[child]
        # The first child with the most wanted below it goes last.  From the
        # preorder of the needed positions, each later sibling's subtree
        # moves ahead by the last child's subtree, and that subtree moves
        # behind all of them.
        by_parent = np.lexsort((child, -wanted[child], parent))
        first = np.ones(len(child), dtype=bool)
        first[1:] = parent[by_parent[1:]] != parent[by_parent[:-1]]
        heavy = child[by_parent[first]]
        last = np.zeros(n, dtype=bool)
        last[heavy] = True
        heavy_of = np.zeros(n, dtype=np.intp)
        heavy_of[up[heavy]] = heavy
        ahead = child[child > heavy_of[parent]]
        step = size[heavy_of[up[ahead]]]
        behind = seen[end[up[heavy]]] - seen[end[heavy]]
        moves = np.bincount(
            np.concatenate([ahead, end[ahead], heavy, end[heavy]]),
            np.concatenate([-step, step, behind, -behind]).astype(float),
            minlength=n + 1,
        )
        rank = seen[:n] + np.cumsum(moves[:n]).astype(np.intp)
        visits = np.empty(len(child) + 1, dtype=np.intp)
        visits[rank[needed]] = np.flatnonzero(needed)
        visits = visits[1:]  # the root comes first
        pp = up[visits]
        recycle = last[visits] & (slot[pp] < 0) & (pp > 0)  # the root's row is pre.depth
        held: List[Optional[np.ndarray]] = [None] * n
        if len(keep):
            held[0] = pre.depth
            if slot[0] >= 0:
                held[0] = out[slot[0]]
                held[0][:] = pre.depth
        pool: List[np.ndarray] = []
        lengths = pre.weight
        for c, p, e, s, reread, done, back in zip(
            visits.tolist(), pp.tolist(), end[visits].tolist(), slot[visits].tolist(),
            (size[visits] > 1).tolist(), last[visits].tolist(), recycle.tolist(),
        ):
            prow, w = held[p], lengths[c]
            row = out[s] if s >= 0 else pool.pop() if pool else np.empty(n)
            np.add(prow, w, out=row)
            np.subtract(prow[c:e], w, out=row[c:e])
            if reread:
                held[c] = row
            if done:
                held[p] = None
                if back:
                    pool.append(prow)
        out[np.arange(len(keep)), keep] = 0.0
        return out

    def _fill_entries(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """The fill's entries from ``sources[k]`` to ``targets[k]`` (vertex
        indices), bit for bit, with no fill and no walk: entry k is
        ``_all_pairs()[0][sources[k], pos[targets[k]]]``.

        The fill's row of a source is the root's row, the depths, updated
        once per edge on the source's root path from the root down: plus w
        at a column outside the child's subtree, minus w inside it.  So an
        entry is the target's depth followed by those signed lengths, added
        in order (``np.add.accumulate``), and 0 on the diagonal.  The root
        path is the positions whose subtree holds the source's, and the
        sums of one source are made a block of ``_PERMUTE_BLOCK_CELLS``
        terms at a time.
        """
        pre, lengths = self._preorder(), self._lengths
        src = pre.pos[np.asarray(sources, dtype=np.intp)]
        col = pre.pos[np.asarray(targets, dtype=np.intp)]
        out = np.empty(len(src))
        by_source = np.argsort(src, kind="stable")
        heads = np.flatnonzero(np.r_[True, src[by_source[1:]] != src[by_source[:-1]]])
        for group in np.split(by_source, heads[1:]):
            s = src[group[0]]
            path = np.flatnonzero(pre.end[1 : s + 1] > s) + 1
            w = lengths[path][:, None]
            step = max(1, _PERMUTE_BLOCK_CELLS // (len(path) + 1))
            for lo in range(0, len(group), step):
                k = group[lo:lo + step]
                c = col[k]
                terms = np.empty((len(path) + 1, len(k)))
                terms[0] = pre.depth[c]
                inside = (path[:, None] <= c) & (c < pre.end[path][:, None])
                np.copyto(terms[1:], np.where(inside, -w, w))
                out[k] = np.add.accumulate(terms, axis=0)[-1]
            out[group[col[group] == s]] = 0.0
        return out

    @cached_property
    def _lengths(self) -> np.ndarray:
        """The preorder's lengths as an array, for :meth:`_fill_entries`;
        built on first read."""
        return np.array(self._preorder().weight)

    def _refuse_rows(self, k: int) -> None:
        """Raise ValueError if ``k`` distance rows of this tree would take
        more than ``_MAX_ROW_BYTES``: a too-fine sample fails at once, as
        its fill would, instead of exhausting memory."""
        size = 8 * k * self.n
        if size > _MAX_ROW_BYTES:
            raise ValueError(
                "%d distance rows of a tree of %d vertices would take %d bytes; "
                "at most %d bytes of rows are walked" % (k, self.n, size, _MAX_ROW_BYTES)
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
        preorder, as ``depth[u] + depth[v] - 2 depth[lca]`` with the depths
        of :meth:`_preorder`: no walk, and not the fill's floats.

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

        Error: each depth is at most n - 1 roundings of values at most the
        total length L away from the exact depth, and the sum and the
        difference add two roundings of values at most 2L (the doubling is
        exact), so an entry is within (4(n - 1) + 4) 2**-53 L of the exact
        distance.
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
        lca *= -2.0
        lca += padded
        lca += depth[src][:, None]
        return lca[:, :n]

    # -- queries --------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def metadata(self) -> dict:
        """Free-form provenance.  Its ``inserted`` records (see the module
        docstring) are built from the runs :func:`_split_edges` keeps on
        the first read, so a sample that nothing asks about holds a few
        bytes per inserted vertex instead of a dict entry and a tuple."""
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

    def eccentricities(self) -> np.ndarray:
        """Distance from each vertex to its farthest vertex, in vertex order:
        the row maxima of the fill, the same floats as
        ``as_space().eccentricities()`` whether or not ``dist`` has been read."""
        return self._filled()[0].max(axis=1)

    def diameter(self) -> float:
        """Largest distance, from two single-source rows: the vertex farthest
        from any vertex ends a diameter of a tree."""
        far = self.vertices[int(self.row(self.vertices[0]).argmax())]
        return float(self.row(far).max())

    def total_edge_length(self) -> float:
        """Sum of the edge lengths, computed on the first call and cached."""
        if self._total_length is None:
            self._total_length = float(sum(w for _, _, w in self.edges))
        return self._total_length

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
    doing: str = "inserting vertices on edge ({a}, {b}) of length {w!r}",
    **extra,
) -> MetricTree:
    """``tree`` with new vertices on its edges: the one builder of
    subdivision, chunk-boundary and ball-cut vertices.

    Edge e of ``tree.edges`` gets the next ``cuts[e]`` of ``offsets``
    (Python floats, from the edge's first end) and of ``ids``.  The new
    vertices follow the old ones in that order and are recorded in
    ``metadata["inserted"]``, after ``generator`` and before ``extra``.
    A tree with vertices on its edges is a tree, so only what can go wrong
    is checked: a piece that is not positive (offsets out of order or off
    their edge), reported as ``doing`` formatted with the edge, and a new
    id the tree already has.
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
                doing.format(a=a, b=b, w=w) + " leaves a piece that is not positive"
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
    returned unchanged.  The sample is built in one pass over the edges and,
    being the input tree with vertices on its edges, is not proved a tree
    again; its preorder is spliced from the input tree's
    (:func:`_spliced_preorder`), so building it walks no sample vertex.

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
    pieces = _pieces(lengths, eps)
    added = float(pieces.sum()) - len(pieces)
    if added > _MAX_SUBDIVIDE_VERTICES:
        raise ValueError(
            "subdividing at eps=%r would insert %.0f vertices, more than %d"
            % (eps, added, _MAX_SUBDIVIDE_VERTICES)
        )
    if added == 0:
        return tree
    cuts = pieces.astype(np.intp) - 1
    offsets = _offsets(lengths, cuts).tolist()
    sample = _split_edges(
        tree, cuts.tolist(), offsets, ["sub:%d" % c for c in range(len(offsets))],
        "subdivide", "subdividing edge ({a}, {b}) of length {w!r} at eps=%r" % (eps,),
        eps=eps,
    )
    sample._pre = _spliced_preorder(tree, cuts, sample)
    return sample


def _spliced_preorder(tree: MetricTree, cuts: np.ndarray, sample: MetricTree) -> _Preorder:
    """The preorder of ``sample``, ``tree`` with ``cuts[e]`` vertices
    inserted on each edge e by :func:`_split_edges`, from the preorder of
    ``tree``: field for field what walking the sample gives.

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
    lengths = np.array([w for _, _, w in sample.edges])
    weight = lengths[e + taken[e] + j]
    weight[0] = 0.0
    parent = np.arange(m) - 1
    heads = start + run  # where each tree position sits in the sample
    parent[k == 0] = heads[pre.parent[host[k == 0]]]
    parent[0] = -1
    end = np.r_[start, m][pre.end[host]]
    pos = np.empty(m, dtype=np.intp)
    pos[order] = np.arange(m)
    weights = weight.tolist()
    return _Preorder(order.tolist(), pos, parent, weights, end, _depths(parent.tolist(), weights))


def _depths(parent: List[int], weight: List[float]) -> np.ndarray:
    """Distances from vertex 0 by preorder position, each summed as its
    parent's plus its edge length: the fill's first row, so every other
    row the fill or the row walk makes is one update of it."""
    depth = [0.0] * len(parent)
    for i in range(1, len(parent)):
        depth[i] = depth[parent[i]] + weight[i]
    return np.array(depth)
