"""Parametric families of trees indexed by a finite grid.

Given a grid H with marked points v_1..v_{n+1}, endpoint trees X_i and a
fiber index k, ``build_F`` assembles a tree W(u, k): each X_i has its
unit segments replaced by combs whose tooth size follows the distance
field phi(u), is cut to a ball whose radius follows sigma_i(u), and all
parts are wedged together with a star tree whose branch lengths encode
(u, k).  At a marked point the construction collapses to X_i itself.

The star dominates the degree-<=2 decomposition of W by a certified
diameter margin, so ``star_fingerprint`` can read (xi, a) back out of the
bare tree; ``injectivity_scan`` checks pairwise distinctness of the
fingerprints, and ``continuity_scan`` certifies Gromov-Hausdorff upper
bounds between neighbouring cells against an analytic modulus.

Internally a grid cell is a :class:`_Cell`: the fields, the endpoint
parts, the star coefficients and the star's lists, from which it builds
its tree, that tree's degree-<=2 components, or the comb or star
coordinates of every vertex, each on request.  Only the continuity
matcher reads the coordinates, so fingerprinting never pays for them.  The
matcher's index (:class:`_CandidateIndex`) takes a tree, its coordinates
and its parts, and keeps no coordinates per vertex: it groups them as
arrays and interpolates the eps-sample's inserted vertices per edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .metric import FiniteMetricSpace
from .tree import (
    Deg2Component,
    Deg2Decomposition,
    MetricTree,
    ReplacementEntry,
    _components,
    _wedge,
    closed_ball_subtree,
    decompose_deg2,
    deg2_components,
    replace_edges,
    subdivide,
)
from .families import (
    CombParams,
    StarParams,
    _MAX_BRANCHES,
    _assembly_star_parts,
    _tooth_heights,
    c_fun,
    comb_tree,
    cube_interval,
    rho_embed,
    tau,
)
from .gh import Correspondence, gh_upper_bound
from .io import tree_from_document, tree_to_document

__all__ = [
    "EmbedConfig",
    "EmbedConfigError",
    "ScalarFields",
    "Fingerprint",
    "FingerprintError",
    "ScanError",
    "unit_grid",
    "scalar_fields",
    "build_F",
    "star_fingerprint",
    "injectivity_scan",
    "continuity_scan",
    "replacement_path",
    "InjectivityReport",
    "ContinuityReport",
    "PathStep",
]


class EmbedConfigError(ValueError):
    """Invalid embedding configuration."""


class ScanError(RuntimeError):
    """A scan assertion failed (collision, recovery error, bound violation)."""


class FingerprintError(ValueError):
    """The tree does not certify a star (margin or structure failure)."""


@dataclass(frozen=True)
class ScalarFields:
    """Field values at one grid point: ball radii, tooth size, star scale."""

    sigma: Tuple[float, ...]
    phi: float
    xi: float


@dataclass
class EmbedConfig:
    """Everything needed to assemble the family.

    Attributes:
        h_space: the parameter grid as a finite metric space.
        coords: unit-square coordinates (u1, u2) per grid label.
        marked: labels of the marked points v_1..v_{n+1} (n >= 1).
        trees: endpoint trees, one per marked point.
        basepoints: one vertex id per endpoint tree.
        m: number of fibers k = 1..m.
        branches: star branch count used by the parameter encoding, 3 to
            ``_MAX_BRANCHES`` (537).
        eps: sampling resolution.  The scans certify on each tree
            subdivided at eps; the assembly reads it only to put each star
            branch's one interior vertex at its last eps-sample.
        tol: validation tolerance.
        depth_cap: comb generation cap (a nonnegative integer).

    ``m``, ``branches`` and ``depth_cap`` must be integers; a float with no
    fractional part is taken as its integer, any other value is refused
    with an :class:`EmbedConfigError` naming the field.
    """

    h_space: FiniteMetricSpace
    coords: Dict[str, Tuple[float, float]]
    marked: Tuple[str, ...]
    trees: Tuple[MetricTree, ...]
    basepoints: Tuple[str, ...]
    m: int = 3
    branches: int = 3
    eps: float = 2.0 ** -6
    tol: float = 1e-9
    depth_cap: int = 8

    def __post_init__(self):
        self.marked = tuple(self.marked)
        self.trees = tuple(self.trees)
        self.basepoints = tuple(self.basepoints)
        labels = set(self.h_space.labels)
        if len(self.marked) < 2:
            raise EmbedConfigError("need at least two marked points")
        if len(set(self.marked)) != len(self.marked):
            raise EmbedConfigError("marked points must be pairwise distinct")
        for v in self.marked:
            if v not in labels:
                raise EmbedConfigError("marked point %r is not a grid label" % v)
        if not self.h_space.diameter() > 0:
            raise EmbedConfigError("grid diameter must be positive")
        missing = labels - set(self.coords)
        if missing:
            raise EmbedConfigError("missing coordinates for %s" % sorted(missing)[:3])
        for lab, (u1, u2) in self.coords.items():
            if not (0.0 <= u1 <= 1.0 and 0.0 <= u2 <= 1.0):
                raise EmbedConfigError(
                    "coordinates of %r outside the unit square: %r" % (lab, (u1, u2))
                )
        if not (len(self.trees) == len(self.marked) == len(self.basepoints)):
            raise EmbedConfigError(
                "marked points, trees and basepoints must align "
                "(%d, %d, %d)" % (len(self.marked), len(self.trees), len(self.basepoints))
            )
        for i, (t, bp) in enumerate(zip(self.trees, self.basepoints)):
            if not t.has_vertex(bp):
                raise EmbedConfigError("basepoint %r missing from its tree" % bp)
            # The comb replacement keeps only the ends of the unit segments
            # among the degree-2 vertices.
            if t.degree(bp) == 2 and not any(
                bp in (seg.a, seg.b) for seg in decompose_deg2(t, 1.0).segments
            ):
                raise EmbedConfigError(
                    "basepoint %r of tree %d has degree 2 inside a unit segment, "
                    "which the comb replacement removes" % (bp, i)
                )
        self.m = _whole(self.m, "m")
        self.branches = _whole(self.branches, "branches")
        self.depth_cap = _whole(self.depth_cap, "depth_cap")
        if self.m < 1:
            raise EmbedConfigError("m must be at least 1")
        if self.branches < 3:
            raise EmbedConfigError("need at least 3 star branches")
        if self.branches > _MAX_BRANCHES:
            raise EmbedConfigError(
                "branches must be at most %d, got %d" % (_MAX_BRANCHES, self.branches)
            )
        if self.depth_cap < 0:
            raise EmbedConfigError("depth_cap must be nonnegative, got %d" % self.depth_cap)
        if not (self.eps > 0 and math.isfinite(self.eps)):
            raise EmbedConfigError("eps must be positive and finite, got %r" % self.eps)
        if not (self.tol >= 0 and math.isfinite(self.tol)):
            raise EmbedConfigError("tol must be finite and nonnegative, got %r" % self.tol)

    @property
    def n(self) -> int:
        return len(self.marked) - 1

    @classmethod
    def from_document(cls, doc: dict) -> "EmbedConfig":
        try:
            points = doc["h"]["points"]
            labels = [str(p["id"]) for p in points]
            coords = {str(p["id"]): (float(p["u"][0]), float(p["u"][1])) for p in points}
            if "matrix" in doc["h"]:
                dist = np.asarray(doc["h"]["matrix"], dtype=float)
            else:
                pts = np.array([coords[lab] for lab in labels])
                diff = pts[:, None, :] - pts[None, :, :]
                dist = np.sqrt((diff ** 2).sum(axis=2))
            h = FiniteMetricSpace(tuple(labels), dist)
            trees = tuple(tree_from_document(d) for d in doc["trees"])
            return cls(
                h_space=h,
                coords=coords,
                marked=tuple(str(v) for v in doc["marked"]),
                trees=trees,
                basepoints=tuple(str(b) for b in doc["basepoints"]),
                m=_whole(doc.get("m", 3), "m"),
                branches=_whole(doc.get("branches", 3), "branches"),
                eps=float(doc.get("eps", 2.0 ** -6)),
                tol=float(doc.get("tol", 1e-9)),
                depth_cap=_whole(doc.get("depth_cap", 8), "depth_cap"),
            )
        except (KeyError, TypeError, IndexError) as exc:
            raise EmbedConfigError("malformed embed config: %s" % exc) from exc

    def to_document(self) -> dict:
        return {
            "h": {
                "points": [
                    {"id": lab, "u": list(self.coords[lab])}
                    for lab in self.h_space.labels
                ],
                "matrix": self.h_space.dist.tolist(),
            },
            "marked": list(self.marked),
            "trees": [tree_to_document(t) for t in self.trees],
            "basepoints": list(self.basepoints),
            "m": self.m,
            "branches": self.branches,
            "eps": self.eps,
            "tol": self.tol,
            "depth_cap": self.depth_cap,
        }


def _whole(value, name: str) -> int:
    """An integer field of the config: an int, or a float with no
    fractional part; anything else (2.7, inf, a bool, a string) is refused,
    naming the field, rather than truncated."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)  # of any size: float() overflows past 1e308
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise EmbedConfigError("%s must be an integer, got %r" % (name, value))


def unit_grid(side: int) -> Tuple[FiniteMetricSpace, Dict[str, Tuple[float, float]]]:
    """A side x side Euclidean grid on the unit square, labels ``g<r>_<c>``."""
    if side < 2:
        raise ValueError("grid needs at least 2 points per side")
    labels = []
    coords = {}
    for r in range(side):
        for c in range(side):
            lab = "g%d_%d" % (r, c)
            labels.append(lab)
            coords[lab] = (c / (side - 1), r / (side - 1))
    pts = np.array([coords[lab] for lab in labels])
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    return FiniteMetricSpace(tuple(labels), dist), coords


def scalar_fields(cfg: EmbedConfig, u: str) -> ScalarFields:
    """Ball radii sigma_i, tooth size phi and star scale xi at grid point u.

    ``sigma_i = min_{j != i} d(u, v_j) / d(u, v_i)`` (zero over positive is
    0, positive over zero is infinite); ``phi = min_i d(u, v_i) / (2 diam)``
    lies in [0, 1/2] and vanishes exactly at the marked points; ``xi`` is
    ``32 phi``.
    """
    h = cfg.h_space
    row = h.dist[h.index(u if isinstance(u, str) else str(u))]
    dv = [float(row[h.index(v)]) for v in cfg.marked]
    sigma = []
    for i, own in enumerate(dv):
        other = min(dv[:i] + dv[i + 1 :])
        if other == 0.0:
            sigma.append(0.0)
        elif own == 0.0:
            sigma.append(math.inf)
        else:
            sigma.append(other / own)
    phi = min(dv) / (2.0 * h.diameter())
    return ScalarFields(sigma=tuple(sigma), phi=phi, xi=32.0 * phi)


# -- assembly -----------------------------------------------------------------


_COMB_ALPHA, _COMB_BETA = "spine:0.0", "spine:1.0"  # a comb's ends, glued to a segment's


class _Combed:
    """An endpoint tree chopped into unit segments (``host``, ``segments``),
    each segment replaced by a comb of parameter ``s`` scaled to its length
    (``tree``): the stage of an endpoint part that (i, phi) fixes.

    ``comb`` builds the comb of given :class:`CombParams`.  ``reach`` is
    the basepoint's eccentricity in ``tree`` and :meth:`corner_row` a
    segment corner's distances there; both are built on first read, since
    only the continuity matcher and its analytic bound read them, and are
    shared by every ball cut of the stage.
    """

    def __init__(
        self,
        dec: Deg2Decomposition,
        basepoint: str,
        s: float,
        depth_cap: int,
        comb: Callable[[CombParams], MetricTree],
    ):
        self.basepoint = basepoint
        self.s = s
        self.depth_cap = depth_cap
        self.host = dec.tree
        self.segments = dec.segments
        self.seg_scale = [min(seg.length, 1.0) for seg in dec.segments]
        combs = [comb(CombParams(s=s, scale=scale, depth_cap=depth_cap)) for scale in self.seg_scale]
        plan = [
            ReplacementEntry(a=seg.a, b=seg.b, tree=c, alpha=_COMB_ALPHA, beta=_COMB_BETA)
            for seg, c in zip(dec.segments, combs)
        ]
        self.tree = replace_edges(self.host, plan) if plan else self.host
        self.truncation = max(
            (c.metadata["truncation_error"] for c in combs), default=0.0
        )
        self.comb_points = [(e.a, e.b, c.metadata["points"]) for e, c in zip(plan, combs)]
        self._reach: Optional[float] = None
        self._corner_rows: Dict[str, np.ndarray] = {}

    @property
    def reach(self) -> float:
        if self._reach is None:
            self._reach = self.tree.eccentricity(self.basepoint)
        return self._reach

    def corner_row(self, v: str) -> np.ndarray:
        """Distances from segment corner v in the comb-replaced tree, cached."""
        row = self._corner_rows.get(v)
        if row is None:
            row = self._corner_rows[v] = self.tree.row(v)
        return row


class _PartGeometry:
    """One endpoint tree, comb-replaced and ball-cut: ``tree`` is the ball
    of radius ``radius`` about the basepoint in the comb-replaced tree of
    the stage ``combed``.  The part shares that stage and reads everything
    else from it: the basepoint, the comb parameters, the chop, the
    replaced tree, its truncation, reach and corner rows.

    ``coords`` maps each vertex of the cut tree to the comb coordinates it
    carries: a dict segment-index -> (x, h) in the unit comb (corner
    vertices belong to every incident segment).  It is built on first
    read, since only the continuity matcher reads it.
    :meth:`wedge_components` gives the degree-<=2 components the part has
    inside a wedge, computed once.
    """

    def __init__(self, combed: _Combed, radius: float):
        self.combed = combed
        self.radius = radius
        self.tree = closed_ball_subtree(combed.tree, combed.basepoint, radius)
        self._coords: Optional[Dict[str, Dict[int, Tuple[float, float]]]] = None
        self._wedge_components: Dict[int, List[Deg2Component]] = {}

    @property
    def coords(self) -> Dict[str, Dict[int, Tuple[float, float]]]:
        if self._coords is None:
            cc: Dict[str, Dict[int, Tuple[float, float]]] = {}
            for l, (a, b, points) in enumerate(self.combed.comb_points):
                prefix = "R%d." % l
                for cid, (x, h) in points.items():
                    if cid == _COMB_ALPHA:
                        rid = a
                    elif cid == _COMB_BETA:
                        rid = b
                    else:
                        rid = prefix + cid
                    cc.setdefault(rid, {})[l] = (float(x), float(h))
            replaced = self.combed.tree
            if self.tree is not replaced:
                edge_len = {(a, b): w for a, b, w in replaced.edges}
                for cid, (a, b, off) in self.tree.metadata.get("inserted", {}).items():
                    cc[cid] = _interpolate_on_shared_segment(
                        cc.get(a, {}), cc.get(b, {}), off / edge_len[(a, b)]
                    )
            self._coords = {v: cc.get(v, {}) for v in self.tree.vertices}
        return self._coords

    def wedge_components(self, i: int) -> List[Deg2Component]:
        """The degree-<=2 components of the cut tree as part i of a wedge
        whose wedge vertex has degree >= 3: under the wedge's ids (``P<i>.``
        + id, and ``p`` for the basepoint), with the basepoint a branch
        vertex.  Computed on the first call for each i, and cached."""
        comps = self._wedge_components.get(i)
        if comps is None:
            t, prefix, bp = self.tree, "P%d." % i, self.combed.basepoint
            names = ["p" if v == bp else prefix + v for v in t.vertices]
            comps = _components(t._adj, names, t.index(bp))
            self._wedge_components[i] = comps
        return comps


# The inputs of an endpoint part: the endpoint tree's index i, the tooth size
# phi(u) and the ball radius sigma_i(u).  The config fixes the rest.
_PartKey = Tuple[int, float, float]


def _memoised(store: dict, key, build: Callable[[], object]):
    """``store[key]``, built by ``build()`` and stored on first request."""
    value = store.get(key)
    if value is None:
        value = store[key] = build()
    return value


class _Stages:
    """The stages of endpoint parts that one call builds, each keyed by its
    own inputs, for the given endpoint trees, basepoints and ``depth_cap``.

    The chop of X_i into unit segments depends on i only, a comb on its
    :class:`CombParams` only, the comb-replaced tree (:class:`_Combed`) on
    (i, phi) and the ball cut (:class:`_PartGeometry`) on (i, phi,
    sigma_i), so each is built once, however many parts share it.  A call
    makes one and drops it when it returns; nothing outlives the call.
    """

    def __init__(self, trees: Sequence[MetricTree], basepoints: Sequence[str], depth_cap: int):
        self.trees, self.basepoints, self.depth_cap = trees, basepoints, depth_cap
        self._chops: Dict[int, Deg2Decomposition] = {}
        self._combs: Dict[CombParams, MetricTree] = {}
        self._combed: Dict[Tuple[int, float], _Combed] = {}
        self._parts: Dict[_PartKey, _PartGeometry] = {}

    def part(self, i: int, phi: float, sigma: float) -> _PartGeometry:
        return _memoised(
            self._parts, (i, phi, sigma), lambda: _PartGeometry(self.combed(i, phi), sigma)
        )

    def combed(self, i: int, phi: float) -> _Combed:
        def build() -> _Combed:
            chop = _memoised(self._chops, i, lambda: decompose_deg2(self.trees[i], 1.0))
            return _Combed(chop, self.basepoints[i], phi, self.depth_cap, self.comb)

        return _memoised(self._combed, (i, phi), build)

    def comb(self, params: CombParams) -> MetricTree:
        return _memoised(self._combs, params, lambda: comb_tree(params))


def _interpolate_on_shared_segment(
    la: Dict[int, Tuple[float, float]],
    lb: Dict[int, Tuple[float, float]],
    t: Union[float, np.ndarray],
) -> dict:
    """Comb coordinates at fraction t of an edge from a vertex with segment
    coordinates la to one with lb, on the lowest segment both carry (empty
    when they share none).  t is a float, or an array of fractions that
    gives an array of each coordinate."""
    common = sorted(set(la) & set(lb))
    if not common:
        return {}
    l = common[0]
    (xa, ha), (xb, hb) = la[l], lb[l]
    return {l: (xa + t * (xb - xa), ha + t * (hb - ha))}


_STAR_TIP = "branch:0:1.0"  # the star's basepoint: the tip of its unit branch
# Candidates costed per block of a segment search in `_matches`, so matching
# memory stays linear in the sample sizes.
_MATCH_BLOCK_CELLS = 1 << 18
# Most query-vertex pairs of one segment that `_matches` costs in a single
# broadcast: below this the broadcast is cheaper than setting up the sorted
# search (about forty numpy calls), and it gives the same partners.
_MATCH_BROADCAST_CELLS = 1 << 14


_StarLists = Tuple[List[str], List[Tuple[str, str, float]], Dict[str, Tuple[int, float]]]


@dataclass
class _Cell:
    """A grid cell (u, k), as what its tree is assembled from: the fields
    at u, the endpoint parts, the star coefficients ``rho`` and the star's
    vertex, edge and point lists (:func:`_assembly_star_parts`).  At a
    marked point only the fields are set.

    Nothing is assembled up front: :meth:`wedge` builds the tree,
    :meth:`components` its degree-<=2 components and :meth:`coords` its
    vertices' coordinates, each on every call, for the caller to keep.
    """

    fields: ScalarFields
    parts: List[_PartGeometry]
    rho: Optional[Tuple[float, ...]] = None
    star: Optional[_StarLists] = None

    def wedge(self) -> MetricTree:
        """The parts and the star wedged at their basepoints, validated as a
        whole; the star enters as bare lists."""
        s_vertices, s_edges, _ = self.star
        return _wedge(
            [(g.tree.vertices, g.tree.edges, g.tree.labels, g.combed.basepoint) for g in self.parts]
            + [(s_vertices, s_edges, {}, _STAR_TIP)]
        )

    def coords(self) -> Dict[str, dict]:
        """The comb or star coordinates of every vertex of :meth:`wedge`:
        ``coords[vid]`` maps a part key (part index, or "star") to that
        part's coordinate record, and only the wedge vertex ``p`` carries
        several keys.  Built from the parts' coordinates and the star's
        ``(branch, parameter)`` points on each call, since only the
        continuity matcher's :class:`_CandidateIndex` reads them."""
        # The renaming of wedge_sum: part i's vertices become "P<i>." + vid,
        # the star is the last part, and basepoints the wedge.
        coords: Dict[str, dict] = {}
        for i, g in enumerate(self.parts):
            prefix, bp = "P%d." % i, g.combed.basepoint
            for v in g.tree.vertices:
                wid = "p" if v == bp else prefix + v
                coords.setdefault(wid, {})[i] = g.coords[v]
        spref = "P%d." % len(self.parts)
        for v, point in self.star[2].items():
            wid = "p" if v == _STAR_TIP else spref + v
            coords.setdefault(wid, {})["star"] = point
        return coords

    def components(self) -> Optional[List[Deg2Component]]:
        """``deg2_components(self.wedge())`` without the wedge, in part order
        rather than sorted: each part's cached components and the star's.
        None when the wedge vertex would have degree <= 2, so that a
        component runs through it from one part into another."""
        s_edges = self.star[1]
        degree = sum(len(g.tree._adj[g.tree.index(g.combed.basepoint)]) for g in self.parts)
        degree += sum(_STAR_TIP in (a, b) for a, b, _ in s_edges)
        if degree <= 2:
            return None
        comps = [c for i, g in enumerate(self.parts) for c in g.wedge_components(i)]
        return comps + _star_components(s_edges, "P%d." % len(self.parts))


def _star_components(
    edges: Sequence[Tuple[str, str, float]], prefix: str
) -> List[Deg2Component]:
    """The degree-<=2 components of a star wedged at its tip ``_STAR_TIP``
    as the part with id prefix ``prefix``: what :func:`_components` gives
    for its adjacency, with the tip ``p`` and a branch vertex, read from
    the edge list with no adjacency built.

    ``edges`` lists each branch as a path out from the center, which has
    degree >= 3: a run of edges ``(u, v, w)``, the first from the center,
    each later one from the ``v`` before.  The interior of a branch has
    degree 2, and its tip is a leaf or the wedge vertex.  So a branch is
    one component whose closure runs from the center to the tip, with the
    center and the wedge vertex as delimiters; a branch that is one edge to
    the wedge vertex joins two branch vertices and has none.  As in
    :func:`_components`, the closure runs from its smaller id, its length
    sums the edges in that order, and the list is sorted by closure path.
    """
    out: List[Deg2Component] = []
    if not edges:
        return out
    center = edges[0][0]
    hub = prefix + center
    wedged = tuple(sorted((hub, "p")))
    path: List[str] = []
    lengths: List[float] = []
    for n, (_, v, w) in enumerate(edges):
        path.append("p" if v == _STAR_TIP else prefix + v)
        lengths.append(float(w))
        if n + 1 < len(edges) and edges[n + 1][0] != center:
            continue  # the branch goes on
        wedge = path[-1] == "p"
        if not (wedge and len(path) == 1):
            closure = [hub] + path
            if closure[-1] < hub:
                closure.reverse()
                lengths.reverse()
            out.append(Deg2Component(
                vertices=tuple(closure[1:-1] if wedge else [u for u in closure if u != hub]),
                delimiters=wedged if wedge else (hub,),
                closure_path=tuple(closure),
                closure_diameter=float(sum(lengths)),
            ))
        path, lengths = [], []
    out.sort(key=lambda c: c.closure_path)
    return out


def _cell(cfg: EmbedConfig, u: str, k: int, stages: _Stages) -> _Cell:
    # stages holds what the cells prepared before have built, each stage by
    # its own inputs; the cell adds its own there, for any later cell that
    # shares them: the other fibers of u, labels with equal phi and sigma_i,
    # and parts with equal phi or equal comb scales.
    if not (1 <= k <= cfg.m):
        raise ValueError("fiber index k=%r outside 1..%d" % (k, cfg.m))
    cfg.h_space.index(u)
    f = scalar_fields(cfg, u)
    if u in cfg.marked:
        return _Cell(fields=f, parts=[])
    # The star first: an eps too fine for it fails before any part is built.
    a = rho_embed(cfg.coords[u], k, cfg.m, cfg.branches)
    star = _assembly_star_parts(StarParams(a=a, scale=f.xi, eps=cfg.eps))
    parts = [stages.part(i, f.phi, f.sigma[i]) for i in range(len(cfg.marked))]
    return _Cell(fields=f, parts=parts, rho=a, star=star)


def _stages(cfg: EmbedConfig) -> _Stages:
    return _Stages(cfg.trees, cfg.basepoints, cfg.depth_cap)


def build_F(cfg: EmbedConfig, u: str, k: int) -> MetricTree:
    """Assemble the tree of grid cell (u, k).

    At a marked point v_i this returns the endpoint tree X_i itself.
    Elsewhere every endpoint tree is comb-replaced at tooth size phi(u),
    cut to the ball of radius sigma_i(u) about its basepoint, and wedged
    with the parameter star of scale xi(u) attached at its unit branch tip.
    Each star branch is two edges, split at its last ``cfg.eps``-sample, so
    ``subdivide(build_F(cfg, u, k), cfg.eps)`` puts back, up to rounding,
    the branch samples of :func:`~treegh.families.star_tree`.

    Args:
        cfg: embedding configuration.
        u: grid label.
        k: fiber index in 1..m.

    Returns:
        A validated :class:`MetricTree`.
    """
    cell = _cell(cfg, u, k, _stages(cfg))
    if cell.star is None:
        return cfg.trees[cfg.marked.index(u)]
    w, f = cell.wedge(), cell.fields
    w.metadata.update(
        {
            "generator": "embed",
            "u": u,
            "k": k,
            "phi": f.phi,
            "xi": f.xi,
            "sigma": list(f.sigma),
            "a": list(cell.rho),
            "truncation_error": max(g.combed.truncation for g in cell.parts),
        }
    )
    return w


# -- fingerprints -------------------------------------------------------------


@dataclass(frozen=True)
class Fingerprint:
    """Star data recovered from a bare tree: scale, coefficients, margin."""

    xi_hat: float
    a_hat: Tuple[float, ...]
    margin: float


def star_fingerprint(t: MetricTree, tol: float = 1e-9) -> Fingerprint:
    """Recover the star (scale, branch coefficients) from a tree.

    The two largest degree-<=2 component closures must exceed every other
    component by a positive diameter margin and share exactly one endpoint
    -- the star center.  Branch lengths are read off the components at the
    center; the largest is the unit branch, fixing the scale.

    Raises:
        FingerprintError: no certified star (margin <= tol, ambiguous tie,
            or the two leading components do not meet in a single vertex).
    """
    return _read_star(deg2_components(t), tol)


def _read_star(comps: Sequence[Deg2Component], tol: float) -> Fingerprint:
    """:func:`star_fingerprint` of the tree whose degree-<=2 components are
    ``comps``, in any order."""
    ranked = sorted(comps, key=lambda c: (-c.closure_diameter, c.closure_path))
    if len(ranked) < 2 or ranked[1].closure_diameter <= tol:
        raise FingerprintError("no certified star: fewer than two leading components")
    third = ranked[2].closure_diameter if len(ranked) > 2 else 0.0
    margin = ranked[1].closure_diameter - third
    if margin <= tol:
        raise FingerprintError(
            "no certified star: margin %.3g between second and third "
            "component diameters" % margin
        )
    ends0 = {ranked[0].closure_path[0], ranked[0].closure_path[-1]}
    ends1 = {ranked[1].closure_path[0], ranked[1].closure_path[-1]}
    shared = ends0 & ends1
    if len(shared) != 1:
        raise FingerprintError(
            "no certified star: leading components share %d endpoints" % len(shared)
        )
    center = shared.pop()
    legs = sorted(
        (
            c.closure_diameter
            for c in comps
            if center in (c.closure_path[0], c.closure_path[-1])
        ),
        reverse=True,
    )
    if len(legs) < 2:
        raise FingerprintError("no certified star: center has fewer than two legs")
    xi_hat = legs[0]
    a_hat = tuple(leg / xi_hat for leg in legs[1:])
    return Fingerprint(xi_hat=xi_hat, a_hat=a_hat, margin=margin)


# -- scans --------------------------------------------------------------------


@dataclass(frozen=True)
class InjectivityRow:
    label: str
    u: Tuple[float, float]
    k: int
    fingerprint: Fingerprint
    recovery_error: float


class InjectivityReport:
    """Fingerprints of the scanned cells, their least pairwise separation and
    the first fiber ``k_star`` free of endpoint collisions.

    Each row's floats -- ``xi_hat``, ``margin``, ``recovery_error`` and the
    ``a_hat`` -- are one row of a float64 array; the cells and their
    coordinates are the caller's, held by reference.  :attr:`rows` builds
    the :class:`InjectivityRow` tuple afresh on every read.
    """

    __slots__ = ("_cells", "_coords", "_values", "min_separation", "k_star")

    def __init__(
        self,
        cells: Sequence[Tuple[str, int]],
        coords: Dict[str, Tuple[float, float]],
        values: np.ndarray,
        min_separation: float,
        k_star: int,
    ):
        self._cells = cells
        self._coords = coords
        self._values = values
        self.min_separation = min_separation
        self.k_star = k_star

    @property
    def rows(self) -> Tuple[InjectivityRow, ...]:
        return tuple(
            InjectivityRow(
                label=lab,
                u=self._coords[lab],
                k=k,
                fingerprint=Fingerprint(xi_hat=v[0], a_hat=tuple(v[3:]), margin=v[1]),
                recovery_error=v[2],
            )
            for (lab, k), v in zip(self._cells, self._values.tolist())
        )


def _refuse_marked_cells(cfg: EmbedConfig, grid: Sequence[Tuple[str, int]]) -> None:
    for lab, _ in grid:
        if lab in cfg.marked:
            raise EmbedConfigError(
                "grid cell %r is a marked point; the scan domain excludes them" % lab
            )


def injectivity_scan(
    cfg: EmbedConfig, grid: Sequence[Tuple[str, int]]
) -> InjectivityReport:
    """Fingerprint every grid cell and certify pairwise distinctness.

    Each cell (u, k) must avoid the marked points.  The recovered
    coefficients must match the parameter encoding within 1e-6, all
    fingerprints must be pairwise separated in the sup-distance, and a
    fiber k* must exist whose fingerprints collide with no endpoint tree
    (the smallest such k* is reported).

    An endpoint part, X_i comb-replaced and ball-cut, depends on the cell
    only through its inputs (i, phi(u), sigma_i(u)), not on the label or
    the fiber, and each stage of it on fewer: the chop of X_i into unit
    segments on i, a comb on its parameters, the comb-replaced tree on
    (i, phi).  So each stage is built once per call for its own inputs
    (:class:`_Stages`) and shared by every part that needs it: all fibers
    of a label, labels with equal fields, such as mirror images across a
    symmetry of the marks, and the ball cuts of one phi.
    No wedge is built: when the wedge vertex has degree >= 3, every
    degree-<=2 component of the cell's tree lies inside one part or the
    star, so each part's components, computed once under the wedge's ids,
    are merged with the star's, which are read off its branch lists.
    Otherwise, as with a single-vertex endpoint tree, the cell's tree is
    assembled and walked whole.  Every row equals what :func:`build_F` and
    :func:`star_fingerprint` give for that cell alone.
    The separations are read in one array pass over the coefficients, and
    a collision names the first colliding pair in grid order; the endpoint
    collisions that fix k* take one pass per endpoint tree.  The report
    keeps ``grid`` itself, so the caller should not change it afterwards.

    Raises:
        EmbedConfigError: a grid cell sits on a marked point.
        ScanError: recovery failure, a fingerprint collision, or no
            collision-free fiber.
    """
    _refuse_marked_cells(cfg, grid)
    values: List[List[float]] = []
    stages = _stages(cfg)
    for lab, k in grid:
        cell = _cell(cfg, lab, k, stages)
        comps = cell.components()
        if comps is None:
            fp = star_fingerprint(cell.wedge(), tol=cfg.tol)
        else:
            fp = _read_star(comps, cfg.tol)
        expected = cell.rho
        if len(fp.a_hat) != len(expected):
            raise ScanError(
                "cell (%s, %d): recovered %d coefficients, expected %d"
                % (lab, k, len(fp.a_hat), len(expected))
            )
        err = tau(fp.a_hat, expected)
        if err > 1e-6:
            raise ScanError(
                "cell (%s, %d): coefficient recovery off by %.3g" % (lab, k, err)
            )
        for i, val in enumerate(fp.a_hat, start=1):
            lo, hi = cube_interval(i)
            if not (lo - cfg.tol <= val <= hi + cfg.tol):
                raise ScanError(
                    "cell (%s, %d): coefficient %d = %.6g outside its "
                    "admissible range" % (lab, k, i, val)
                )
        values.append([fp.xi_hat, fp.margin, err, *fp.a_hat])

    if not values:
        raise ScanError("empty scan grid")
    packed = np.array(values)
    # tau of every pair i < j, in the order of a loop over i then j.
    xi_hat, a_hat = packed[:, 0], packed[:, 3:]
    first, second = np.triu_indices(len(values), 1)
    seps = np.abs(a_hat[first] - a_hat[second]).max(axis=1)
    collisions = np.flatnonzero(seps <= 1e-12)
    if len(collisions):
        i, j = first[collisions[0]], second[collisions[0]]
        raise ScanError(
            "fingerprint collision between cells (%s, %d) and (%s, %d)"
            % (grid[i][0], grid[i][1], grid[j][0], grid[j][1])
        )
    min_sep = seps.min(initial=math.inf)

    # A cell collides with an endpoint tree whose star has as many legs,
    # the same scale and coefficients within tol of the cell's.
    collides = np.zeros(len(values), dtype=bool)
    for t in cfg.trees:
        try:
            fp = star_fingerprint(t, tol=cfg.tol)
        except FingerprintError:
            continue
        if len(fp.a_hat) == a_hat.shape[1]:
            collides |= (np.abs(xi_hat - fp.xi_hat) <= cfg.tol) & (
                np.abs(a_hat - fp.a_hat).max(axis=1) <= cfg.tol
            )
    hit = {grid[c][1] for c in np.flatnonzero(collides)}
    k_star = next((k for k in range(1, cfg.m + 1) if k not in hit), 0)
    if k_star == 0:
        raise ScanError("every fiber collides with an endpoint fingerprint")
    return InjectivityReport(grid, cfg.coords, packed, float(min_sep), k_star)


def _comb_modulus_bound(s: float, t: float) -> float:
    """Hausdorff modulus between combs of parameters s and t (unit scale).

    In-band pairs get the tight per-generation tooth-height bound; the
    degenerate comb pairs with anything at the larger parameter; otherwise
    a Lipschitz fallback applies (tooth heights move at slope <= 3).
    """
    if s == t:
        return 0.0
    if s == 0.0 or t == 0.0:
        return max(s, t)
    n = 0
    while s < 2.0 ** (-(n + 1)):
        n += 1
    if abs(s - t) < 2.0 ** (-(n + 2)):
        return max(
            abs(s * c_fun(i, s) - t * c_fun(i, t)) for i in range(n + 2)
        )
    return 3.0 * abs(s - t)


def _analytic_bound(a: _Cell, b: _Cell) -> float:
    """Sum of the comb, ball and star moduli between two assembled cells."""
    comb = _comb_modulus_bound(a.fields.phi, b.fields.phi)
    ball = 0.0
    for ga, gb in zip(a.parts, b.parts):
        reach = max(ga.combed.reach, gb.combed.reach)
        ball = max(ball, abs(min(ga.radius, reach) - min(gb.radius, reach)))
    xa, xb = a.fields.xi, b.fields.xi
    star = 2.0 * max(xa, xb) * tau(a.rho, b.rho) + 2.0 * abs(xa - xb)
    return comb + ball + star


class _CandidateIndex:
    """The subdivision at ``eps`` of a tree whose vertices carry the
    coordinates ``coords`` (as :meth:`_Cell.coords` gives them), with its
    vertices grouped for matching: per (part, segment) the comb coordinates
    ``(xs, hs)`` and per star branch the positions ``ss``, each with the
    vertices' sample indices ``idx`` in vertex order.  ``sorted_star``
    holds each branch sorted by position (stably, so ``idx`` rises within
    equal positions), and :meth:`sorted_segment` sorts a segment for
    :func:`_nearest_on_segment` when first asked.  It keeps the sample
    ``tree``, the ``parts`` and whether the tree is a wedge at ``p``;
    ``fallback`` is the wedge's index, or 0 without a wedge.  The matcher
    reads the sample by vertex index, and writes an id only to break a
    tie, so the sample's ids, edges and index are never built (see
    :func:`~treegh.tree.subdivide`).

    The tree's own vertices are grouped from their coordinates.  The
    vertices that :func:`~treegh.tree.subdivide` inserts on an edge come
    as one run per edge, interpolated from the edge's two ends at the
    offsets subdivide uses: along the star branch, or on the lowest comb
    segment both ends carry (no coordinates when they share none).  No
    coordinates are kept per vertex.
    """

    def __init__(
        self,
        tree: MetricTree,
        coords: Dict[str, dict],
        parts: List[_PartGeometry],
        wedge: bool,
        eps: float,
    ):
        self.parts, self.wedge = parts, wedge
        self.fallback = tree.index("p") if wedge else 0
        seg: Dict[Tuple[int, int], List[Tuple[float, float, int]]] = {}
        star: Dict[int, List[Tuple[float, int]]] = {}
        for n, vid in enumerate(tree.vertices):
            for key, val in coords[vid].items():
                if key == "star":
                    br, sv = val
                    star.setdefault(int(br), []).append((float(sv), n))
                else:
                    for l, (x, h) in val.items():
                        seg.setdefault((key, l), []).append((x, h, n))
        seg_runs = {
            key: [(
                np.array([x for x, _, _ in rows]),
                np.array([h for _, h, _ in rows]),
                np.array([n for _, _, n in rows], dtype=np.intp),
            )]
            for key, rows in seg.items()
        }
        star_runs = {
            br: [(np.array([s for s, _ in rows]), np.array([n for _, n in rows], dtype=np.intp))]
            for br, rows in star.items()
        }
        self.tree = subdivide(tree, eps)
        if self.tree is not tree:
            lengths = np.array([w for _, _, w in tree.edges])
            cuts = self.tree._split.cuts
            t = self.tree._split.offsets / np.repeat(lengths, cuts)
            rows = np.arange(tree.n, self.tree.n, dtype=np.intp)
            for (a, b, _), c, e in zip(tree.edges, cuts.tolist(), np.cumsum(cuts).tolist()):
                if c == 0:
                    continue
                ca, cb = coords[a], coords[b]
                key = next(key for key in ca if key in cb)
                frac, run = t[e - c:e], rows[e - c:e]
                if key == "star":
                    (i1, s1), (i2, s2) = ca[key], cb[key]
                    star_runs[int(i1 if s1 > 0 else i2)].append((s1 + frac * (s2 - s1), run))
                else:
                    for l, (x, h) in _interpolate_on_shared_segment(ca[key], cb[key], frac).items():
                        seg_runs[(key, l)].append((x, h, run))
        self.seg = {key: _joined(runs) for key, runs in seg_runs.items()}
        self.star = {br: _joined(runs) for br, runs in star_runs.items()}
        self.sorted_star: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        for br, (ss, idx) in self.star.items():
            order = np.argsort(ss, kind="stable")
            self.sorted_star[br] = ss[order], idx[order]
        self._sorted_seg: Dict[Tuple[int, int], _SortedSegment] = {}
        self.heights = {
            i: _tooth_heights(g.combed.s, g.combed.depth_cap) for i, g in enumerate(parts)
        }
        # Each part's tooth positions, sorted, and their heights, each with
        # a last entry (inf, 0.0) that no position matches.
        self.teeth = {
            i: (np.array(sorted(h) + [math.inf]), np.array([h[x] for x in sorted(h)] + [0.0]))
            for i, h in self.heights.items()
        }
        self.part_segments = {
            i: sorted(l for (pi, l) in self.seg if pi == i) for i in range(len(parts))
        }

    def sorted_segment(self, key: Tuple[int, int]) -> _SortedSegment:
        """Segment ``key`` sorted for :func:`_nearest_on_segment`, built on
        first call and kept."""
        if key not in self._sorted_seg:
            self._sorted_seg[key] = _sorted_segment(*self.seg[key])
        return self._sorted_seg[key]


def _joined(runs: List[Tuple[np.ndarray, ...]]) -> Tuple[np.ndarray, ...]:
    """Runs of aligned arrays concatenated, column by column."""
    if len(runs) == 1:
        return runs[0]
    return tuple(np.concatenate(cols) for cols in zip(*runs))


def _nearest_on_branch(ss: np.ndarray, idx: np.ndarray, sv: np.ndarray) -> np.ndarray:
    """Tree index of the nearest vertex to each position of ``sv``, on a
    branch sorted by position (``ss`` ascending, ``idx`` stably alongside):
    the least index on a tie, as ``argmin(|ss - sv|)`` over the branch in
    vertex order gives.

    Correctly rounded subtraction is monotone, so the cost falls along the
    sorted branch up to the insertion point of sv and rises after it.  The
    nearest vertices are then one run next to that point; it is found from
    the two neighbours and widened while the cost stays equal, which only
    equal or near-equal positions make it do.
    """
    last = len(ss) - 1
    right = np.minimum(np.searchsorted(ss, sv), last)
    left = np.maximum(right - 1, 0)
    cl, cr = np.abs(ss[left] - sv), np.abs(ss[right] - sv)
    best = np.minimum(cl, cr)
    lo = np.where(cl == best, left, right)
    hi = np.where(cr == best, right, left)
    win = np.minimum(idx[lo], idx[hi])
    for end, step in ((lo, -1), (hi, 1)):
        while True:
            nxt = end + step
            grow = np.flatnonzero((nxt >= 0) & (nxt <= last))
            grow = grow[np.abs(ss[nxt[grow]] - sv[grow]) == best[grow]]
            if len(grow) == 0:
                break
            end[grow] = nxt[grow]
            win[grow] = np.minimum(win[grow], idx[nxt[grow]])
    return win


class _SortedSegment(NamedTuple):
    """A segment's vertices sorted by ``(x, h)``, for
    :func:`_nearest_on_segment`: their coordinates, their positions in the
    segment's vertex order, the same as complex keys ``x + ih`` (numpy
    orders complex numbers by real part, then imaginary), and the running
    minima of ``x + h`` from the last vertex back and of ``h - x`` from the
    first forward."""

    xs: np.ndarray
    hs: np.ndarray
    at: np.ndarray
    keys: np.ndarray
    right: np.ndarray
    left: np.ndarray
    idx: np.ndarray  # tree index by position in vertex order
    size: float  # max |x| + max |h|, which bounds the rounding of the sums


def _sorted_segment(xs: np.ndarray, hs: np.ndarray, idx: np.ndarray) -> _SortedSegment:
    at = np.lexsort((hs, xs))
    sx, sh = xs[at], hs[at]
    keys = np.empty(len(at), dtype=complex)
    keys.real, keys.imag = sx, sh
    right = np.minimum.accumulate((sx + sh)[::-1])[::-1]
    left = np.minimum.accumulate(sh - sx)
    size = float(np.abs(sx).max() + np.abs(sh).max())
    return _SortedSegment(sx, sh, at, keys, right, left, idx, size)


def _nearest_on_segment(
    seg: _SortedSegment, x: np.ndarray, th: np.ndarray, scale: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Cost and tree index of the nearest segment vertex to each query
    ``(x, th)``: the least of ``scale * (|hs - th|)`` at ``xs == x``, else
    ``scale * (th + |xs - x| + hs)``, and the first such vertex in the
    segment's vertex order, as an argmin over every vertex gives, bit for
    bit and ties included.

    Sorted by ``(x, h)``, the vertices at the query's ``x`` are one run,
    ordered by ``h``; those past it cost about ``th - x + (xs + hs)`` and
    those before it ``th + x + (hs - xs)``, so the running minima of those
    keys bound each side's cheapest vertex.  With ``mu`` far above every
    rounding of these sums (``2**-44`` of the coordinates' size), the least
    cost is at most ``U``, the least of the cheapest same-x cost and each
    side's bound plus ``mu``.  Rounding is monotone, so every vertex whose
    scaled cost ties the least has a cost within ``2**-48 U + mu`` of it:
    one run of ``h`` at the query's ``x`` and, on each side, a run from
    the query out to the last vertex whose running minimum is within that
    reach.  Those candidates alone are costed with the formula above, a
    block of ``_MATCH_BLOCK_CELLS`` at a time.
    """
    m, k = len(seg.xs), len(x)
    mu = 2.0 ** -44 * 4.0 * (1.0 + seg.size + float(np.abs(x).max()) + float(np.abs(th).max()))
    l0 = np.searchsorted(seg.xs, x, "left")
    r0 = np.searchsorted(seg.xs, x, "right")
    query = np.empty(k, dtype=complex)
    query.real, query.imag = x, th
    i = np.searchsorted(seg.keys, query)
    same = np.full(k, math.inf)
    for j in (i - 1, i):
        on = (j >= l0) & (j < r0)
        same[on] = np.minimum(same[on], np.abs(seg.hs[j[on]] - th[on]))
    up = np.full(k, math.inf)
    up[r0 < m] = (th - x)[r0 < m] + seg.right[r0[r0 < m]]
    down = np.full(k, math.inf)
    down[l0 > 0] = (th + x)[l0 > 0] + seg.left[l0[l0 > 0] - 1]
    reach = np.minimum(same, np.minimum(up, down) + mu)
    reach += 2.0 ** -48 * reach + mu + 2.0 ** -1074 / scale
    query.imag = th - reach - mu
    s0 = np.maximum(np.searchsorted(seg.keys, query, "left"), l0)
    query.imag = th + reach + mu
    s1 = np.minimum(np.searchsorted(seg.keys, query, "right"), r0)
    r1 = np.maximum(np.searchsorted(seg.right, reach - (th - x) + 2.0 * mu, "right"), r0)
    l1 = np.minimum(np.searchsorted(-seg.left, (th + x) - reach - 2.0 * mu, "left"), l0)
    starts = np.column_stack([s0, r0, l1]).ravel()
    sizes = np.maximum(np.column_stack([s1, r1, l0]).ravel() - starts, 0)
    per_query = sizes.reshape(k, 3).sum(axis=1)
    ends = np.cumsum(per_query)
    cost = np.empty(k)
    cand = np.empty(k, dtype=np.intp)
    lo = 0
    while lo < k:
        done = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, done + _MATCH_BLOCK_CELLS, "right")))
        n = sizes[3 * lo : 3 * hi]
        owner = np.repeat(np.arange(hi - lo), per_query[lo:hi])
        p = np.repeat(starts[3 * lo : 3 * hi] - np.cumsum(n) + n, n) + np.arange(int(n.sum()))
        xv, tv = x[lo:hi][owner], th[lo:hi][owner]
        xs, hs = seg.xs[p], seg.hs[p]
        c = scale * np.where(xs == xv, np.abs(hs - tv), tv + np.abs(xs - xv) + hs)
        heads = np.cumsum(per_query[lo:hi]) - per_query[lo:hi]
        least = np.minimum.reduceat(c, heads)
        first = np.minimum.reduceat(np.where(c == least[owner], seg.at[p], m), heads)
        cost[lo:hi] = least
        cand[lo:hi] = seg.idx[first]
        lo = hi
    return cost, cand


def _matches(src: _CandidateIndex, dst: _CandidateIndex) -> np.ndarray:
    """Tree index in ``dst`` of the nearest partner of every ``src`` vertex.

    A star vertex takes the closest position on its branch; a part vertex
    takes, over the segments it lies on, the least ``(cost, vid)`` of the
    per-segment nearest vertices (first minimum within a segment), where a
    segment the ball cut removed from ``dst`` is reached through its corners
    (:func:`_routed_nearest`).  The wedge goes to the wedge, and a vertex
    without coordinates to the wedge or, lacking one, to vertex 0.  Both
    are sorted searches, with the partners and ties of an argmin over
    every vertex: a star branch by position (:func:`_nearest_on_branch`),
    a segment by ``(x, h)`` (:func:`_nearest_on_segment`).  A segment with
    at most ``_MATCH_BROADCAST_CELLS`` query-vertex pairs is costed whole,
    by that argmin.  A tie between segments is broken by vertex id, read
    one at a time (:meth:`~treegh.tree.MetricTree._name`), so a sample's
    ids are never built.
    """
    name = dst.tree._name
    cost = np.full(src.tree.n, math.inf)
    partner = np.full(src.tree.n, -1, dtype=np.intp)

    def offer(rows: np.ndarray, c: np.ndarray, cand: np.ndarray) -> None:
        held = cost[rows]
        take = c < held
        for k in np.flatnonzero(c == held):
            old = partner[rows[k]]
            take[k] = old < 0 or name(cand[k]) < name(old)
        cost[rows[take]] = c[take]
        partner[rows[take]] = cand[take]

    for br, (sv, rows) in src.star.items():
        partner[rows] = _nearest_on_branch(*dst.sorted_star[br], sv)
    for (part, l), (x, h, rows) in src.seg.items():
        if (part, l) not in dst.seg:
            routed = [
                _routed_nearest(part, l, xv, hv, dst) for xv, hv in zip(x.tolist(), h.tolist())
            ]
            c, cand = zip(*routed)
            offer(rows, np.array(c), np.array(cand, dtype=np.intp))
            continue
        scale = dst.parts[part].combed.seg_scale[l]
        teeth, tall = dst.teeth[part]
        at = np.minimum(np.searchsorted(teeth, x), len(teeth) - 1)
        target_h = np.minimum(h, np.where(teeth[at] == x, tall[at], 0.0))
        xs, hs, idx = dst.seg[(part, l)]
        if len(x) * len(xs) > _MATCH_BROADCAST_CELLS:
            offer(rows, *_nearest_on_segment(dst.sorted_segment((part, l)), x, target_h, scale))
            continue
        xb, tb = x[:, None], target_h[:, None]
        c = scale * np.where(xs == xb, np.abs(hs - tb), tb + np.abs(xs - xb) + hs)
        j = np.argmin(c, axis=1)
        offer(rows, c[np.arange(len(j)), j], idx[j])
    partner[partner < 0] = dst.fallback
    if src.wedge:
        partner[src.fallback] = dst.fallback
    return partner


def _routed_nearest(
    part: int, l: int, x: float, h: float, dst: _CandidateIndex
) -> Tuple[float, int]:
    """Least ``(cost, vid)`` vertex of a part, as (cost, tree index), when
    the home segment has no vertices left (the ball cut it away entirely):
    route through the segment corners."""
    geo = dst.parts[part].combed
    seg = geo.segments[l]
    scale = geo.seg_scale[l]
    toa = scale * (h + x)
    tob = scale * (h + 1.0 - x)
    from_a, from_b = geo.corner_row(seg.a), geo.corner_row(seg.b)
    best: Optional[Tuple[float, str, int]] = None
    for l2 in dst.part_segments[part]:
        xs, hs, idx = dst.seg[(part, l2)]
        seg2 = geo.segments[l2]
        s2 = geo.seg_scale[l2]
        ca = s2 * (hs + xs)
        cb = s2 * (hs + 1.0 - xs)
        ia2, ib2 = geo.tree.index(seg2.a), geo.tree.index(seg2.b)
        daa, dab = float(from_a[ia2]), float(from_a[ib2])
        dba, dbb = float(from_b[ia2]), float(from_b[ib2])
        cost = np.minimum(
            np.minimum(toa + daa + ca, toa + dab + cb),
            np.minimum(tob + dba + ca, tob + dbb + cb),
        )
        j = int(np.argmin(cost))
        cand = (float(cost[j]), dst.tree._name(idx[j]), int(idx[j]))
        if best is None or cand < best:
            best = cand
    if best is None:
        return (math.inf, dst.fallback)
    return best[0], best[2]


def _composite_correspondence(ia: _CandidateIndex, ib: _CandidateIndex) -> Correspondence:
    """Each vertex of either sample paired with its nearest partner in the
    other, indexed in the sample trees' vertex order."""
    to_b, to_a = _matches(ia, ib), _matches(ib, ia)
    pairs = np.concatenate([
        np.column_stack([np.arange(len(to_b)), to_b]),
        np.column_stack([to_a, np.arange(len(to_a))]),
    ])
    return Correspondence.from_pairs(pairs)


@dataclass(frozen=True)
class ContinuityRow:
    label_a: str
    label_b: str
    u: Tuple[float, float]
    k: int
    hi: float
    bound: float
    margin: float
    ok: bool


@dataclass(frozen=True)
class ContinuityReport:
    rows: Tuple[ContinuityRow, ...]
    eps: float
    tol: float


def continuity_scan(
    cfg: EmbedConfig,
    grid: Sequence[Tuple[str, int]],
    adjacency: Sequence[Tuple[int, int]],
    strict: bool = True,
) -> ContinuityReport:
    """Certify GH upper bounds between adjacent cells against moduli.

    For each adjacency pair (indices into ``grid``, same fiber) the scan
    computes a certified upper bound ``hi`` on the Gromov-Hausdorff
    distance between the two assembled trees and the analytic modulus
    (comb + ball + star terms); ``hi <= bound + 2 eps + tol`` must hold.
    Each tree is subdivided once at ``eps``; ``hi`` is half the distortion
    of the composite correspondence, which pairs every sample vertex with
    its nearest partner in the other tree's sample, plus ``eps``.  As in
    :func:`injectivity_scan`, the cells share the stages of their endpoint
    parts, each built once per call from its own inputs, and the parts
    themselves from (i, phi(u), sigma_i(u)); the basepoint's reach and the
    segment corners' rows belong to the comb-replaced stage, so every part
    of one (i, phi) shares them.  Every cell's tree is assembled up front,
    in grid order.  Each cell's sample and its matching index are built
    once, in one pass over the tree's edges from the cell's coordinates,
    and reused by all of the cell's pairs.

    No sample's distance matrix is filled and no row is kept between
    pairs.  Each pair, in order, builds its correspondence and takes its
    upper bound (:func:`~treegh.gh.gh_upper_bound`); with no fill on
    either sample, :func:`~treegh.gh.distortion` plans the rows that can
    hold the largest mismatch and reads them from depth rows, which hold
    the samples' own distances.  A cell's sample, its index and the cell
    go after its last pair.  A degenerate pair, such as a cell paired with
    itself, whose entries are all 0, reads every row from depth rows, a
    block at a time; rows holding more distances than a 2-GiB fill are
    refused before any is read.  ``hi`` is bit for bit what the full
    distortion product gives.

    Args:
        cfg: embedding configuration.
        grid: cells (label, k) avoiding marked points.
        adjacency: index pairs into ``grid`` with equal fiber index.
        strict: raise :class:`ScanError` on a bound violation.

    Returns:
        A :class:`ContinuityReport` with one row per pair, in input order.

    Raises:
        EmbedConfigError: a grid cell sits on a marked point.
        ValueError: an adjacency pair holds an index outside ``grid`` or
            joins cells of different fibers, raised before any cell is
            assembled; or a pair's planned rows exceed the read budget.
        ScanError: a bound violation, when ``strict``.
    """
    _refuse_marked_cells(cfg, grid)
    for ia, ib in adjacency:
        for i in (ia, ib):
            if not 0 <= i < len(grid):
                raise ValueError(
                    "adjacency pair (%r, %r): index %r outside the %d grid cells"
                    % (ia, ib, i, len(grid))
                )
        if grid[ia][1] != grid[ib][1]:
            raise ValueError(
                "adjacency pair (%r, %r): adjacent cells must share the fiber "
                "index, got %d and %d" % (ia, ib, grid[ia][1], grid[ib][1])
            )
    stages = _stages(cfg)
    cells: List[Optional[Tuple[_Cell, MetricTree]]] = []
    for lab, k in grid:
        cell = _cell(cfg, lab, k, stages)
        cells.append((cell, cell.wedge()))
    del stages  # each part is then freed with the last cell that holds it
    last_use = {i: pos for pos, pair in enumerate(adjacency) for i in pair}
    samples: Dict[int, _CandidateIndex] = {}
    rows: List[ContinuityRow] = []
    for pos, (ia, ib) in enumerate(adjacency):
        for i in (ia, ib):
            if i not in samples:
                cell, tree = cells[i]
                samples[i] = _CandidateIndex(tree, cell.coords(), cell.parts, True, cfg.eps)
                del cell, tree
        x, y = samples[ia].tree, samples[ib].tree
        corr = _composite_correspondence(samples[ia], samples[ib])
        hi = gh_upper_bound(x, y, corr) + cfg.eps
        del corr, x, y
        bound = _analytic_bound(cells[ia][0], cells[ib][0])
        for i in (ia, ib):
            if last_use[i] == pos and i in samples:
                del samples[i]
                cells[i] = None
        (la, ka), lb = grid[ia], grid[ib][0]
        margin = bound + 2.0 * cfg.eps + cfg.tol - hi
        rows.append(ContinuityRow(
            label_a=la, label_b=lb, u=cfg.coords[la], k=ka,
            hi=hi, bound=bound, margin=margin, ok=margin >= 0.0,
        ))
    if strict:
        bad = [r for r in rows if not r.ok]
        if bad:
            raise ScanError(
                "continuity bound violated for %d pairs, worst margin %.3g"
                % (len(bad), min(r.margin for r in bad))
            )
    return ContinuityReport(rows=tuple(rows), eps=cfg.eps, tol=cfg.tol)


# -- replacement paths --------------------------------------------------------


@dataclass(frozen=True)
class PathStep:
    s: float
    tree: MetricTree
    hi: Optional[float]
    bound: Optional[float]


def replacement_path(
    x: MetricTree,
    s_grid: Sequence[float],
    eps: float = 2.0 ** -6,
    depth_cap: int = 8,
) -> List[PathStep]:
    """Deform a tree by comb-replacing its unit segments at each parameter.

    Every entry of the sorted ``s_grid`` produces the tree Y(s) whose unit
    segments are combs of parameter s (s = 0 reproduces the input tree's
    metric on its vertices); consecutive entries get a certified GH upper
    bound ``hi`` together with the comb modulus between the parameters.
    As in :func:`continuity_scan`, ``hi`` is half the distortion of the
    composite correspondence between the two eps-samples, plus ``eps``.

    Returns:
        One :class:`PathStep` per grid entry; the first has no predecessor,
        so its ``hi`` and ``bound`` are ``None``.

    Raises:
        ValueError: ``eps`` is not positive and finite, ``s_grid`` is not
            sorted, or an entry lies outside [0, 1].
    """
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError("eps must be positive and finite, got %r" % (eps,))
    svals = [float(s) for s in s_grid]
    if svals != sorted(svals):
        raise ValueError("s_grid must be sorted ascending")
    for s in svals:
        if not (0.0 <= s <= 1.0):
            raise ValueError("s values must lie in [0, 1], got %r" % s)
    # replace_edges keeps every vertex whose degree is not 2.
    basepoint = next(v for v in x.vertices if x.degree(v) != 2)
    steps: List[PathStep] = []
    prev_sub: Optional[_CandidateIndex] = None
    prev_s = 0.0
    stages = _Stages((x,), (basepoint,), depth_cap)  # one chop for every s
    for s in svals:
        geom = stages.part(0, s, math.inf)
        coords = {v: {0: c} for v, c in geom.coords.items()}
        hi = bound = None
        cur_sub = _CandidateIndex(geom.tree, coords, [geom], False, eps)
        if prev_sub is not None:
            corr = _composite_correspondence(prev_sub, cur_sub)
            hi = gh_upper_bound(prev_sub.tree, cur_sub.tree, corr) + eps
            bound = _comb_modulus_bound(prev_s, s)
        steps.append(PathStep(s=s, tree=geom.tree, hi=hi, bound=bound))
        prev_sub, prev_s = cur_sub, s
    return steps
