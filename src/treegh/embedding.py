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

Internally an assembled cell is an atlas: the tree, its parts and the comb
or star coordinates of every vertex.  The coordinates are built lazily, on
first read, as a tree's distance matrix is; only the continuity matcher
reads them, so fingerprinting never pays for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .metric import FiniteMetricSpace
from .tree import (
    MetricTree,
    ReplacementEntry,
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
    _star_parts,
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
        branches: star branch count used by the parameter encoding (>= 3).
        eps: sampling resolution for star branches and GH intervals.
        tol: validation tolerance.
        depth_cap: comb generation cap.
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
        for t, bp in zip(self.trees, self.basepoints):
            if not t.has_vertex(bp):
                raise EmbedConfigError("basepoint %r missing from its tree" % bp)
        if self.m < 1:
            raise EmbedConfigError("m must be at least 1")
        if self.branches < 3:
            raise EmbedConfigError("need at least 3 star branches")
        if not self.eps > 0:
            raise EmbedConfigError("eps must be positive")
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
                m=int(doc.get("m", 3)),
                branches=int(doc.get("branches", 3)),
                eps=float(doc.get("eps", 2.0 ** -6)),
                tol=float(doc.get("tol", 1e-9)),
                depth_cap=int(doc.get("depth_cap", 8)),
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
    iu = u if isinstance(u, str) else str(u)
    row = cfg.h_space.dist[cfg.h_space.index(iu)]
    dv = np.array([row[cfg.h_space.index(v)] for v in cfg.marked])
    sigma = []
    for i in range(len(cfg.marked)):
        other = float(np.min(np.delete(dv, i)))
        own = float(dv[i])
        if other == 0.0:
            sigma.append(0.0)
        elif own == 0.0:
            sigma.append(math.inf)
        else:
            sigma.append(other / own)
    phi = float(dv.min()) / (2.0 * cfg.h_space.diameter())
    return ScalarFields(sigma=tuple(sigma), phi=phi, xi=32.0 * phi)


# -- assembly -----------------------------------------------------------------


class _PartGeometry:
    """One endpoint tree, comb-replaced and ball-cut, with comb coordinates.

    ``coords`` maps each vertex of the cut tree to the comb coordinates it
    carries: a dict segment-index -> (x, h) in the unit comb (corner
    vertices belong to every incident segment).
    """

    def __init__(
        self,
        base: MetricTree,
        basepoint: str,
        s: float,
        depth_cap: int,
        radius: float,
    ):
        self.basepoint = basepoint
        self.s = s
        self.depth_cap = depth_cap
        self.radius = radius
        dec = decompose_deg2(base, 1.0)
        self.host = dec.tree
        self.segments = dec.segments
        self.seg_scale: List[float] = []
        plan: List[ReplacementEntry] = []
        combs: List[MetricTree] = []
        for seg in dec.segments:
            scale = min(seg.length, 1.0)
            comb = comb_tree(CombParams(s=s, scale=scale, depth_cap=depth_cap))
            plan.append(
                ReplacementEntry(
                    a=seg.a, b=seg.b, tree=comb, alpha="spine:0.0", beta="spine:1.0"
                )
            )
            combs.append(comb)
            self.seg_scale.append(scale)
        self.replaced = replace_edges(self.host, plan) if plan else self.host
        self.truncation = max(
            (c.metadata["truncation_error"] for c in combs), default=0.0
        )
        self.reach = self.replaced.eccentricity(basepoint)
        self._corner_rows: Dict[str, np.ndarray] = {}

        cc: Dict[str, Dict[int, Tuple[float, float]]] = {}
        for l, (entry, comb) in enumerate(zip(plan, combs)):
            prefix = "R%d." % l
            for cid, (x, h) in comb.metadata["points"].items():
                if cid == entry.alpha:
                    rid = entry.a
                elif cid == entry.beta:
                    rid = entry.b
                else:
                    rid = prefix + cid
                cc.setdefault(rid, {})[l] = (float(x), float(h))

        self.tree = closed_ball_subtree(self.replaced, basepoint, radius)
        if self.tree is not self.replaced:
            edge_len = {(a, b): w for a, b, w in self.replaced.edges}
            for cid, (a, b, off) in self.tree.metadata.get("inserted", {}).items():
                cc[cid] = _interpolate_on_shared_segment(
                    cc.get(a, {}), cc.get(b, {}), off / edge_len[(a, b)]
                )
        self.coords: Dict[str, Dict[int, Tuple[float, float]]] = {
            v: cc.get(v, {}) for v in self.tree.vertices
        }

    def corner_row(self, v: str) -> np.ndarray:
        """Distances from segment corner v in the comb-replaced tree, cached."""
        row = self._corner_rows.get(v)
        if row is None:
            row = self._corner_rows[v] = self.replaced.row(v)
        return row


def _interpolate_on_shared_segment(
    la: Dict[int, Tuple[float, float]], lb: Dict[int, Tuple[float, float]], t: float
) -> Dict[int, Tuple[float, float]]:
    """Comb coordinates at fraction t of an edge from a vertex with segment
    coordinates la to one with lb, on the lowest segment both carry (empty
    when they share none)."""
    common = sorted(set(la) & set(lb))
    if not common:
        return {}
    l = common[0]
    (xa, ha), (xb, hb) = la[l], lb[l]
    return {l: (xa + t * (xb - xa), ha + t * (hb - ha))}


_STAR_TIP = "branch:0:1.0"  # the star's basepoint: the tip of its unit branch

# The fields at a label and its endpoint trees comb-replaced and ball-cut for
# them: the part of a cell's assembly that does not depend on the fiber.
_LabelParts = Tuple[ScalarFields, List[_PartGeometry]]


class _Atlas:
    """An assembled tree together with coordinates for every vertex.

    ``coords[vid]`` maps a part key (part index, or "star") to that part's
    coordinate record; only the wedge vertex carries several keys.  Unless
    given, they are built from the parts and the star's ``(branch,
    parameter)`` points on first read, since only the continuity matcher
    reads them.
    """

    def __init__(
        self,
        tree: MetricTree,
        parts: List[_PartGeometry],
        wedge: Optional[str],
        fields: Optional[ScalarFields] = None,
        rho: Optional[Tuple[float, ...]] = None,
        coords: Optional[Dict[str, dict]] = None,
        star_points: Optional[Dict[str, Tuple[int, float]]] = None,
    ):
        self.tree = tree
        self.parts = parts
        self.wedge = wedge
        self.fields = fields
        self.rho = rho
        self.star_points = star_points
        self._coords = coords

    @property
    def coords(self) -> Dict[str, dict]:
        if self._coords is None:
            # The renaming of wedge_sum: part i's vertices become "P<i>."
            # + vid, the star is the last part, and basepoints the wedge.
            coords: Dict[str, dict] = {}
            for i, g in enumerate(self.parts):
                prefix = "P%d." % i
                for v in g.tree.vertices:
                    wid = self.wedge if v == g.basepoint else prefix + v
                    coords.setdefault(wid, {})[i] = g.coords[v]
            spref = "P%d." % len(self.parts)
            for v, point in self.star_points.items():
                wid = self.wedge if v == _STAR_TIP else spref + v
                coords.setdefault(wid, {})["star"] = point
            self._coords = coords
        return self._coords


def _assemble(
    cfg: EmbedConfig,
    u: str,
    k: int,
    by_label: Optional[Dict[str, _LabelParts]] = None,
) -> _Atlas:
    # by_label holds the parts of labels assembled before; the cell adds
    # its own there, for the other fibers of u.
    if not (1 <= k <= cfg.m):
        raise ValueError("fiber index k=%r outside 1..%d" % (k, cfg.m))
    cfg.h_space.index(u)
    if u in cfg.marked:
        i = cfg.marked.index(u)
        return _Atlas(
            tree=cfg.trees[i], parts=[], wedge=None,
            fields=scalar_fields(cfg, u), rho=None,
        )
    if by_label is None:
        by_label = {}
    if u not in by_label:
        f = scalar_fields(cfg, u)
        by_label[u] = f, [
            _PartGeometry(cfg.trees[i], cfg.basepoints[i], f.phi, cfg.depth_cap, f.sigma[i])
            for i in range(len(cfg.marked))
        ]
    f, parts = by_label[u]
    a = rho_embed(cfg.coords[u], k, cfg.m, cfg.branches)
    # The star goes into the wedge as bare lists; the wedge validates it.
    s_vertices, s_edges, s_points = _star_parts(StarParams(a=a, scale=f.xi, eps=cfg.eps))
    w = _wedge(
        [(g.tree.vertices, g.tree.edges, g.tree.labels, g.basepoint) for g in parts]
        + [(s_vertices, s_edges, {}, _STAR_TIP)]
    )
    w.metadata.update(
        {
            "generator": "embed",
            "u": u,
            "k": k,
            "phi": f.phi,
            "xi": f.xi,
            "sigma": list(f.sigma),
            "a": list(a),
            "truncation_error": max(g.truncation for g in parts),
        }
    )
    return _Atlas(
        tree=w, parts=parts, wedge="p", fields=f, rho=a, star_points=s_points
    )


def build_F(cfg: EmbedConfig, u: str, k: int) -> MetricTree:
    """Assemble the tree of grid cell (u, k).

    At a marked point v_i this returns the endpoint tree X_i itself.
    Elsewhere every endpoint tree is comb-replaced at tooth size phi(u),
    cut to the ball of radius sigma_i(u) about its basepoint, and wedged
    with the parameter star of scale xi(u) attached at its unit branch tip.

    Args:
        cfg: embedding configuration.
        u: grid label.
        k: fiber index in 1..m.

    Returns:
        A validated :class:`MetricTree`.
    """
    return _assemble(cfg, u, k).tree


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
    comps = deg2_components(t)
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


@dataclass(frozen=True)
class InjectivityReport:
    rows: Tuple[InjectivityRow, ...]
    min_separation: float
    k_star: int


def injectivity_scan(
    cfg: EmbedConfig, grid: Sequence[Tuple[str, int]]
) -> InjectivityReport:
    """Fingerprint every grid cell and certify pairwise distinctness.

    Each cell (u, k) must avoid the marked points.  The recovered
    coefficients must match the parameter encoding within 1e-6, all
    fingerprints must be pairwise separated in the sup-distance, and a
    fiber k* must exist whose fingerprints collide with no endpoint tree
    (the smallest such k* is reported).

    The comb-replaced, ball-cut endpoint trees depend on the label u, not
    on the fiber k, so each label's parts are built once per call and
    shared by all of its fibers; only the star and the wedge are built per
    cell.  Every row equals what :func:`build_F` and
    :func:`star_fingerprint` give for that cell alone.

    Raises:
        EmbedConfigError: a grid cell sits on a marked point.
        ScanError: recovery failure, a fingerprint collision, or no
            collision-free fiber.
    """
    for lab, k in grid:
        if lab in cfg.marked:
            raise EmbedConfigError(
                "grid cell %r is a marked point; the scan domain excludes them" % lab
            )
    rows: List[InjectivityRow] = []
    by_label: Dict[str, _LabelParts] = {}
    for lab, k in grid:
        atlas = _assemble(cfg, lab, k, by_label)
        fp = star_fingerprint(atlas.tree, tol=cfg.tol)
        expected = atlas.rho
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
        rows.append(
            InjectivityRow(
                label=lab, u=cfg.coords[lab], k=k, fingerprint=fp, recovery_error=err
            )
        )

    min_sep = math.inf
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            sep = tau(rows[i].fingerprint.a_hat, rows[j].fingerprint.a_hat)
            min_sep = min(min_sep, sep)
            if sep <= 1e-12:
                raise ScanError(
                    "fingerprint collision between cells (%s, %d) and (%s, %d)"
                    % (rows[i].label, rows[i].k, rows[j].label, rows[j].k)
                )
    if not rows:
        raise ScanError("empty scan grid")

    endpoint_fps = []
    for t in cfg.trees:
        try:
            endpoint_fps.append(star_fingerprint(t, tol=cfg.tol))
        except FingerprintError:
            endpoint_fps.append(None)
    k_star = 0
    for k in range(1, cfg.m + 1):
        cells_k = [r.fingerprint for r in rows if r.k == k]
        collide = False
        for fp in endpoint_fps:
            if fp is None:
                continue
            for cell in cells_k:
                if (
                    len(cell.a_hat) == len(fp.a_hat)
                    and abs(cell.xi_hat - fp.xi_hat) <= cfg.tol
                    and tau(cell.a_hat, fp.a_hat) <= cfg.tol
                ):
                    collide = True
        if not collide:
            k_star = k
            break
    if k_star == 0:
        raise ScanError("every fiber collides with an endpoint fingerprint")
    return InjectivityReport(
        rows=tuple(rows),
        min_separation=float(min_sep) if rows else 0.0,
        k_star=k_star,
    )


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


def _analytic_bound(a: _Atlas, b: _Atlas) -> float:
    """Sum of the comb, ball and star moduli between two assembled cells."""
    comb = _comb_modulus_bound(a.fields.phi, b.fields.phi)
    ball = 0.0
    for ga, gb in zip(a.parts, b.parts):
        reach = max(ga.reach, gb.reach)
        ball = max(ball, abs(min(ga.radius, reach) - min(gb.radius, reach)))
    xa, xb = a.fields.xi, b.fields.xi
    star = 2.0 * max(xa, xb) * tau(a.rho, b.rho) + 2.0 * abs(xa - xb)
    return comb + ball + star


class _CandidateIndex:
    """An atlas with its vertices grouped for matching: per (part, segment)
    the comb coordinates ``(xs, hs)`` and per star branch the positions
    ``ss``, each with the vertices' tree indices ``idx`` in vertex order.
    ``fallback`` is the wedge's index, or 0 without a wedge."""

    def __init__(self, atlas: _Atlas):
        self.atlas = atlas
        self.fallback = atlas.tree.index(atlas.wedge) if atlas.wedge is not None else 0
        seg: Dict[Tuple[int, int], List[Tuple[float, float, int]]] = {}
        star: Dict[int, List[Tuple[float, int]]] = {}
        for n, vid in enumerate(atlas.tree.vertices):
            for key, val in atlas.coords[vid].items():
                if key == "star":
                    br, sv = val
                    star.setdefault(int(br), []).append((float(sv), n))
                else:
                    for l, (x, h) in val.items():
                        seg.setdefault((key, l), []).append((x, h, n))
        self.seg = {
            key: (
                np.array([x for x, _, _ in rows]),
                np.array([h for _, h, _ in rows]),
                np.array([n for _, _, n in rows], dtype=np.intp),
            )
            for key, rows in seg.items()
        }
        self.star = {
            br: (
                np.array([s for s, _ in rows]),
                np.array([n for _, n in rows], dtype=np.intp),
            )
            for br, rows in star.items()
        }
        self.heights = {
            i: _tooth_heights(g.s, g.depth_cap) for i, g in enumerate(atlas.parts)
        }
        self.part_segments = {
            i: sorted(l for (pi, l) in self.seg if pi == i)
            for i in range(len(atlas.parts))
        }


def _matches(src: _CandidateIndex, dst: _CandidateIndex) -> np.ndarray:
    """Tree index in ``dst`` of the nearest partner of every ``src`` vertex.

    A star vertex takes the closest position on its branch; a part vertex
    takes, over the segments it lies on, the least ``(cost, vid)`` of the
    per-segment nearest vertices (first minimum within a segment), where a
    segment the ball cut removed from ``dst`` is reached through its corners
    (:func:`_routed_nearest`).  The wedge goes to the wedge, and a vertex
    without coordinates to the wedge or, lacking one, to vertex 0.  Each
    source group is one broadcast cost matrix.
    """
    a, b = src.atlas, dst.atlas
    names = b.tree.vertices
    cost = np.full(a.tree.n, math.inf)
    partner = np.full(a.tree.n, -1, dtype=np.intp)

    def offer(rows: np.ndarray, c: np.ndarray, cand: np.ndarray) -> None:
        held = cost[rows]
        take = c < held
        for k in np.flatnonzero(c == held):
            old = partner[rows[k]]
            take[k] = old < 0 or names[cand[k]] < names[old]
        cost[rows[take]] = c[take]
        partner[rows[take]] = cand[take]

    for br, (sv, rows) in src.star.items():
        ss, idx = dst.star[br]
        partner[rows] = idx[np.argmin(np.abs(ss[None, :] - sv[:, None]), axis=1)]
    for (part, l), (x, h, rows) in src.seg.items():
        if (part, l) not in dst.seg:
            routed = [
                _routed_nearest(part, l, xv, hv, dst) for xv, hv in zip(x.tolist(), h.tolist())
            ]
            c, cand = zip(*routed)
            offer(rows, np.array(c), np.array(cand, dtype=np.intp))
            continue
        scale = b.parts[part].seg_scale[l]
        heights = dst.heights[part]
        target_h = np.minimum(h, [heights.get(xv, 0.0) for xv in x.tolist()])[:, None]
        xs, hs, idx = dst.seg[(part, l)]
        c = scale * np.where(
            xs == x[:, None], np.abs(hs - target_h), target_h + np.abs(xs - x[:, None]) + hs
        )
        j = np.argmin(c, axis=1)
        offer(rows, c[np.arange(len(j)), j], idx[j])
    partner[partner < 0] = dst.fallback
    if a.wedge is not None:
        partner[src.fallback] = dst.fallback
    return partner


def _routed_nearest(
    part: int, l: int, x: float, h: float, dst: _CandidateIndex
) -> Tuple[float, int]:
    """Least ``(cost, vid)`` vertex of a part, as (cost, tree index), when
    the home segment has no vertices left (the ball cut it away entirely):
    route through the segment corners."""
    atlas = dst.atlas
    geo = atlas.parts[part]
    seg = geo.segments[l]
    scale = geo.seg_scale[l]
    toa = scale * (h + x)
    tob = scale * (h + 1.0 - x)
    from_a, from_b = geo.corner_row(seg.a), geo.corner_row(seg.b)
    best: Optional[Tuple[float, str]] = None
    for l2 in dst.part_segments[part]:
        xs, hs, idx = dst.seg[(part, l2)]
        seg2 = geo.segments[l2]
        s2 = geo.seg_scale[l2]
        ca = s2 * (hs + xs)
        cb = s2 * (hs + 1.0 - xs)
        ia2, ib2 = geo.replaced.index(seg2.a), geo.replaced.index(seg2.b)
        daa, dab = float(from_a[ia2]), float(from_a[ib2])
        dba, dbb = float(from_b[ia2]), float(from_b[ib2])
        cost = np.minimum(
            np.minimum(toa + daa + ca, toa + dab + cb),
            np.minimum(tob + dba + ca, tob + dbb + cb),
        )
        j = int(np.argmin(cost))
        cand = (float(cost[j]), atlas.tree.vertices[idx[j]])
        if best is None or cand < best:
            best = cand
    if best is None:
        return (math.inf, dst.fallback)
    return best[0], atlas.tree.index(best[1])


def _subdivide_atlas(atlas: _Atlas, eps: float) -> _Atlas:
    s = subdivide(atlas.tree, eps)
    if s is atlas.tree:
        return atlas
    edge_len = {(a, b): w for a, b, w in atlas.tree.edges}
    coords = dict(atlas.coords)
    for sid, (a, b, off) in s.metadata["inserted"].items():
        ca, cb = coords[a], coords[b]
        common = [key for key in ca if key in cb]
        key = common[0]
        t = off / edge_len[(a, b)]
        if key == "star":
            (i1, s1), (i2, s2) = ca[key], cb[key]
            br = i1 if s1 > 0 else i2
            coords[sid] = {"star": (br, s1 + t * (s2 - s1))}
        else:
            coords[sid] = {key: _interpolate_on_shared_segment(ca[key], cb[key], t)}
    return _Atlas(
        tree=s, coords=coords, parts=atlas.parts, wedge=atlas.wedge,
        fields=atlas.fields, rho=atlas.rho,
    )


def _sample(atlas: _Atlas, eps: float) -> _CandidateIndex:
    """The atlas subdivided at ``eps``, indexed for matching."""
    return _CandidateIndex(_subdivide_atlas(atlas, eps))


def _composite_correspondence(ia: _CandidateIndex, ib: _CandidateIndex) -> Correspondence:
    """Each vertex of either subdivided atlas paired with its nearest partner
    in the other, indexed in the atlas trees' vertex order."""
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
    its nearest atlas partner in the other tree, plus ``eps``.  Each cell's
    sample and its matching index are built once and reused by all of the
    cell's pairs, then freed, with the sample's distance matrix, after the
    cell's last pair, so only cells with pairs still to come hold a sample.

    Args:
        cfg: embedding configuration.
        grid: cells (label, k) avoiding marked points.
        adjacency: index pairs into ``grid`` with equal fiber index.
        strict: raise :class:`ScanError` on a bound violation.

    Returns:
        A :class:`ContinuityReport` with one row per pair, in input order.
    """
    for lab, k in grid:
        if lab in cfg.marked:
            raise EmbedConfigError(
                "grid cell %r is a marked point; the scan domain excludes them" % lab
            )
    atlases: List[Optional[_Atlas]] = [_assemble(cfg, lab, k) for lab, k in grid]
    last_use = {i: pos for pos, pair in enumerate(adjacency) for i in pair}
    samples: Dict[int, _CandidateIndex] = {}

    rows: List[ContinuityRow] = []
    for pos, (ia, ib) in enumerate(adjacency):
        la, ka = grid[ia]
        lb, kb = grid[ib]
        if ka != kb:
            raise ValueError(
                "adjacent cells must share the fiber index, got %d and %d" % (ka, kb)
            )
        for i in (ia, ib):
            if i not in samples:
                samples[i] = _sample(atlases[i], cfg.eps)
        sa, sb = samples[ia], samples[ib]
        corr = _composite_correspondence(sa, sb)
        hi = gh_upper_bound(sa.atlas.tree, sb.atlas.tree, corr) + cfg.eps
        bound = _analytic_bound(atlases[ia], atlases[ib])
        for i in (ia, ib):
            if last_use[i] == pos:
                samples.pop(i, None)
                atlases[i] = None
        margin = bound + 2.0 * cfg.eps + cfg.tol - hi
        rows.append(
            ContinuityRow(
                label_a=la, label_b=lb, u=cfg.coords[la], k=ka,
                hi=hi, bound=bound, margin=margin, ok=margin >= 0.0,
            )
        )
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
    """
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
    for s in svals:
        geom = _PartGeometry(x, basepoint, s, depth_cap, math.inf)
        atlas = _Atlas(
            tree=geom.tree,
            coords={v: {0: geom.coords[v]} for v in geom.tree.vertices},
            parts=[geom],
            wedge=None,
        )
        hi = bound = None
        cur_sub = _sample(atlas, eps)
        if prev_sub is not None:
            corr = _composite_correspondence(prev_sub, cur_sub)
            hi = gh_upper_bound(prev_sub.atlas.tree, cur_sub.atlas.tree, corr) + eps
            bound = _comb_modulus_bound(prev_s, s)
        steps.append(PathStep(s=s, tree=atlas.tree, hi=hi, bound=bound))
        prev_sub, prev_s = cur_sub, s
    return steps
