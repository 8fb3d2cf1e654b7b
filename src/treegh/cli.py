"""Command-line front end: tree construction, GH bounds, lab scans.

Exit codes: 0 on success, 2 when an input fails validation or a scan
assertion fails, 1 on usage errors.  Reports are deterministic: identical
arguments produce byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import List, Optional, Tuple

from .metric import MetricValidationError
from .tree import (
    ReplacementEntry,
    ReplacementError,
    TreeStructureError,
    replace_edges,
    subdivide,
    wedge_sum,
)
from .families import CombParams, StarParams, comb_tree, star_tree
from .gh import (
    GHCapError,
    gh_exact,
    gh_lower_bound,
    gh_tree_interval,
    gh_upper_bound,
    greedy_tree_correspondence,
)
from .io import (
    TreeDocumentError,
    format_sig,
    load_space,
    load_tree,
    matrix_to_csv,
    serialize_tree,
)
from .embedding import (
    EmbedConfig,
    EmbedConfigError,
    FingerprintError,
    ScanError,
    build_F,
    continuity_scan,
    injectivity_scan,
    replacement_path,
)

_RECOVERY_TOL = 1e-6


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _f(v: Optional[float]) -> Optional[float]:
    """Round a float for report emission (12 significant digits)."""
    if v is None:
        return None
    if math.isinf(v):
        return v
    return float(format_sig(v))


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv(header: List[str], rows: List[List[object]]) -> str:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if cell is None:
                cells.append("")
            elif isinstance(cell, float):
                cells.append(format_sig(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _floats(text: str) -> List[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise _UsageError("expected a comma-separated float list: %s" % exc)


def _names(text: str) -> List[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip() != ""]


def _tree_output(tree, fmt: str) -> str:
    if fmt == "csv":
        return matrix_to_csv(tree.as_space())
    return serialize_tree(tree)


def _load_config(args) -> EmbedConfig:
    with open(args.config, "r") as fh:
        doc = json.load(fh)
    cfg = EmbedConfig.from_document(doc)
    overrides = {k: getattr(args, k) for k in ("eps", "tol") if getattr(args, k) is not None}
    # replace() rebuilds the config, so the flags are validated like the document
    return dataclasses.replace(cfg, **overrides)


def _config_cells(cfg: EmbedConfig, k: int) -> List[Tuple[str, int]]:
    return [(lab, k) for lab in cfg.h_space.labels if lab not in cfg.marked]


def _grid_adjacency(cfg: EmbedConfig, cells: List[Tuple[str, int]]) -> List[Tuple[int, int]]:
    """Index pairs of cells at the minimal positive spacing of the grid."""
    labs = [lab for lab, _ in cells]
    spacing = math.inf
    for i in range(len(labs)):
        for j in range(i + 1, len(labs)):
            d = cfg.h_space.dist[cfg.h_space.index(labs[i]), cfg.h_space.index(labs[j])]
            if d > 0:
                spacing = min(spacing, d)
    pairs = []
    for i in range(len(labs)):
        for j in range(i + 1, len(labs)):
            d = cfg.h_space.dist[cfg.h_space.index(labs[i]), cfg.h_space.index(labs[j])]
            if 0 < d <= spacing * (1 + 1e-9):
                pairs.append((i, j))
    return pairs


# -- tree ---------------------------------------------------------------------


def _cmd_tree_validate(args) -> Tuple[str, int]:
    tree = load_tree(args.file)
    # load_tree already proved the document is a tree (acyclic, connected,
    # positive finite lengths), so its path metric needs no axiom check.
    report = {"ok": True, "n": tree.n, "diameter": _f(tree.diameter()), "category": "ok"}
    return _dump(report), 0


def _cmd_tree_comb(args) -> Tuple[str, int]:
    tree = comb_tree(CombParams(s=args.s, scale=args.scale, depth_cap=args.depth))
    return _tree_output(tree, args.format), 0


def _cmd_tree_star(args) -> Tuple[str, int]:
    a = _floats(args.a)
    if args.branches is not None and len(a) != args.branches:
        raise _UsageError(
            "--branches %d disagrees with %d coefficients" % (args.branches, len(a))
        )
    eps = args.eps if args.eps is not None else 0.125
    tree = star_tree(StarParams(a=tuple(a), scale=args.k, eps=eps))
    return _tree_output(tree, args.format), 0


def _cmd_tree_wedge(args) -> Tuple[str, int]:
    basepoints = _names(args.at)
    if len(basepoints) != len(args.files):
        raise _UsageError(
            "--at needs one basepoint per input (%d files, %d basepoints)"
            % (len(args.files), len(basepoints))
        )
    parts = [(load_tree(f), bp) for f, bp in zip(args.files, basepoints)]
    return _tree_output(wedge_sum(parts), args.format), 0


def _cmd_tree_replace(args) -> Tuple[str, int]:
    host = load_tree(args.file)
    ends = _names(args.edge)
    if len(ends) != 2:
        raise _UsageError("--edge expects two vertex ids, got %r" % args.edge)
    patch = load_tree(getattr(args, "with"))
    entry = ReplacementEntry(
        a=ends[0], b=ends[1], tree=patch, alpha=args.alpha, beta=args.beta
    )
    out = replace_edges(host, [entry], tol=args.tol)
    return _tree_output(out, args.format), 0


def _cmd_tree_subdivide(args) -> Tuple[str, int]:
    if args.eps is None:
        raise _UsageError("tree subdivide requires --eps")
    return _tree_output(subdivide(load_tree(args.file), args.eps), args.format), 0


# -- gh -----------------------------------------------------------------------


def _cmd_gh_exact(args) -> Tuple[str, int]:
    x = load_space(args.a)
    y = load_space(args.b)
    value = gh_exact(x, y, cap=args.cap)
    return format_sig(value) + "\n", 0


def _cmd_gh_bounds(args) -> Tuple[str, int]:
    x = load_space(args.a)
    y = load_space(args.b)
    lo = gh_lower_bound(x, y)
    hi = gh_upper_bound(x, y, greedy_tree_correspondence(x, y))
    if args.format == "csv":
        return _csv(["lo", "hi"], [[lo, hi]]), 0
    return _dump({"lo": _f(lo), "hi": _f(hi)}), 0


def _cmd_gh_trees(args) -> Tuple[str, int]:
    t1 = load_tree(args.a)
    t2 = load_tree(args.b)
    eps = args.eps if args.eps is not None else 2.0 ** -6
    interval = gh_tree_interval(t1, t2, eps, cap=args.cap)
    widen = float(t1.metadata.get("truncation_error", 0.0) or 0.0) + float(
        t2.metadata.get("truncation_error", 0.0) or 0.0
    )
    lo = max(0.0, interval.lo - widen)
    hi = interval.hi + widen
    report = {
        "lo": _f(lo),
        "hi": _f(hi),
        "eps": _f(eps),
        "method": interval.method,
        "truncation_widening": _f(widen),
    }
    if args.format == "csv":
        return _csv(["lo", "hi"], [[lo, hi]]), 0
    return _dump(report), 0


# -- lab ----------------------------------------------------------------------


def _cmd_lab_embed(args) -> Tuple[str, int]:
    cfg = _load_config(args)
    tree = build_F(cfg, args.u, args.k)
    return _tree_output(tree, args.format), 0


def _cmd_lab_scan_continuity(args) -> Tuple[str, int]:
    cfg = _load_config(args)
    cells = _config_cells(cfg, args.k)
    adjacency = _grid_adjacency(cfg, cells)
    report = continuity_scan(cfg, cells, adjacency, strict=False)
    rows = []
    for r in report.rows:
        rows.append(
            {
                "u1": _f(r.u[0]),
                "u2": _f(r.u[1]),
                "k": r.k,
                "bound": _f(r.bound),
                "hi": _f(r.hi),
                "margin": _f(r.margin),
                "ok": r.ok,
                "pair": [r.label_a, r.label_b],
            }
        )
    code = 0 if all(r.ok for r in report.rows) else 2
    if args.format == "csv":
        table = [
            [row["u1"], row["u2"], row["k"], row["bound"], row["hi"], row["margin"]]
            for row in rows
        ]
        return _csv(["u1", "u2", "k", "bound", "hi", "margin"], table), code
    return _dump({"eps": _f(report.eps), "tol": _f(report.tol), "rows": rows}), code


def _cmd_lab_scan_injectivity(args) -> Tuple[str, int]:
    cfg = _load_config(args)
    cells = []
    for k in range(1, cfg.m + 1):
        cells.extend(_config_cells(cfg, k))
    report = injectivity_scan(cfg, cells)
    rows = []
    for r in report.rows:
        rows.append(
            {
                "u1": _f(r.u[0]),
                "u2": _f(r.u[1]),
                "k": r.k,
                "bound": _f(_RECOVERY_TOL),
                "hi": _f(r.recovery_error),
                "margin": _f(r.fingerprint.margin),
                "xi_hat": _f(r.fingerprint.xi_hat),
                "a_hat": [_f(v) for v in r.fingerprint.a_hat],
            }
        )
    if args.format == "csv":
        table = [
            [row["u1"], row["u2"], row["k"], row["bound"], row["hi"], row["margin"]]
            for row in rows
        ]
        return _csv(["u1", "u2", "k", "bound", "hi", "margin"], table), 0
    return (
        _dump(
            {
                "min_separation": _f(report.min_separation),
                "k_star": report.k_star,
                "rows": rows,
            }
        ),
        0,
    )


def _cmd_lab_path(args) -> Tuple[str, int]:
    tree = load_tree(args.x)
    svals = _floats(args.s_grid)
    eps = args.eps if args.eps is not None else 2.0 ** -6
    steps = replacement_path(tree, svals, eps=eps, depth_cap=args.depth)
    rows = [
        {"s": _f(st.s), "hi": _f(st.hi), "bound": _f(st.bound), "vertices": st.tree.n}
        for st in steps
    ]
    if args.format == "csv":
        table = [[row["s"], row["hi"], row["bound"]] for row in rows]
        return _csv(["s", "hi", "bound"], table), 0
    return _dump({"eps": _f(eps), "rows": rows}), 0


# -- wiring -------------------------------------------------------------------


def _add_common(p: _Parser, leaf: bool = True):
    # The same flags are registered on the top-level parser (with real
    # defaults) and on every leaf subparser (defaulting to SUPPRESS so an
    # unset leaf flag never clobbers a value given before the subcommand).
    sup = argparse.SUPPRESS
    p.add_argument(
        "--tol", type=float, default=sup if leaf else 1e-9,
        help="validation tolerance",
    )
    p.add_argument(
        "--eps", type=float, default=sup if leaf else None,
        help="sampling resolution",
    )
    p.add_argument("--out", default=sup if leaf else None, help="write output to this file")
    p.add_argument(
        "--format", choices=["json", "csv"],
        default=sup if leaf else "json",
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="treegh", description=__doc__)
    _add_common(parser, leaf=False)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    tree = sub.add_parser("tree", help="build and validate metric trees")
    tsub = tree.add_subparsers(dest="subcommand", parser_class=_Parser)

    p = tsub.add_parser("validate", help="validate a tree document")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=_cmd_tree_validate)

    p = tsub.add_parser("comb", help="comb tree of parameter s")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--depth", type=int, default=8)
    _add_common(p)
    p.set_defaults(func=_cmd_tree_comb)

    p = tsub.add_parser("star", help="star tree with branch coefficients")
    p.add_argument("--a", required=True, help="comma-separated coefficients")
    p.add_argument("--k", type=float, required=True, help="scale factor")
    p.add_argument("--branches", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_tree_star)

    p = tsub.add_parser("wedge", help="wedge trees at basepoints")
    p.add_argument("files", nargs="+")
    p.add_argument("--at", required=True, help="comma-separated basepoints")
    _add_common(p)
    p.set_defaults(func=_cmd_tree_wedge)

    p = tsub.add_parser("replace", help="replace one edge by a marked tree")
    p.add_argument("file")
    p.add_argument("--edge", required=True, help="a,b endpoints")
    p.add_argument("--with", required=True, help="replacement tree document")
    p.add_argument("--alpha", required=True, help="marked vertex matched to a")
    p.add_argument("--beta", required=True, help="marked vertex matched to b")
    _add_common(p)
    p.set_defaults(func=_cmd_tree_replace)

    p = tsub.add_parser("subdivide", help="refine all edges below --eps")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=_cmd_tree_subdivide)

    gh = sub.add_parser("gh", help="Gromov-Hausdorff distances and bounds")
    gsub = gh.add_subparsers(dest="subcommand", parser_class=_Parser)

    p = gsub.add_parser("exact", help="exact distance between small spaces")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--cap", type=int, default=8)
    _add_common(p)
    p.set_defaults(func=_cmd_gh_exact)

    p = gsub.add_parser("bounds", help="certified lower/upper bounds")
    p.add_argument("a")
    p.add_argument("b")
    _add_common(p)
    p.set_defaults(func=_cmd_gh_bounds)

    p = gsub.add_parser("trees", help="two-sided interval between trees")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--cap", type=int, default=8)
    _add_common(p)
    p.set_defaults(func=_cmd_gh_trees)

    lab = sub.add_parser("lab", help="parametric family scans")
    lsub = lab.add_subparsers(dest="subcommand", parser_class=_Parser)

    p = lsub.add_parser("embed", help="assemble the tree of one grid cell")
    p.add_argument("--config", required=True)
    p.add_argument("--u", required=True, help="grid label")
    p.add_argument("--k", type=int, required=True, help="fiber index")
    _add_common(p)
    p.set_defaults(func=_cmd_lab_embed)

    p = lsub.add_parser("scan-continuity", help="GH bounds between adjacent cells")
    p.add_argument("--config", required=True)
    p.add_argument("--k", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=_cmd_lab_scan_continuity)

    p = lsub.add_parser("scan-injectivity", help="fingerprint distinctness scan")
    p.add_argument("--config", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_lab_scan_injectivity)

    p = lsub.add_parser("path", help="comb replacement path of a tree")
    p.add_argument("--x", required=True, help="input tree document")
    p.add_argument("--s-grid", required=True, dest="s_grid")
    p.add_argument("--depth", type=int, default=8)
    _add_common(p)
    p.set_defaults(func=_cmd_lab_path)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    if not hasattr(args, "func"):
        print("usage error: missing subcommand (see --help)", file=sys.stderr)
        return 1
    try:
        text, code = args.func(args)
    except _UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    except (
        TreeDocumentError,
        TreeStructureError,
        ReplacementError,
        MetricValidationError,
        EmbedConfigError,
        ScanError,
        FingerprintError,
        GHCapError,
        ValueError,
        OSError,
        KeyError,
        json.JSONDecodeError,
    ) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
