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
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from .metric import DEFAULT_TOL, MetricValidationError, _check_tol, _entry_violation, _validated
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
    _load_space,
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
# The most cells scan-injectivity lists, counted before any is.
_MAX_SCAN_CELLS = 1 << 20
# What the lab commands' --help says of their config document.
_CONFIG_CHECKS = (
    "The config document is checked as EmbedConfig checks it: integer m >= 1, "
    "branches from 3 to 537 and depth_cap >= 0, positive finite eps, finite tol >= 0; "
    "--eps and --tol replace its values and are checked alike."
)


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
    # A NaN or infinite figure is an error (exit 2), never a JSON token.
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


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
    """Index pairs (i, j), i < j in loop order, of cells at the minimal
    positive spacing of the grid."""
    at = [cfg.h_space.index(lab) for lab, _ in cells]
    first, second = np.triu_indices(len(at), 1)
    d = cfg.h_space.dist[np.ix_(at, at)][first, second]
    spacing = d[d > 0].min(initial=math.inf)
    near = (0 < d) & (d <= spacing * (1 + 1e-9))
    return list(zip(first[near].tolist(), second[near].tolist()))


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
    tol = args.tol if args.tol is not None else 1e-9
    out = replace_edges(host, [entry], tol=tol)
    return _tree_output(out, args.format), 0


def _cmd_tree_subdivide(args) -> Tuple[str, int]:
    if args.eps is None:
        raise _UsageError("tree subdivide requires --eps")
    return _tree_output(subdivide(load_tree(args.file), args.eps), args.format), 0


# -- gh -----------------------------------------------------------------------


def _cap(args) -> int:
    if args.cap < 1:
        raise ValueError("--cap must be at least 1, got %d" % args.cap)
    return args.cap


def _tol(args) -> float:
    return args.tol if args.tol is not None else DEFAULT_TOL


def _cmd_gh_exact(args) -> Tuple[str, int]:
    cap = _cap(args)
    x, x_entries = _load_space(args.a, _tol(args))
    y, y_entries = _load_space(args.b, _tol(args))
    if max(x.n, y.n) <= cap:
        # the search trusts the triangle inequality; within the cap its
        # O(n^3) check is cheap.  A CSV matrix's entrywise checks were made
        # as it was read, and are not made again.
        for path, space, entries in ((args.a, x, x_entries), (args.b, y, y_entries)):
            entries = entries or _entry_violation(space.dist)
            report = _validated(space.dist, _tol(args), entries)
            if not report.ok:
                raise MetricValidationError(
                    "%s is not a metric space: %s violated by %.6g at points %s"
                    % (path, report.category, report.worst_violation,
                       ", ".join(space.labels[i] for i in report.witness))
                )
    value = gh_exact(x, y, cap=cap)
    return format_sig(value) + "\n", 0


def _cmd_gh_bounds(args) -> Tuple[str, int]:
    x = load_space(args.a, _tol(args))
    y = load_space(args.b, _tol(args))
    lo = gh_lower_bound(x, y)
    hi = gh_upper_bound(x, y, greedy_tree_correspondence(x, y))
    if args.format == "csv":
        return _csv(["lo", "hi"], [[lo, hi]]), 0
    return _dump({"lo": _f(lo), "hi": _f(hi)}), 0


def _cmd_gh_trees(args) -> Tuple[str, int]:
    t1 = load_tree(args.a)
    t2 = load_tree(args.b)
    eps = args.eps if args.eps is not None else 2.0 ** -6
    interval = gh_tree_interval(t1, t2, eps, cap=_cap(args))
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
    labels = sum(lab not in cfg.marked for lab in cfg.h_space.labels)
    if cfg.m * labels > _MAX_SCAN_CELLS:
        raise ValueError(
            "scan-injectivity would scan %d cells (m=%d fibers of %d unmarked labels), "
            "more than %d" % (cfg.m * labels, cfg.m, labels, _MAX_SCAN_CELLS)
        )
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


# The flags _add_common registers, each taking one value.
_GLOBAL_OPTIONS = ("--tol", "--eps", "--out", "--format")


def _add_common(p: _Parser, leaf: bool = True):
    # The same flags are registered on the top-level parser (with real
    # defaults) and on every leaf subparser (defaulting to SUPPRESS so an
    # unset leaf flag never clobbers a value given before the subcommand).
    # --tol and --eps default to None, so a config document's own values
    # stand unless the flag is given.
    sup = argparse.SUPPRESS
    p.add_argument(
        "--tol", type=float, default=sup if leaf else None,
        help="validation tolerance: finite and >= 0, or exit 2",
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


def _file_argument(p: _Parser):
    p.add_argument("file")


def _pair_arguments(p: _Parser):
    p.add_argument("a")
    p.add_argument("b")


def _comb_arguments(p: _Parser):
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--depth", type=int, default=8)


def _star_arguments(p: _Parser):
    p.add_argument("--a", required=True, help="comma-separated coefficients")
    p.add_argument("--k", type=float, required=True, help="scale factor")
    p.add_argument("--branches", type=int, default=None)


def _wedge_arguments(p: _Parser):
    p.add_argument("files", nargs="+")
    p.add_argument("--at", required=True, help="comma-separated basepoints")


def _replace_arguments(p: _Parser):
    _file_argument(p)
    p.add_argument("--edge", required=True, help="a,b endpoints")
    p.add_argument("--with", required=True, help="replacement tree document")
    p.add_argument("--alpha", required=True, help="marked vertex matched to a")
    p.add_argument("--beta", required=True, help="marked vertex matched to b")


def _capped_pair_arguments(p: _Parser):
    _pair_arguments(p)
    p.add_argument("--cap", type=int, default=8)


def _config_argument(p: _Parser):
    p.add_argument("--config", required=True)


def _embed_arguments(p: _Parser):
    _config_argument(p)
    p.add_argument("--u", required=True, help="grid label")
    p.add_argument("--k", type=int, required=True, help="fiber index")


def _scan_continuity_arguments(p: _Parser):
    _config_argument(p)
    p.add_argument("--k", type=int, default=1)


def _path_arguments(p: _Parser):
    p.add_argument("--x", required=True, help="input tree document")
    p.add_argument("--s-grid", required=True, dest="s_grid")
    p.add_argument("--depth", type=int, default=8)


class _Command(NamedTuple):
    """One subcommand: its help line, its ``--help`` description, the
    function that adds its own arguments (the common flags follow them) and
    its handler."""

    help: str
    description: str
    arguments: Callable[[_Parser], None]
    run: Callable[[argparse.Namespace], Tuple[str, int]]


_GROUPS = {
    "tree": "build and validate metric trees",
    "gh": "Gromov-Hausdorff distances and bounds",
    "lab": "parametric family scans",
}

# Every (command, subcommand) in help order; the parser is built from here.
_COMMANDS = {
    ("tree", "validate"): _Command(
        "validate a tree document",
        "Prove a tree document a tree: every edge joins two known ids with a "
        "positive finite length, and the edges connect every node with no cycle.",
        _file_argument, _cmd_tree_validate),
    ("tree", "comb"): _Command(
        "comb tree of parameter s",
        "Checks --s in [0, 1], --scale in (0, 1] and --depth >= 0; a comb of more "
        "than 2**20 vertices is refused before it is built.",
        _comb_arguments, _cmd_tree_comb),
    ("tree", "star"): _Command(
        "star tree with branch coefficients",
        "Checks positive finite coefficients --a, a finite --k >= 0 and a finite "
        "--eps > 0 (default 0.125); a star of more than 2**20 vertices is refused.",
        _star_arguments, _cmd_tree_star),
    ("tree", "wedge"): _Command(
        "wedge trees at basepoints",
        "Checks one basepoint per tree (--at), each a vertex of its tree.",
        _wedge_arguments, _cmd_tree_wedge),
    ("tree", "replace"): _Command(
        "replace one edge by a marked tree",
        "Checks that the host geodesic --edge is a plain degree-2 path and that the "
        "replacement spans it within --tol (finite, >= 0; default 1e-9).",
        _replace_arguments, _cmd_tree_replace),
    ("tree", "subdivide"): _Command(
        "refine all edges below --eps",
        "Checks --eps > 0 (required); more than 2**20 new vertices are refused.",
        _file_argument, _cmd_tree_subdivide),
    ("gh", "exact"): _Command(
        "exact distance between small spaces",
        "Inputs are CSV matrices or tree documents.  A CSV matrix must be finite, "
        "nonnegative, zero on the diagonal and symmetric within --tol; --cap must "
        "be >= 1, and within it each space must pass validate_metric (positivity "
        "and the triangle inequality) within --tol.",
        _capped_pair_arguments, _cmd_gh_exact),
    ("gh", "bounds"): _Command(
        "certified lower/upper bounds",
        "Inputs are CSV matrices or tree documents.  A CSV matrix must be finite, "
        "nonnegative, zero on the diagonal and symmetric within --tol.",
        _pair_arguments, _cmd_gh_bounds),
    ("gh", "trees"): _Command(
        "two-sided interval between trees",
        "Checks --eps positive and finite (default 2**-6) and --cap >= 1.",
        _capped_pair_arguments, _cmd_gh_trees),
    ("lab", "embed"): _Command(
        "assemble the tree of one grid cell", _CONFIG_CHECKS,
        _embed_arguments, _cmd_lab_embed),
    ("lab", "scan-continuity"): _Command(
        "GH bounds between adjacent cells", _CONFIG_CHECKS,
        _scan_continuity_arguments, _cmd_lab_scan_continuity),
    ("lab", "scan-injectivity"): _Command(
        "fingerprint distinctness scan",
        _CONFIG_CHECKS + "  A scan of more than 2**20 cells (m times the unmarked "
        "labels) is refused before any cell is built.",
        _config_argument, _cmd_lab_scan_injectivity),
    ("lab", "path"): _Command(
        "comb replacement path of a tree",
        "Checks --s-grid sorted within [0, 1], --eps positive and finite and "
        "--depth >= 0.",
        _path_arguments, _cmd_lab_path),
}


def _branch(argv: List[str]) -> Optional[Tuple[str, str]]:
    """The ``(command, subcommand)`` that argv is sure to reach: exact
    top-level options, each with its value as the next token or after
    ``=``, then a known command and subcommand.

    Anything else gives None, and with it the full parser: ``-h`` before
    the subcommand, an abbreviated option, ``--``, a value that starts
    with ``-``, an unknown or missing name.  Its help, usage and error text
    then stay those of every branch.
    """
    i = 0
    while i < len(argv) and argv[i].startswith("-"):
        option, eq, _ = argv[i].partition("=")
        if option not in _GLOBAL_OPTIONS:
            return None
        if not eq:
            i += 1
            if i == len(argv) or argv[i].startswith("-"):
                return None
        i += 1
    branch = tuple(argv[i:i + 2])
    return branch if branch in _COMMANDS else None


def _build_parser(branch: Optional[Tuple[str, str]] = None) -> _Parser:
    """The top-level parser with every branch, or with only ``branch``.

    Argparse hands everything after the subcommand to that subcommand's
    parser, so a parser with only the branch argv names parses it as the
    full one does.  Nothing is kept between calls.
    """
    parser = _Parser(prog="treegh", description=__doc__)
    _add_common(parser, leaf=False)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    groups = {}
    for key, spec in _COMMANDS.items():
        if branch is not None and key != branch:
            continue
        command, name = key
        if command not in groups:
            group = sub.add_parser(command, help=_GROUPS[command])
            groups[command] = group.add_subparsers(dest="subcommand", parser_class=_Parser)
        p = groups[command].add_parser(name, help=spec.help, description=spec.description)
        spec.arguments(p)
        _add_common(p)
        p.set_defaults(func=spec.run)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(_branch(argv))
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    if not hasattr(args, "func"):
        print("usage error: missing subcommand (see --help)", file=sys.stderr)
        return 1
    try:
        if args.tol is not None:
            _check_tol(args.tol)
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
