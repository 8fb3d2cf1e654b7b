#!/usr/bin/env python3
"""Compare two sets of benchmark runs, parent against change.

    python3 bench/compare.py PARENT CHANGE

PARENT and CHANGE are run files (``bench/out/runs.jsonl`` as ``run.py``
writes it); only untraced runs are compared.  Every workload gets its own
rows, one per metric: each side's median and quartiles, the relative
change, the pairs the change won, and a verdict:

* ``gain``: the change wins at least nine tenths of the pairs (runs with
  the same seed, in order where a seed repeats, else runs in order; ties
  count for neither) and the medians differ by more than the parent's
  quartile spread;
* ``unresolved``: a side's quartile spread, as a share of its median,
  exceeds the metric's bound, and not every change run beats every
  parent run;
* ``REGRESSION``: the change's median is worse than the parent's by more
  than the bound;
* ``same``: none of these.

Bounds come from ``BENCHMARK.json``; the certificate figures kept in each
run record carry the bounds in ``RECORD_METRICS``.  The failed share of
attempted items is compared exactly.  The exit code is 1 when any metric
regresses or a failed share differs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict
from fractions import Fraction

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")

# Figures that only some workloads produce, so they live in the run record
# rather than among BENCHMARK.json's end-to-end metrics.
RECORD_METRICS = {
    "call_p90_ms": ("ms", "lower", 0.25),
    "continuity_margin_min": ("length", "higher", 0.05),
    "continuity_hi_mean": ("length", "lower", 0.05),
    "gh_interval_width_mean": ("length", "lower", 0.25),
}


def load_runs(path):
    runs = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["trace"] == 0:
                runs[rec["workload"]].append(rec)
    return runs


def values(rec):
    out = {k: m["value"] for k, m in rec["result"]["metrics"].items()}
    out.update(rec.get("quality", {}))
    return out


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def pairs_of(parent, change):
    """Runs of the same seed, paired in order within each seed."""
    by_seed = defaultdict(list)
    for r in parent:
        by_seed[r["seed"]].append(r)
    matched = []
    for r in change:
        if by_seed[r["seed"]]:
            matched.append((by_seed[r["seed"]].pop(0), r))
    return matched or list(zip(parent, change))


def verdict(p, c, pairs, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    pq, cq = quartiles(p), quartiles(c)
    p_spread = (pq[2] - pq[0]) / abs(pq[1]) if pq[1] else float("inf")
    c_spread = (cq[2] - cq[0]) / abs(cq[1]) if cq[1] else float("inf")
    rel = sign * (cq[1] - pq[1]) / abs(pq[1]) if pq[1] else 0.0
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    all_better = all(sign * (b - a) > 0 for a in p for b in c)
    if pairs and wins >= 0.9 * len(pairs) and rel > 0 and abs(cq[1] - pq[1]) > pq[2] - pq[0]:
        word = "gain"
    elif max(p_spread, c_spread) > bound and not all_better:
        word = "unresolved"
    elif rel < -bound:
        word = "REGRESSION"
    else:
        word = "same"
    return pq, cq, rel, wins, word


def compare(parent, change, spec):
    metrics = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    metrics.update(RECORD_METRICS)
    bad = False
    fmt = "  %-24s %-34s %-34s %+8.1f%% %5s  %s"
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        print("%s  (parent %d runs, change %d runs)" % (workload, len(p_runs), len(c_runs)))
        if not p_runs or not c_runs:
            print("  missing on one side")
            bad = True
            continue
        for side, runs in (("parent", p_runs), ("change", c_runs)):
            att = sum(r["result"]["attempted"] for r in runs)
            fail = sum(r["result"]["failed"] for r in runs)
            wrong = sum(1 for r in runs if not r["result"]["correct"])
            print("  %s failed %d/%d attempted, %d runs with failed checks" % (side, fail, att, wrong))
        shares = [
            Fraction(sum(r["result"]["failed"] for r in runs), sum(r["result"]["attempted"] for r in runs))
            for runs in (p_runs, c_runs)
        ]
        if shares[0] != shares[1]:
            print("  FAILED SHARE DIFFERS: %s vs %s" % (shares[0], shares[1]))
            bad = True
        pairs = pairs_of(p_runs, c_runs)
        for name, (unit, better, bound) in metrics.items():
            p = [values(r)[name] for r in p_runs if name in values(r)]
            c = [values(r)[name] for r in c_runs if name in values(r)]
            if not p or not c:
                continue
            pv = [(values(a)[name], values(b)[name]) for a, b in pairs
                  if name in values(a) and name in values(b)]
            pq, cq, rel, wins, word = verdict(p, c, pv, better, bound)
            bad |= word == "REGRESSION"
            print(fmt % (
                "%s [%s]" % (name, unit),
                "%.6g [%.6g, %.6g]" % (pq[1], pq[0], pq[2]),
                "%.6g [%.6g, %.6g]" % (cq[1], cq[0], cq[2]),
                100.0 * rel, "%d/%d" % (wins, len(pv)), "%s (bound %g)" % (word, bound),
            ))
    return bad


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="run file of the parent commit")
    parser.add_argument("change", help="run file of the change")
    args = parser.parse_args(argv)
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    print("columns: metric, parent median [q1, q3], change median [q1, q3], "
          "change (+ is better), pairs won, verdict")
    bad = compare(load_runs(args.parent), load_runs(args.change), spec)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
