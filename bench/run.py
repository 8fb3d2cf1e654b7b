#!/usr/bin/env python3
"""Run one treegh benchmark workload and print its metrics.

    python3 bench/run.py --workload inject-scan --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1

A run imports treegh from ``src/`` next to this directory and times its
set-up five times, each in a fresh interpreter that imports the package
and builds the inputs from the seed.  It then builds the same inputs
itself, repeats whole rounds of calls until ``--seconds`` have passed,
and checks every output.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics named in
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it is the run record (environment,
certificate figures, round times), also appended to
``bench/out/runs.jsonl``; a traced run writes its spans to
``bench/out/spans-<workload>-<seed>.jsonl``.

``--workload all`` runs every workload in turn, each in its own process.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one thread per process; set before numpy loads

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPS = 5
WORKLOAD_NAMES = ("inject-scan", "continuity-scan", "gh-solve", "validate-docs")
TAIL_SAMPLES = 100  # call_p90_ms needs ten samples beyond the 90th percentile


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _import_package():
    sys.path.insert(0, SRC)
    try:
        import treegh
    except ImportError as exc:
        raise BenchError("cannot import treegh from %s: %s" % (SRC, exc)) from exc
    if not os.path.abspath(treegh.__file__).startswith(SRC + os.sep):
        raise BenchError("treegh was imported from %s, not from %s" % (treegh.__file__, SRC))
    return treegh


def _spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError("cannot read BENCHMARK.json: %s" % exc) from exc


def _environment(seed):
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


def _setup_probe(name, seed, workdir):
    """Time for a fresh interpreter to import treegh and build the inputs.

    This is what every command-line use pays before its first call, so
    work moved into import time or input construction shows here.  The
    child times itself, from before its first import to the end of
    set-up, and prints the figure.
    """
    code = (
        "import time; t0 = time.perf_counter(); import sys; sys.path[:0] = [%r, %r]; "
        "import workloads; workloads.WORKLOADS[%r].setup(%d, %r); "
        "print(time.perf_counter() - t0)" % (SRC, HERE, name, seed, workdir)
    )
    try:
        proc = subprocess.run(
            [sys.executable, "-c", code], check=True, timeout=120,
            stdout=subprocess.PIPE, text=True,
        )
        return float(proc.stdout.split()[-1])
    except (subprocess.SubprocessError, OSError, ValueError, IndexError) as exc:
        raise BenchError("set-up of %s failed: %s" % (name, exc)) from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_round(calls, tracer=None, round_no=0):
    """Time each call of one round; a call that raises gives ``None``."""
    records = []
    start = time.perf_counter()
    for i, (label, items, fn) in enumerate(calls):
        if tracer is not None:
            tracer.item = "%d.%d:%s" % (round_no, i, label)
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception:
            traceback.print_exc()
            result = None
        records.append((label, items, time.perf_counter() - t0, result))
    return time.perf_counter() - start, records


def _layer_metrics(tracer, rounds, names):
    """Per-layer figures: set-up spans once plus the mean traced round."""
    setup = tracer.aggregate({"setup"})
    round_items = defaultdict(set)  # traced round number -> its items
    for span in tracer.spans:
        if span[4] != "setup":
            round_items[span[4].split(".", 1)[0]].add(span[4])
    body = tracer.aggregate(set().union(*round_items.values()))
    stats = {}

    def per_run(name, fn):
        return fn(setup.get(name)) + fn(body.get(name)) / rounds

    def calls(rec):
        return rec["calls"] if rec else 0

    def self_s(rec):
        return rec["self_s"] if rec else 0.0

    def size_sum(power):
        return lambda rec: sum(n ** power for n in rec["sizes"] if n is not None) if rec else 0

    def extra_sum(rec):
        return sum(rec["extras"]) if rec else 0

    overhead = 0.0
    for name in set(setup) | set(body):
        stats[name + ".calls"] = per_run(name, calls)
        stats[name + ".self_s"] = per_run(name, self_s)
        layer = name.split(".", 1)[0] + ".self_s"
        stats[layer] = stats.get(layer, 0.0) + stats[name + ".self_s"]
        overhead += per_run(name, lambda rec: rec["overhead_s"] if rec else 0.0)
    stats["tree.MetricTree.vertices"] = per_run("tree.MetricTree", size_sum(1))
    stats["tree.MetricTree.dist_cells"] = per_run("tree.MetricTree", size_sum(2))
    stats["families.star_tree.vertices"] = per_run("families.star_tree", size_sum(1))
    stats["metric.four_point_defect.quadruples"] = per_run("metric.four_point_defect", size_sum(4))
    stats["gh.distortion.entries"] = per_run("gh.distortion", extra_sum)
    # Distinct input trees per call within set-up plus one traced round,
    # averaged over rounds, so the figure does not depend on how many
    # rounds fit in the run.
    ratios = []
    for items in round_items.values():
        rec = tracer.aggregate({"setup"} | items).get("tree.subdivide")
        if rec:
            ratios.append(len(set(rec["extras"])) / rec["calls"])
    stats["tree.subdivide.distinct_ratio"] = statistics.mean(ratios) if ratios else 0.0
    stats["trace.overhead_s"] = overhead
    return {name: stats.get(name, 0) for name in names}


def run_workload(name, seed, seconds, trace):
    treegh = _import_package()
    spec = _spec()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    workdir = os.path.join(OUT, "work-%s-%d" % (name, os.getpid()))
    try:
        setup_times = [_setup_probe(name, seed, workdir + "-probe") for _ in range(SETUP_REPS)]
        tracer = None
        if trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.item = "setup"
            tracer.install(treegh)
        try:
            inputs = wl.setup(seed, workdir)
        finally:
            if tracer is not None:
                tracer.uninstall()

        plain_times, traced_times, rounds = [], [], []
        begin = time.perf_counter()
        while not rounds or time.perf_counter() - begin < seconds:
            elapsed, records = _run_round(wl.calls(inputs))
            plain_times.append(elapsed)
            rounds.append(records)
            if tracer is None:
                continue
            tracer.install(treegh)
            try:
                elapsed, records = _run_round(wl.calls(inputs), tracer, len(traced_times))
            finally:
                tracer.uninstall()
            traced_times.append(elapsed)
            rounds.append(records)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        threads = threading.active_count()

        problems, quality = [], {}
        for records in rounds:
            outputs = [r[3] for r in records]
            problems.extend(wl.check(inputs, outputs))
            quality = wl.quality(inputs, outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    calls = [r for records in rounds for r in records]
    attempted = sum(r[1] for r in calls)
    failed = sum(r[1] for r in calls if r[3] is None)
    durations = sorted(r[2] for r in calls)
    if len(durations) >= TAIL_SAMPLES:
        quality["call_p90_ms"] = 1000.0 * statistics.quantiles(durations, n=10)[-1]
    if threads != 1:
        problems.append("%d threads were running" % threads)
    for p in problems[:20]:
        print("check failed: %s" % p, file=sys.stderr)

    if tracer is None:
        timed = {
            "setup_s": statistics.median(setup_times),
            "items_per_s": (attempted - failed) / sum(plain_times),
            "call_p50_ms": 1000.0 * statistics.median(durations),
            "peak_rss_mb": peak_rss_mb,
        }
        declared = spec["end_to_end"]
    else:
        names = [m["name"] for m in spec["per_layer"]]
        timed = _layer_metrics(tracer, len(traced_times), names)
        declared = spec["per_layer"]
    metrics = {m["name"]: {"value": timed[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}

    env = _environment(seed)
    env.update(attempted=attempted, failed=failed, threads=threads)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(bool(trace)),
        "env": env, "rounds": len(rounds), "calls": len(calls),
        "round_s": plain_times, "traced_round_s": traced_times,
        "call_s": [[r[0], r[2]] for r in calls],
        "setup_runs_s": setup_times, "quality": quality, "result": result,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "runs.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    if tracer is not None:
        tracer.write(os.path.join(OUT, "spans-%s-%d.jsonl" % (name, seed)))
    return record


def run_all(args):
    """Each workload in its own process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        except subprocess.TimeoutExpired as exc:
            raise BenchError("workload %s did not finish: %s" % (name, exc)) from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError("workload %s exited with code %d" % (name, proc.returncode))
        results[name] = json.loads(lines[-1])
        record = json.loads(lines[-2])["record"]
        print("%s: correct=%s attempted=%d failed=%d" % (
            name, results[name]["correct"], results[name]["attempted"], results[name]["failed"]))
        for metric, m in results[name]["metrics"].items():
            print("  %-40s %14.6g %s" % (metric, m["value"], m["unit"]))
        for metric, value in record["quality"].items():
            print("  %-40s %14.6g (record only)" % (metric, value))
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            out = run_all(args)
        else:
            record = run_workload(args.workload, args.seed, args.seconds, args.trace)
            print(json.dumps({"record": {k: v for k, v in record.items() if k != "result"}}))
            out = record["result"]
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
