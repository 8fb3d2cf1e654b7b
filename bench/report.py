#!/usr/bin/env python3
"""Time against size from the spans of traced runs.

    python3 bench/report.py bench/out/spans-continuity-scan-1.jsonl

For every span name, and for each power-of-two band of the vertex or point
count the spans recorded, print the calls, the total span time (children
included) and the median time per call.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def band_floor(size):
    """Largest power of two not above ``size``; 0 when no size was recorded."""
    if not size:
        return 0
    lo = 1
    while lo * 2 <= size:
        lo *= 2
    return lo


def main(paths):
    bands = defaultdict(list)
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                span = json.loads(line)
                bands[(span["name"], band_floor(span["size"]))].append(span["end"] - span["start"])
    print("%-38s %-10s %7s %10s %12s" % ("span", "size", "calls", "total_s", "median_ms"))
    for (name, lo), times in sorted(bands.items()):
        size = "%d-%d" % (lo, 2 * lo - 1) if lo else "-"
        print("%-38s %-10s %7d %10.3f %12.3f" % (
            name, size, len(times), sum(times), 1000.0 * statistics.median(times)))


if __name__ == "__main__":
    main(sys.argv[1:])
