"""Metric math of the repository benchmark (see perfbench/README.md).

sc_perfbench writes a raw record per run: sample lists, counters and, when
tracing, a span file. Everything derived from those -- percentiles, the tail
ladder, span self times and every ratio -- is computed here, so each rule has
one definition and a unit test (perfbench/tests/test_benchlib.py).
"""

import csv
import math
import statistics

# Tail ladder, highest first: a percentile is reported only when at least
# MIN_BEYOND samples lie beyond it.
TAIL_LADDER = (99.9, 99.0, 90.0)
MIN_BEYOND = 10


def rank(n, pct):
    """Nearest-rank position (1-based) of the pct-th percentile of n samples."""
    if n <= 0:
        raise ValueError("rank of an empty sample")
    # Round away binary noise first: 99.9% of 10000 is 9990, not 9990.000000000002.
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def beyond(n, pct):
    """Samples strictly beyond the nearest-rank pct-th percentile."""
    return n - rank(n, pct)


def percentile(values, pct):
    """Nearest-rank percentile: a value that was actually measured."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), pct) - 1]


def tail_rung(n):
    """Highest ladder percentile with at least MIN_BEYOND samples beyond it,
    or None when the sample is too small for any rung."""
    for pct in TAIL_LADDER:
        if beyond(n, pct) >= MIN_BEYOND:
            return pct
    return None


def ratio(part, base):
    """part / base, with an empty base reading as 0 (nothing to share)."""
    return part / base if base else 0.0


def hit_ratio(hits, misses):
    """Cache hits over lookups (hits + misses)."""
    return ratio(hits, hits + misses)


def pool_busy_share(busy_ms, threads, wall_ms):
    """Summed busy time of a pool's work over its capacity (threads x wall)."""
    return ratio(busy_ms, threads * wall_ms)


def read_spans(path):
    """Spans from sc_perfbench's CSV: dicts with id, parent, op, name, start, end."""
    with open(path, newline="") as f:
        return [
            {
                "id": int(row["id"]),
                "parent": int(row["parent"]),
                "op": int(row["op"]),
                "name": row["name"],
                "start": int(row["start_ns"]),
                "end": int(row["end_ns"]),
            }
            for row in csv.DictReader(f)
        ]


def covered(intervals, lo, hi):
    """Length of [lo, hi) covered by the union of intervals (which may nest
    or overlap each other)."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Per span id: its duration minus the part its direct children cover."""
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - covered(children.get(s["id"], ()), s["start"], s["end"])
        for s in spans
    }


def self_time_by_name(spans):
    """Total self time (ns) per span name."""
    own = self_times(spans)
    totals = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0) + own[s["id"]]
    return totals


def total_time_by_name(spans):
    """Total inclusive time (ns) per span name."""
    totals = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0) + (s["end"] - s["start"])
    return totals


def unattributed_share(spans, root="op"):
    """Share of root-span time that no child span covers."""
    own = self_times(spans)
    roots = [s for s in spans if s["name"] == root]
    return ratio(sum(own[s["id"]] for s in roots), sum(s["end"] - s["start"] for s in roots))


def overhead_share(traced_p50, untraced_p50):
    """Relative slowdown of the traced operations over the untraced ones."""
    return ratio(traced_p50 - untraced_p50, untraced_p50)


def span_durations_ms(spans, name):
    """Durations (ms) of the spans with this name, in recording order."""
    return [(s["end"] - s["start"]) / 1e6 for s in spans if s["name"] == name]


def reconcile_share(spans, untraced_ms, root="op"):
    """Median root-span time over the median untraced operation, minus 1:
    how far the traced decomposition strays from the operation it times."""
    return overhead_share(statistics.median(span_durations_ms(spans, root)),
                          statistics.median(untraced_ms))


def beyond_tolerance(values, tolerances):
    """Names whose value lies beyond its tolerance in either direction."""
    return sorted(name for name, limit in tolerances.items() if abs(values[name]) > limit)


def quartile_summary(values):
    """Median, first and third quartile, and (max - min) / median."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr_share": ratio(q3 - q1, med),
        "range_share": ratio(max(values) - min(values), med),
    }
