#!/usr/bin/env python3
"""Steadiness check of the repository benchmark.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1-10] [--trace 0|1|both]
                                    [--seconds S] [--out FILE]
    python3 perfbench/steadiness.py --compare FIRST SECOND

Runs perfbench/run.py once per (workload, seed, trace mode) and prints, for
every metric, the median, the first and third quartile (Python's
statistics.quantiles, n=4), the interquartile range as a share of the median
and (max - min) / median. For end-to-end metrics it also flags a spread above
a third of the metric's bound in BENCHMARK.json. --compare checks two saved
untraced reports of the same code against the bounds. Run from the
repository root.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def parse_report(path, names):
    """(workload, metric) -> (median, iqr_share) from an untraced report."""
    out = {}
    workload = None
    for line in Path(path).read_text().splitlines():
        if line.startswith("## "):
            workload = line.split()[1] if "trace=0" in line else None
        elif workload and line.split() and line.split()[0] in names:
            parts = line.split()
            out[(workload, parts[0])] = (float(parts[1]), float(parts[4]))
    return out


def compare(first, second, spec):
    """Checks two untraced reports of the same code against the bounds: each
    spread within its bound, and the second median no worse than the first by
    more than the bound."""
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    a, b = parse_report(first, metrics), parse_report(second, metrics)
    ok = True
    print(f"{'workload':14} {'metric':18} {'median1':>12} {'median2':>12} {'worse by':>9} "
          f"{'bound':>6} {'iqr1':>7} {'iqr2':>7}")
    for key, (m1, iqr1) in a.items():
        m2, iqr2 = b[key]
        meta = metrics[key[1]]
        worse = (m2 - m1) / m1 if meta["better"] == "lower" else (m1 - m2) / m1
        flag = "" if worse <= meta["bound"] else "  WORSE THAN BOUND"
        if max(iqr1, iqr2) > meta["bound"]:
            flag += "  SPREAD OVER BOUND"
        ok = ok and not flag
        print(f"{key[0]:14} {key[1]:18} {m1:12.6g} {m2:12.6g} {worse:9.4f} "
              f"{meta['bound']:6.2f} {iqr1:7.4f} {iqr2:7.4f}{flag}")
    print("all within bounds" if ok else "some metrics outside their bounds")
    return 0 if ok else 1


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        return compare(sys.argv[2], sys.argv[3], spec)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0", choices=("0", "1", "both"))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", default=None, help="also append the report to this file")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    seeds = parse_seeds(args.seeds)
    report = []
    ok = True
    for workload in args.workloads.split(","):
        for trace in traces:
            runs = [run_once(workload, seed, args.seconds, trace) for seed in seeds]
            start = len(report)
            attempted = sorted({r["attempted"] for r in runs})
            report.append(f"## {workload} trace={trace} seeds={args.seeds} "
                          f"seconds={args.seconds} attempted={attempted} "
                          f"correct={all(r['correct'] for r in runs)}")
            report.append(f"{'metric':32} {'median':>14} {'q1':>14} {'q3':>14} "
                          f"{'iqr/med':>8} {'range/med':>9}")
            for name in runs[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in runs]
                if not any(values):
                    continue  # a layer this workload does not run
                s = benchlib.quartile_summary(values)
                flag = ""
                if trace == 0 and name in bounds:
                    if s["iqr_share"] > bounds[name]:
                        flag, ok = "  OVER BOUND", False
                    elif s["iqr_share"] > bounds[name] / 3:
                        flag = "  above bound/3"
                report.append(f"{name:32} {s['median']:14.6g} {s['q1']:14.6g} {s['q3']:14.6g} "
                              f"{s['iqr_share']:8.4f} {s['range_share']:9.4f}{flag}")
            report.append("")
            print("\n".join(report[start:]), flush=True)
    if args.out:
        with open(args.out, "a") as f:
            f.write("\n".join(report) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
