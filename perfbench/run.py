#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the repository root. Builds the library and the sc_perfbench runner
from source into $CARGO_TARGET_DIR (default .bench_build), runs one workload,
and prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. Exits non-zero when the build fails or an output check fails.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

WORKLOADS = ("alloc-cold", "serve-hotset", "train", "huge-stream")

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("placement_quality", "ratio"),
)

# Per-layer metrics, grouped by the workload that measures them. Every traced
# run reports the whole list; a layer that a workload does not run reads 0.
PER_LAYER = (
    # alloc-cold: self time per operation of each public call
    ("graph.load_profile_ms", "ms"),
    ("gnn.features_ms", "ms"),
    ("sim.build_ms", "ms"),
    ("gnn.forward_ms", "ms"),
    ("gnn.greedy_ms", "ms"),
    ("graph.contract_ms", "ms"),
    ("partition.metis_ms", "ms"),
    ("graph.expand_ms", "ms"),
    ("sim.simulate_ms", "ms"),
    ("gnn.compression", "ratio"),
    # tracing itself (alloc-cold, train, huge-stream)
    ("trace.unattributed_share", "share"),
    ("trace.overhead_share", "share"),
    ("trace.reconcile_share", "share"),
    # serve-hotset
    ("serve.service_p50_ms", "ms"),
    ("serve.client_gap_ms", "ms"),
    ("serve.batch_mean", "count"),
    ("serve.context_hit_ratio", "share"),
    ("serve.tail_hit_ratio", "share"),
    ("serve.dedup_share", "share"),
    ("gnn.forward_batch_ms", "ms"),
    # train: the program's phase timers, per epoch
    ("gnn.encode_ms", "ms"),
    ("gnn.sample_ms", "ms"),
    ("partition.place_ms", "ms"),
    ("nn.backward_ms", "ms"),
    ("rl.episode_cache_hit_ratio", "share"),
    ("rl.dedup_share", "share"),
    ("rl.evaluations", "count"),
    ("common.pool_busy_share", "share"),
    # huge-stream
    ("graph.ingest_ms", "ms"),
    ("graph.ingest_mb_per_s", "MB/s"),
    ("graph.csr_load_ms", "ms"),
    ("partition.allocate_ms", "ms"),
    ("partition.stream_ms", "ms"),
    ("partition.coarsen_ms", "ms"),
    ("partition.coarse_partition_ms", "ms"),
    ("partition.refine_ms", "ms"),
    ("partition.unstaged_share", "share"),
    ("partition.evictions", "count"),
    ("partition.eviction_batches", "count"),
    ("partition.buffer_peak", "count"),
    ("partition.refine_moves", "count"),
    ("partition.imbalance", "ratio"),
)

# Reconciliation tolerances of a traced run (README, "Reconciliation
# tolerance"): a run whose spans stop covering the operation fails.
TOLERANCES = {
    "alloc-cold": {"trace.unattributed_share": 0.02, "trace.reconcile_share": 0.05},
    "huge-stream": {"trace.unattributed_share": 0.02, "trace.reconcile_share": 0.05,
                    "partition.unstaged_share": 0.05},
}

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_root):
    """Configures once, then (re)builds the runner; returns its path."""
    source = root / "perfbench"
    build_dir = build_root / "perfbench"
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(source), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "sc_perfbench", "-j4"],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
    )
    return build_dir / "sc_perfbench"


def end_to_end(raw):
    op_ms = raw["op_ms"]
    rung = benchlib.tail_rung(len(op_ms))
    if rung is None:
        raise RuntimeError(f"{len(op_ms)} operations are too few for any tail percentile")
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "op_p50_ms": statistics.median(op_ms),
        "op_tail_ms": benchlib.percentile(op_ms, rung),
        "ops_per_s": raw["ops"] / raw["timed_wall_s"],
        "peak_rss_mb": raw["peak_rss_mb"],
        "placement_quality": raw["placement_quality"],
    }


def per_op_ms(total_ns, ops):
    return total_ns / ops / 1e6


def layers_alloc_cold(raw, spans):
    ops = raw["ops"]
    own = benchlib.self_time_by_name(spans)
    out = {f"{name}_ms": per_op_ms(own.get(name, 0), ops) for name in (
        "graph.load_profile", "gnn.features", "sim.build", "gnn.forward", "gnn.greedy",
        "graph.contract", "partition.metis", "graph.expand", "sim.simulate")}
    out["gnn.compression"] = raw["gnn.compression"]
    out["trace.unattributed_share"] = benchlib.unattributed_share(spans)
    out["trace.reconcile_share"] = benchlib.reconcile_share(spans, raw["op_ms"])
    return out


def layers_serve_hotset(raw, spans):
    del spans
    gaps = [c - s for c, s in zip(raw["op_ms"], raw["service_ms"])]
    return {
        "serve.service_p50_ms": statistics.median(raw["service_ms"]),
        "serve.client_gap_ms": statistics.median(gaps),
        "serve.batch_mean": benchlib.ratio(raw["serve.batched_requests"], raw["serve.batches"]),
        "serve.context_hit_ratio": benchlib.hit_ratio(raw["serve.context_hits"],
                                                      raw["serve.context_misses"]),
        "serve.tail_hit_ratio": benchlib.hit_ratio(raw["serve.tail_hits"], raw["serve.tail_misses"]),
        "serve.dedup_share": benchlib.ratio(raw["serve.dedup_shared"],
                                            raw["serve.batched_requests"]),
        "gnn.forward_batch_ms": raw["gnn.forward_batch_ms"],
    }


def layers_train(raw, spans):
    del spans
    phases = {p: raw[f"phase_ms.{p}"] for p in
              ("encode", "sample", "contract", "partition", "simulate", "backward")}
    busy = sum(sum(v) for v in phases.values())
    epochs = raw["ops"]
    return {
        "gnn.encode_ms": statistics.mean(phases["encode"]),
        "gnn.sample_ms": statistics.mean(phases["sample"]),
        "graph.contract_ms": statistics.mean(phases["contract"]),
        "partition.place_ms": statistics.mean(phases["partition"]),
        "sim.simulate_ms": statistics.mean(phases["simulate"]),
        "nn.backward_ms": statistics.mean(phases["backward"]),
        "rl.episode_cache_hit_ratio": benchlib.hit_ratio(raw["rl.cache_hits"],
                                                         raw["rl.cache_misses"]),
        "rl.dedup_share": benchlib.ratio(raw["rl.dedup_hits"], raw["rl.samples_drawn"]),
        "rl.evaluations": benchlib.ratio(raw["rl.cache_misses"], epochs),
        "common.pool_busy_share": benchlib.pool_busy_share(busy, raw["threads"],
                                                           sum(raw["traced_op_ms"])),
    }


def layers_huge_stream(raw, spans):
    ops = raw["ops"]
    own = benchlib.self_time_by_name(spans)
    total = benchlib.total_time_by_name(spans)
    stages = {k: statistics.mean(raw[f"stage_ms.{k}"])
              for k in ("stream", "coarsen", "partition", "refine")}
    allocate_ms = per_op_ms(total["partition.streaming_allocate"], ops)
    ingest_ms = per_op_ms(own["graph.ingest"], ops)
    return {
        "graph.ingest_ms": ingest_ms,
        "graph.ingest_mb_per_s": benchlib.ratio(raw["file_mb"], ingest_ms / 1e3),
        "graph.csr_load_ms": per_op_ms(own["graph.csr_load"], ops),
        "partition.allocate_ms": allocate_ms,
        "partition.stream_ms": stages["stream"],
        "partition.coarsen_ms": stages["coarsen"],
        "partition.coarse_partition_ms": stages["partition"],
        "partition.refine_ms": stages["refine"],
        "partition.unstaged_share": benchlib.ratio(allocate_ms - sum(stages.values()),
                                                   allocate_ms),
        "partition.evictions": raw["partition.evictions"],
        "partition.eviction_batches": raw["partition.eviction_batches"],
        "partition.buffer_peak": raw["partition.buffer_peak"],
        "partition.refine_moves": raw["partition.refine_moves"],
        "partition.imbalance": raw["partition.imbalance"],
        "trace.unattributed_share": benchlib.unattributed_share(spans),
        "trace.reconcile_share": benchlib.reconcile_share(spans, raw["op_ms"]),
    }


LAYERS = {
    "alloc-cold": layers_alloc_cold,
    "serve-hotset": layers_serve_hotset,
    "train": layers_train,
    "huge-stream": layers_huge_stream,
}


def per_layer(workload, raw, spans):
    values = {name: 0.0 for name, _ in PER_LAYER}
    values.update(LAYERS[workload](raw, spans))
    if workload != "serve-hotset":
        values["trace.overhead_share"] = benchlib.overhead_share(
            statistics.median(raw["traced_op_ms"]), statistics.median(raw["op_ms"]))
    unknown = set(values) - {name for name, _ in PER_LAYER}
    if unknown:
        raise RuntimeError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return values


def check_fingerprint(build_root, binary, workload, seed, ops, fingerprint):
    """Same runner build, workload, seed and operation count must reproduce
    the same outputs in every run. The count is part of the key because the
    outputs depend on it (serve's mean over all responses, train's epochs).
    Fingerprints are kept per build, so a rebuilt program starts afresh."""
    build_id = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    store = build_root / "fingerprints" / build_id
    store.mkdir(parents=True, exist_ok=True)
    path = store / f"{workload}-{seed}-{ops}.txt"
    if path.exists():
        previous = path.read_text().strip()
        if previous != fingerprint:
            log(f"{workload} seed {seed}: output fingerprint {fingerprint} differs from an "
                f"earlier run's {previous}")
            return False
        return True
    path.write_text(fingerprint + "\n")
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    build_root = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(root, build_root)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return 2

    work = build_root / "work"
    work.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    record = work / f"{tag}.json"
    spans_path = work / f"{tag}.spans.csv"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(record), "--workdir", str(work)]
    if args.trace:
        cmd += ["--spans", str(spans_path)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"runner exceeded {RUN_TIMEOUT_S} s")
        return 3
    log(f"runner finished in {time.monotonic() - started:.1f} s")
    if proc.returncode != 0:
        log(f"runner failed with exit code {proc.returncode} (an output check failed)")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    raw = json.loads(record.read_text())
    spans = benchlib.read_spans(spans_path) if args.trace else []
    record.unlink()
    if args.trace:
        spans_path.unlink()

    correct = check_fingerprint(build_root, binary, args.workload, args.seed, int(raw["ops"]),
                                raw["fingerprint"])
    correct = correct and raw["failed"] == 0
    if args.trace:
        units = dict(PER_LAYER)
        values = per_layer(args.workload, raw, spans)
        for name in benchlib.beyond_tolerance(values, TOLERANCES.get(args.workload, {})):
            log(f"{args.workload}: {name} = {values[name]:.4f} is beyond its tolerance "
                f"{TOLERANCES[args.workload][name]}")
            correct = False
    else:
        units = dict(END_TO_END)
        values = end_to_end(raw)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps({
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
