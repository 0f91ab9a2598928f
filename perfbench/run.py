#!/usr/bin/env python3
"""The repository benchmark: one workload run, every metric by name.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (CMake, Release) into
.bench_build/perfbench, runs the workload's binary with the parameters
perfbench/workloads.json gives it, and prints a short report followed,
as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 the run records spans (Chrome trace-event JSON, summarised by
trace_summary.py) and the metrics are its per_layer list. Exits non-zero
without a result when the build or the run fails, and non-zero after
the result when an answer was wrong.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import trace_summary  # noqa: E402

BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170
# Percentiles the tail metrics may use, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def rank(n, pct):
    """1-based nearest-rank position of the pct-th percentile of n values."""
    # The epsilon keeps e.g. 99.9% of 10000 at rank 9990, not 9991.
    return max(1, math.ceil(pct * n / 100.0 - 1e-9))


def percentile(values, pct):
    ordered = sorted(values)
    return ordered[rank(len(ordered), pct) - 1] if ordered else 0.0


def beyond(n, pct):
    """Samples strictly above the pct-th percentile's rank."""
    return n - rank(n, pct) if n else 0


def tail_percentile(n):
    """The highest ladder percentile with at least ten samples beyond it."""
    allowed = [p for p in TAIL_LADDER if beyond(n, p) >= 10]
    return allowed[-1] if allowed else None


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(raw, spec):
    """name -> (value, unit) for BENCHMARK.json's end_to_end list."""
    phase = raw["query_phase_s"]
    return {
        "setup_s": (median(raw["setup_s"]), "s"),
        "query_p50_ms": (median(raw["query_ms"]), "ms"),
        "query_tail_ms": (percentile(raw["query_ms"], spec["tail_percentile"]),
                          "ms"),
        "query_qps": (raw["queries"] / phase if phase > 0 else 0.0, "1/s"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
        "cpu_ms_per_op": (1000.0 * raw["cpu_s"] / raw["ops"]
                          if raw["ops"] else 0.0, "ms"),
    }


def per_layer_metrics(raw, summary, spec):
    """name -> (value, unit) for BENCHMARK.json's per_layer list.

    Every layer metric comes from the traced run's spans; a layer the
    workload bypasses has no spans and reads 0. Times are span-duration
    p50s, except the two admission waits, which are means (most requests
    wait nothing, so their p50 is 0). Counts are per-span p50s, or run
    sums where they feed a ratio; every ratio comes with its bases (the
    *_total_ms, *.queries, *.appends, *.entries_tested and *_reads
    metrics).
    """
    spans, shares = summary["spans"], summary["shares"]

    def dur(name):
        return spans[name]["dur_ms"]["p50"] if name in spans else 0.0

    def mean_dur(name):
        return spans[name]["dur_ms"]["mean"] if name in spans else 0.0

    def arg(name, key, stat="p50"):
        return spans.get(name, {}).get("args", {}).get(key, {}).get(stat, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    def share(parent, layer):
        return shares.get(parent, {}).get("layers", {}).get(layer, 0.0)

    def base(parent):
        return shares.get(parent, {}).get("base_ms", 0.0)

    charged = arg("gir.batch", "charged_reads", "sum")
    amortized = arg("gir.batch", "amortized_reads", "sum")
    batch_queries = arg("gir.batch", "queries", "sum")
    appends = arg("write.ack", "wal_appends", "sum")
    entries = arg("write.ack", "cache_entries", "sum")
    acks = raw["ack_ms"]
    phase = raw["query_phase_s"]
    return {
        "topk.brs_ms": (dur("topk.brs"), "ms"),
        "topk.reads": (arg("topk.brs", "reads"), "count"),
        "gir.phase1_ms": (dur("gir.phase1"), "ms"),
        "gir.phase2_ms": (dur("gir.phase2"), "ms"),
        "gir.phase2_reads": (arg("gir.phase2", "reads"), "count"),
        "gir.candidates": (arg("gir.phase2", "candidates"), "count"),
        "gir.star_facets": (arg("gir.phase2", "star_facets"), "count"),
        "gir.constraints": (arg("gir.phase2", "constraints"), "count"),
        "geom.intersect_ms": (dur("geom.intersect"), "ms"),
        "gir.query_ms": (dur("gir.query"), "ms"),
        "gir.phase2_share_pct": (share("gir.query", "gir.phase2"), "%"),
        "gir.query_total_ms": (base("gir.query"), "ms"),
        "gir.batch.read_amortization": (ratio(charged, amortized), "ratio"),
        "gir.batch.charged_reads": (charged, "count"),
        "gir.batch.amortized_reads": (amortized, "count"),
        "gir.batch.shared_groups": (arg("gir.batch", "shared_groups", "sum"),
                                    "count"),
        "gir.batch.duplicate_hits": (arg("gir.batch", "duplicate_hits", "sum"),
                                     "count"),
        "gir.batch.queries": (batch_queries, "count"),
        "gir.cache.hit_ratio": (
            ratio(arg("gir.batch", "exact_hits", "sum"), batch_queries),
            "ratio"),
        "gir.cache.partial_hits": (arg("gir.batch", "partial_hits", "sum"),
                                   "count"),
        "serve.admission.queue_wait_ms": (
            mean_dur("serve.admission.queue_wait"), "ms"),
        "serve.dispatch_wait_ms": (mean_dur("serve.dispatch_wait"), "ms"),
        "serve.batch_compute_ms": (dur("serve.batch_compute"), "ms"),
        "serve.batch_size": (
            ratio(arg("serve.replay", "served", "sum"),
                  arg("serve.replay", "batches", "sum")), "count"),
        "serve.shed": (arg("serve.replay", "shed", "sum"), "count"),
        "storage.wal.ack_wait_ms": (dur("storage.wal.append"), "ms"),
        "storage.wal.fsyncs_per_append": (
            ratio(arg("write.ack", "wal_fsyncs", "sum"), appends), "ratio"),
        "storage.wal.appends": (appends, "count"),
        "index.mutate_ms": (dur("index.mutate"), "ms"),
        "index.refreeze_ms": (dur("index.refreeze"), "ms"),
        "index.refreeze_share_pct": (share("write.ack", "index.refreeze"),
                                     "%"),
        "write.ack_total_ms": (base("write.ack"), "ms"),
        "gir.cache.invalidate_ms": (dur("gir.cache.invalidate"), "ms"),
        "gir.cache.lp_tests": (arg("write.ack", "cache_lp_tests"), "count"),
        "gir.cache.survival_ratio": (
            ratio(arg("write.ack", "cache_survived", "sum"), entries),
            "ratio"),
        "gir.cache.entries_tested": (entries, "count"),
        "storage.arena.open_ms": (dur("storage.arena.open"), "ms"),
        "storage.recovery.replayed_batches": (
            arg("storage.recovery.open", "replayed_batches"), "count"),
        "write.ack_p50_ms": (median(acks), "ms"),
        "write.ack_tail_ms": (
            percentile(acks, spec.get("ack_tail_percentile", 90)), "ms"),
        "write.recover_s": (raw["recover_s"], "s"),
        "trace.query_p50_ms": (median(raw["query_ms"]), "ms"),
        "trace.query_qps": (raw["queries"] / phase if phase > 0 else 0.0,
                            "1/s"),
    }


def result_line(raw, metrics):
    """The final JSON object. Shed requests count as failed operations;
    only wrong answers and errors make the run incorrect."""
    shed = int(raw["info"].get("shed", 0))
    return {
        "correct": raw["mismatches"] == 0 and raw["failed"] == shed,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def tail_notes(raw, spec):
    """One line per tail metric: its percentile and sample counts."""
    notes = []
    for label, values, pct in (
            ("query_tail_ms", raw["query_ms"], spec["tail_percentile"]),
            ("write.ack_tail_ms", raw["ack_ms"],
             spec.get("ack_tail_percentile"))):
        if pct is None or not values:
            continue
        n = len(values)
        notes.append("%s = p%g of %d samples, %d beyond it (rule allows p%s)"
                     % (label, pct, n, beyond(n, pct), tail_percentile(n)))
        if beyond(n, pct) < 10:
            log("warning: fewer than 10 samples beyond the %s percentile"
                % label)
    return notes


def build():
    """Configures and builds the perfbench binary; None on failure."""
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
              "-j", str(min(4, os.cpu_count() or 1))]]
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            return None
    binary = BUILD_DIR / "perfbench"
    return binary if binary.exists() else None


def run_workload(binary, name, spec, seed, seconds, trace_path, work_dir):
    cmd = [str(binary), "--workload=" + spec["kind"], "--seed=%d" % seed,
           "--seconds=%d" % seconds, "--work_dir=" + str(work_dir)]
    cmd += ["--%s=%s" % (k, v) for k, v in spec["params"].items()]
    if trace_path is not None:
        cmd.append("--trace_out=" + str(trace_path))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s: timed out after %d s" % (name, RUN_TIMEOUT_S))
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        log("%s: perfbench exited with %d" % (name, proc.returncode))
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    with open(HERE / "workloads.json") as f:
        workloads = json.load(f)
    if opts.workload not in workloads or opts.seconds < 1:
        log("unknown workload %r or bad --seconds" % opts.workload)
        return 2
    spec = workloads[opts.workload]

    binary = build()
    if binary is None:
        log("build failed")
        return 1
    work_dir = ROOT / ".bench_build" / ("work-%d" % os.getpid())
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        trace_path = work_dir / "trace.json" if opts.trace else None
        raw = run_workload(binary, opts.workload, spec, opts.seed,
                           opts.seconds, trace_path, work_dir / "data")
        if raw is None:
            return 1
        if opts.trace:
            with open(trace_path) as f:
                summary = trace_summary.summarize(json.load(f))
            print(trace_summary.format_summary(summary))
            metrics = per_layer_metrics(raw, summary, spec)
            declared = [m["name"] for m in bench["per_layer"]]
        else:
            metrics = end_to_end_metrics(raw, spec)
            declared = [m["name"] for m in bench["end_to_end"]]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if sorted(metrics) != sorted(declared):
        log("metric names differ from BENCHMARK.json: %s"
            % sorted(set(metrics) ^ set(declared)))
        return 1
    if raw["queries"] == 0:
        log("no query completed")
        return 1
    for note in tail_notes(raw, spec):
        print(note)
    for key, value in sorted(raw["info"].items()):
        print("%s = %s" % (key, value))
    result = result_line(raw, metrics)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
