#!/usr/bin/env python3
"""Tests of the benchmark itself: the tail-percentile rule, metric names
against BENCHMARK.json, the trace summariser, and that a corrupted
answer fails the correctness checks of every workload.

    python3 perfbench/test_perfbench.py

The last group builds perfbench (as run.py does) and runs each workload
kind at toy sizes for a second.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import trace_summary  # noqa: E402

with open(run.ROOT / "BENCHMARK.json") as f:
    BENCH = json.load(f)
with open(HERE / "workloads.json") as f:
    WORKLOADS = json.load(f)


def fake_raw():
    return {"attempted": 12, "failed": 0, "mismatches": 0,
            "setup_s": [0.5, 0.4, 0.6],
            "query_ms": [1.0 + i for i in range(10)],
            "ack_ms": [30.0, 31.0], "recover_s": 2.0, "query_phase_s": 2.0,
            "queries": 10, "cpu_s": 3.0, "ops": 12, "peak_rss_kb": 2048,
            "info": {}}


def span(name, sid, parent, ts, dur, pid=1, **args):
    a = {"span_id": sid, "parent_id": parent, "request_id": 1}
    a.update(args)
    return {"name": name, "ph": "X", "pid": pid, "tid": 0, "ts": ts,
            "dur": dur, "args": a}


class TailRuleTest(unittest.TestCase):
    def test_ten_samples_beyond(self):
        # 1000 samples: p99 is rank 990, with exactly 10 beyond it.
        self.assertEqual(run.beyond(1000, 99.0), 10)
        self.assertEqual(run.tail_percentile(1000), 99.0)
        # One fewer and p99 has only 9 beyond, so the rule falls to p95.
        self.assertEqual(run.beyond(999, 99.0), 9)
        self.assertEqual(run.tail_percentile(999), 95.0)
        self.assertEqual(run.tail_percentile(10000), 99.9)
        self.assertEqual(run.tail_percentile(20), 50.0)
        self.assertIsNone(run.tail_percentile(19))

    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 95.0), 95)
        self.assertEqual(run.percentile(values, 50.0), 50)
        self.assertEqual(run.percentile([7.0], 99.0), 7.0)

    def test_workload_tails_are_on_the_ladder(self):
        for spec in WORKLOADS.values():
            self.assertIn(spec["tail_percentile"], run.TAIL_LADDER)


class MetricNamesTest(unittest.TestCase):
    def test_bench_file_shape(self):
        self.assertEqual(sorted(BENCH), ["command", "end_to_end", "paths",
                                         "per_layer", "run_seconds",
                                         "workloads"])
        self.assertEqual(sorted(w["name"] for w in BENCH["workloads"]),
                         sorted(WORKLOADS))
        for m in BENCH["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in BENCH["end_to_end"]))

    def test_end_to_end_names_and_units(self):
        declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
        for name, spec in WORKLOADS.items():
            got = run.end_to_end_metrics(fake_raw(), spec)
            self.assertEqual({k: u for k, (_, u) in got.items()}, declared,
                             name)
            for value, _ in got.values():
                self.assertGreater(value, 0.0, name)

    def test_per_layer_names_and_units(self):
        declared = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        summary = trace_summary.summarize({"traceEvents": [
            span("gir.query", 1, 0, 0, 100),
            span("gir.phase2", 2, 1, 10, 80, reads=3)]})
        for name, spec in WORKLOADS.items():
            got = run.per_layer_metrics(fake_raw(), summary, spec)
            self.assertEqual({k: u for k, (_, u) in got.items()}, declared,
                             name)

    def test_result_line_keys(self):
        raw = fake_raw()
        line = run.result_line(raw, run.end_to_end_metrics(
            raw, WORKLOADS["explore_anti_d5"]))
        self.assertEqual(sorted(line), ["attempted", "correct", "failed",
                                        "metrics"])
        self.assertTrue(line["correct"])
        raw["mismatches"] = raw["failed"] = 1
        self.assertFalse(run.result_line(raw, {})["correct"])


class TraceSummaryTest(unittest.TestCase):
    def test_self_time_subtracts_union_of_children(self):
        trace = {"traceEvents": [
            span("root", 1, 0, 0, 1000),
            span("a", 2, 1, 100, 300),
            span("a", 3, 1, 200, 300),   # overlaps the first "a"
            span("b", 4, 1, 900, 500),   # runs past the parent's end
            span("other", 1, 0, 0, 50, pid=2)]}  # same id, other clock
        s = trace_summary.summarize(trace)
        # Children cover [100, 500) and [900, 1000): 500 of 1000 us.
        self.assertAlmostEqual(s["spans"]["root"]["self_ms"]["p50"], 0.5)
        self.assertEqual(s["spans"]["a"]["count"], 2)
        self.assertEqual(s["spans"]["other"]["count"], 1)
        shares = s["shares"]["root"]
        self.assertAlmostEqual(shares["base_ms"], 1.0)
        self.assertAlmostEqual(shares["layers"]["a"], 40.0)
        self.assertAlmostEqual(shares["layers"]["b"], 10.0)

    def test_args_are_aggregated(self):
        s = trace_summary.summarize({"traceEvents": [
            span("x", 1, 0, 0, 10, reads=2), span("x", 2, 0, 0, 10, reads=4),
            span("x", 3, 0, 0, 10, reads=9)]})
        self.assertEqual(s["spans"]["x"]["args"]["reads"]["p50"], 4)
        self.assertEqual(s["spans"]["x"]["args"]["reads"]["sum"], 15)


# Toy sizes of each workload kind: the same code paths, about a second.
TOY = {
    "explore": {"dataset": "ANTI", "n": 5000, "dim": 4, "k": 10,
                "clients": 2, "setup_repeats": 1},
    "serve": {"dataset": "IND", "n": 20000, "dim": 3, "k": 10, "threads": 2,
              "cache_capacity": 16, "setup_repeats": 1, "offered_qps": 300,
              "key_pool": 64, "zipf_s": 1.1, "jitter": 0.02,
              "jitter_prob": 0.2, "trace_events": 50000, "slice_events": 64,
              "warmup_slices": 1, "max_batch": 16, "max_wait_ms": 5,
              "deadline_ms": 1000, "direct_samples": 8},
    "write": {"dataset": "IND", "n": 5000, "dim": 3, "k": 10, "threads": 2,
              "read_batch": 2, "cache_capacity": 16, "setup_repeats": 1,
              "key_pool": 64, "zipf_s": 1.1, "jitter": 0.02,
              "jitter_prob": 0.2, "read_stream": 1000,
              "inserts_per_batch": 2, "deletes_per_batch": 2,
              "batches_per_second": 10, "probes": 4},
}


class CorrectnessCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        if cls.binary is None:
            raise unittest.SkipTest("perfbench does not build here")

    def run_kind(self, kind, *extra):
        scratch = run.ROOT / ".bench_build"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            cmd = [str(self.binary), "--workload=" + kind, "--seed=3",
                   "--seconds=1", "--work_dir=" + tmp + "/data"]
            cmd += ["--%s=%s" % kv for kv in TOY[kind].items()]
            proc = subprocess.run(cmd + list(extra), capture_output=True,
                                  text=True, timeout=120)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_clean_runs_pass(self):
        for kind in TOY:
            raw = self.run_kind(kind)
            self.assertEqual(raw["mismatches"], 0, kind)
            self.assertGreater(raw["queries"], 0, kind)

    def test_corrupted_answer_fails(self):
        for kind in TOY:
            raw = self.run_kind(kind, "--inject_wrong_answer=1")
            self.assertGreaterEqual(raw["mismatches"], 1, kind)
            self.assertGreaterEqual(raw["failed"], 1, kind)
            self.assertFalse(run.result_line(raw, {})["correct"], kind)


if __name__ == "__main__":
    unittest.main()
