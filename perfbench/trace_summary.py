#!/usr/bin/env python3
"""Summarise a perfbench trace (Chrome trace-event JSON).

Prints, per span name (one name per layer call), how many spans there
were and the p50 of their self time: the span's duration minus the part
of it that its child spans cover. Then, for every span name whose spans
have children, each child layer's share of those spans' total time,
with that total as the base.

    python3 perfbench/trace_summary.py trace.json [--json]

Stdlib only; run.py imports summarize() for the per-layer metrics.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict


def _covered(parent, children):
    """Microseconds of `parent` covered by the union of `children`."""
    lo, hi = parent["ts"], parent["ts"] + parent["dur"]
    spans = sorted((max(lo, c["ts"]), min(hi, c["ts"] + c["dur"]))
                   for c in children)
    covered, end = 0.0, lo
    for start, stop in spans:
        start = max(start, end)
        if stop > start:
            covered += stop - start
            end = stop
    return covered


def _stats(values):
    return {"p50": statistics.median(values) if values else 0.0,
            "mean": statistics.fmean(values) if values else 0.0,
            "sum": float(sum(values))}


def summarize(trace):
    """Per-name span statistics and per-parent layer shares of a trace.

    Returns {"spans": {name: {"count", "dur_ms", "self_ms", "args"}},
             "shares": {parent: {"count", "base_ms", "layers": {name: pct}}}}
    where dur_ms/self_ms and every numeric arg carry p50/mean/sum.
    """
    events = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
    # Ids are unique per process clock (pid), children point at parents.
    by_id = {(e["pid"], e["args"]["span_id"]): e for e in events}
    children = defaultdict(list)
    for e in events:
        parent = e["args"].get("parent_id", 0)
        if parent:
            children[(e["pid"], parent)].append(e)

    durs, selfs = defaultdict(list), defaultdict(list)
    args = defaultdict(lambda: defaultdict(list))
    parent_time = defaultdict(float)  # per name of a span with children
    parent_count = defaultdict(int)
    layer_time = defaultdict(lambda: defaultdict(float))
    for key, e in by_id.items():
        name = e["name"]
        kids = children.get(key, [])
        durs[name].append(e["dur"] / 1000.0)
        selfs[name].append((e["dur"] - _covered(e, kids)) / 1000.0)
        for arg, value in e["args"].items():
            if arg not in ("span_id", "parent_id", "request_id") and \
                    isinstance(value, (int, float)):
                args[name][arg].append(value)
        if kids:
            parent_time[name] += e["dur"] / 1000.0
            parent_count[name] += 1
            by_layer = defaultdict(list)
            for kid in kids:
                by_layer[kid["name"]].append(kid)
            for layer, spans in by_layer.items():
                layer_time[name][layer] += _covered(e, spans) / 1000.0

    spans = {}
    for name in durs:
        spans[name] = {"count": len(durs[name]),
                       "dur_ms": _stats(durs[name]),
                       "self_ms": _stats(selfs[name]),
                       "args": {a: _stats(v) for a, v in args[name].items()}}
    shares = {}
    for parent, base in parent_time.items():
        shares[parent] = {
            "count": parent_count[parent], "base_ms": base,
            "layers": {layer: 100.0 * t / base if base > 0 else 0.0
                       for layer, t in layer_time[parent].items()}}
    return {"spans": spans, "shares": shares}


def format_summary(summary):
    lines = ["%-30s %8s %12s %12s" % ("span", "count", "self p50 ms",
                                      "dur p50 ms")]
    for name in sorted(summary["spans"]):
        s = summary["spans"][name]
        lines.append("%-30s %8d %12.4f %12.4f" % (
            name, s["count"], s["self_ms"]["p50"], s["dur_ms"]["p50"]))
    for parent in sorted(summary["shares"]):
        sh = summary["shares"][parent]
        lines.append("")
        lines.append("share of %s time (base: %d spans, %.1f ms total)" % (
            parent, sh["count"], sh["base_ms"]))
        for layer, pct in sorted(sh["layers"].items(), key=lambda kv: -kv[1]):
            lines.append("  %-28s %6.2f %%" % (layer, pct))
        lines.append("  %-28s %6.2f %%" % (
            "(self)", 100.0 - sum(sh["layers"].values())))
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", help="Chrome trace-event JSON file")
    parser.add_argument("--json", action="store_true",
                        help="print the summary as JSON")
    opts = parser.parse_args(argv)
    with open(opts.trace) as f:
        summary = summarize(json.load(f))
    if opts.json:
        json.dump(summary, sys.stdout, indent=1, sort_keys=True)
        print()
    else:
        print(format_summary(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
