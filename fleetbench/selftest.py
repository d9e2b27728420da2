#!/usr/bin/env python3
"""Smoke self-test of the firmware-fleet benchmark.

Runs every workload of BENCHMARK.json on a tiny fleet for two seconds,
untraced and traced, and checks that each run is correct, fails nothing,
and emits exactly the metrics BENCHMARK.json names, each with its unit;
traced runs must also print their waterfalls and the tracing overhead.
Nothing is appended to the history. Takes about a minute once built:

  python3 fleetbench/selftest.py
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Traced output each workload must contain besides the metrics.
TRACED_LINES = {
    "serve-topk": ["waterfall query->reply", "(unattributed remainder)",
                   "tracing overhead on query_p50_ms"],
    "ingest-under-query": ["waterfall arrival->queryable",
                           "(unattributed remainder)",
                           "tracing overhead on arrival_to_queryable_p50_ms"],
    "cve-sweep": ["tracing overhead on query_p50_ms"],
}


def check_run(workload, trace, expected):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "2",
               "--trace", str(trace), "--tiny"]
    result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, timeout=600)
    problems = []
    lines = result.stdout.strip().split("\n")
    try:
        report = json.loads(lines[-1])
    except (ValueError, IndexError):
        return ["no result JSON (exit code %d)" % result.returncode]
    if result.returncode != 0:
        problems.append("exit code %d" % result.returncode)
    if sorted(report) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % sorted(report))
    if report.get("correct") is not True:
        problems.append("correct is not true")
    if not report.get("attempted", 0) >= 1 or report.get("failed") != 0:
        problems.append("attempted/failed %s/%s" % (report.get("attempted"),
                                                    report.get("failed")))
    metrics = report.get("metrics", {})
    if sorted(metrics) != sorted(expected):
        problems.append("metric names differ: missing %s, extra %s" % (
            sorted(set(expected) - set(metrics)),
            sorted(set(metrics) - set(expected))))
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit:
            problems.append("%s: unit %r, want %r" % (name, entry.get("unit"),
                                                     unit))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: value %r" % (name, value))
        elif trace == 0 and value == 0:
            problems.append("%s: end-to-end value is 0" % name)
    if trace == 1:
        for needle in TRACED_LINES[workload]:
            if needle not in result.stdout:
                problems.append("missing report line %r" % needle)
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sets = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failed = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_run(workload, trace, sets[trace])
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print("%-20s trace=%d %s" % (workload, trace, status), flush=True)
            failed += bool(problems)
    print("selftest: %s" % ("ok" if not failed else "%d run(s) failed" % failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
