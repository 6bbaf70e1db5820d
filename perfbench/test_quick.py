#!/usr/bin/env python3
"""Tests the benchmark end to end on tiny inputs (its --quick mode).

    python3 perfbench/test_quick.py

Runs every workload once untraced and once traced, each for one second,
and checks that each run exits 0, ends in the result line, reports every
metric BENCHMARK.json declares with the declared unit, prints error_rate 0
and, when traced, writes a chrome-trace span file with events.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--quick"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise AssertionError("%s trace=%d exited %d:\n%s" % (
            workload, trace, proc.returncode, proc.stderr[-4000:]))
    return proc.stdout.strip().splitlines()


def check(workload, trace, declared, lines):
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1, result
    metrics = result["metrics"]
    assert set(metrics) == set(declared), (
        "%s trace=%d: metrics %s, declared %s" % (
            workload, trace, sorted(metrics), sorted(declared)))
    for name, unit in declared.items():
        got = metrics[name]
        assert got["unit"] == unit, (name, got, unit)
        assert isinstance(got["value"], (int, float)), (name, got)
    error_lines = [l for l in lines if l.split()[:1] == ["error_rate"]]
    assert len(error_lines) == 1, lines
    assert float(error_lines[0].split()[1]) == 0.0, error_lines[0]
    if trace:
        path = os.path.join(ROOT, ".bench_build", "traces", workload + ".json")
        with open(path) as f:
            events = [l for l in f if '"ph":"X"' in l]
        assert events, "no span events in " + path


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            check(workload, trace, declared[trace], run(workload, trace))
            print("ok %s trace=%d" % (workload, trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
