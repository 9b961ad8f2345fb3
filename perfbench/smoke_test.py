#!/usr/bin/env python3
"""Smoke test of the pipeline benchmark.

    python3 perfbench/smoke_test.py

Runs every workload at its tiny size, untraced and traced, through
perfbench/run.py from the checkout root, and checks that
  * each run exits 0 and its self-checks all pass;
  * the last stdout line is the contract's JSON object;
  * an untraced run reports exactly the end-to-end metrics of
    BENCHMARK.json and a traced run exactly its per-layer metrics, each
    with the declared unit.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = "4"


def run(workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", SECONDS, "--trace",
           str(trace), "--tiny"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    return p.returncode, p.stdout


def check(workload, trace, expected):
    rc, out = run(workload, trace)
    where = "%s trace=%d" % (workload, trace)
    problems = []
    if rc != 0:
        problems.append("exit code %d" % rc)
    problems += [l for l in out.splitlines() if l.startswith("[check] FAIL")]
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return ["%s: last line is not JSON" % where]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("keys %s" % sorted(result))
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted %r" % result.get("attempted"))
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append("metrics differ: missing %s, extra %s" % (
            sorted(set(expected) - set(metrics)),
            sorted(set(metrics) - set(expected))))
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is not None and (m.get("unit") != unit or
                              not isinstance(m.get("value"), (int, float))):
            problems.append("%s: %r (unit %s expected)" % (name, m, unit))
    return ["%s: %s" % (where, p) for p in problems]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    failures = []
    for w in bench["workloads"]:
        for trace, expected in ((0, e2e), (1, layers)):
            found = check(w["name"], trace, expected)
            print("%-18s trace=%d %s" % (w["name"], trace,
                                         "ok" if not found else "FAILED"))
            failures += found
    for f in failures:
        print(f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
