#!/usr/bin/env python3
"""Fast smoke test of the end-to-end benchmark.

    python3 perfbench/smoke_test.py

Run from the repository root (about a minute after the first build). For
every workload in BENCHMARK.json it checks that a short untraced run prints
every end-to-end metric and a short traced run every per-layer metric, each
with its declared unit, and that the result line has exactly the keys
correct/attempted/failed/metrics. It then feeds the correctness gate a wrong
expected value for each suite workload and checks that the run reports the
failure and exits non-zero. Exits 0 when every check passes.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
EXPECTED = os.path.join(HERE, "expected.txt")
SCRATCH = os.path.join(".bench_build", "perfbench", "smoke")

failures = []


def check(condition, what):
    if not condition:
        failures.append(what)
        print("FAIL: " + what, flush=True)


def run(workload, trace, expected=EXPECTED):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "0.1", "--trace", str(trace), "--expected", expected]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def check_metrics(workload, trace, declared):
    code, result = run(workload, trace)
    tag = "%s --trace %d" % (workload, trace)
    check(code == 0, tag + ": exit status %d" % code)
    if result is None:
        check(False, tag + ": last line is not JSON")
        return
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          tag + ": result keys " + ",".join(sorted(result)))
    check(result.get("correct") is True and result.get("failed") == 0,
          tag + ": not correct")
    check(isinstance(result.get("attempted"), int)
          and result["attempted"] >= 1, tag + ": attempted < 1")
    metrics = result.get("metrics", {})
    check(sorted(metrics) == sorted(m["name"] for m in declared),
          tag + ": metric names differ from BENCHMARK.json")
    for m in declared:
        got = metrics.get(m["name"], {})
        check(got.get("unit") == m["unit"],
              "%s: %s unit %r, declared %r" % (tag, m["name"], got.get("unit"),
                                               m["unit"]))
        check(isinstance(got.get("value"), (int, float)),
              "%s: %s has no numeric value" % (tag, m["name"]))


def check_gate(workload, kind, program, replacement):
    """Rewrite one expected-values line and expect the run to fail."""
    os.makedirs(SCRATCH, exist_ok=True)
    bad = os.path.join(SCRATCH, "expected-%s.txt" % workload)
    changed = False
    with open(EXPECTED) as src, open(bad, "w") as dst:
        for line in src:
            fields = line.split()
            if fields[:2] == [kind, program] and not changed:
                line = " ".join([kind, program] + replacement) + "\n"
                changed = True
            dst.write(line)
    check(changed, "%s: no '%s %s' line to corrupt" % (workload, kind, program))
    code, result = run(workload, 0, expected=bad)
    tag = "%s with a wrong '%s %s' value" % (workload, kind, program)
    check(code != 0, tag + ": exit status 0")
    check(result is not None and result.get("correct") is False
          and result.get("failed", 0) >= 1, tag + ": failure not reported")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for workload in (w["name"] for w in bench["workloads"]):
        check_metrics(workload, 0, bench["end_to_end"])
        check_metrics(workload, 1, bench["per_layer"])
        print("ok: %s prints every metric" % workload, flush=True)
    check_gate("verify_kernels", "detected", "CG", ["-"])
    check_gate("optimize_loop", "optimize", "EP", ["2", "0",
                                                   "2.0879500000000002e-05"])
    print("ok: the correctness gate rejects wrong expected values"
          if not failures else "%d check(s) failed" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
