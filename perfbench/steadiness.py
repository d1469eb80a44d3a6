#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py --workload serve_mix --seeds 1-10 \
        --seconds 10 [--bench BENCHMARK.json] [--out FILE.json]

Runs `perfbench/run.py` once per seed, one run at a time, then prints for
every end-to-end metric its median, first and third quartiles
(statistics.quantiles(values, n=4)) and the quartile spread as a share of
the median, next to the metric's bound in BENCHMARK.json. Exits 1 if any
run fails its correctness check or any spread (setup_s excepted) exceeds
its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--bench", default="BENCHMARK.json")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {name: [] for name in bounds}
    ok = True
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout else "{}"
        result = json.loads(last)
        if proc.returncode != 0 or not result.get("correct"):
            print("seed %d: run failed (exit %d)" % (seed, proc.returncode))
            ok = False
            continue
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (n, result["metrics"][n]["value"]) for n in bounds)),
            flush=True)

    report = {}
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        report[name] = {"median": med, "q1": q1, "q3": q3,
                        "spread": spread, "bound": bounds[name],
                        "runs": len(vals)}
        flag = ""
        if name != "setup_s" and spread > bounds[name]:
            flag = "  OVER BOUND"
            ok = False
        elif spread > bounds[name] / 3:
            flag = "  (above a third of the bound)"
        print("%-20s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f "
              "bound %.2f%s" % (name, med, q1, q3, spread, bounds[name], flag))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds,
                       "metrics": report}, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
