#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload objects --runs 10

Runs perfbench/run.py untraced once per seed (seeds first-seed ..
first-seed + runs - 1, default 1 .. runs) with the run length from
BENCHMARK.json, checks that each result line holds exactly the keys
correct, attempted, failed and metrics, with every end-to-end metric of
BENCHMARK.json in its unit, then prints, for every metric,
the median, the quartiles (statistics.quantiles(values, n=4)) and the
spread (Q3 - Q1) / median next to the metric's bound. A metric whose
spread exceeds a third of its bound is marked; setup_s is exempt from
the spread rule. Run from the root of a checkout.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit("%s seed %d failed (exit %d)"
                         % (workload, seed, out.returncode))
    return json.loads(lines[-1])


def check_result(r, bench, workload, seed):
    """Refuse a result line that does not match the manifest."""
    want = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    got = {k: v.get("unit") for k, v in r.get("metrics", {}).items()}
    if set(r) != {"correct", "attempted", "failed", "metrics"} or got != want:
        raise SystemExit("%s seed %d: result line does not match "
                         "BENCHMARK.json: %r" % (workload, seed, r))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        r = run_once(args.workload, seed, bench["run_seconds"])
        check_result(r, bench, args.workload, seed)
        results.append(r)
        print("seed %d: correct=%s attempted=%d failed=%d" %
              (seed, r["correct"], r["attempted"], r["failed"]), flush=True)

    print("%-28s %14s %14s %14s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  > bound/3" if spread <= bound else "  > BOUND"
        print("%-28s %14.6g %14.6g %14.6g %8.4f %6s%s" %
              (name, med, q1, q3, spread,
               "-" if bound is None else "%.2f" % bound, flag))


if __name__ == "__main__":
    main()
