#!/usr/bin/env python3
"""Run the benchmark several times per workload, each with another seed,
and print for every end-to-end metric its median and its spread: the
distance between the first and third quartile as a share of the median.
A benchmark is steady when every spread (setup_s aside) is below a
third of the metric's bound in BENCHMARK.json.

    python3 bench/spread.py [--runs 10] [--first-seed 1] [--workload name]...
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--same-seed", action="store_true", help="repeat one seed instead of stepping it")
    ap.add_argument("--values", action="store_true", help="also print every run's value")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    worst = 0.0
    for w in workloads:
        series = {}
        took = []
        for i in range(args.runs):
            seed = args.first_seed + (0 if args.same_seed else i)
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.time()
            out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            took.append(time.time() - t0)
            if out.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {out.returncode}")
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                sys.exit(f"{w} seed {seed}: {res['failed']} of {res['attempted']} failed")
            for name, m in res["metrics"].items():
                series.setdefault(name, []).append(m["value"])
        print(f"{w}: {args.runs} runs, {statistics.median(took):.1f}s each (max {max(took):.1f}s)")
        for name, vals in series.items():
            q = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q[2] - q[0]) / med
            share = spread / bounds[name]
            if name != "setup_s":
                worst = max(worst, share)
            print(f"  {name:<16} median {med:12.4f}  spread {100*spread:6.2f}%  bound {100*bounds[name]:4.0f}%"
                  f"  spread/bound {share:5.2f}")
            if args.values:
                print("      " + " ".join(f"{v:.4g}" for v in vals))
    print(f"worst spread/bound (setup_s aside): {worst:.2f}")


if __name__ == "__main__":
    main()
