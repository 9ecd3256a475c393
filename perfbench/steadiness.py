#!/usr/bin/env python3
"""Steadiness study for the benchmark.

Runs every named workload RUNS times in each of two sets, alternating the
sets run by run (A, B, A, B, ...) with a different seed each time, and prints
for every end-to-end metric each set's median, quartiles and spread (the
distance between the quartiles as a share of the median, as
statistics.quantiles(values, n=4) gives them), the spread over both sets,
and the drift of set B's median from set A's in the metric's bad direction.
Run it from the root of a checkout:

    python3 perfbench/steadiness.py --runs 10 adv-abr-mpc serve-open

It also prints the host signature the figures belong to.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def host_signature():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    go = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
    return f"{cpu}; nproc {os.cpu_count()}; {go}; {platform.system()} {platform.release()}"


def run_once(workload, seed, seconds):
    out = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    if not res["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs failed their check")
    return res


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--raw", default=None, help="also append every run's result line to this file")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"host: {host_signature()}")
    print(f"run_seconds {seconds}, {args.runs} runs per set, seeds from {args.first_seed}")
    for name in names:
        sets = {"A": [], "B": []}
        shares = {"A": set(), "B": set()}
        seed = args.first_seed
        for _ in range(args.runs):
            for s in ("A", "B"):
                res = run_once(name, seed, seconds)
                if args.raw:
                    with open(args.raw, "a") as f:
                        f.write(json.dumps({"workload": name, "set": s, "seed": seed, "result": res}) + "\n")
                seed += 1
                sets[s].append(res["metrics"])
                shares[s].add(res["failed"] / res["attempted"])
        print(f"\n{name}: failed share A {sorted(shares['A'])} B {sorted(shares['B'])}")
        print(f"  {'metric':22} {'A q1':>11} {'A med':>11} {'A q3':>11} {'A spr':>6} "
              f"{'B med':>11} {'B spr':>6} {'all spr':>7} {'drift':>7} {'bound':>6}")
        for m in bench["end_to_end"]:
            k = m["name"]
            a = [r[k]["value"] for r in sets["A"]]
            b = [r[k]["value"] for r in sets["B"]]
            aq1, amed, aq3, aspr = spread(a)
            _, bmed, _, bspr = spread(b)
            allspr = spread(a + b)[3]
            worse = (bmed - amed) / amed if m["better"] == "lower" else (amed - bmed) / amed
            print(f"  {k:22} {aq1:11.5g} {amed:11.5g} {aq3:11.5g} {aspr:6.3f} "
                  f"{bmed:11.5g} {bspr:6.3f} {allspr:7.3f} {worse:+7.3f} {bounds[k]:6.2f}")


if __name__ == "__main__":
    main()
