#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs several *sets* of runs of each workload, the sets separated in time,
each set with its own seeds. For every end-to-end metric it prints each
set's median and quartiles, the set's spread (quartile distance over the
median, the figure the bounds are compared against), and how far each
set's median moved from the first set's.

Run from the repository root:

    python3 perfbench/steadiness.py --sets 2 --runs 10 --gap 60
    python3 perfbench/steadiness.py --workloads road --sets 1 --runs 5

Every run's result line is appended to --log (JSON lines) so figures can
be recomputed without running again.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_once(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    started = time.time()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.time() - started
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed ({proc.returncode}): {' '.join(args)}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, wall


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    root = Path(__file__).resolve().parent.parent
    bench = json.loads((root / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="*",
                   default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--runs", type=int, default=10, help="runs (seeds) per set")
    p.add_argument("--gap", type=float, default=60.0,
                   help="seconds to wait between sets")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--log", default=str(root / "perfbench" / "out" / "steadiness.jsonl"))
    args = p.parse_args()

    metrics = bench["end_to_end"]
    Path(args.log).parent.mkdir(parents=True, exist_ok=True)
    # results[workload][set] = list of result dicts
    results = {w: [[] for _ in range(args.sets)] for w in args.workloads}
    seed = args.first_seed
    with open(args.log, "a") as log:
        for s in range(args.sets):
            if s:
                time.sleep(args.gap)
            for w in args.workloads:
                for _ in range(args.runs):
                    result, wall = run_once(bench["command"], w, seed, args.seconds, 0)
                    log.write(json.dumps({"workload": w, "set": s, "seed": seed,
                                          "wall_s": wall, "result": result}) + "\n")
                    log.flush()
                    results[w][s].append(result)
                    print(f"set {s} {w} seed {seed}: {wall:.0f} s, "
                          f"attempted {result['attempted']} failed {result['failed']}",
                          file=sys.stderr)
                    seed += 1

    worst = {}
    for w in args.workloads:
        print(f"\n## {w}")
        print(f"{'metric':<16} {'bound':>6}  " + "  ".join(
            f"{'set' + str(s) + ' q1/med/q3':>28} {'spread':>7}" for s in range(args.sets))
            + f"  {'shift':>7}")
        for m in metrics:
            name = m["name"]
            row = f"{name:<16} {m['bound']:>6.3f}  "
            meds = []
            for s in range(args.sets):
                vals = [r["metrics"][name]["value"] for r in results[w][s]]
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else float("inf")
                meds.append(med)
                row += f"{q1:>9.4g}/{med:>9.4g}/{q3:>9.4g} {spread:>7.3f}  "
                if name != "setup_s":
                    worst[(w, name)] = max(worst.get((w, name), 0.0), spread / m["bound"])
            shift = max(abs(x - meds[0]) / meds[0] for x in meds) if meds[0] else 0.0
            row += f"{shift:>7.3f}"
            print(row)
        fails = [r["failed"] / r["attempted"] for s in results[w] for r in s]
        print(f"failed share per run: {sorted(set(fails))}")
    if worst:
        (w, name), ratio = max(worst.items(), key=lambda kv: kv[1])
        print(f"\nlargest spread / bound: {ratio:.2f} ({w} {name})")


if __name__ == "__main__":
    main()
