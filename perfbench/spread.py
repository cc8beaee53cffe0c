"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload evaluate --seeds 1-10 [--seconds 20]

Runs the benchmark once per seed, one run at a time, prints each run's
metrics as one JSON line, and then prints for every metric the median and
the quartile spread, (Q3 - Q1) / median, with quartiles from
``statistics.quantiles(values, n=4)``, next to the metric's bound from
BENCHMARK.json.  The last lines name the largest spread/bound ratio and
every metric whose spread exceeds a third of its bound, ``setup_s``
included.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_from(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=None)
    args = ap.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict = {}
    for seed in seeds_from(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(json.dumps({"workload": args.workload, "seed": seed, **result}), flush=True)
    worst, over = 0.0, []
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        ratio = spread / bounds[name] if bounds.get(name) else float("nan")
        worst = max(worst, ratio)
        if ratio > 1 / 3:
            over.append(f"{name} ({ratio:.2f})")
        print(f"{args.workload:16s} {name:20s} median={med:<12.6g} spread={spread:.4f} "
              f"bound={bounds.get(name)} spread/bound={ratio:.2f}")
    print(f"worst spread/bound: {worst:.2f}")
    print(f"above a third of the bound: {', '.join(over) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
