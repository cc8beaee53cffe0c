"""Benchmark of the causaltext command-line pipeline.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload generate-oracle --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in turn.  With ``--trace 0`` the
workload's cycles run untraced and the end-to-end metrics are reported; with
``--trace 1`` one cycle runs untraced and the same cycle again under the span
tracer, and the per-layer metrics are reported, including the tracing
overhead.  Human-readable lines come first; the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
from procs import CliRunner  # noqa: E402
from workloads import CREDENTIAL_ENV, WORKLOADS  # noqa: E402

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "stage2_items_per_s": ("1/s", "higher"),
    "cpu_ms_per_item": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
SETUP_REPEATS = 5
WORK_DIR = ".bench_work"


def end_to_end(setup_s: float, cycles) -> dict:
    """Medians over every timed sample of every cycle."""
    s1 = [s for c in cycles for s in c.stage1]
    s2 = [s for c in cycles for s in c.stage2]
    return {
        "setup_s": setup_s,
        "items_per_s": statistics.median(items / wall for items, wall, _ in s1),
        "stage2_items_per_s": statistics.median(items / wall for items, wall in s2),
        "cpu_ms_per_item": statistics.median(1e3 * cpu / items for items, _, cpu in s1),
        "peak_rss_mb": max(c.rss_mb for c in cycles),
    }


def run_workload(root: str, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; its work directory is removed unless an output check fails."""
    base = os.path.join(root, WORK_DIR)
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=base)
    runner = CliRunner(root, os.path.join(work, "cli.log"), {CREDENTIAL_ENV: "bench-key"})
    cls = WORKLOADS[name]
    cycles = []
    keep = False
    try:
        setup_s = runner.setup_probe(cls.setup_command, cls.setup_import, SETUP_REPEATS, work)
        with cls(runner, work, seed) as wl:
            if trace:
                cseed = inputs.cycle_seed(seed, 0)
                cycles.append(wl.cycle(0, cseed, traced=False))
                cycles.append(wl.cycle(0, cseed, traced=True))
                metrics = layers.per_layer(cycles[1], cycles[0])
                units = layers.PER_LAYER
            else:
                start = time.perf_counter()
                while True:
                    cycles.append(wl.cycle(len(cycles), inputs.cycle_seed(seed, len(cycles)), traced=False))
                    elapsed = time.perf_counter() - start
                    if elapsed + 0.5 * elapsed / len(cycles) > seconds:  # may overrun by half a cycle
                        break
                metrics = end_to_end(setup_s, cycles)
                units = END_TO_END
        for k, c in enumerate(cycles):
            print(f"[{name}] digest cycle {k}: {json.dumps(c.digest, sort_keys=True)}")
            if "latency_share" in c.facts:
                print(f"[{name}] cycle {k}: the server's fixed latency is {c.facts['latency_share']:.1%} "
                      "of the generate wall time")
        for metric, value in metrics.items():
            print(f"[{name}] {metric} = {value:.6g} {units[metric][0]}")
        return {
            "correct": True,
            "attempted": sum(c.attempted for c in cycles),
            "failed": sum(c.failed for c in cycles),
            "metrics": {m: {"value": float(v), "unit": units[m][0]} for m, v in metrics.items()},
        }
    except (checks.CheckFailed, RuntimeError) as exc:
        print(f"[{name}] FAILED: {exc}", file=sys.stderr)
        keep = True
        return {"correct": False, "attempted": max(1, sum(c.attempted for c in cycles)),
                "failed": max(1, sum(c.failed for c in cycles)), "metrics": {}}
    finally:
        if keep:
            print(f"[{name}] work directory kept at {work}", file=sys.stderr)
        else:
            shutil.rmtree(work, ignore_errors=True)
            try:
                os.rmdir(base)
            except OSError:
                pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    needed = [os.path.join("src", "causaltext", "cli.py"), os.path.join("tests", "data", "scores_gpt5.csv")]
    missing = [p for p in needed if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print(f"run from the root of a causaltext checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        if len(names) > 1:
            print(json.dumps({"workload": name, **results[name]}))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
