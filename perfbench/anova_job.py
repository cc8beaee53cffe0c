"""Run the library-only statistics of the transfer workload in a fresh process.

    python3 perfbench/anova_job.py INPUT.json OUTPUT.json [TRACE.json]

INPUT holds ``{"b": int, "seed": int, "repeats": int,
"groups": {param: [[n, level, [values]], ...]}, "pools": {n: [values]}}``.
The job runs ``permutation_anova_report`` ``repeats`` times, each timed
under calibration (see calib.py), and ``stability_curve`` once, in-process,
and writes their results with the timings.  With a third argument it also
traces the calls (see tracer.py).
"""

from __future__ import annotations

import json
import sys
import time


def main(argv) -> int:
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        job = json.load(fh)
    tracer = None
    import calib
    from causaltext import transfer

    if len(argv) == 3:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    groups = {
        param: {(int(n), level): vals for n, level, vals in entries}
        for param, entries in job["groups"].items()
    }
    pools = {int(n): vals for n, vals in job["pools"].items()}
    runs, reports = [], []
    t0 = time.perf_counter()
    for _ in range(job["repeats"]):
        runs.append(calib.timed(lambda: reports.append(
            transfer.permutation_anova_report(groups, b=job["b"], seed=job["seed"]).to_json())))
    start = time.perf_counter()
    stability = transfer.stability_curve(pools, seed=job["seed"])
    stability_s = time.perf_counter() - start
    with open(argv[1], "w") as fh:
        json.dump(
            {
                "anova": reports[0],
                "repeats_agree": all(r == reports[0] for r in reports),
                "stability": stability.to_json(),
                "anova_runs": runs,
                "stability_s": stability_s,
            },
            fh,
        )
    if tracer is not None:
        tracer.dump(argv[2], {"command_s": time.perf_counter() - t0})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
