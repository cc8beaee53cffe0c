"""Run causaltext CLI commands in one interpreter and time each in-process.

    python3 perfbench/clirun.py TIMES.json COMMANDS.json [TRACE.json]

COMMANDS.json is a list of argument lists for the ``causaltext`` command
group.  Each list runs through ``causaltext.cli.main``, the click group
behind the installed ``causaltext`` console script, and is timed with the
wall clock and the process CPU clock, between two calibration tasks (see
calib.py); interpreter start-up and the package import are timed once,
separately.  TIMES.json receives ``import_s``, ``scipy_loaded`` (whether
importing the CLI loaded scipy) and one ``calib.timed`` record per
command.  With TRACE.json the package's functions are traced (see
tracer.py) and the spans are written there.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv) -> int:
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    times_path, commands_path = argv[0], argv[1]
    trace_path = argv[2] if len(argv) == 3 else None
    with open(commands_path) as fh:
        commands = json.load(fh)
    start = time.perf_counter()
    import click

    import causaltext.cli as cli

    meta = {"import_s": time.perf_counter() - start, "scipy_loaded": "scipy" in sys.modules}
    import calib
    tracer = None
    if trace_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.install_cli(cli)
    runs, code = [], 0
    try:
        for args in commands:
            runs.append(calib.timed(lambda: cli.main.main(args=args, prog_name="causaltext", standalone_mode=False)))
    except click.ClickException as exc:
        exc.show()
        code = 1
    finally:
        meta["runs"] = runs
        meta["command_s"] = sum(r["wall_s"] for r in runs)
        with open(times_path, "w") as fh:
            json.dump(meta, fh)
        if tracer is not None:
            tracer.dump(trace_path, meta)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
