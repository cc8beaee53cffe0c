"""Child-process helpers: run the causaltext CLI in fresh interpreters and record peak RSS."""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 150


@dataclass
class ChildRun:
    rss_mb: float
    code: int


class CliRunner:
    """Runs ``causaltext`` commands from the checkout's ``src`` in fresh interpreters."""

    def __init__(self, root: str, log_path: str, extra_env: dict | None = None):
        src = os.path.join(root, "src")
        env = {k: v for k, v in os.environ.items() if "proxy" not in k.lower()}
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
        env.update(extra_env or {})
        self.env = env
        self.cwd = root
        self.log_path = log_path

    def run(self, argv) -> ChildRun:
        with open(self.log_path, "ab") as log:
            log.write(("$ " + " ".join(argv) + "\n").encode())
            log.flush()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=self.cwd)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return ChildRun(rss_mb=usage.ru_maxrss / 1024.0, code=proc.returncode)  # Linux reports KiB

    def cli(self, commands, workdir: str, label: str, trace: bool = False):
        """Run ``commands`` (argument lists) in one interpreter via clirun.py.

        Returns the process measurement, the in-process timing of each command
        (see clirun.py), and the trace path (or None).
        """
        cmd_path = os.path.join(workdir, f"commands-{label}.json")
        times_path = os.path.join(workdir, f"times-{label}.json")
        trace_path = os.path.join(workdir, f"trace-{label}.json") if trace else None
        with open(cmd_path, "w") as fh:
            json.dump(commands, fh)
        res = self.script("clirun.py", [times_path, cmd_path, *([trace_path] if trace else [])])
        with open(times_path) as fh:
            runs = json.load(fh)["runs"]
        return res, runs, trace_path

    def script(self, name: str, args) -> ChildRun:
        res = self.run([sys.executable, os.path.join(HERE, name), *args])
        if res.code != 0:
            raise RuntimeError(f"{name} exited with {res.code}; see {self.log_path}")
        return res

    def setup_probe(self, command: str, extra_import: str, repeats: int, workdir: str) -> float:
        """Median time from spawning a fresh interpreter until ``command`` has parsed its options.

        The probe imports the package and parses the options under
        ``calib.timed``, and the whole time since the spawn is scaled by the
        speed factor measured around and during it (calib.py).  The clocks of
        both processes are the system-wide monotonic clock.
        """
        out = os.path.join(workdir, "setup-probe.json")
        code = (
            "import json, sys, time\n"
            "started = time.perf_counter()\n"
            f"sys.path.insert(0, {HERE!r})\n"
            "import calib\n"
            "def probe():\n"
            f"    from causaltext.cli import main{extra_import}\n"
            f"    main([{command!r}, '--help'], prog_name='causaltext', standalone_mode=False)\n"
            "run = calib.timed(probe, calib.IMPORT)\n"
            f"json.dump({{'started': started, **run}}, open({out!r}, 'w'))\n"
        )
        times = []
        for _ in range(repeats):
            spawned = time.perf_counter()
            res = self.run([sys.executable, "-c", code])
            if res.code != 0:
                raise RuntimeError(f"set-up probe failed; see {self.log_path}")
            with open(out) as fh:
                probe = json.load(fh)
            # numpy's BLAS threads start during the import and use CPU next to it,
            # but only the probe's wall time is scaled, so only Python threads are checked
            calib.check_single_threaded(probe, check_cpu=False)
            times.append((probe["started"] - spawned + probe["wall_s"]) * probe["speed"])
        return statistics.median(times)
