"""Machine-speed calibration of timed commands.

On the shared 2-vCPU machine the benchmark was built on, the time of one
unchanged command drifted by up to a factor of two within a minute, and its
CPU time drifted with it, so the drift is in the CPU's throughput, not in
scheduling.  A timed command is therefore accompanied by a short fixed
calibration task: once before it, once after it, and every ``INTERVAL_S``
of process CPU time while it runs (from a ``SIGPROF`` handler, which pauses
the command in the main thread).  The timer counts CPU time, not wall time,
so the task runs while the command is busy: right after an idle wait the
task ran about 50 % slower than back to back (30 ms against 20 ms), which
made the factor of a command that mostly waits, such as ``generate``
against the mock server, too low.  The pauses are subtracted from the command's
wall and CPU times.  The speed factor ``reference / mean task time`` scales
the CPU part of the command's wall time, and the factor ``reference / mean
task CPU time`` scales its CPU time, to what they would be on a machine
that runs the task in the reference time.  The task's CPU time leaves out
the moments another process held the CPU, so the second factor follows
the CPU's throughput alone.

There are two tasks.  ``COMMAND`` does JSON, sorting and small numpy
operations, like the package's commands, and tracked their drift best.
``IMPORT`` is pure Python with a larger working set; it imports nothing,
so it can run while a set-up probe is still importing numpy and the
package.  Neither touches the package, so a change to the package cannot
move them.

The scaling holds only for a command that runs on one thread.  It treats
the process CPU time as part of one thread's wall time, and the calibration
task runs in the command's main thread, so worker threads would contend
with it for the interpreter and lower the measured speed.  ``timed``
therefore records how many Python threads the command used, and
``check_single_threaded`` refuses a run that had more than one or whose CPU
time exceeds its wall time.  A command that becomes multi-threaded needs
another calibration scheme, not these numbers.
"""

from __future__ import annotations

import gc
import json
import signal
import sys
import threading
import time

INTERVAL_S = 0.25
_SMALL = [{"id": i, "v": [(i * 7919 + k * 104729) % 1000 / 1000 for k in range(6)], "s": "x" * 20}
          for i in range(200)]
_LARGE = [{"id": i, "v": list(_SMALL[i % 200]["v"]), "s": "x" * 20, "t": {"a": i}} for i in range(1500)]


def _command_task() -> None:
    import numpy as np  # only run in processes that have imported numpy already

    matrix = np.arange(64).reshape(8, 8)
    for _ in range(5):
        json.loads(json.dumps(_SMALL))
        sorted(_SMALL, key=lambda d: d["v"][1])
        for k in range(300):
            (matrix @ matrix).sum()
            np.asarray([[k % 2]], dtype=np.int8)


def _import_task() -> None:
    records = json.loads(json.dumps(_LARGE))
    records.sort(key=lambda r: r["v"][1])
    index = {r["id"]: r for r in records}
    sum(index[i]["v"][0] for i in range(0, len(records), 3))


# a single-threaded command's CPU time exceeds its wall time by clock noise only
CPU_OVER_WALL_TOLERANCE = (1.01, 0.005)  # (factor, seconds)
# (task, its time on the reference machine, which is about this machine's speed)
COMMAND = (_command_task, 0.010)
IMPORT = (_import_task, 0.012)


def task_s(task=COMMAND) -> tuple:
    """Wall and thread CPU time of one run of a calibration task, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start, cpu = time.perf_counter(), time.thread_time()
        task[0]()
        return time.perf_counter() - start, time.thread_time() - cpu
    finally:
        if enabled:
            gc.enable()


def timed(fn, task=COMMAND) -> dict:
    """Run ``fn()`` under calibration.

    Returns ``{"wall_s", "cpu_s", "speed", "cpu_speed", "samples",
    "threads"}``: the command's times without the calibration pauses, the
    factors that scale its wall and its CPU time to the reference machine,
    the number of calibration samples, and
    the number of Python threads the command used (the most seen at once, or
    one more than the threads it started, whichever is larger).
    """
    samples = [task_s(task)]
    paused = [0.0, 0.0]  # wall and CPU seconds spent in the handler
    threads = [threading.active_count()]
    started = []

    def note_thread(frame, event, arg):  # runs once in each thread started during fn
        started.append(threading.get_ident())
        sys.setprofile(None)

    def on_alarm(signum, frame):
        threads.append(threading.active_count())
        wall, cpu = time.perf_counter(), time.process_time()
        samples.append(task_s(task))
        paused[0] += time.perf_counter() - wall
        paused[1] += time.process_time() - cpu

    previous = signal.signal(signal.SIGPROF, on_alarm)
    previous_profile = threading.getprofile()
    threading.setprofile(note_thread)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        fn()
    finally:
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        signal.setitimer(signal.ITIMER_PROF, 0)
        threading.setprofile(previous_profile)
        signal.signal(signal.SIGPROF, previous)
    threads.append(threading.active_count())
    samples.append(task_s(task))
    return {
        "wall_s": wall - paused[0],
        "cpu_s": cpu - paused[1],
        "speed": task[1] * len(samples) / sum(wall for wall, _ in samples),
        "cpu_speed": task[1] * len(samples) / sum(cpu for _, cpu in samples),
        "samples": len(samples),
        "threads": max(*threads, 1 + len(started)),
    }


def check_single_threaded(run: dict, check_cpu: bool = True) -> None:
    """Raise RuntimeError if ``run`` (from ``timed``) cannot be scaled to the reference speed.

    ``check_cpu=False`` checks the Python thread count only, for a run whose
    wall time is scaled as a whole and whose CPU time is not used.
    """
    factor, slack = CPU_OVER_WALL_TOLERANCE
    if run["threads"] > 1 or (check_cpu and run["cpu_s"] > run["wall_s"] * factor + slack):
        raise RuntimeError(
            f"a timed command ran on several threads ({run['threads']} Python threads, "
            f"CPU {run['cpu_s']:.3f} s against wall {run['wall_s']:.3f} s); "
            "the calibration scaling of perfbench/calib.py holds only for single-threaded commands"
        )
