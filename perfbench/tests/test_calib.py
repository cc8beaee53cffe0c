"""Machine-speed calibration and the scaling of timed commands.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import signal
import threading
import time

import pytest

import calib
from workloads import pooled, scaled


def busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_timed_samples_during_the_command_and_subtracts_the_pauses():
    run = calib.timed(lambda: busy(0.6))
    assert run["samples"] >= 2 + int(0.6 / calib.INTERVAL_S) - 1
    # the busy loop watches the wall clock, so handler pauses shorten it;
    # what is left after subtracting them is the loop's own time
    assert 0.5 < run["wall_s"] <= 0.62
    assert run["speed"] > 0 and run["cpu_speed"] >= run["speed"] * 0.99
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_timed_restores_the_alarm_handler_after_an_error():
    before = signal.getsignal(signal.SIGPROF)

    def fail():
        raise ValueError("boom")

    try:
        calib.timed(fail)
    except ValueError:
        pass
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_scaled_keeps_waiting_time_and_scales_cpu_time():
    runs = [{"wall_s": 3.0, "cpu_s": 1.0, "speed": 2.0, "cpu_speed": 4.0, "threads": 1},
            {"wall_s": 1.0, "cpu_s": 1.0, "speed": 0.5, "cpu_speed": 0.25, "threads": 1}]
    wall, cpu = scaled(runs)
    assert wall == (3.0 + 1.0) + (1.0 - 0.5)
    assert cpu == 4.0 + 0.25


def test_a_command_with_a_worker_thread_is_not_scaled():
    worker = threading.Thread(target=busy, args=(3 * calib.INTERVAL_S,))  # the timer counts CPU time

    def start_and_join():
        worker.start()
        worker.join()

    run = calib.timed(start_and_join)
    assert run["threads"] == 2
    with pytest.raises(RuntimeError, match="single-threaded"):
        scaled([run])


def test_cpu_beyond_wall_is_not_scaled():
    run = {"wall_s": 1.0, "cpu_s": 1.5, "speed": 1.0, "cpu_speed": 1.0, "threads": 1}
    with pytest.raises(RuntimeError, match="single-threaded"):
        scaled([run])
    calib.check_single_threaded(run, check_cpu=False)  # a run scaled by its wall time alone


def test_pooled_speed_weights_every_calibration_sample_alike():
    # task times: 2 samples at speed 1.0 and 6 samples at speed 0.5 take 2 + 12 task units
    runs = [{"wall_s": 1.0, "cpu_s": 1.0, "speed": 1.0, "cpu_speed": 1.0, "samples": 2, "threads": 1},
            {"wall_s": 1.0, "cpu_s": 1.0, "speed": 0.5, "cpu_speed": 1.0, "samples": 6, "threads": 1}]
    assert [r["speed"] for r in pooled(runs)] == [8 / 14, 8 / 14]
    assert [r["cpu_speed"] for r in pooled(runs)] == [1.0, 1.0]
    assert [r["wall_s"] for r in pooled(runs)] == [1.0, 1.0]
