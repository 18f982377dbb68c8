"""The host-speed probe samples the whole block and leaves the process as
it found it.

    python3 -m pytest perfbench/test_probe.py
"""
from __future__ import annotations

import gc
import signal
import time

from probe import INTERVAL_S, REFERENCE_SLICE_S, HostProbe


def busy(seconds: float) -> float:
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        sum(range(1000))
    return time.perf_counter() - t0


def test_slices_run_through_the_block_and_are_accounted():
    handler = signal.getsignal(signal.SIGALRM)
    with HostProbe() as probe:
        wall = busy(8 * INTERVAL_S)
    assert len(probe.slices) >= 5
    assert sum(probe.slices) <= probe.handler_s < wall
    assert probe.factor == REFERENCE_SLICE_S / (sum(probe.slices) / len(probe.slices))
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert gc.isenabled()


def test_a_block_shorter_than_the_interval_still_has_a_factor():
    with HostProbe() as probe:
        pass
    assert probe.factor > 0 and len(probe.slices) == 1


def test_the_collector_stays_off_if_the_program_turned_it_off():
    gc.disable()
    try:
        with HostProbe():
            busy(3 * INTERVAL_S)
        assert not gc.isenabled()
    finally:
        gc.enable()
