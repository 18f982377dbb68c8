"""Host-speed probe: a fixed slice of work timed all through a unit.

On a shared host the speed of one core drifts by ±20 % and more, in
phases of seconds to minutes, because other tenants load the same
physical cores; CPU time follows wall time, so the process is slowed, not
descheduled.  A timing taken at one moment cannot be compared with one
taken at another.  ``HostProbe`` measures that speed while the unit runs:
every INTERVAL_S of wall time a SIGALRM handler runs one *slice*, a fixed
piece of pure-Python exact arithmetic (products of ``Fraction``
polynomials and a complex Horner loop in a private mpmath context, the
two kinds of work qzeta does), and records how long it took.  The slices
sample the same moments as the unit, so

    work_s = (unit wall time - time spent in the handler) * probe.factor,
    probe.factor = REFERENCE_SLICE_S / mean slice time,

is the unit's time at the reference speed, at which one slice takes
REFERENCE_SLICE_S.  The slice imports nothing from qzeta and reads no
state the program can change (the mpmath context is its own, and the
cyclic garbage collector is off while it runs), so a change to qzeta
moves a scaled time only through the work itself.
"""
from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

from mpmath.ctx_mp import MPContext

INTERVAL_S = 0.1
# a fixed constant near one slice's mean time on the reference host (README.md);
# it sets only the scale of the scaled times
REFERENCE_SLICE_S = 0.006


class HostProbe:
    """``with HostProbe() as probe:`` runs slices through the block; then
    ``probe.factor`` scales a wall time in it to the reference speed."""

    def __init__(self):
        self._a = [Fraction((7 * i * i + 3) % 1000003 + 1, (11 * i + 5) % 997 + 1)
                   for i in range(24)]
        self._b = [Fraction((13 * i + 1) % 100003 + 1, (5 * i * i + 3) % 991 + 1)
                   for i in range(24)]
        self._ctx = MPContext()
        self._ctx.dps = 30
        self._z = self._ctx.mpc(self._ctx.mpf(3) / 10, self._ctx.mpf(7) / 10)
        self.slices: list[float] = []  # wall time of each slice
        self.handler_s = 0.0  # wall time spent in the handler, slices included
        self.handler_cpu_s = 0.0
        self._busy = False
        self._previous = None

    def run_slice(self) -> None:
        out = [0] * (len(self._a) + len(self._b) - 1)
        for i, x in enumerate(self._a):
            for j, y in enumerate(self._b):
                out[i + j] += x * y
        s = self._ctx.zero
        for k in range(300):
            s = s * self._z + k

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            cpu0, t0 = time.process_time(), time.perf_counter()
            self.run_slice()
            self.slices.append(time.perf_counter() - t0)
            self.handler_s += time.perf_counter() - t0
            self.handler_cpu_s += time.process_time() - cpu0
        finally:
            if collecting:
                gc.enable()
            self._busy = False

    def __enter__(self) -> "HostProbe":
        self.run_slice()  # warm: the first slice pays for lazy set-up
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def mean_slice_s(self) -> float:
        if not self.slices:  # a block shorter than INTERVAL_S
            self._on_alarm(None, None)
        return sum(self.slices) / len(self.slices)

    @property
    def factor(self) -> float:
        return REFERENCE_SLICE_S / self.mean_slice_s
