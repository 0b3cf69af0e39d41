"""Pass timer that cancels the shared host's speed drift.

The benchmark host is a virtual machine whose effective CPU speed moves
in steps of up to 2x within seconds (neighbouring tenants).  Process CPU
time moves with it, so neither wall nor CPU time repeats.  The timer
therefore samples the host speed with a short fixed calibration probe
and scales each stretch of program time between two samples by
``REFERENCE_PROBE_S / mean(probe before, probe after)``: the stretch is
reported in the seconds it would take at the reference speed.  Probe
time itself is excluded from the pass; ``raw`` keeps the plain wall
time of the same stretches.

Samples are taken at every :meth:`PassClock.mark` (after each public
call) and by a ``SIGALRM`` interval timer every ``TICK_S`` inside long
calls.

A change that slows the program slows its stretches and not the probe,
so it still shows in full.  The probe is timed cold and so shares the
caches with the program; README.md records what that does to a change
in the program's memory footprint.
"""

from __future__ import annotations

import signal
import time

import numpy as np

__all__ = ["REFERENCE_PROBE_S", "TICK_S", "probe", "PassClock"]

#: probe time at the reference speed (its typical time on a 2-vCPU Xeon
#: VM at 2.0 GHz); it only scales the reported seconds
REFERENCE_PROBE_S = 0.004
#: interval between in-call speed samples
TICK_S = 0.1

_ARRAY = np.arange(2048, dtype=np.int64)[::-1].copy()
_TABLE: dict = {}
_LOOKUPS: list = []


def _kernel() -> int:
    """Fixed work shaped like the pipeline's: interpreter loops, small
    numpy sorts, and lookups of tuple/frozenset keys in a dict larger
    than the CPU caches (the engine's memo tables).  The last part makes
    the probe slow down as much as the program when neighbours contend
    for memory, not only for the core."""
    if not _TABLE:
        rng = np.random.default_rng(0)
        for i, (a, b, c) in enumerate(rng.integers(0, 1 << 20, (30_000, 3))):
            _TABLE[(int(a), frozenset((int(b), int(c))))] = i
        keys = list(_TABLE)
        _LOOKUPS.extend(keys[int(i)] for i in rng.integers(0, len(keys), 4000))
    acc = 0
    table = {}
    for i in range(8_000):
        acc += (i * 7) % 13
        table[i & 511] = acc
    a = _ARRAY
    for _ in range(16):
        a = np.sort(a[::-1])
    for k in _LOOKUPS:
        acc += _TABLE[k]
    return acc + int(a[0])


def probe() -> float:
    """Seconds the calibration kernel takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


class PassClock:
    """Accumulates one stretch of calibrated program time.

    Call :meth:`start` before the stretch, :meth:`mark` after each
    public call and :meth:`stop` at its end.  With ``calibrate`` off (traced
    runs) ``total`` is plain wall time and no probe runs.
    """

    def __init__(self, calibrate: bool) -> None:
        self.calibrate = calibrate
        self.total = 0.0
        self.raw = 0.0
        self._probe = 0.0
        self._seg_start = 0.0
        self._prior = None
        self._busy = False

    def start(self) -> None:
        self.total = 0.0
        self.raw = 0.0
        if self.calibrate:
            self._probe = probe()
            self._prior = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self._seg_start = time.perf_counter()

    def _tick(self, signum, frame) -> None:
        if not self._busy:  # a tick landed inside mark(): skip it
            self.mark()

    def mark(self) -> None:
        self._busy = True
        seg = time.perf_counter() - self._seg_start
        self.raw += seg
        if self.calibrate:
            now = probe()
            self.total += seg * REFERENCE_PROBE_S / ((self._probe + now) / 2)
            self._probe = now
        else:
            self.total += seg
        self._seg_start = time.perf_counter()
        self._busy = False

    def stop(self) -> None:
        if self.calibrate:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._prior)
        self.mark()
