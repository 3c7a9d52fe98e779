"""Host-speed probe: samples how fast this machine runs Python right now.

The shared host's speed wanders by tens of percent within seconds, and
a neighbour's load can slow everything by up to 1.5x for minutes.  A
reference loop timed before and after a round follows that only
loosely, because the speed changes during the round.  So the probe
samples *during* the measured window: a ``SIGALRM`` timer interrupts
the process every ``PERIOD_S`` and the handler times a fixed pure-Python
loop that uses none of the program's code.

``normalise`` turns a window's host seconds into reference seconds: the
window's time minus the time spent in the probe itself, scaled by
``REF_PROBE_S`` over the window's mean probe time.  A change to the
program moves the window but not the probe, so reference seconds move
with the program and not with the machine.

A sample is the loop's thread CPU time, so that on a threaded workload
a GIL hand-over to another thread during the loop does not count as a
slow host.  A slow host still shows: on this kind of machine a round's
CPU time follows its wall time, as the thread itself runs slower.

Signals are handled on the main thread, between bytecodes: a long C
call (NumPy, pickle) delays the next sample until it returns, so the
probe samples the Python-level part of the window.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.025  # one sample per 25 ms of the window
LOOP = 5000  # iterations of the reference loop; ~0.5 ms, ~2 % of the window
# The reference loop's time on the reference host (a quiet 2-vCPU VM,
# CPython 3.11): a reference second is a second at this speed.
REF_PROBE_S = 0.00045
MIN_SAMPLES = 5  # a shorter window is judged by every sample of the process


def _reference_loop(n: int = LOOP) -> int:
    s = 0
    for i in range(n):
        s += i * i % 7
    return s


class Probe:
    """Interval-timer host-speed sampler for one process."""

    def __init__(self) -> None:
        self.samples: list[float] = []  # the loop's thread CPU seconds
        self.spent: list[float] = []  # the handler's host seconds

    def _sample(self, signum: int, frame: object) -> None:
        start, cpu = time.perf_counter(), time.thread_time()
        _reference_loop()
        self.samples.append(time.thread_time() - cpu)
        self.spent.append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def mark(self) -> int:
        """A window starts here; pass the result to ``normalise``."""
        return len(self.samples)

    def normalise(self, seconds: float, since: int = 0) -> float:
        """Reference seconds of a window of ``seconds`` host seconds that
        began at ``mark() == since`` and ends now."""
        return (seconds - sum(self.spent[since:])) * self.speed(since)

    def speed(self, since: int = 0) -> float:
        """Host speed over a window, as a share of the reference host's."""
        window = self.samples[since:]
        basis = window if len(window) >= MIN_SAMPLES else self.samples
        if not basis:
            raise RuntimeError("the host-speed probe took no samples")
        return REF_PROBE_S / statistics.fmean(basis)
