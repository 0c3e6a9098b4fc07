"""Host speed probe: a fixed kernel sampled while a pass runs.

The benchmark runs on virtual machines whose host is shared with other
tenants.  There the same pass can take up to twice as long from one second
to the next, and whole runs can be slowed by phases that last minutes.  No
choice of estimator over passes corrects a slowdown that covers the whole
run, so the pass process measures the host's speed while it works: an
interval timer (``SIGALRM`` on wall time) interrupts the pass every few
milliseconds and runs a small fixed kernel, whose duration is a sample of how
fast the host is right now.

The samples cut a measured window into gaps of program time.  A timing is
reported as the sum over its gaps of

    gap * PROBE_REF_S / (mean time of the samples on either side of the gap)

that is, in seconds on a host where the kernel takes ``PROBE_REF_S``.  The
probe's own time is left out.  The host's speed changes within tens of
milliseconds, so each gap is scaled by the speed around it: dividing the
window's total by its mean slowdown would get the work wrong whenever the
speed varies within the window.  The kernel is the benchmark's own code and
uses no hypersym code, so a change to the program moves the reported time
and a change in host load does not.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# About the kernel's time on a 2-vCPU Intel Xeon virtual machine with
# Python 3.11.7 (0.69 ms when its host is quiet).  It only fixes the scale of
# the reported seconds.
PROBE_REF_S = 0.00075

SETUP_INTERVAL_S = 0.005   # set-up lasts about 50 ms: enough samples to scale its gaps
PASS_INTERVAL_S = 0.010    # about 7% of a pass is spent in the probe, and left out
# Python specialises a function's bytecode after its first few calls, so a
# fresh process runs the kernel that often before it takes samples; the
# last few warm-up runs are already samples.
WARM_UP_CALLS = 10
WARM_UP_SAMPLES = 3


def probe_kernel() -> int:
    """A fixed mix of the work hypersym does, about 0.7 ms on a quiet host:
    a truncated bivariate product with Fraction coefficients in a dict,
    a Pochhammer-style product of rationals and an alternating float sum."""
    n = 7
    a = {(i, j): Fraction(i + 1, 2 * j + 3) for i in range(n) for j in range(n - i)}
    out: dict[tuple[int, int], Fraction] = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in a.items():
            if i1 + i2 + j1 + j2 < n:
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
    p = Fraction(1)
    for k in range(20):
        p *= Fraction(5, 7) + k
    s, t = 0.0, 1.0
    for k in range(1, 300):
        t *= -1.5 / k
        s += t
    return len(out) + p.numerator % 7 + int(s)


# A sample is (wall start, wall seconds, CPU start, CPU seconds): its start
# and length on each clock.  A clock is named by the index of its start.
WALL, CPU = 0, 2


class SpeedProbe:
    """Samples ``probe_kernel`` every ``interval`` wall seconds until stopped.

    ``samples`` holds one sample per run of the kernel, on ``time.monotonic``
    and on ``time.process_time``.  The warm-up runs made when the probe
    starts, but for the last ``WARM_UP_SAMPLES``, are timed in ``warm`` (wall
    and CPU seconds) and are not samples.
    One more sample is taken when the probe stops, after the measured
    window, so that the window's last gap has a sample on its far side.  The
    garbage collector is held off while the kernel runs, so a collection of
    the program's heap is not taken for a slow host.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.warm = (0.0, 0.0)
        self.samples: list[tuple[float, float, float, float]] = []

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0, c0 = time.monotonic(), time.process_time()
        probe_kernel()
        self.samples.append((t0, time.monotonic() - t0, c0, time.process_time() - c0))
        if enabled:
            gc.enable()

    def _on_alarm(self, _signum, _frame) -> None:
        self.sample()

    def start(self) -> "SpeedProbe":
        t0, c0 = time.monotonic(), time.process_time()
        for _ in range(WARM_UP_CALLS - WARM_UP_SAMPLES):
            probe_kernel()
        self.warm = (time.monotonic() - t0, time.process_time() - c0)
        for _ in range(WARM_UP_SAMPLES):
            self.sample()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def stop(self) -> list[tuple[float, float, float, float]]:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
        return self.samples


def slowdown(samples, clock: int = WALL) -> float:
    """Mean probe time over its reference: 1 on a quiet host, 2 at half speed."""
    return statistics.fmean(s[clock + 1] for s in samples) / PROBE_REF_S


def probe_time(t0: float, t1: float, samples, clock: int = WALL) -> float:
    """Seconds of the samples started in [t0, t1), both on ``clock``."""
    return sum(s[clock + 1] for s in samples if t0 <= s[clock] < t1)


def work_time(t0: float, t1: float, samples, idle: float = 0.0, clock: int = WALL) -> float:
    """Seconds the program ran in the window [t0, t1] of ``clock``, at
    reference speed.

    ``samples`` are in time order.  Each gap between the samples started in
    the window is scaled by the samples on either side of it; at an end of
    the window with no sample beyond it, by the one sample it has.  ``idle``
    seconds in the window's first gap, the probe's warm-up, are left out.
    """
    before = [s for s in samples if s[clock] < t0]
    inside = [s for s in samples if t0 <= s[clock] < t1]
    after = [s for s in samples if s[clock] >= t1]
    prev = before[-1] if before else None
    end = t0 + idle
    total = 0.0
    for nxt in inside + [after[0] if after else None]:
        last = nxt is None or nxt[clock] >= t1
        gap = max(0.0, (t1 if last else nxt[clock]) - end)
        sides = [s[clock + 1] for s in (prev, nxt) if s is not None]
        if not sides:
            raise ValueError("no probe sample near the window")
        total += gap * PROBE_REF_S / statistics.fmean(sides)
        if last:
            break
        prev, end = nxt, nxt[clock] + nxt[clock + 1]
    return total
