"""Gauging the machine's speed next to the work, to put times on one scale.

Other tenants of a shared machine change its speed by up to half within
seconds (a fixed computation timed back to back on a 2-core KVM guest spread
over 0.23-0.42 s), and no amount of repetition averages that out.  So the
benchmark times a short fixed computation, with the same kind of work as the
program (tuple arithmetic, frozenset and set building), between instances,
and scales each instance's time by REFERENCE_S over the pace of the probes
around it.  The result is the instance's seconds at the speed the machine has
when it is quiet.  On a noisy stretch this halved the spread of repeated
instance times.  It cannot see speed changes inside one long instance; the
median over passes has to absorb those.

The pace around an instance averages the probes within one instance-length
on each side (at least the nearest probe on each side), not just the nearest
two.  A single probe next to a multi-second instance often caught a passing
slowdown and over-corrected it: on the analyze_noncyclic anchors the scaled
time fell as the nearest probes' pace rose (correlation -0.65 over 28
passes), and the window took the across-seed coefficient of variation of
that workload's wall_s from 0.067 to 0.040 (seven seeds).  Short instances
still see only their nearest probes.

Probing from a thread during the instance, or from a second process, tracked
the speed worse than probing between instances; probing at function returns
inside long instances did no better.  None of them is used.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

# One probe on a quiet machine (2-core x86-64 KVM guest, CPython 3.11).
REFERENCE_S = 0.0033
# Probe before an instance when this long has passed since the last probe.
PROBE_EVERY_S = 0.1


def _reference() -> int:
    mods = (6, 10, 15)
    elems = [(i % 6, i % 10, i % 15) for i in range(60)]
    seen = set()
    for x in elems:
        seen.add(frozenset(tuple((a + b) % d for a, b, d in zip(x, y, mods)) for y in elems))
    return len(seen)


class SpeedGauge:
    """Probes taken between pieces of work, and the work's times scaled by them."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.paces: list[float] = []

    def probe(self) -> None:
        """Time the reference computation; the fastest of three runs counts.

        The collector is off meanwhile: a collection's cost depends on how
        many objects the program keeps alive, which must not move the scale.
        """
        self.starts.append(time.perf_counter())
        collecting = gc.isenabled()
        gc.disable()
        try:
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                _reference()
                best = min(best, time.perf_counter() - start)
        finally:
            if collecting:
                gc.enable()
        self.ends.append(time.perf_counter())
        self.paces.append(best)

    def maybe_probe(self) -> None:
        if not self.ends or time.perf_counter() - self.ends[-1] >= PROBE_EVERY_S:
            self.probe()

    def measure(self, start: float, end: float) -> tuple[float, float]:
        """end - start, raw and on the quiet-machine scale; needs a probe on each side."""
        raw = end - start
        before = bisect.bisect_right(self.ends, start) - 1
        first = min(before, bisect.bisect_left(self.ends, start - raw))
        after = bisect.bisect_left(self.starts, end)
        last = max(after, bisect.bisect_right(self.starts, end + raw) - 1)
        pace = (statistics.mean(self.paces[first:before + 1])
                + statistics.mean(self.paces[after:last + 1])) / 2
        return raw, raw * REFERENCE_S / pace
