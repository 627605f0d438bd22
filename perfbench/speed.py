"""Host speed, sampled beside the program, and times scaled to a reference speed.

The benchmark shares a few cores with other tenants, and the speed at which
the same pure-Python code runs moves by up to 2x over stretches of a fraction
of a second to minutes. Raw wall times follow the host as much as the program.

``Probe`` interrupts the program 20 times a second (``SIGALRM``, handled in
the main thread between bytecodes) and times a fixed pure-Python probe of
set, dict, tuple and sort work there. ``Probe.scaled(a, b)`` is the length of
the interval [a, b] in reference seconds: the time the program itself had in
it (the probes' own time taken out), with each stretch weighted by the
host's speed the probes measured there. At the reference speed the probe
takes ``REFERENCE_S``; on a host running at that speed a reference second is
a second.

Scaled times still move with the program: the probe does not run program
code, so a change that makes the program do more or less work moves them in
full. They do not move with the host, as long as the host slows the probe as
much as the program (``record.json`` gives the measured effect).
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

REFERENCE_S = 400e-6  # the probe's time at reference speed
PERIOD_S = 0.05


def _key(row: tuple[int, ...], lab: list[int]) -> tuple[int, ...]:
    return tuple(sorted(row[x] for x in lab))


def probe_work() -> int:
    """A fixed piece of work shaped like the program's: sets, dicts, tuples."""
    adj = {}
    for i in range(48):
        adj[i] = {(i * 7 + k) % 48 for k in range(1, 6)}
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    rows = [tuple((i * j + 3) % 11 for j in range(8)) for i in range(8)]
    keys: dict[tuple, int] = {}
    for r in range(12):
        lab = list(range(8))
        lab[r % 8], lab[r * 3 % 8] = lab[r * 3 % 8], lab[r % 8]
        key = tuple(_key(row, lab) for row in rows)
        keys[key] = keys.get(key, 0) + 1
    return len(seen) + len(keys)


class Probe:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.lengths: list[float] = []

    def _tick(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not host speed
        start = time.perf_counter()
        probe_work()
        self.lengths.append(time.perf_counter() - start)
        self.starts.append(start)
        if enabled:
            gc.enable()

    def start(self) -> None:
        for _ in range(20):  # warm the probe's code before the first sample
            probe_work()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, a: float, b: float) -> float:
        """Reference seconds of program time in [a, b] (``perf_counter`` readings).

        The speed is the mean of REFERENCE_S / length over the probes inside
        the interval, which weights each stretch by its length since probes
        are evenly spaced; a shorter interval takes the probes on either side.
        """
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_right(self.starts, b)
        near = range(lo, hi) if hi > lo else [i for i in (lo - 1, lo) if 0 <= i < len(self.starts)]
        if not near:
            raise RuntimeError("no speed probe ran")
        speed = statistics.fmean(REFERENCE_S / self.lengths[i] for i in near)
        return (b - a - sum(self.lengths[lo:hi])) * speed
