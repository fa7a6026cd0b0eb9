"""Host-speed calibration: time a fixed pure-Python kernel between ops.

On a shared host the speed of pure-Python code drifts by tens of percent,
in spells from milliseconds to minutes, and the drift reaches the guest as
slower code, not as lost CPU time.  A fixed kernel that does the same kind of work
as tritsim's solver (string-keyed dicts, union-find, sorting, small tuples)
slows with it.  The runner times one kernel pass per INTERVAL_S of ops,
between ops, and scales each op's latency by REFERENCE_S over the median
pass time within HALF_WINDOW_S of the op's end, so that times read as
milliseconds at a reference host speed: that of a host on which one kernel
pass takes REFERENCE_S.  The kernel is part of the benchmark and does not
change with tritsim, so a change to tritsim moves the scaled times as it
moves the raw ones.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
from time import perf_counter

REFERENCE_S = 1.0e-3     # a round figure; passes took 0.75-1.5 ms on the host of baseline.json
INTERVAL_S = 0.05        # seconds of ops per kernel pass
MAX_PASSES = 8           # kernel passes after one long op
HALF_WINDOW_S = 0.5      # passes this close to an op's end set its scale
FINAL_PASSES = 4         # passes after the last op
SETUP_PASSES = 5         # kernel passes before and after each set-up

_NODES = [f"n{i}" for i in range(48)]
_rng = random.Random(3)
_EDGES = [(_rng.choice(_NODES), _rng.choice(_NODES)) for _ in range(40)]


def kernel() -> int:
    """Fixed work: twenty union-find sweeps over a small graph."""
    total = 0
    for sweep in range(20):
        parent = {n: n for n in _NODES}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in _EDGES[sweep:]:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        groups: dict[str, list[str]] = {}
        for n in _NODES:
            groups.setdefault(find(n), []).append(n)
        state = {m: (len(members), members[0]) for members in groups.values()
                 for m in sorted(members)}
        total += sum(size for size, _ in state.values())
    return total


def kernel_seconds() -> float:
    """One kernel pass, timed with the cyclic garbage collector off, so that
    a collection of the benchmark's own heap does not land in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scaled_setup(set_up):
    """Call `set_up()`, which returns (..., seconds taken), between two sets
    of SETUP_PASSES kernel passes.  Returns its result and its time at the
    reference host speed."""
    passes = [kernel_seconds() for _ in range(SETUP_PASSES)]
    result = set_up()
    passes += [kernel_seconds() for _ in range(SETUP_PASSES)]
    return result, result[-1] * REFERENCE_S / statistics.median(passes)


class Calibration:
    """Kernel passes taken between the ops of one measured window."""

    def __init__(self):
        self.at: list[float] = []        # perf_counter() when each pass started
        self.seconds: list[float] = []

    def _passes(self, n: int) -> None:
        for _ in range(n):
            self.at.append(perf_counter())
            self.seconds.append(kernel_seconds())

    def tick(self, now: float) -> None:
        """One kernel pass per INTERVAL_S of ops since the last pass."""
        if not self.at:
            self._passes(1)
        elif now - self.at[-1] >= INTERVAL_S:
            self._passes(min(MAX_PASSES, int((now - self.at[-1]) / INTERVAL_S)))

    def finish(self) -> None:
        """A few more passes, so that the last op has passes after it too."""
        self._passes(FINAL_PASSES)

    def scale(self, when: float) -> float:
        """REFERENCE_S over the median pass within HALF_WINDOW_S of `when`
        (the nearest pass if there is none)."""
        lo = bisect.bisect_left(self.at, when - HALF_WINDOW_S)
        hi = bisect.bisect_right(self.at, when + HALF_WINDOW_S)
        if lo == hi:
            lo, hi = max(0, lo - 1), lo + 1
        return REFERENCE_S / statistics.median(self.seconds[lo:hi])

    def speed(self) -> float:
        """Reference over the median pass of the whole window."""
        return REFERENCE_S / statistics.median(self.seconds)
