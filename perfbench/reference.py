"""Reference seconds: call times scaled by a fixed reference loop timed beside them.

The machines this benchmark was built on drift between speed states for
seconds to minutes at a time; CPU time tracks wall time, so the core
itself runs slower, not the scheduler. Back-to-back processes running
one call saw medians from 0.81 to 1.14 s. A fixed loop that uses no
relayosc code is timed every ``EVERY_S`` seconds, right before the next
call, and each call's time is multiplied by ``NOMINAL_S`` over the
loop's latest time. Slow states stretch both, so their ratio stays put.
In a 240 s trace of ``long-period`` calls, each timed right after a loop
of this kind, the median call time of 25 s windows spread 23% between
quartiles and the median ratio of call to loop spread 1.2%.

``NOMINAL_S`` is the loop's time on the machine the benchmark was built
on (Intel Xeon, 2-vCPU KVM guest, Python 3.11, numpy 2.4) in its fast
state, so there a reference second is about a second.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.0012
EVERY_S = 0.25

# pure-Python tuple rotations, small matrix-vector products and one pass
# over a 4 MB array: the mix of work the relayosc layers do
_PATTERN = [1] * 20 + [-1] * 20 + [0] * 8
_MATRIX = np.arange(48 * 48, dtype=float).reshape(48, 48) / (48 * 48)
_VECTOR = np.linspace(-1.0, 1.0, 48)
_BLOCK = np.linspace(0.0, 1.0, 1 << 19)


def _loop() -> float:
    acc = 0.0
    s = _PATTERN
    for _ in range(16):
        acc += min(tuple(s[k:] + s[:k]) for k in range(len(s)))[0]
        for _ in range(8):
            acc += float((_MATRIX @ _VECTOR)[0])
    return acc + float(_BLOCK.sum())


def loop_seconds() -> float:
    """Fastest of three timings of the reference loop."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - t0)
    return best


class Speed:
    """The latest reference timing, refreshed at most every ``EVERY_S`` seconds."""

    def __init__(self):
        self.timings: list[float] = []
        self._at = float("-inf")

    def refresh(self, force: bool = False) -> None:
        if force or time.perf_counter() - self._at >= EVERY_S:
            self.timings.append(loop_seconds())
            self._at = time.perf_counter()

    def scale(self, seconds: float) -> float:
        """Measured seconds as reference seconds, by the latest timing."""
        return seconds * NOMINAL_S / self.timings[-1]
