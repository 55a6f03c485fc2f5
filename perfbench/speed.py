"""Machine-speed calibration for steady timings on a shared host.

On a small shared machine the same unit can take twice as long while a
neighbour is busy, in phases that last many seconds — longer than a
pass, so medians alone do not remove it. Timings are therefore reported
in *reference seconds*: host seconds divided by the machine's current
*slowness*, measured by fixed loops run right before and right after
the timed work. A slowness of 1 means the loops run as fast as they did
on the reference machine (an idle 2-core x86 container), where reference
seconds equal host seconds. The loops run no program code, so a program
that gets slower still reads slower; a machine that gets slower does not.

Contention slows different kinds of work by different amounts, so the
slowness is the geometric mean over four loops that each resemble part
of the workloads: hashing, a large dict and sort (memory), a heap of
small objects with callbacks (an event queue), and numpy sampling (the
model backend). None of them imports ``repro``.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from time import perf_counter

import numpy as np

_KEYS = list(range(0, 200_000, 28))
_PVALS = np.array([0.01] * 6 + [0.94])
_SCORE = np.eye(7)[:, :6]
_THRESHOLDS = np.full(6, 0.03)


def _hash_loop() -> None:
    digest = b"perfbench-calibration"
    table: dict = {}
    for index in range(1500):
        digest = hashlib.sha256(digest).digest()
        table[digest[:2]] = index


def _dict_loop() -> None:
    table = {key: (key, key * 2) for key in _KEYS}
    total = 0
    for key in reversed(_KEYS):
        total += table[key][1]
    sorted(table.items(), key=lambda item: -item[0])


class _Event:
    __slots__ = ("time", "sequence", "action")

    def __init__(self, time: float, sequence: int, action) -> None:
        self.time = time
        self.sequence = sequence
        self.action = action

    def __lt__(self, other: "_Event") -> bool:
        return (self.time, self.sequence) < (other.time, other.sequence)


def _event_loop() -> None:
    heap: list = []
    store: dict = {}
    for index in range(500):
        key = index.to_bytes(4, "big")
        store[key] = {"index": index, "at": index * 0.1}
        heapq.heappush(heap, _Event(index * 0.37 % 50, index, lambda: None))
        if len(heap) > 200:
            heapq.heappop(heap).action()
            store.pop(key, None)


def _numpy_loop() -> None:
    rng = np.random.default_rng(0)
    scores = np.zeros((256, 6))
    rounds = np.zeros(256)
    trials = np.full(256, 1000)
    for _ in range(15):
        counts = rng.multinomial(trials, _PVALS)
        scores += counts @ _SCORE
        rounds += trials
        estimates = scores / rounds[:, None]
        estimates > _THRESHOLDS  # noqa: B015 - the comparison is the work


#: ``(loop, seconds on the reference machine)``.
LOOPS = (
    (_hash_loop, 0.0016),
    (_dict_loop, 0.0043),
    (_event_loop, 0.0022),
    (_numpy_loop, 0.0040),
)


def slowness() -> float:
    """Geometric mean over the loops of (loop time now / reference)."""
    total = 0.0
    for loop, reference in LOOPS:
        start = perf_counter()
        loop()
        total += math.log((perf_counter() - start) / reference)
    return math.exp(total / len(LOOPS))


class SpeedGauge:
    """Converts host seconds to reference seconds, one interval at a time.

    Call :meth:`factor` right after each timed interval: it measures the
    slowness again and returns the factor for the interval just ended,
    from the mean of that reading and the one taken before the interval.
    """

    def __init__(self) -> None:
        self._last = slowness()

    def factor(self) -> float:
        now = slowness()
        factor = 2.0 / (self._last + now)
        self._last = now
        return factor
