"""A fixed calibration kernel that measures how fast the machine runs now.

The host's speed wanders: a fixed loop flips between two speeds about 1.4x
apart at a sub-second pace, and the share of slow time drifts over minutes
(README.md, "Steadiness"). The workload process times this kernel right
after every operation of an untraced round, outside the timed operations,
and run.py scales each operation's time by REFERENCE_S over the kernel's
time beside it. A time is then given at the speed at which the kernel
takes REFERENCE_S, and it stops moving with the share of slow time.

The kernel mixes what primpair spends its time on: a pure-Python integer
loop, dict updates and a sort, strided numpy writes into a sieve-sized
array, and many numpy calls on arrays the size of a small field, which
weigh about half of its time. The parts answer the host's slow state
differently (the small-array calls slow down about as much as the
workloads or more, the others less), and this mix tracked the scans and
the classification best of those tried (README.md). It imports nothing
from primpair, so a change to the program cannot move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# The kernel's time on this repository's development machine in its fast
# state (2 vCPUs, Python 3.11.7, numpy 2.4.6).
REFERENCE_S = 0.00085

_SIEVE = np.zeros(1 << 15, dtype=np.int8)
_KEYS = [(i * 7919) % 1000 for i in range(1000)]
_STRIDES = (3, 5, 7, 11, 13, 17, 19, 23)
_SMALL = np.arange(128, dtype=np.int64)
_TABLE = _SMALL[:127][::-1].copy()


def kernel() -> int:
    total = 0
    for i in range(3000):
        total += i * i % 7
    counts: dict[int, int] = {}
    for key in _KEYS:
        counts[key] = counts.get(key, 0) + 1
    total += sorted(counts.items())[-1][1]
    _SIEVE[:] = 0
    for stride in _STRIDES:
        _SIEVE[::stride] += 1
    total += int(np.count_nonzero(_SIEVE))
    vec = _SMALL
    for _ in range(120):
        vec = _TABLE[(vec * 3 + _SMALL) % 127]
    return total + int(vec[0])


def timed() -> float:
    """Seconds one call of the kernel takes."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0
