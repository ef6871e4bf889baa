"""Float summation in numpy's order.

The per-interval metrics score 2-4 jobs, where a numpy reduction spends
microseconds of call overhead on nanoseconds of arithmetic. A sum of
Python floats taken in the order ``np.sum`` adds them is the same double
bit for bit, so the metrics run on floats without moving any result.
(The builtin ``sum`` is no substitute: from Python 3.12 it compensates
float sums.)
"""

from __future__ import annotations

from typing import Sequence

#: numpy's ``PW_BLOCKSIZE``: longer runs are split in two and summed
#: recursively.
_BLOCK = 128


def np_sum(values: Sequence[float]) -> float:
    """``float(np.sum(values))`` for a 1-D sequence of floats, bit for bit.

    numpy reduces ``add`` from its identity 0.0 over a pairwise sum:
    left to right below 8 elements; from 8 on, eight interleaved
    accumulators folded as ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) +
    (r6 + r7))`` with the tail added in order; above 128 elements the
    two halves (the split rounded down to a multiple of 8) summed
    separately.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    return 0.0 + _pairwise(values, 0, n)


def _pairwise(values: Sequence[float], start: int, n: int) -> float:
    """numpy's ``pairwise_sum`` over ``values[start:start + n]``, ``n >= 8``."""
    if n > _BLOCK:
        half = n // 2
        half -= half % 8
        return _pairwise(values, start, half) + _pairwise(values, start + half, n - half)
    r0, r1, r2, r3, r4, r5, r6, r7 = values[start : start + 8]
    stop = start + n
    blocks_end = stop - n % 8
    for i in range(start + 8, blocks_end, 8):
        r0 += values[i]
        r1 += values[i + 1]
        r2 += values[i + 2]
        r3 += values[i + 3]
        r4 += values[i + 4]
        r5 += values[i + 5]
        r6 += values[i + 6]
        r7 += values[i + 7]
    total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for i in range(blocks_end, stop):
        total += values[i]
    return total
