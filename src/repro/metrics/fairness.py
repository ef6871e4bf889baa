"""Fairness metrics (Sec. II of the paper).

Fairness measures the *similarity* of the co-located jobs' slowdowns.
The paper's default is Jain's Fairness Index over the per-job
speedups, ``1 / (1 + CoV^2)``, which is 1 when every job suffers the
same relative slowdown and approaches 0 as the slowdowns diverge.
``1 - CoV`` is provided as the alternative metric the paper discusses
(unbounded below, hence the normalization note in Sec. III-B).
:class:`~repro.metrics.goals.GoalSet` names them ``"jain"`` and
``"one_minus_cov"``.

The metrics run on Python floats and sum in numpy's order
(:func:`~repro.metrics.summation.np_sum`), so each equals its numpy
formula (``np.std(s) / np.mean(s)`` for the CoV) bit for bit.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.errors import ExperimentError
from repro.metrics.summation import np_sum
from repro.metrics.throughput import checked_speedups


def _cov(s: List[float]) -> float:
    """Population CoV (std as a fraction of the mean) of the speedups."""
    n = len(s)
    mean = np_sum(s) / n
    if mean <= 0:
        raise ExperimentError("mean speedup must be positive to compute CoV")
    deviations = [value - mean for value in s]
    return math.sqrt(np_sum([d * d for d in deviations]) / n) / mean


def jain_index(job_speedups: Sequence[float]) -> float:
    """Jain's Fairness Index: ``1 / (1 + CoV^2)``, in ``(0, 1]``."""
    return _jain(checked_speedups(job_speedups))


def _jain(s: List[float]) -> float:
    cov = _cov(s)
    return 1.0 / (1.0 + cov * cov)


def _one_minus_cov_normalized(s: List[float]) -> float:
    """``1 - CoV`` clipped into [0, 1] (the paper normalizes unbounded
    metrics into a common [0, 1] range before weighting, Sec. III-B)."""
    value = 1.0 - _cov(s)
    if value < 0.0:
        return 0.0
    if value > 1.0:
        return 1.0
    return value  # NaN passes through, as np.clip lets it
