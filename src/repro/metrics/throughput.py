"""System-throughput metrics (Sec. II of the paper).

All metrics operate on per-job *speedups*: each job's current IPS
divided by its co-location-free (isolation) IPS for the same program
phase. Under partitioning a speedup lies in ``(0, 1]`` — a job cannot
run faster with a slice of the machine than with all of it — so the
normalized metrics below land in ``(0, 1]`` and are directly usable as
SATORI objective-function components.

The paper's default throughput metric is the *sum of instructions per
second*; normalized by the sum of isolation IPS it equals the
IPS-weighted mean speedup. Geometric and harmonic mean speedups are
provided because Sec. II lists them as common alternatives and the
paper confirms SATORI's improvements hold for them.
:class:`~repro.metrics.goals.GoalSet` is the one caller of these
formulas and names them (``"sum_ips"``, ``"geometric_mean"``,
``"harmonic_mean"``).

Every metric but the geometric mean runs on Python floats and sums in
numpy's order (:func:`~repro.metrics.summation.np_sum`), so it equals
its numpy formula bit for bit; the geometric mean keeps numpy's
``log`` and ``exp``, which ``math`` does not reproduce.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ExperimentError
from repro.metrics.summation import np_sum


def speedups(ips: Sequence[float], isolation_ips: Sequence[float]) -> Tuple[float, ...]:
    """Per-job speedups relative to isolation performance.

    Raises:
        ExperimentError: on length mismatch, non-positive baselines or
            negative IPS.
    """
    return tuple(_speedups(ips, isolation_ips)[0])


def _speedups(
    ips: Sequence[float], isolation_ips: Sequence[float]
) -> Tuple[List[float], List[float]]:
    """The speedups and the baselines as float lists, checked as
    :func:`speedups` checks them."""
    ips = [float(v) for v in ips]
    iso = [float(v) for v in isolation_ips]
    if len(ips) != len(iso):
        raise ExperimentError(f"{len(ips)} IPS values for {len(iso)} baselines")
    if any(v <= 0 for v in iso):
        raise ExperimentError("isolation IPS must be positive")
    if any(v < 0 for v in ips):
        raise ExperimentError("IPS must be non-negative")
    return [value / base for value, base in zip(ips, iso)], iso


def _geometric_mean(s: List[float]) -> float:
    """Geometric mean of the per-job speedups."""
    return float(np.exp(np.mean(np.log(np.maximum(s, 1e-12)))))


def _harmonic_mean(s: List[float]) -> float:
    """Harmonic mean of the per-job speedups."""
    # np.maximum(v, 1e-12), which keeps a NaN (``nan < 1e-12`` is false).
    reciprocal_sum = np_sum([1.0 / (1e-12 if v < 1e-12 else v) for v in s])
    # Only all-infinite speedups sum to zero; numpy reads that as inf.
    return len(s) / reciprocal_sum if reciprocal_sum else math.inf


def _weighted_mean(s: List[float], iso: List[float]) -> float:
    """Sum-of-IPS throughput, normalized by the isolation sum.

    ``sum_i ips_i / sum_i iso_i`` — the paper's default throughput
    metric in its [0, 1] normalized form.
    """
    iso_sum = np_sum(iso)
    if iso_sum == 0:
        raise ExperimentError("isolation IPS must not sum to zero")
    return np_sum([value * base for value, base in zip(s, iso)]) / iso_sum


def checked_speedups(job_speedups: Sequence[float]) -> List[float]:
    """The speedups as floats; rejects an empty or negative input."""
    s = [float(v) for v in job_speedups]
    if not s:
        raise ExperimentError("need at least one job")
    if any(v < 0 for v in s):
        raise ExperimentError(f"speedups must be non-negative, got {s}")
    return s


def _measured_speedups(
    ips: Sequence[float], isolation_ips: Sequence[float]
) -> Tuple[List[float], List[float]]:
    """The speedups of one measurement and its baselines, checked once
    for every formula here: as :func:`speedups` and
    :func:`checked_speedups` check them (measured speedups are never
    negative)."""
    s, iso = _speedups(ips, isolation_ips)
    if not s:
        raise ExperimentError("need at least one job")
    return s, iso
