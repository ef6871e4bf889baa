"""Goal evaluation shared by SATORI, the baselines, and the Oracle.

A :class:`GoalSet` turns raw per-job IPS measurements plus isolation
baselines into the two normalized goal scores the paper optimizes —
throughput and fairness, each in [0, 1] — under a configurable choice
of underlying metric (Sec. IV: Jain's index and sum-of-IPS are the
defaults "as these have been used by other competing techniques").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.errors import ExperimentError
from repro.metrics.fairness import _jain, _one_minus_cov_normalized
from repro.metrics.throughput import (
    _geometric_mean,
    _harmonic_mean,
    _measured_speedups,
    _weighted_mean,
)

THROUGHPUT_CHOICES = ("sum_ips", "geometric_mean", "harmonic_mean")
FAIRNESS_CHOICES = ("jain", "one_minus_cov")


@dataclass(frozen=True)
class GoalScores:
    """Normalized (throughput, fairness) scores for one evaluation."""

    throughput: float
    fairness: float

    def weighted(self, w_throughput: float, w_fairness: float) -> float:
        """The paper's Eq. 2 combination for one sample."""
        return w_throughput * self.throughput + w_fairness * self.fairness


class GoalSet:
    """Computes normalized throughput and fairness from measurements.

    Args:
        throughput_metric: ``"sum_ips"`` (the paper default; sum of IPS
            normalized by the isolation sum), ``"geometric_mean"``, or
            ``"harmonic_mean"``.
        fairness_metric: ``"jain"`` (the paper default) or
            ``"one_minus_cov"`` (clipped into [0, 1]).
    """

    def __init__(self, throughput_metric: str = "sum_ips", fairness_metric: str = "jain"):
        if throughput_metric not in THROUGHPUT_CHOICES:
            raise ExperimentError(
                f"unknown throughput metric {throughput_metric!r}; choices: {THROUGHPUT_CHOICES}"
            )
        if fairness_metric not in FAIRNESS_CHOICES:
            raise ExperimentError(
                f"unknown fairness metric {fairness_metric!r}; choices: {FAIRNESS_CHOICES}"
            )
        self._throughput_metric = throughput_metric
        self._fairness_metric = fairness_metric

    @property
    def throughput_metric(self) -> str:
        return self._throughput_metric

    @property
    def fairness_metric(self) -> str:
        return self._fairness_metric

    def __repr__(self) -> str:
        return f"GoalSet(throughput={self._throughput_metric!r}, fairness={self._fairness_metric!r})"

    def scores(self, ips: Sequence[float], isolation_ips: Sequence[float]) -> GoalScores:
        """Normalized goal scores for one set of measurements.

        Converts and checks the speedups once, then runs the chosen
        formulas on them, on Python floats: the controller and the
        telemetry log each score every interval.
        """
        s, iso = _measured_speedups(ips, isolation_ips)
        return GoalScores(throughput=self._throughput(s, iso), fairness=self._fairness(s))

    def scores_batch(self, ips: np.ndarray, isolation_ips: Sequence[float]):
        """Scores for many candidate evaluations, one :meth:`scores` per row.

        Args:
            ips: ``(n_configs, n_jobs)`` array of modeled IPS values.
            isolation_ips: per-job isolation baselines.

        Returns:
            ``(throughput, fairness)`` arrays of shape ``(n_configs,)``.
        """
        ips = np.asarray(ips, dtype=float)
        iso = [float(v) for v in isolation_ips]
        if ips.ndim != 2 or ips.shape[1] != len(iso):
            raise ExperimentError(f"expected (n, {len(iso)}) ips array, got {ips.shape}")
        rows = [self.scores(row, iso) for row in ips.tolist()]
        return (
            np.array([row.throughput for row in rows], dtype=float),
            np.array([row.fairness for row in rows], dtype=float),
        )

    def _throughput(self, s: List[float], iso: List[float]) -> float:
        if self._throughput_metric == "sum_ips":
            return _weighted_mean(s, iso)
        if self._throughput_metric == "geometric_mean":
            return _geometric_mean(s)
        return _harmonic_mean(s)

    def _fairness(self, s: List[float]) -> float:
        if self._fairness_metric == "jain":
            return _jain(s)
        return _one_minus_cov_normalized(s)
