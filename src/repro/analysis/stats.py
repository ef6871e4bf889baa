"""Replication statistics: confidence intervals and paired comparisons.

Single runs of an online controller carry measurement-noise and
exploration variance; credible comparisons replicate over seeds or
pair runs that share a trace. This module provides the summary
statistics the sweeps, the examples and the extension benches report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.errors import ExperimentError


@dataclass(frozen=True)
class ReplicatedScore:
    """Mean and confidence interval of a score over replications."""

    mean: float
    std: float
    ci_low: float
    ci_high: float
    n: int

    def __str__(self) -> str:
        return f"{self.mean:.3f} ± {(self.ci_high - self.ci_low) / 2:.3f} (n={self.n})"


def confidence_interval(values: Sequence[float]) -> ReplicatedScore:
    """Two-sided 95% Student-t confidence interval of the mean."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise ExperimentError("need at least two replications for a confidence interval")
    # Imported here, by its one caller: loading ``scipy.special`` costs
    # every process that imports the program about 18 MB and 0.2 s.
    from scipy import special

    mean = float(values.mean())
    sem = float(values.std(ddof=1) / np.sqrt(values.size))
    # The Student-t quantile, as SciPy's ``t.ppf`` evaluates it for finite df.
    t = special.stdtrit(values.size - 1, 0.975)
    return ReplicatedScore(
        mean=mean,
        std=float(values.std(ddof=1)),
        ci_low=mean - t * sem,
        ci_high=mean + t * sem,
        n=int(values.size),
    )


@dataclass(frozen=True)
class PairedDelta:
    """Per-key paired comparison ``b - a`` over common keys.

    Attributes:
        delta: summary statistics of the per-key differences.
        n_common: keys present on both sides (the paired sample size).
        n_only_a / n_only_b: keys dropped because they appear on one
            side only (e.g. a job admitted under one placement but
            rejected under the other) — reported rather than silently
            discarded, since heavy attrition undermines the pairing.
    """

    delta: ReplicatedScore
    n_common: int
    n_only_a: int
    n_only_b: int


def paired_deltas(a: Mapping[Any, float], b: Mapping[Any, float]) -> PairedDelta:
    """95% confidence interval on the mean per-key difference ``b - a``.

    For cluster sweeps the natural inputs are per-job mean speedups
    (:meth:`~repro.cluster.simulator.ClusterResult.job_mean_speedups`)
    from two cells sharing one trace: because job ids are stable across
    cells, each job is its own control, and the paired differences
    cancel the job-identity variance that makes unpaired comparisons of
    small fleets inconclusive.

    Degenerate inputs stay well-formed rather than raising mid-report:
    a single common key (a one-job trace) yields a zero-width interval
    at the observed difference with ``n=1``, and identical per-key
    differences (zero variance — e.g. both cells produced bit-identical
    runs) collapse the interval to the mean. Only an empty intersection
    is an error, since there is nothing to pair at all.
    """
    common = sorted(set(a) & set(b), key=str)
    if not common:
        raise ExperimentError("paired comparison needs common keys, got 0")
    deltas = [float(b[key]) - float(a[key]) for key in common]
    if len(deltas) == 1:
        # One pair: the difference is exact, the uncertainty unknown.
        # A zero-width interval reports the observation without
        # pretending to a spread no statistic can estimate from n=1.
        score = ReplicatedScore(
            mean=deltas[0], std=0.0, ci_low=deltas[0], ci_high=deltas[0], n=1
        )
    else:
        score = confidence_interval(deltas)
    return PairedDelta(
        delta=score,
        n_common=len(common),
        n_only_a=len(set(a) - set(b)),
        n_only_b=len(set(b) - set(a)),
    )

