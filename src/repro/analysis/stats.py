"""Replication statistics: multi-seed runs, confidence intervals,
convergence-time estimation.

Single runs of an online controller carry measurement-noise and
exploration variance; credible comparisons replicate over seeds. This
module provides the replication loop and the summary statistics the
examples and extension benches report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ExperimentError
from repro.experiments.runner import RunConfig, RunResult, run_policy
from repro.policies.base import PartitioningPolicy
from repro.resources.types import ResourceCatalog
from repro.workloads.mixes import JobMix


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
class ReplicatedRun:
    """Replicated policy run with per-goal statistics."""

    policy_name: str
    mix_label: str
    throughput: ReplicatedScore
    fairness: ReplicatedScore
    results: Tuple[RunResult, ...]


def replicate_policy(
    policy_factory: Callable[[], PartitioningPolicy],
    mix: JobMix,
    catalog: ResourceCatalog,
    run_config: Optional[RunConfig] = None,
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
) -> ReplicatedRun:
    """Run a fresh policy instance once per seed and summarize.

    ``policy_factory`` must build a *new* (or fully reset) policy each
    call — policies are stateful.
    """
    if len(seeds) < 2:
        raise ExperimentError("replication needs at least two seeds")
    results: List[RunResult] = []
    for seed in seeds:
        policy = policy_factory()
        results.append(run_policy(policy, mix, catalog, run_config, seed=seed))
    return ReplicatedRun(
        policy_name=results[0].policy_name,
        mix_label=mix.label,
        throughput=confidence_interval([r.throughput for r in results]),
        fairness=confidence_interval([r.fairness for r in results]),
        results=tuple(results),
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


def convergence_time_s(result: RunResult) -> float:
    """Time at which the weighted objective first reaches its final level.

    The final level is the mean objective over the run's last quarter;
    convergence is the first instant a 1-second moving average reaches
    95% of it. Returns the run duration if the run never converges.
    """
    telemetry = result.telemetry
    objective = 0.5 * telemetry.series("throughput") + 0.5 * telemetry.series("fairness")
    times = telemetry.series("time")
    tail = max(1, int(round(len(objective) * 0.25)))
    final_level = float(np.mean(objective[-tail:]))
    if final_level <= 0:
        raise ExperimentError("degenerate run: non-positive final objective")

    window = max(1, round(1.0 / result.run_config.interval_s))
    smoothed = np.convolve(objective, np.ones(window) / window, mode="valid")
    threshold = 0.95 * final_level
    hits = np.nonzero(smoothed >= threshold)[0]
    if hits.size == 0:
        return float(times[-1])
    return float(times[hits[0] + window - 1])
