"""Warm-vs-cold adaptation sweep: what controller state is worth.

SATORI's premise is sacrificing short-term benefit for long-term gain —
but the long-term gain only accrues if the accumulated state (GP
posterior, goal records, weight-scheduler position) survives run
boundaries. This experiment quantifies exactly that, at two scales:

* **Single node** — run one epoch on a mix, capture the controller's
  final :class:`~repro.state.PolicyState`, then run the *next* epoch
  (phase offset advanced) twice from identical environments: cold
  (fresh controller) and warm (``initial_state`` = the snapshot).
  Because the measurement-noise seed derives from the cold digest
  (the spec with warm-start state stripped), the cold and warm
  continuations face bit-identical noise — every
  difference is attributable to the carried state. Reported per mix:
  intervals-to-recover (when a 1 s moving average of the weighted
  objective first reaches 95% of the *better* of the two plateaus — a
  shared, symmetric threshold, so neither variant is penalized for
  converging higher than the other) and the early-window
  fairness/throughput before recovery completes.

* **Cluster** — replay one arrival trace twice through
  :class:`~repro.cluster.simulator.ClusterSimulator`, cold vs
  ``warm_start=True``, under round-robin placement and no migration so
  job→node routing is identical in both runs. Per-job mean speedups
  and per-node-epoch fairness then pair exactly (same jobs, same
  nodes, same epochs, same noise), and
  :func:`~repro.analysis.stats.paired_deltas` puts confidence
  intervals on the warm-minus-cold gains — including the headline
  acceptance metric, intervals for a warm-started membership-stable
  node's fairness to recover to the pair's better plateau.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.stats import PairedDelta, confidence_interval, paired_deltas
from repro.cluster.simulator import ClusterResult, ClusterSimulator
from repro.engine import ExecutionEngine, RunSpec
from repro.errors import ExperimentError
from repro.experiments.runner import RunConfig, RunResult, experiment_catalog
from repro.resources.types import ResourceCatalog
from repro.workloads.arrivals import poisson_trace
from repro.workloads.mixes import JobMix, suite_mixes

#: Fraction of an epoch treated as the "early window" when comparing
#: pre-recovery behaviour.
EARLY_WINDOW_FRACTION = 0.25


def _early_mean(result: RunResult, series: str) -> float:
    values = result.telemetry.series(series)
    keep = max(1, int(round(len(values) * EARLY_WINDOW_FRACTION)))
    return float(np.mean(values[:keep]))


def _tail_level(series: np.ndarray) -> float:
    """Mean of a series' last quarter — its steady-state plateau."""
    tail = max(1, int(round(len(series) * 0.25)))
    return float(np.mean(series[-tail:]))


def _series_recovery(series: np.ndarray, reference_level: float, window: int) -> int:
    """Intervals until a 1 s moving average reaches 95% of the reference level.

    Counted in intervals, not seconds: epoch telemetry starts at a
    nonzero phase offset, so wall-clock times would need de-offsetting
    — counting intervals sidesteps that. Never reaching the level
    counts as the full series length (censored).
    """
    smoothed = np.convolve(series, np.ones(window) / window, mode="valid")
    hits = np.nonzero(smoothed >= 0.95 * reference_level)[0]
    if hits.size == 0:
        return len(series)
    return int(hits[0] + window)


def _objective_series(result: RunResult) -> np.ndarray:
    telemetry = result.telemetry
    return 0.5 * telemetry.series("throughput") + 0.5 * telemetry.series("fairness")


def _final_level(result: RunResult) -> float:
    """Mean weighted objective over the run's last quarter."""
    level = _tail_level(_objective_series(result))
    if level <= 0:
        raise ExperimentError("degenerate run: non-positive final objective")
    return level


def _recovery_intervals(result: RunResult, reference_level: float) -> int:
    """Intervals until the weighted objective reaches a reference level.

    The threshold must be shared between the cells being compared —
    the *better* of the two plateaus — so neither variant is penalized
    for converging to a higher level than the other.
    """
    window = max(1, round(1.0 / result.run_config.interval_s))
    return _series_recovery(_objective_series(result), reference_level, window)


@dataclass(frozen=True)
class AdaptationCell:
    """One mix's cold-vs-warm continuation epoch."""

    mix_label: str
    cold: RunResult
    warm: RunResult
    cold_recovery_intervals: int
    warm_recovery_intervals: int

    @property
    def recovery_gain_intervals(self) -> int:
        """Intervals the warm start saves (positive = warm recovers faster)."""
        return self.cold_recovery_intervals - self.warm_recovery_intervals

    @property
    def early_fairness_delta(self) -> float:
        """Warm minus cold fairness over the early window."""
        return _early_mean(self.warm, "fairness") - _early_mean(self.cold, "fairness")

    @property
    def early_throughput_delta(self) -> float:
        return _early_mean(self.warm, "throughput") - _early_mean(self.cold, "throughput")

    @property
    def plateau_delta(self) -> float:
        """Warm minus cold steady-state weighted objective.

        Recovery intervals measure *how fast* a run reaches the shared
        threshold; this measures *where it ends up* — carried state
        often buys a better plateau even when both recover quickly.
        """
        return _final_level(self.warm) - _final_level(self.cold)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mix": self.mix_label,
            "cold_recovery_intervals": self.cold_recovery_intervals,
            "warm_recovery_intervals": self.warm_recovery_intervals,
            "recovery_gain_intervals": self.recovery_gain_intervals,
            "early_fairness_delta": self.early_fairness_delta,
            "early_throughput_delta": self.early_throughput_delta,
            "plateau_delta": self.plateau_delta,
            "cold_fairness": self.cold.fairness,
            "warm_fairness": self.warm.fairness,
            "cold_throughput": self.cold.throughput,
            "warm_throughput": self.warm.throughput,
        }


def adaptation_sweep(
    mixes: Optional[Sequence[JobMix]] = None,
    policy: str = "SATORI",
    catalog: Optional[ResourceCatalog] = None,
    run_config: Optional[RunConfig] = None,
    seed: int = 0,
    engine: Optional[ExecutionEngine] = None,
) -> Tuple[AdaptationCell, ...]:
    """Cold vs warm continuation epochs across a mix suite.

    For each mix: epoch 0 runs cold and yields a final snapshot; epoch
    1 (same seed, phase offset advanced by one epoch) runs twice, cold
    and warm. All specs go through the engine, so the sweep caches and
    parallelizes like any other campaign.
    """
    mixes = list(mixes) if mixes is not None else suite_mixes("parsec", mix_size=3)[:4]
    if not mixes:
        raise ExperimentError("adaptation sweep needs at least one mix")
    catalog = catalog or experiment_catalog()
    run_config = run_config or RunConfig(duration_s=8.0, baseline_reset_s=4.0)
    engine = engine or ExecutionEngine()

    def _spec(mix: JobMix, epoch: int, initial_state=None) -> RunSpec:
        config = RunConfig(
            duration_s=run_config.duration_s,
            interval_s=run_config.interval_s,
            baseline_reset_s=run_config.baseline_reset_s,
            noise_sigma=run_config.noise_sigma,
            phase_offset_s=epoch * run_config.duration_s,
            warmup_fraction=run_config.warmup_fraction,
            actuation_retries=run_config.actuation_retries,
        )
        return RunSpec(
            mix=mix,
            policy=policy,
            catalog=catalog,
            run_config=config,
            seed=seed,
            initial_state=initial_state,
        )

    first_epoch = engine.run([_spec(mix, 0) for mix in mixes])
    continuations: List[RunSpec] = []
    for mix, warmup in zip(mixes, first_epoch):
        if warmup.final_state is None:
            raise ExperimentError(
                f"policy {policy!r} produced no snapshot; warm-start needs a stateful policy"
            )
        continuations.append(_spec(mix, 1))
        continuations.append(_spec(mix, 1, initial_state=warmup.final_state))
    results = engine.run(continuations)

    cells = []
    for index, mix in enumerate(mixes):
        cold, warm = results[2 * index], results[2 * index + 1]
        level = max(_final_level(cold), _final_level(warm))
        cells.append(
            AdaptationCell(
                mix_label=mix.label,
                cold=cold,
                warm=warm,
                cold_recovery_intervals=_recovery_intervals(cold, level),
                warm_recovery_intervals=_recovery_intervals(warm, level),
            )
        )
    return tuple(cells)


@dataclass(frozen=True)
class WarmstartClusterComparison:
    """Cold vs warm cluster replays of one trace (paired by design)."""

    cold: ClusterResult
    warm: ClusterResult
    job_speedup_delta: PairedDelta
    warm_started_epochs: int
    smoothing_window: int = 10

    def node_epoch_fairness_delta(self) -> PairedDelta:
        """Warm minus cold fairness over paired simulated node-epochs."""
        cold = {
            (r.epoch, r.node_id): r.fairness
            for r in self.cold.records
            if not r.synthesized
        }
        warm = {
            (r.epoch, r.node_id): r.fairness
            for r in self.warm.records
            if not r.synthesized
        }
        return paired_deltas(cold, warm)

    def _recovery_pairs(self) -> Tuple[Dict[Any, float], Dict[Any, float]]:
        """(cold, warm) intervals-to-recover per warm-started node-epoch."""
        warm_started = {
            (r.epoch, r.node_id): r
            for r in self.warm.records
            if r.warm_started and r.fairness_series
        }
        cold_by_key = {
            (r.epoch, r.node_id): r
            for r in self.cold.records
            if not r.synthesized and r.fairness_series
        }
        cold_rec: Dict[Any, float] = {}
        warm_rec: Dict[Any, float] = {}
        for key, warm_record in warm_started.items():
            cold_record = cold_by_key.get(key)
            if cold_record is None:
                continue
            cold_series = np.asarray(cold_record.fairness_series)
            warm_series = np.asarray(warm_record.fairness_series)
            level = max(_tail_level(cold_series), _tail_level(warm_series))
            cold_rec[key] = float(
                _series_recovery(cold_series, level, self.smoothing_window)
            )
            warm_rec[key] = float(
                _series_recovery(warm_series, level, self.smoothing_window)
            )
        return cold_rec, warm_rec

    def fairness_recovery_delta(self) -> PairedDelta:
        """Intervals-to-recover saved by warm start (cold − warm).

        The acceptance metric: over node-epochs whose warm replay was
        actually warm-started (membership-stable nodes past epoch 0),
        count intervals until each epoch's 1 s moving-average fairness
        reaches 95% of the pair's better plateau, and pair cold vs
        warm. Positive mean = warm-started controllers recover
        fairness in fewer intervals.
        """
        cold_rec, warm_rec = self._recovery_pairs()
        # paired_deltas is b − a; passing (warm, cold) yields cold − warm,
        # i.e. intervals *saved* by the warm start.
        return paired_deltas(warm_rec, cold_rec)

    def fairness_recovery_outcomes(self) -> Dict[str, int]:
        """Per-pair win/tie/loss counts for the recovery comparison.

        The per-pair saving distribution is bimodal (usually a few
        intervals, occasionally a whole epoch when the cold controller
        never reconverges), so a t-interval alone over-weights the
        outliers; the counts are the robust companion statistic.
        """
        cold_rec, warm_rec = self._recovery_pairs()
        wins = ties = losses = 0
        for key in cold_rec.keys() & warm_rec.keys():
            saved = cold_rec[key] - warm_rec[key]
            if saved > 0:
                wins += 1
            elif saved < 0:
                losses += 1
            else:
                ties += 1
        return {"wins": wins, "ties": ties, "losses": losses}

    def to_dict(self) -> Dict[str, Any]:
        fairness = self.node_epoch_fairness_delta()
        try:
            recovery = self.fairness_recovery_delta()
        except ExperimentError:
            # Too few warm-started epochs to pair (tiny traces).
            recovery = None
        return {
            "cold_fairness": self.cold.fairness,
            "warm_fairness": self.warm.fairness,
            "cold_mean_speedup": self.cold.mean_speedup,
            "warm_mean_speedup": self.warm.mean_speedup,
            "warm_started_epochs": self.warm_started_epochs,
            "job_speedup_delta": {
                "mean": self.job_speedup_delta.delta.mean,
                "ci_low": self.job_speedup_delta.delta.ci_low,
                "ci_high": self.job_speedup_delta.delta.ci_high,
                "n": self.job_speedup_delta.n_common,
            },
            "node_epoch_fairness_delta": {
                "mean": fairness.delta.mean,
                "ci_low": fairness.delta.ci_low,
                "ci_high": fairness.delta.ci_high,
                "n": fairness.n_common,
            },
            "fairness_recovery_saved_intervals": None
            if recovery is None
            else {
                "mean": recovery.delta.mean,
                "ci_low": recovery.delta.ci_low,
                "ci_high": recovery.delta.ci_high,
                "n": recovery.n_common,
                **self.fairness_recovery_outcomes(),
            },
        }


def cluster_warmstart(
    n_nodes: int = 2,
    n_epochs: int = 12,
    catalog: Optional[ResourceCatalog] = None,
    seed: int = 0,
    engine: Optional[ExecutionEngine] = None,
) -> WarmstartClusterComparison:
    """Replay one Poisson trace cold and warm under SATORI and pair the outcomes.

    Round-robin placement and no migration keep job→node routing
    independent of telemetry, so both replays produce identical
    memberships — the per-job and per-node-epoch comparisons are then
    exactly paired (same jobs, same co-runners, same noise). The
    default trace is long (``n_epochs=12``) with sticky residency:
    warm starts only fire on membership-stable epoch boundaries, so
    churny short traces yield too few pairs to measure anything.
    Epochs last 4 s with a baseline refresh every 2 s.
    """
    catalog = catalog or experiment_catalog()
    epoch_config = RunConfig(duration_s=4.0, baseline_reset_s=2.0)
    engine = engine or ExecutionEngine()
    trace = poisson_trace(
        n_epochs=n_epochs,
        arrival_rate=0.4,
        mean_residency=6.0,
        max_jobs=3 * n_nodes,
        seed=seed,
        initial_jobs=2 * n_nodes,
    )

    def _run(warm: bool) -> ClusterResult:
        return ClusterSimulator(
            trace,
            n_nodes=n_nodes,
            placement="round_robin",
            policy="SATORI",
            catalog=catalog,
            epoch_config=epoch_config,
            seed=seed,
            engine=engine,
            warm_start=warm,
        ).run()

    cold, warm = _run(False), _run(True)
    return WarmstartClusterComparison(
        cold=cold,
        warm=warm,
        job_speedup_delta=paired_deltas(
            cold.job_mean_speedups(), warm.job_mean_speedups()
        ),
        warm_started_epochs=sum(1 for r in warm.records if r.warm_started),
        smoothing_window=max(1, round(1.0 / epoch_config.interval_s)),
    )


@dataclass(frozen=True)
class WarmstartReport:
    """The full warm-vs-cold experiment: node sweep + cluster replay."""

    adaptation: Tuple[AdaptationCell, ...]
    cluster: WarmstartClusterComparison

    def recovery_gain_summary(self):
        """CI over per-mix recovery gains (intervals saved by warm start)."""
        return confidence_interval(
            [float(cell.recovery_gain_intervals) for cell in self.adaptation]
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "adaptation": [cell.to_dict() for cell in self.adaptation],
            "cluster": self.cluster.to_dict(),
        }


def warmstart_experiment(
    mixes: Optional[Sequence[JobMix]] = None,
    catalog: Optional[ResourceCatalog] = None,
    run_config: Optional[RunConfig] = None,
    n_nodes: int = 2,
    n_epochs: int = 12,
    seed: int = 0,
    engine: Optional[ExecutionEngine] = None,
) -> WarmstartReport:
    """Run both halves of the warm-vs-cold experiment under SATORI."""
    engine = engine or ExecutionEngine()
    return WarmstartReport(
        adaptation=adaptation_sweep(
            mixes, catalog=catalog, run_config=run_config, seed=seed, engine=engine
        ),
        cluster=cluster_warmstart(
            n_nodes=n_nodes, n_epochs=n_epochs, catalog=catalog, seed=seed, engine=engine
        ),
    )
