"""SATORI-internals experiments (Figs. 14, 17, 18, 19).

These drivers open up the controller: the dynamic weight traces and
their equalization/prioritization decomposition (Fig. 14(a)), dynamic
versus static weighting (Fig. 14(b)), objective-function values and
proxy-model stability with and without dynamic prioritization
(Fig. 17), observed-performance variation (Fig. 18), and the
weaker-goal-versus-stronger-goal prioritization ablation (Fig. 19).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.controller import SatoriController
from repro.resources.types import ResourceCatalog
from repro.rng import SeedLike, make_rng, spawn_rng
from repro.experiments.comparison import full_space
from repro.experiments.runner import RunConfig, RunResult, experiment_catalog, run_policy
from repro.workloads.mixes import JobMix


@dataclass(frozen=True)
class WeightTrace:
    """Fig. 14(a): weight components over time."""

    times: np.ndarray
    w_throughput: np.ndarray
    w_fairness: np.ndarray
    equalization_throughput: np.ndarray
    equalization_fairness: np.ndarray
    prioritization_throughput: np.ndarray
    prioritization_fairness: np.ndarray

    def mean_weights(self) -> Tuple[float, float]:
        return float(np.nanmean(self.w_throughput)), float(np.nanmean(self.w_fairness))

    def max_deviation_from_equal(self) -> float:
        """Largest deviation of either weight from 0.5 (paper: up to 50 %)."""
        return float(
            max(
                np.nanmax(np.abs(self.w_throughput - 0.5)),
                np.nanmax(np.abs(self.w_fairness - 0.5)),
            )
        )


def weight_trace(
    mix: JobMix,
    catalog: Optional[ResourceCatalog] = None,
    run_config: Optional[RunConfig] = None,
    seed: SeedLike = 0,
) -> Tuple[WeightTrace, RunResult]:
    """Run full SATORI and extract the Fig. 14(a) weight decomposition."""
    catalog = catalog or experiment_catalog()
    rng = make_rng(seed)
    satori = SatoriController(full_space(catalog, len(mix)), mode="dynamic", rng=spawn_rng(rng))
    result = run_policy(satori, mix, catalog, run_config, seed=spawn_rng(rng))
    telemetry = result.telemetry
    trace = WeightTrace(
        times=telemetry.series("time"),
        w_throughput=telemetry.series("weight_throughput"),
        w_fairness=telemetry.series("weight_fairness"),
        equalization_throughput=telemetry.series("weight_eq_throughput"),
        equalization_fairness=telemetry.series("weight_eq_fairness"),
        prioritization_throughput=telemetry.series("weight_pr_throughput"),
        prioritization_fairness=telemetry.series("weight_pr_fairness"),
    )
    return trace, result


@dataclass(frozen=True)
class VariantComparison:
    """Two SATORI variants on the same mix (Figs. 14(b), 17, 18, 19)."""

    mix_label: str
    dynamic: RunResult
    other: RunResult
    other_label: str

    @property
    def throughput_gain_percent(self) -> float:
        return 100.0 * (self.dynamic.throughput / max(self.other.throughput, 1e-12) - 1.0)

    @property
    def fairness_gain_percent(self) -> float:
        return 100.0 * (self.dynamic.fairness / max(self.other.fairness, 1e-12) - 1.0)


def _run_variant(
    mix: JobMix,
    catalog: ResourceCatalog,
    run_config: Optional[RunConfig],
    seed: SeedLike,
    **satori_kwargs,
) -> RunResult:
    rng = make_rng(seed)
    controller = SatoriController(
        full_space(catalog, len(mix)), rng=spawn_rng(rng), **satori_kwargs
    )
    return run_policy(controller, mix, catalog, run_config, seed=spawn_rng(rng))


def dynamic_vs_static(
    mix: JobMix,
    catalog: Optional[ResourceCatalog] = None,
    run_config: Optional[RunConfig] = None,
    seed: SeedLike = 0,
) -> VariantComparison:
    """Fig. 14(b): full SATORI vs SATORI with static 0.5/0.5 weights.

    Both variants see identical measurement-noise streams (same seed),
    so the difference is attributable to dynamic prioritization.
    """
    catalog = catalog or experiment_catalog()
    dynamic = _run_variant(mix, catalog, run_config, seed, mode="dynamic")
    static = _run_variant(mix, catalog, run_config, seed, mode="static")
    return VariantComparison(
        mix_label=mix.label, dynamic=dynamic, other=static, other_label="static weights"
    )


@dataclass(frozen=True)
class ObjectiveTraces:
    """Fig. 17: objective values and proxy-model change over time."""

    times: np.ndarray
    dynamic_objective: np.ndarray
    static_objective: np.ndarray
    dynamic_proxy_change: np.ndarray
    static_proxy_change: np.ndarray

    def mean_objective_gain(self) -> float:
        """Mean advantage of the dynamic objective value (Fig. 17(a))."""
        return float(np.nanmean(self.dynamic_objective) - np.nanmean(self.static_objective))

    def proxy_change_ranges(self) -> Tuple[Tuple[float, float], Tuple[float, float]]:
        """(min, max) proxy-model change for dynamic and static (Fig. 17(b))."""
        dyn = self.dynamic_proxy_change[~np.isnan(self.dynamic_proxy_change)]
        sta = self.static_proxy_change[~np.isnan(self.static_proxy_change)]
        return (float(dyn.min()), float(dyn.max())), (float(sta.min()), float(sta.max()))


def objective_trace(
    mix: JobMix,
    catalog: Optional[ResourceCatalog] = None,
    run_config: Optional[RunConfig] = None,
    seed: SeedLike = 0,
) -> ObjectiveTraces:
    """Fig. 17: run dynamic and static SATORI, collect internals."""
    catalog = catalog or experiment_catalog()
    # Disable idle skipping so the proxy model updates every interval
    # (Fig. 17 characterizes the BO engine itself).
    dynamic = _run_variant(
        mix, catalog, run_config, seed, mode="dynamic", idle_detection=False
    )
    static = _run_variant(
        mix, catalog, run_config, seed, mode="static", idle_detection=False
    )
    return ObjectiveTraces(
        times=dynamic.telemetry.series("time"),
        dynamic_objective=dynamic.telemetry.series("objective"),
        static_objective=static.telemetry.series("objective"),
        dynamic_proxy_change=dynamic.telemetry.series("proxy_change_percent"),
        static_proxy_change=static.telemetry.series("proxy_change_percent"),
    )


@dataclass(frozen=True)
class VariationResult:
    """Fig. 18: variation of observed performance for both variants."""

    dynamic_throughput_std: float
    static_throughput_std: float
    dynamic_fairness_std: float
    static_fairness_std: float
    dynamic_means: Tuple[float, float]
    static_means: Tuple[float, float]


def performance_variation(
    mix: JobMix,
    catalog: Optional[ResourceCatalog] = None,
    run_config: Optional[RunConfig] = None,
    seed: SeedLike = 0,
) -> VariationResult:
    """Fig. 18: observed-performance variation, dynamic vs static."""
    comparison = dynamic_vs_static(mix, catalog, run_config, seed)
    dyn = comparison.dynamic.scored
    sta = comparison.other.scored
    return VariationResult(
        dynamic_throughput_std=float(np.std(dyn.series("throughput"))),
        static_throughput_std=float(np.std(sta.series("throughput"))),
        dynamic_fairness_std=float(np.std(dyn.series("fairness"))),
        static_fairness_std=float(np.std(sta.series("fairness"))),
        dynamic_means=(dyn.mean_throughput(), dyn.mean_fairness()),
        static_means=(sta.mean_throughput(), sta.mean_fairness()),
    )


def weak_goal_priority(
    mix: JobMix,
    catalog: Optional[ResourceCatalog] = None,
    run_config: Optional[RunConfig] = None,
    seed: SeedLike = 0,
) -> VariantComparison:
    """Fig. 19: prioritize the weaker goal (SATORI) vs the stronger one.

    The paper measured the favor-the-stronger alternative to
    underperform the chosen design by roughly 5 %.
    """
    catalog = catalog or experiment_catalog()
    weaker = _run_variant(
        mix, catalog, run_config, seed, mode="dynamic", favor_weaker_goal=True
    )
    stronger = _run_variant(
        mix, catalog, run_config, seed, mode="dynamic", favor_weaker_goal=False
    )
    return VariantComparison(
        mix_label=mix.label, dynamic=weaker, other=stronger, other_label="favor stronger goal"
    )
