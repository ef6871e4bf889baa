"""Figure registry: run any paper figure's reproduction by name.

Maps figure identifiers (``fig1`` ... ``fig19``, ``scalability``,
``overhead``, ``ablation``) to small drivers that run the experiment
at a configurable scale and print the same rows the benchmark target
prints. Used by ``python -m repro figure <id>``; the pytest-benchmark
targets under ``benchmarks/`` remain the canonical, asserted versions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.engine import ExecutionEngine, RunCache
from repro.errors import ExperimentError
from repro.experiments.ablation import resource_subset_ablation
from repro.experiments.characterization import (
    conflicting_goal_gap,
    optimal_configuration_drift,
    rebalancing_opportunity,
)
from repro.experiments.comparison import (
    STANDARD_POLICY_ORDER,
    aggregate,
    compare_on_mixes,
)
from repro.experiments.internals import (
    dynamic_vs_static,
    objective_trace,
    performance_variation,
    weak_goal_priority,
    weight_trace,
)
from repro.experiments.overhead import controller_overhead
from repro.experiments.proximity import distance_to_oracle
from repro.experiments.reporting import format_series, format_table
from repro.experiments.runner import RunConfig, experiment_catalog
from repro.experiments.scalability import colocation_scalability
from repro.experiments.sensitivity import period_sensitivity
from repro.resources.types import LLC_WAYS, MEMORY_BANDWIDTH
from repro.workloads.mixes import suite_mixes


@dataclass(frozen=True)
class FigureScale:
    """Scale and execution knobs shared by all figure drivers.

    Attributes:
        workers: worker processes for the execution engine.
        cache_dir: directory for the content-addressed run cache
            (``None`` disables caching).
    """

    units: int = 8
    duration_s: float = 15.0
    n_mixes: int = 4
    seed: int = 0
    workers: int = 1
    cache_dir: Optional[str] = None

    @property
    def run_config(self) -> RunConfig:
        return RunConfig(duration_s=self.duration_s)

    def make_engine(self) -> ExecutionEngine:
        """A fresh engine honoring the workers/cache knobs."""
        cache = RunCache(self.cache_dir) if self.cache_dir else None
        return ExecutionEngine(workers=self.workers, cache=cache)


def _mixes(scale: FigureScale, suite: str = "parsec"):
    mixes = suite_mixes(suite)
    stride = max(1, len(mixes) // scale.n_mixes)
    return mixes[::stride][: scale.n_mixes]


def _fig1(scale: FigureScale) -> str:
    catalog = experiment_catalog(scale.units)
    mix = suite_mixes("parsec")[17]
    drift = optimal_configuration_drift(mix, catalog, duration_s=scale.duration_s, step_s=0.5)
    return (
        f"Fig. 1 ({mix.label}): {drift.n_distinct_configs()} distinct optima, "
        f"max share swing {drift.max_share_change_percent():.1f} %-points"
    )


def _fig2(scale: FigureScale) -> str:
    catalog = experiment_catalog(scale.units)
    gap = conflicting_goal_gap(suite_mixes("parsec")[0], catalog)
    return (
        "Fig. 2: T-opt fairness / F-opt fairness = "
        f"{100 * gap.cross_fairness_ratio:.0f} % (paper 67 %); "
        "F-opt throughput / T-opt throughput = "
        f"{100 * gap.cross_throughput_ratio:.0f} % (paper 59 %)"
    )


def _fig3(scale: FigureScale) -> str:
    catalog = experiment_catalog(scale.units)
    example = rebalancing_opportunity(suite_mixes("parsec")[0], catalog, n_samples=80)
    if example is None:
        return "Fig. 3: no re-balancing opportunity found"
    return (
        f"Fig. 3: dT {example.throughput_delta_a:+.3f} vs {example.throughput_delta_b:+.3f}, "
        f"dF {example.fairness_delta_a:+.3f} vs {example.fairness_delta_b:+.3f} "
        f"(opposite fairness directions: {example.demonstrates_opportunity})"
    )


def _fig7(scale: FigureScale, suite: str = "parsec") -> str:
    catalog = experiment_catalog(scale.units)
    comparisons = compare_on_mixes(
        _mixes(scale, suite), catalog, scale.run_config, seed=scale.seed,
        engine=scale.make_engine(),
    )
    agg = aggregate(comparisons, STANDARD_POLICY_ORDER)
    return format_table(
        ["policy", "throughput %", "fairness %"],
        [[name, t, f] for name, (t, f) in agg.items()],
        title=f"Fig. 7-style aggregate ({suite}, {len(comparisons)} mixes):",
    )


def _fig14(scale: FigureScale) -> str:
    catalog = experiment_catalog(scale.units)
    mix = suite_mixes("parsec")[17]
    trace, _ = weight_trace(mix, catalog, scale.run_config, seed=scale.seed)
    comparison = dynamic_vs_static(mix, catalog, scale.run_config, seed=scale.seed)
    w = trace.w_throughput[~np.isnan(trace.w_throughput)]
    return "\n".join(
        [
            format_series("Fig. 14(a) W_T", w, limit=16),
            f"mean weights {trace.mean_weights()[0]:.3f}/{trace.mean_weights()[1]:.3f}; "
            f"Fig. 14(b) dynamic-vs-static: {comparison.throughput_gain_percent:+.1f} % T, "
            f"{comparison.fairness_gain_percent:+.1f} % F",
        ]
    )


def _fig15(scale: FigureScale) -> str:
    catalog = experiment_catalog(scale.units)
    result = distance_to_oracle(
        suite_mixes("parsec")[17], catalog, scale.run_config, seed=scale.seed,
        engine=scale.make_engine(),
    )
    rel = result.relative_to("SATORI")
    rows = [
        [name, result.mean_distance[name], rel[name]]
        for name in sorted(result.mean_distance, key=result.mean_distance.get)
    ]
    return format_table(["policy", "mean distance", "x SATORI"], rows, precision=2,
                        title="Fig. 15(a):")


def _fig16(scale: FigureScale) -> str:
    catalog = experiment_catalog(scale.units)
    result = period_sensitivity(
        suite_mixes("parsec")[17], catalog, scale.run_config, seed=scale.seed,
        engine=scale.make_engine(),
    )
    return (
        f"Fig. 16: T_P-sweep spread {result.prioritization_spread():.1f} pts, "
        f"T_E-sweep spread {result.equalization_spread():.1f} pts"
    )


def _fig17(scale: FigureScale) -> str:
    catalog = experiment_catalog(scale.units)
    traces = objective_trace(
        suite_mixes("parsec")[0], catalog, scale.run_config, seed=scale.seed
    )
    (dyn_lo, dyn_hi), (sta_lo, sta_hi) = traces.proxy_change_ranges()
    return (
        f"Fig. 17: mean objective gain {traces.mean_objective_gain():+.4f}; "
        f"proxy change dynamic [{dyn_lo:.2f}, {dyn_hi:.2f}] vs static [{sta_lo:.2f}, {sta_hi:.2f}]"
    )


def _fig18(scale: FigureScale) -> str:
    catalog = experiment_catalog(scale.units)
    v = performance_variation(suite_mixes("parsec")[0], catalog, scale.run_config, seed=scale.seed)
    return (
        f"Fig. 18: T std {v.dynamic_throughput_std:.4f} (dyn) vs "
        f"{v.static_throughput_std:.4f} (static); F std {v.dynamic_fairness_std:.4f} vs "
        f"{v.static_fairness_std:.4f}"
    )


def _fig19(scale: FigureScale) -> str:
    catalog = experiment_catalog(scale.units)
    c = weak_goal_priority(suite_mixes("parsec")[17], catalog, scale.run_config, seed=scale.seed)
    weaker = c.dynamic.throughput + c.dynamic.fairness
    stronger = c.other.throughput + c.other.fairness
    return (
        f"Fig. 19: weaker-goal design {weaker:.3f} vs stronger-goal {stronger:.3f} "
        f"({100 * (weaker / stronger - 1):+.1f} %)"
    )


def _scalability(scale: FigureScale) -> str:
    catalog = experiment_catalog(scale.units)
    result = colocation_scalability(
        degrees=(3, 5, 7), mixes_per_degree=1, catalog=catalog,
        run_config=scale.run_config, seed=scale.seed, engine=scale.make_engine(),
    )
    gaps = ", ".join(f"{p.degree}: {0.5 * (p.throughput_gap_points + p.fairness_gap_points):+.1f}"
                     for p in result.points)
    return f"Scalability (SATORI-PARTIES mean gap by degree): {gaps}"


def _overhead(scale: FigureScale) -> str:
    catalog = experiment_catalog(scale.units)
    result = controller_overhead(
        suite_mixes("parsec")[0], catalog, scale.run_config, seed=scale.seed
    )
    return (
        f"Overhead: {result.mean_decision_time_ms:.2f} ms/interval "
        f"({100 * result.decision_fraction_of_interval:.1f} %), idle {result.idle_fraction:.2f}, "
        f"~{100 * result.estimated_instruction_overhead():.1f} % of mix instructions"
    )


def _cluster(scale: FigureScale) -> str:
    from repro.analysis.plots import cluster_node_dashboard
    from repro.experiments.cluster import cluster_sweep, default_trace

    catalog = experiment_catalog(scale.units)
    n_nodes, n_epochs = 2, 3
    trace = default_trace(
        n_epochs=n_epochs, n_nodes=n_nodes, suite="ecp",
        seed=scale.seed, catalog=catalog,
    )
    sweep = cluster_sweep(
        trace,
        n_nodes=n_nodes,
        placements=("round_robin", "contention_aware"),
        policies=("SATORI",),
        catalog=catalog,
        epoch_config=scale.run_config,
        seed=scale.seed,
        engine=scale.make_engine(),
    )
    summary = ", ".join(
        f"{cell.placement}: T {cell.result.throughput:.3f} / F {cell.result.fairness:.3f}"
        for cell in sweep.cells
    )
    return (
        f"Cluster ({sweep.n_jobs} jobs, {n_nodes} nodes, {n_epochs} epochs) {summary}\n\n"
        + cluster_node_dashboard(cell.result for cell in sweep.cells)
    )


def _ablation(scale: FigureScale) -> str:
    catalog = experiment_catalog(scale.units)
    mix = suite_mixes("parsec")[17]
    engine = scale.make_engine()  # shared: with a cache, both subsets reuse the oracle run
    llc = resource_subset_ablation(
        mix, [LLC_WAYS], catalog, scale.run_config, seed=scale.seed, engine=engine
    )
    both = resource_subset_ablation(
        mix, [LLC_WAYS, MEMORY_BANDWIDTH], catalog, scale.run_config, seed=scale.seed,
        engine=engine,
    )
    return (
        f"Ablation: SATORI-LLC vs dCAT {llc.throughput_gap_points:+.1f} T pts; "
        f"SATORI-LLC+MBW vs CoPart {both.throughput_gap_points:+.1f} T pts"
    )


FIGURES: Dict[str, Callable[[FigureScale], str]] = {
    "fig1": _fig1,
    "fig2": _fig2,
    "fig3": _fig3,
    "fig7": _fig7,
    "fig8": _fig7,  # same driver; per-mix detail lives in the bench
    "fig10": lambda s: _fig7(s, "cloudsuite"),
    "fig11": lambda s: _fig7(s, "ecp"),
    "fig12": lambda s: _fig7(s, "cloudsuite"),
    "fig13": lambda s: _fig7(s, "ecp"),
    "fig14": _fig14,
    "fig15": _fig15,
    "fig16": _fig16,
    "fig17": _fig17,
    "fig18": _fig18,
    "fig19": _fig19,
    "scalability": _scalability,
    "overhead": _overhead,
    "ablation": _ablation,
    "cluster": _cluster,
}


def figure_names() -> Sequence[str]:
    """Identifiers accepted by :func:`run_figure`."""
    return tuple(sorted(FIGURES))


def run_figure(name: str, scale: Optional[FigureScale] = None) -> str:
    """Run one figure's reproduction and return its textual output.

    Raises:
        ExperimentError: for unknown figure identifiers.
    """
    try:
        driver = FIGURES[name]
    except KeyError:
        raise ExperimentError(
            f"unknown figure {name!r}; available: {', '.join(figure_names())}"
        ) from None
    return driver(scale or FigureScale())
