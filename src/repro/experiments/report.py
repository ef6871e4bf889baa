"""One-shot reproduction report: run the experiments, emit markdown.

``generate_report`` orchestrates a configurable subset of the paper's
experiments and renders a self-contained markdown report with tables
and terminal charts — the quickest way to regenerate the headline
results end to end (the benchmark suite remains the per-figure ground
truth). Driven by ``python -m repro report``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.plots import bar_chart, sparkline
from repro.engine import ExecutionEngine, RunCache
from repro.errors import ExperimentError
from repro.experiments.characterization import conflicting_goal_gap, optimal_configuration_drift
from repro.experiments.comparison import (
    STANDARD_POLICY_ORDER,
    aggregate,
    compare_on_mixes,
)
from repro.experiments.internals import dynamic_vs_static, weight_trace
from repro.experiments.overhead import controller_overhead
from repro.experiments.reporting import format_table
from repro.experiments.runner import RunConfig, experiment_catalog
from repro.workloads.mixes import suite_mixes


@dataclass
class ReportConfig:
    """What the report covers and at which scale."""

    suite: str = "parsec"
    n_mixes: int = 4
    duration_s: float = 20.0
    units: int = 8
    seed: int = 0
    workers: int = 1
    cache_dir: Optional[str] = None
    sections: Sequence[str] = (
        "characterization",
        "comparison",
        "dynamics",
        "overhead",
    )

    def make_engine(self) -> ExecutionEngine:
        """The engine the report's batched experiments run on."""
        cache = RunCache(self.cache_dir) if self.cache_dir else None
        return ExecutionEngine(workers=self.workers, cache=cache)

    def __post_init__(self) -> None:
        known = {"characterization", "comparison", "dynamics", "overhead"}
        unknown = set(self.sections) - known
        if unknown:
            raise ExperimentError(f"unknown report sections {sorted(unknown)}; known: {sorted(known)}")
        if self.n_mixes < 1:
            raise ExperimentError("need at least one mix")


def generate_report(config: Optional[ReportConfig] = None) -> str:
    """Run the configured experiments and return the markdown report."""
    config = config or ReportConfig()
    catalog = experiment_catalog(config.units)
    all_mixes = suite_mixes(config.suite)
    stride = max(1, len(all_mixes) // config.n_mixes)
    mixes = all_mixes[::stride][: config.n_mixes]
    run_config = RunConfig(duration_s=config.duration_s)
    engine = config.make_engine()

    started = time.perf_counter()
    parts: List[str] = [
        "# SATORI reproduction report",
        "",
        f"- suite: **{config.suite}** ({len(mixes)} mixes)",
        f"- scale: {config.units} units/resource, {config.duration_s:.0f} s runs, seed {config.seed}",
        "",
    ]

    if "characterization" in config.sections:
        parts.append(_characterization_section(mixes[0], catalog))
    if "comparison" in config.sections:
        parts.append(_comparison_section(mixes, catalog, run_config, config.seed, engine))
    if "dynamics" in config.sections:
        parts.append(_dynamics_section(mixes[-1], catalog, run_config, config.seed))
    if "overhead" in config.sections:
        parts.append(_overhead_section(mixes[0], catalog, config.seed))

    elapsed = time.perf_counter() - started
    parts.append(
        f"\n---\n*generated in {elapsed:.1f} s of wall time; "
        f"engine: {engine.stats.summary()} ({engine.workers} worker(s))*"
    )
    return "\n".join(parts)


def _characterization_section(mix, catalog) -> str:
    drift = optimal_configuration_drift(mix, catalog, duration_s=12.0, step_s=0.5)
    gap = conflicting_goal_gap(mix, catalog)
    lines = [
        "## Why partitioning is hard (Sec. II)",
        "",
        f"Mix `{mix.label}`:",
        "",
        f"- the throughput-optimal configuration visits "
        f"**{drift.n_distinct_configs()} distinct configurations** in 12 s "
        f"(max per-job share swing {drift.max_share_change_percent():.0f} %-points);",
        f"- the throughput-optimal config reaches only "
        f"**{100 * gap.cross_fairness_ratio:.0f} %** of the optimal fairness, the "
        f"fairness-optimal config only **{100 * gap.cross_throughput_ratio:.0f} %** "
        "of the optimal throughput;",
        f"- the two optima sit {gap.config_distance:.1f} apart "
        f"(max possible {gap.max_distance:.1f}).",
        "",
    ]
    return "\n".join(lines)


def _comparison_section(mixes, catalog, run_config, seed, engine=None) -> str:
    comparisons = compare_on_mixes(mixes, catalog, run_config, seed=seed, engine=engine)
    agg = aggregate(comparisons, STANDARD_POLICY_ORDER)
    rows = [[name, t, f] for name, (t, f) in agg.items()]
    chart = bar_chart(
        list(agg),
        [t for (t, _f) in agg.values()],
        width=40,
        unit="%",
        max_value=100.0,
    )
    lines = [
        "## Policy comparison (Figs. 7/8 style)",
        "",
        "Mean % of the Balanced Oracle:",
        "",
        "```",
        format_table(["policy", "throughput %", "fairness %"], rows),
        "",
        "throughput:",
        chart,
        "```",
        "",
    ]
    return "\n".join(lines)


def _dynamics_section(mix, catalog, run_config, seed) -> str:
    trace, _result = weight_trace(mix, catalog, run_config, seed=seed)
    comparison = dynamic_vs_static(mix, catalog, run_config, seed=seed)
    w = trace.w_throughput[~np.isnan(trace.w_throughput)]
    lines = [
        "## Dynamic goal prioritization (Fig. 14 style)",
        "",
        f"Mix `{mix.label}`:",
        "",
        "```",
        f"W_T over time: {sparkline(w[:: max(1, len(w) // 64)], lo=0.25, hi=0.75)}",
        f"(bounds 0.25-0.75; long-term mean {trace.mean_weights()[0]:.3f})",
        "```",
        "",
        f"- dynamic vs static weights: {comparison.throughput_gain_percent:+.1f} % "
        f"throughput, {comparison.fairness_gain_percent:+.1f} % fairness.",
        "",
    ]
    return "\n".join(lines)


def _overhead_section(mix, catalog, seed) -> str:
    result = controller_overhead(mix, catalog, RunConfig(duration_s=10.0), seed=seed)
    lines = [
        "## Controller overhead (Sec. V)",
        "",
        f"- mean decision time: **{result.mean_decision_time_ms:.2f} ms** of each "
        f"{result.control_interval_ms:.0f} ms interval "
        f"({100 * result.decision_fraction_of_interval:.1f} %), off the critical path;",
        f"- idle (BO skipped) on {100 * result.idle_fraction:.0f} % of intervals.",
        "",
    ]
    return "\n".join(lines)
