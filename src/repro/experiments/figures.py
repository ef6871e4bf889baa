"""Figure registry: every paper claim with a figure id, defined once.

``FIGURES`` maps each figure id (``fig1`` ... ``fig19``,
``scalability``, ``overhead``, ``ablation``, ``cluster``) to its
claims, one per benchmark gate (Fig. 14 has one per panel; the
``cluster`` extension has no gate). A
:class:`Claim` holds the inputs its gate runs as data — suite, mixes,
seeds, run length, units and the driver's other arguments — plus a
``run`` that calls the experiment driver on them and a ``render`` that
returns the block the gate prints. The gates under ``benchmarks/``
assert on ``run``'s result and print ``render``'s text;
``python -m repro figure <id>`` prints the same text, and
``python -m repro report`` renders every id into one markdown file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.plots import cluster_node_dashboard
from repro.engine import ExecutionEngine
from repro.errors import ExperimentError
from repro.experiments.ablation import resource_subset_ablation
from repro.experiments.characterization import (
    conflicting_goal_gap,
    optimal_configuration_drift,
    rebalancing_opportunity,
)
from repro.experiments.cluster import cluster_sweep, default_trace
from repro.experiments.comparison import (
    STANDARD_POLICY_ORDER,
    MixComparison,
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
from repro.resources.types import LLC_WAYS, MEMORY_BANDWIDTH, ResourceCatalog
from repro.workloads.mixes import JobMix, mix_from_names, suite_mixes

#: A mix: its index in the claim's suite, or its workload names.
MixRef = Union[int, Tuple[str, ...]]


@dataclass(frozen=True)
class Claim:
    """One benchmark gate's definition.

    Attributes:
        driver: calls the experiment driver on the claim's inputs, on
            an optional engine, and returns what the gate asserts on.
        show: the block the gate prints, from the claim and that result.
        suite: the suite that integer ``mixes`` index.
        mixes: the mixes, in run order.
        seeds: the driver's seed, or one per mix where it runs several.
        duration_s: simulated seconds per run (``None``: the driver
            runs no policy).
        units: allocation units per resource.
        args: the driver's other arguments.
    """

    driver: Callable[["Claim", Optional[ExecutionEngine]], Any]
    show: Callable[["Claim", Any], str]
    suite: str = "parsec"
    mixes: Tuple[MixRef, ...] = ()
    seeds: Tuple[int, ...] = ()
    duration_s: Optional[float] = None
    units: int = 8
    args: Mapping[str, Any] = field(default_factory=dict)

    def run(self, engine: Optional[ExecutionEngine] = None) -> Any:
        """Run the driver; ``engine`` changes how, never what."""
        return self.driver(self, engine)

    def render(self, result: Any) -> str:
        """The block the claim's gate prints for ``result``."""
        return self.show(self, result)

    @property
    def catalog(self) -> ResourceCatalog:
        return experiment_catalog(self.units)

    @property
    def run_config(self) -> RunConfig:
        return RunConfig(duration_s=self.duration_s)

    def job_mixes(self) -> List[JobMix]:
        """``mixes`` resolved, in order."""
        suite = suite_mixes(self.suite)
        return [suite[ref] if isinstance(ref, int) else mix_from_names(ref) for ref in self.mixes]


# -- Sec. II characterization (Figs. 1-3) ------------------------------------


def _drift(claim: Claim, engine) -> Any:
    (mix,) = claim.job_mixes()
    return optimal_configuration_drift(mix, claim.catalog, duration_s=claim.duration_s,
                                       **claim.args)


def _show_drift(claim: Claim, drift) -> str:
    rows = []
    for i in range(0, len(drift.times), 4):
        row = [drift.times[i]]
        for series in drift.shares.values():
            row.append("/".join(f"{v:.0f}" for v in series[i]))
        rows.append(row)
    return "\n".join([
        f"Fig. 1 — throughput-optimal configuration over time ({claim.job_mixes()[0].label})",
        format_table(["t (s)"] + list(drift.shares), rows),
        "",
        f"max per-job share swing: {drift.max_share_change_percent():.1f} %-points",
        f"distinct optimal configurations: {drift.n_distinct_configs()}",
    ])


def _goal_gaps(claim: Claim, engine) -> Any:
    (mix,) = claim.job_mixes()
    catalog = claim.catalog
    return [conflicting_goal_gap(mix, catalog, time_s=t) for t in claim.args["times_s"]]


def _show_goal_gaps(claim: Claim, gaps) -> str:
    rows = [
        [
            gap.time_s,
            f"{gap.throughput_opt[0]:.3f}/{gap.throughput_opt[1]:.3f}",
            f"{gap.fairness_opt[0]:.3f}/{gap.fairness_opt[1]:.3f}",
            f"{gap.balanced_opt[0]:.3f}/{gap.balanced_opt[1]:.3f}",
            f"{gap.config_distance:.1f}/{gap.max_distance:.1f}",
        ]
        for gap in gaps
    ]
    cross_f = np.mean([g.cross_fairness_ratio for g in gaps])
    cross_t = np.mean([g.cross_throughput_ratio for g in gaps])
    return "\n".join([
        f"Fig. 2 — goal conflict over three instants ({claim.job_mixes()[0].label})",
        format_table(["t (s)", "T-opt (T/F)", "F-opt (T/F)", "Balanced (T/F)", "distance"], rows),
        "",
        f"T-opt achieves {100 * cross_f:.0f} % of optimal fairness (paper: 67 %)",
        f"F-opt achieves {100 * cross_t:.0f} % of optimal throughput (paper: 59 %)",
    ])


def _rebalancing(claim: Claim, engine) -> Any:
    (mix,) = claim.job_mixes()
    (seed,) = claim.seeds
    return rebalancing_opportunity(mix, claim.catalog, rng=seed, **claim.args)


def _show_rebalancing(claim: Claim, example) -> str:
    label = claim.job_mixes()[0].label
    if example is None:
        return f"Fig. 3 — no re-balancing opportunity found ({label})"
    return "\n".join([
        f"Fig. 3 — re-balancing opportunity ({label})",
        f"  at t={example.time_a:.1f}s: dT={example.throughput_delta_a:+.4f} "
        f"dF={example.fairness_delta_a:+.4f}",
        f"  at t={example.time_b:.1f}s: dT={example.throughput_delta_b:+.4f} "
        f"dF={example.fairness_delta_b:+.4f}",
        "  -> same-sign throughput deltas, opposite-sign fairness deltas",
    ])


# -- suite sweeps (Figs. 7-13) ------------------------------------------------

#: One all-policy sweep per distinct set of inputs, shared by the
#: claims that read it (Figs. 7/8/9, 10/12, 11/13): each runs once
#: per process.
_SWEEPS: Dict[tuple, Tuple[MixComparison, ...]] = {}


def _suite_sweep(claim: Claim, engine) -> Tuple[MixComparison, ...]:
    key = (claim.suite, claim.mixes, claim.seeds, claim.duration_s, claim.units)
    if key not in _SWEEPS:
        (seed,) = claim.seeds
        _SWEEPS[key] = tuple(compare_on_mixes(
            claim.job_mixes(), claim.catalog, claim.run_config, seed=seed, engine=engine
        ))
    return _SWEEPS[key]


def _per_mix_rows(comparisons, label_width: Optional[int]) -> list:
    """One row per mix, sorted by SATORI's throughput (as the paper)."""
    ordered = sorted(comparisons, key=lambda c: c.score("SATORI").throughput_vs_oracle)
    rows = []
    for comparison in ordered:
        row = [comparison.mix_label[:label_width]]
        for name in STANDARD_POLICY_ORDER:
            score = comparison.score(name)
            row.append(f"{score.throughput_vs_oracle:.0f}/{score.fairness_vs_oracle:.0f}")
        rows.append(row)
    return rows


def _aggregate_table(comparisons) -> str:
    agg = aggregate(comparisons, STANDARD_POLICY_ORDER)
    return format_table(
        ["policy", "throughput %", "fairness %"],
        [[name, t, f] for name, (t, f) in agg.items()],
    )


def _show_fig8(claim: Claim, comparisons) -> str:
    rows = [[index] + row for index, row in enumerate(_per_mix_rows(comparisons, 44))]
    combined_wins = sum(
        c.score("SATORI").throughput_vs_oracle + c.score("SATORI").fairness_vs_oracle
        > c.score("PARTIES").throughput_vs_oracle + c.score("PARTIES").fairness_vs_oracle
        for c in comparisons
    )
    throughput_wins = sum(
        c.score("SATORI").throughput_vs_oracle > c.score("PARTIES").throughput_vs_oracle
        for c in comparisons
    )
    n = len(comparisons)
    return "\n".join([
        "Fig. 8 — per-mix PARSEC results (% of Balanced Oracle, T/F)",
        format_table(["#", "mix"] + list(STANDARD_POLICY_ORDER), rows),
        "",
        f"SATORI beats PARTIES: throughput on {throughput_wins}/{n} mixes, "
        f"combined objective on {combined_wins}/{n} mixes",
    ])


def _show_fig9(claim: Claim, comparisons) -> str:
    means = {
        name: float(np.mean([c.score(name).worst_job_vs_oracle for c in comparisons]))
        for name in STANDARD_POLICY_ORDER
    }
    return "\n".join([
        "Fig. 9 — worst-performing job (% of Balanced Oracle's worst job)",
        format_table(
            ["policy", f"worst-job % (mean of {len(comparisons)} mixes)"],
            [[name, value] for name, value in means.items()],
        ),
    ])


def _show_per_mix(title: str, label_width: Optional[int]):
    def show(claim: Claim, comparisons) -> str:
        rows = _per_mix_rows(comparisons, label_width)
        return "\n".join([title, format_table(["mix"] + list(STANDARD_POLICY_ORDER), rows)])
    return show


def _show_aggregate(title: str):
    def show(claim: Claim, comparisons) -> str:
        return "\n".join([title, _aggregate_table(comparisons)])
    return show


# -- SATORI internals (Figs. 14-19) ------------------------------------------


def _per_mix(driver, takes_engine: bool = False):
    """Run a one-mix driver on each (mix, seed) pair of the claim, with
    its run config and arguments; a list of results in mix order."""
    def run(claim: Claim, engine) -> list:
        catalog = claim.catalog
        args = dict(claim.args, engine=engine) if takes_engine else claim.args
        return [
            driver(mix, catalog, claim.run_config, seed=seed, **args)
            for mix, seed in zip(claim.job_mixes(), claim.seeds)
        ]
    return run


def _one_mix(driver, takes_engine: bool = False):
    """:func:`_per_mix` for a claim of one mix: its one result."""
    each = _per_mix(driver, takes_engine)

    def run(claim: Claim, engine) -> Any:
        (result,) = each(claim, engine)
        return result
    return run


def _show_weight_trace(claim: Claim, traced) -> str:
    trace, _ = traced
    rows = [
        [
            trace.times[i],
            trace.w_throughput[i],
            trace.w_fairness[i],
            trace.prioritization_throughput[i],
            trace.equalization_throughput[i],
        ]
        for i in range(0, len(trace.times), 20)
    ]
    mean_t, mean_f = trace.mean_weights()
    return "\n".join([
        f"Fig. 14(a) — weight decomposition trace ({claim.job_mixes()[0].label})",
        format_table(
            ["t (s)", "W_T", "W_F", "prioritization(T)", "equalization(T)"], rows, precision=3
        ),
        "",
        f"long-term mean weights: W_T={mean_t:.3f} W_F={mean_f:.3f}",
        f"max deviation from 0.5: {trace.max_deviation_from_equal():.2f} "
        "(paper: up to 0.25 = 50 %)",
    ])


def _variant_rows(results) -> list:
    return [
        [
            r.mix_label[:44],
            r.dynamic.throughput,
            r.other.throughput,
            r.dynamic.fairness,
            r.other.fairness,
        ]
        for r in results
    ]


def _show_dynamic_vs_static(claim: Claim, results) -> str:
    gain_t = np.mean([r.throughput_gain_percent for r in results])
    gain_f = np.mean([r.fairness_gain_percent for r in results])
    return "\n".join([
        "Fig. 14(b) — dynamic vs static weights (three mixes)",
        format_table(
            ["mix", "T dyn", "T static", "F dyn", "F static"], _variant_rows(results), precision=3
        ),
        "",
        f"mean dynamic-prioritization gain: {gain_t:+.1f} % T, {gain_f:+.1f} % F "
        "(paper: up to +10 %)",
    ])


def _show_proximity(claim: Claim, result) -> str:
    relative = result.relative_to("SATORI")
    lines = [
        f"Fig. 15(a) — mean distance to the Balanced Oracle config ({claim.job_mixes()[0].label})",
        format_table(
            ["policy", "mean distance", "x SATORI"],
            [
                [name, result.mean_distance[name], relative[name]]
                for name in sorted(result.mean_distance, key=result.mean_distance.get)
            ],
            precision=2,
        ),
        "",
        "Fig. 15(b) — distance over time, SATORI vs PARTIES (2 s samples)",
    ]
    for name in ("SATORI", "PARTIES"):
        series = result.distance_series[name]
        samples = " ".join(f"{series[i]:.1f}" for i in range(0, len(series), 20))
        lines.append(f"  {name:8s} {samples}")
    return "\n".join(lines)


def _show_sensitivity(claim: Claim, result) -> str:
    return "\n".join([
        f"Fig. 16 — period sensitivity ({claim.job_mixes()[0].label}, % of Balanced Oracle)",
        format_table(
            ["T_P (s)", "throughput %", "fairness %"],
            [[p.value_s, p.throughput_vs_oracle, p.fairness_vs_oracle]
             for p in result.prioritization],
            title="prioritization-period sweep (T_E = 10 s):",
        ),
        "",
        format_table(
            ["T_E (s)", "throughput %", "fairness %"],
            [[p.value_s, p.throughput_vs_oracle, p.fairness_vs_oracle]
             for p in result.equalization],
            title="equalization-period sweep (T_P = 1 s):",
        ),
        "",
        f"spread across T_P sweep: {result.prioritization_spread():.1f} points; "
        f"across T_E sweep: {result.equalization_spread():.1f} points",
    ])


def _show_objective(claim: Claim, traces) -> str:
    (dyn_lo, dyn_hi), (sta_lo, sta_hi) = traces.proxy_change_ranges()
    return "\n".join([
        f"Fig. 17(a) — objective value over time ({claim.job_mixes()[0].label})",
        format_series("  dynamic", traces.dynamic_objective, limit=16),
        format_series("  static ", traces.static_objective, limit=16),
        f"  mean objective advantage of dynamic prioritization: "
        f"{traces.mean_objective_gain():+.4f}",
        "",
        "Fig. 17(b) — proxy-model change per iteration (%)",
        f"  dynamic: [{dyn_lo:.2f}, {dyn_hi:.2f}]   static: [{sta_lo:.2f}, {sta_hi:.2f}]",
    ])


def _show_variation(claim: Claim, variation) -> str:
    return "\n".join([
        f"Fig. 18 — observed-performance variation ({claim.job_mixes()[0].label})",
        format_table(
            ["variant", "T mean", "T std", "F mean", "F std"],
            [
                [
                    "SATORI (dynamic)",
                    variation.dynamic_means[0],
                    variation.dynamic_throughput_std,
                    variation.dynamic_means[1],
                    variation.dynamic_fairness_std,
                ],
                [
                    "no prioritization",
                    variation.static_means[0],
                    variation.static_throughput_std,
                    variation.static_means[1],
                    variation.static_fairness_std,
                ],
            ],
            precision=4,
        ),
    ])


def _show_weak_goal(claim: Claim, results) -> str:
    weaker = np.mean([r.dynamic.throughput + r.dynamic.fairness for r in results])
    stronger = np.mean([r.other.throughput + r.other.fairness for r in results])
    return "\n".join([
        "Fig. 19 — prioritize weaker vs stronger goal",
        format_table(
            ["mix", "T weaker", "T stronger", "F weaker", "F stronger"],
            _variant_rows(results),
            precision=3,
        ),
        "",
        f"combined objective: weaker-goal design {weaker:.3f} vs "
        f"stronger-goal design {stronger:.3f} "
        f"({100 * (weaker / stronger - 1):+.1f} %; paper: weaker wins by ~5 %)",
    ])


# -- Sec. V (scalability, overhead, resource-subset ablation) ----------------


def _scalability(claim: Claim, engine) -> Any:
    (seed,) = claim.seeds
    return colocation_scalability(
        catalog=claim.catalog, run_config=claim.run_config, seed=seed, engine=engine,
        **claim.args,
    )


def _show_scalability(claim: Claim, result) -> str:
    rows = [
        [
            point.degree,
            f"{point.satori_throughput:.0f}/{point.satori_fairness:.0f}",
            f"{point.parties_throughput:.0f}/{point.parties_fairness:.0f}",
            point.throughput_gap_points,
            point.fairness_gap_points,
        ]
        for point in result.points
    ]
    gaps = result.gaps()
    return "\n".join([
        "Scalability — SATORI vs PARTIES across co-location degrees",
        format_table(
            ["degree", "SATORI T/F", "PARTIES T/F", "T gap (pts)", "F gap (pts)"], rows
        ),
        "",
        f"mean gaps by degree: {[f'{g:+.1f}' for g in gaps]} (paper: 8/11/13/13/15)",
    ])


def _show_overhead(claim: Claim, result) -> str:
    return "\n".join([
        "Overhead — SATORI controller on a live run",
        format_table(
            ["metric", "value"],
            [
                ["mean decision time (ms)", result.mean_decision_time_ms],
                ["control interval (ms)", result.control_interval_ms],
                ["decision fraction of interval", result.decision_fraction_of_interval],
                ["idle fraction", result.idle_fraction],
            ],
            precision=3,
        ),
        "",
        "paper: ~1.2 ms per 100 ms interval on a Skylake Xeon with "
        "Skopt; this NumPy GP is heavier per update but remains a small "
        "fraction of the interval and is off the critical path.",
    ])


#: The ablation's resource subsets: dCAT's one resource, CoPart's two.
_SUBSETS = ((LLC_WAYS,), (LLC_WAYS, MEMORY_BANDWIDTH))


def _ablation(claim: Claim, engine) -> Any:
    """(LLC-only results, LLC+MBW results), one per mix each."""
    catalog = claim.catalog
    llc_results, both_results = [], []
    for mix, seed in zip(claim.job_mixes(), claim.seeds):
        for subset, results in zip(_SUBSETS, (llc_results, both_results)):
            results.append(resource_subset_ablation(
                mix, list(subset), catalog, claim.run_config, seed=seed, engine=engine
            ))
    return llc_results, both_results


def _show_ablation(claim: Claim, results) -> str:
    llc_results, both_results = results
    rows = [
        [
            "+".join(result.resources),
            result.mix_label[:36],
            f"{result.satori_throughput:.0f}/{result.satori_fairness:.0f}",
            result.baseline_name,
            f"{result.baseline_throughput:.0f}/{result.baseline_fairness:.0f}",
        ]
        for result in llc_results + both_results
    ]
    llc_gap_t = np.mean([r.throughput_gap_points for r in llc_results])
    llc_gap_f = np.mean([r.fairness_gap_points for r in llc_results])
    both_gap_t = np.mean([r.throughput_gap_points for r in both_results])
    return "\n".join([
        "Resource-subset ablation (% of Balanced Oracle)",
        format_table(["resources", "mix", "SATORI T/F", "baseline", "baseline T/F"], rows),
        "",
        f"SATORI-LLC-only vs dCAT: {llc_gap_t:+.1f} T pts, {llc_gap_f:+.1f} F pts "
        "(paper: +4 / +5)",
        f"SATORI-LLC+MBW vs CoPart: {both_gap_t:+.1f} T pts (paper: +7)",
    ])


# -- cluster extension (no gate) ---------------------------------------------


def _cluster(claim: Claim, engine) -> Any:
    (seed,) = claim.seeds
    catalog = claim.catalog
    args = dict(claim.args)
    n_nodes, n_epochs = args.pop("n_nodes"), args.pop("n_epochs")
    trace = default_trace(
        n_epochs=n_epochs, n_nodes=n_nodes, suite=claim.suite, seed=seed, catalog=catalog
    )
    return cluster_sweep(
        trace, n_nodes=n_nodes, catalog=catalog, epoch_config=claim.run_config,
        seed=seed, engine=engine, **args,
    )


def _show_cluster(claim: Claim, sweep) -> str:
    summary = ", ".join(
        f"{cell.placement}: T {cell.result.throughput:.3f} / F {cell.result.fairness:.3f}"
        for cell in sweep.cells
    )
    return (
        f"Cluster ({sweep.n_jobs} jobs, {claim.args['n_nodes']} nodes, "
        f"{claim.args['n_epochs']} epochs) {summary}\n\n"
        + cluster_node_dashboard(cell.result for cell in sweep.cells)
    )


#: The paper's Figs. 17 and 18 mix.
_FIG17_MIX = ("blackscholes", "canneal", "fluidanimate", "freqmine", "streamcluster")


def _sweep(suite: str, n_mixes: int) -> Dict[str, Any]:
    """Inputs of an all-policy sweep over every mix of a suite."""
    return dict(suite=suite, mixes=tuple(range(n_mixes)), seeds=(0,), duration_s=20.0)


FIGURES: Dict[str, Tuple[Claim, ...]] = {
    "fig1": (Claim(_drift, _show_drift, mixes=(17,), duration_s=20.0,
                   args={"step_s": 0.5}),),
    "fig2": (Claim(_goal_gaps, _show_goal_gaps, mixes=(0,),
                   args={"times_s": (0.0, 4.0, 8.0)}),),
    "fig3": (Claim(_rebalancing, _show_rebalancing, mixes=(0,), seeds=(7,),
                   args={"n_samples": 120}),),
    "fig7": (Claim(
        _suite_sweep,
        _show_aggregate("Fig. 7 — PARSEC aggregate (% of Balanced Oracle, 21 mixes)"),
        **_sweep("parsec", 21),
    ),),
    "fig8": (Claim(_suite_sweep, _show_fig8, **_sweep("parsec", 21)),),
    "fig9": (Claim(_suite_sweep, _show_fig9, **_sweep("parsec", 21)),),
    "fig10": (Claim(
        _suite_sweep,
        _show_per_mix("Fig. 10 — per-mix CloudSuite results (% of Balanced Oracle, T/F)", 48),
        **_sweep("cloudsuite", 10),
    ),),
    "fig11": (Claim(
        _suite_sweep,
        _show_per_mix("Fig. 11 — per-mix ECP results (% of Balanced Oracle, T/F)", None),
        **_sweep("ecp", 10),
    ),),
    "fig12": (Claim(
        _suite_sweep,
        _show_aggregate("Fig. 12 — CloudSuite aggregate (% of Balanced Oracle)"),
        **_sweep("cloudsuite", 10),
    ),),
    "fig13": (Claim(
        _suite_sweep,
        _show_aggregate("Fig. 13 — ECP aggregate (% of Balanced Oracle)"),
        **_sweep("ecp", 10),
    ),),
    "fig14": (
        Claim(_one_mix(weight_trace), _show_weight_trace, mixes=(17,), seeds=(3,),
              duration_s=20.0),
        Claim(_per_mix(dynamic_vs_static), _show_dynamic_vs_static,
              mixes=(3, 10, 17), seeds=(3, 10, 17), duration_s=20.0),
    ),
    "fig15": (Claim(_one_mix(distance_to_oracle, takes_engine=True), _show_proximity,
                    mixes=(17,), seeds=(2,), duration_s=20.0),),
    "fig16": (Claim(_one_mix(period_sensitivity, takes_engine=True), _show_sensitivity,
                    mixes=(17,), seeds=(4,), duration_s=15.0,
                    args={"prioritization_sweep": (0.5, 1.0, 2.0, 5.0),
                          "equalization_sweep": (5.0, 10.0, 20.0, 30.0)}),),
    "fig17": (Claim(_one_mix(objective_trace), _show_objective,
                    mixes=(_FIG17_MIX,), seeds=(5,), duration_s=20.0),),
    "fig18": (Claim(_one_mix(performance_variation), _show_variation,
                    mixes=(_FIG17_MIX,), seeds=(6,), duration_s=20.0),),
    "fig19": (Claim(_per_mix(weak_goal_priority), _show_weak_goal,
                    mixes=(5, 17), seeds=(5, 17), duration_s=20.0),),
    "scalability": (Claim(_scalability, _show_scalability, seeds=(0,), duration_s=20.0,
                          args={"degrees": (3, 4, 5, 6, 7), "mixes_per_degree": 2}),),
    "overhead": (Claim(_one_mix(controller_overhead), _show_overhead,
                       mixes=(0,), seeds=(0,), duration_s=15.0, args={"idle_detection": True}),),
    "ablation": (Claim(_ablation, _show_ablation, mixes=(5, 17), seeds=(5, 17),
                       duration_s=20.0),),
    "cluster": (Claim(_cluster, _show_cluster, suite="ecp", seeds=(0,), duration_s=15.0,
                      args={"n_nodes": 2, "n_epochs": 3,
                            "placements": ("round_robin", "contention_aware"),
                            "policies": ("SATORI",)}),),
}


def figure_names() -> Sequence[str]:
    """Identifiers accepted by :func:`run_figure`."""
    return tuple(sorted(FIGURES))


def run_figure(name: str, engine: Optional[ExecutionEngine] = None) -> str:
    """Run one figure's claims and return the blocks their gates print.

    Raises:
        ExperimentError: for unknown figure identifiers.
    """
    try:
        claims = FIGURES[name]
    except KeyError:
        raise ExperimentError(
            f"unknown figure {name!r}; available: {', '.join(figure_names())}"
        ) from None
    return "\n\n".join(claim.render(claim.run(engine)) for claim in claims)
