"""Command-line interface for the SATORI reproduction.

Usage::

    python -m repro <command> [options]

Commands map to the paper's experiments (see DESIGN.md):

* ``quickstart``   — SATORI vs equal split vs Balanced Oracle on one mix.
* ``compare``      — all policies on one or more mixes (Figs. 7/8-style).
* ``weights``      — SATORI's dynamic weight trace (Fig. 14(a)).
* ``sensitivity``  — T_P / T_E sweeps (Fig. 16).
* ``scalability``  — SATORI vs PARTIES across co-location degrees.
* ``overhead``     — controller decision-time measurement.
* ``obs``          — instrumented run: decision-latency budget + trace export.
* ``resilience``   — fault-intensity sweep: hardened vs unhardened SATORI.
* ``cluster``      — multi-node placement x partitioning-policy sweep.
* ``broker``       — cluster budget-broker sweep (static/harvest/trade/bo).
* ``warmstart``    — warm-vs-cold controller continuation (policy-state value).
* ``chaos``        — paired fleet-fault sweep: recovery protocol vs ablation.
* ``qos``          — paired cluster SLO sweep: SATORI vs BoPF vs QoS-PARTIES.
* ``serve``        — long-lived control-plane server (sessions as a service).
* ``loadgen``      — replay an arrival trace against a running ``serve``.
* ``workloads``    — list the benchmark workload models (Tables I-III).

Each command registers only the common options it reads. Every
experiment command (all but ``workloads``, ``serve`` and ``loadgen``)
accepts ``--trace-dir``: :func:`main` records the run into one ambient
collector and writes its trace/metrics artifacts there.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

import numpy as np

from repro.core.controller import SatoriController
from repro.engine import ExecutionEngine, RunCache
from repro.experiments.comparison import (
    STANDARD_POLICY_ORDER,
    aggregate,
    compare_on_mixes,
    full_space,
)
from repro.experiments.internals import weight_trace
from repro.experiments.overhead import controller_overhead
from repro.experiments.reporting import format_table
from repro.experiments.resilience import resilience_sweep
from repro.experiments.runner import RunConfig, experiment_catalog, run_policy
from repro.experiments.scalability import colocation_scalability
from repro.experiments.sensitivity import period_sensitivity
from repro.analysis.stats import paired_deltas
from repro.errors import ExperimentError
from repro.policies.oracle import OraclePolicy, OracleSearch
from repro.policies.static import EqualPartitionPolicy
from repro.workloads.mixes import suite_mixes
from repro.workloads.registry import default_registry


def _add_common(parser: argparse.ArgumentParser, groups: Sequence[str]) -> None:
    """Register the experiment options: ``--trace-dir`` always, plus
    the ``groups`` the command reads of ``suite``, ``mix``, ``scale``
    (``--duration``, ``--units``), ``seed`` and ``engine``
    (``--workers``, ``--cache-dir``, ``--no-cache``)."""
    if "suite" in groups:
        parser.add_argument("--suite", default="parsec",
                            choices=("parsec", "cloudsuite", "ecp"))
    if "mix" in groups:
        parser.add_argument("--mix", type=int, default=0, help="mix index within the suite")
    if "scale" in groups:
        parser.add_argument("--duration", type=float, default=20.0, help="simulated seconds")
        parser.add_argument("--units", type=int, default=8,
                            help="allocation units per resource")
    if "seed" in groups:
        parser.add_argument("--seed", type=int, default=0)
    if "engine" in groups:
        parser.add_argument("--workers", type=int, default=1,
                            help="worker processes for batched runs")
        parser.add_argument("--cache-dir", default="",
                            help="directory for the content-addressed run cache")
        parser.add_argument("--no-cache", action="store_true",
                            help="ignore --cache-dir and recompute everything")
    parser.add_argument("--trace-dir", default="",
                        help="write trace.jsonl, trace.chrome.json and "
                             "metrics.prom to this directory")


def _engine(args: argparse.Namespace) -> ExecutionEngine:
    cache_dir = "" if args.no_cache else args.cache_dir
    cache = RunCache(cache_dir) if cache_dir else None
    return ExecutionEngine(workers=args.workers, cache=cache)


def _node_budgets(args: argparse.Namespace) -> Optional[List[int]]:
    """``--node-budgets 8,8,4,4`` -> per-node uniform unit counts."""
    if not args.node_budgets:
        return None
    try:
        budgets = [int(part) for part in args.node_budgets.split(",") if part.strip()]
    except ValueError:
        raise SystemExit(
            f"--node-budgets wants comma-separated integers, got {args.node_budgets!r}"
        ) from None
    if len(budgets) != args.nodes:
        raise SystemExit(
            f"--node-budgets lists {len(budgets)} nodes, --nodes is {args.nodes}"
        )
    return budgets


def _fleet_sweep(args: argparse.Namespace, qos_fraction: float = 0.0, **axes):
    """The setup ``cluster`` and ``broker`` share: one trace sized to
    the fleet, one engine, one cluster sweep over ``axes``."""
    from repro.experiments.cluster import cluster_sweep, default_trace

    node_budgets = _node_budgets(args)
    catalog = experiment_catalog(args.units)
    trace = default_trace(
        n_epochs=args.epochs,
        n_nodes=args.nodes,
        arrival_rate=args.arrival_rate,
        mean_residency=args.residency,
        suite=args.suite,
        seed=args.seed,
        catalog=catalog,
        qos_fraction=qos_fraction,
    )
    engine = _engine(args)
    sweep = cluster_sweep(
        trace,
        n_nodes=args.nodes,
        placements=tuple(args.placements),
        catalog=catalog,
        epoch_config=RunConfig(duration_s=args.duration),
        seed=args.seed,
        fault_intensity=args.fault_intensity,
        node_budgets=node_budgets,
        engine=engine,
        **axes,
    )
    return sweep, engine


def _print_node_trends(sweep) -> None:
    from repro.analysis.plots import cluster_node_dashboard

    print("\nper-node trends over epochs (shared scale within each cell):\n")
    print(cluster_node_dashboard(cell.result for cell in sweep.cells))


def _print_engine_stats(engine: ExecutionEngine) -> None:
    print(f"\nengine: {engine.stats.summary()} ({engine.workers} worker(s))")


def _mixes(args: argparse.Namespace):
    return suite_mixes(args.suite)


def cmd_workloads(args: argparse.Namespace) -> int:
    registry = default_registry()
    for suite in registry.suites:
        rows = [[w.name, w.description] for w in registry.suite(suite)]
        print(format_table(["benchmark", "description"], rows, title=f"{suite}:"))
        print()
    return 0


def cmd_quickstart(args: argparse.Namespace) -> int:
    catalog = experiment_catalog(args.units)
    mix = _mixes(args)[args.mix]
    run_config = RunConfig(duration_s=args.duration)
    space = full_space(catalog, len(mix))
    policies = {
        "Equal partition": EqualPartitionPolicy(space),
        "SATORI": SatoriController(space, rng=args.seed),
        "Balanced Oracle": OraclePolicy(OracleSearch(mix, catalog), 0.5, 0.5),
    }
    rows = []
    for name, policy in policies.items():
        result = run_policy(policy, mix, catalog, run_config, seed=args.seed)
        rows.append([name, result.throughput, result.fairness])
    print(format_table(["policy", "throughput", "fairness"], rows, precision=3,
                       title=f"mix: {mix.label}"))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    catalog = experiment_catalog(args.units)
    mixes = _mixes(args)
    chosen = mixes if args.all_mixes else [mixes[args.mix]]
    engine = _engine(args)
    comparisons = compare_on_mixes(
        chosen, catalog, RunConfig(duration_s=args.duration), seed=args.seed, engine=engine
    )
    agg = aggregate(comparisons, STANDARD_POLICY_ORDER)
    print(
        format_table(
            ["policy", "throughput % of oracle", "fairness % of oracle"],
            [[name, t, f] for name, (t, f) in agg.items()],
            title=f"{len(chosen)} {args.suite} mix(es), {args.duration:.0f}s runs:",
        )
    )
    _print_engine_stats(engine)
    return 0


def cmd_weights(args: argparse.Namespace) -> int:
    catalog = experiment_catalog(args.units)
    mix = _mixes(args)[args.mix]
    trace, _ = weight_trace(mix, catalog, RunConfig(duration_s=args.duration), seed=args.seed)
    rows = []
    for i in range(0, len(trace.times), 10):
        rows.append([trace.times[i], trace.w_throughput[i], trace.w_fairness[i]])
    print(format_table(["t (s)", "W_T", "W_F"], rows, precision=3, title=f"mix: {mix.label}"))
    mean_t, mean_f = trace.mean_weights()
    print(f"\nlong-term means: W_T={mean_t:.3f} W_F={mean_f:.3f}")
    return 0


def cmd_sensitivity(args: argparse.Namespace) -> int:
    catalog = experiment_catalog(args.units)
    mix = _mixes(args)[args.mix]
    engine = _engine(args)
    result = period_sensitivity(
        mix, catalog, RunConfig(duration_s=args.duration), seed=args.seed, engine=engine
    )
    print(
        format_table(
            ["T_P (s)", "T %", "F %"],
            [[p.value_s, p.throughput_vs_oracle, p.fairness_vs_oracle] for p in result.prioritization],
            title="prioritization-period sweep:",
        )
    )
    print()
    print(
        format_table(
            ["T_E (s)", "T %", "F %"],
            [[p.value_s, p.throughput_vs_oracle, p.fairness_vs_oracle] for p in result.equalization],
            title="equalization-period sweep:",
        )
    )
    _print_engine_stats(engine)
    return 0


def cmd_scalability(args: argparse.Namespace) -> int:
    catalog = experiment_catalog(args.units)
    engine = _engine(args)
    result = colocation_scalability(
        degrees=tuple(args.degrees),
        catalog=catalog,
        run_config=RunConfig(duration_s=args.duration),
        seed=args.seed,
        engine=engine,
    )
    rows = [
        [p.degree, p.satori_throughput, p.parties_throughput, p.throughput_gap_points]
        for p in result.points
    ]
    print(format_table(["degree", "SATORI T%", "PARTIES T%", "gap (pts)"], rows))
    _print_engine_stats(engine)
    return 0


def cmd_overhead(args: argparse.Namespace) -> int:
    catalog = experiment_catalog(args.units)
    mix = _mixes(args)[args.mix]
    result = controller_overhead(mix, catalog, RunConfig(duration_s=args.duration), seed=args.seed)
    print(f"mean decision time: {result.mean_decision_time_ms:.2f} ms "
          f"({100 * result.decision_fraction_of_interval:.1f} % of the "
          f"{result.control_interval_ms:.0f} ms interval)")
    print(f"idle fraction: {result.idle_fraction:.2f}")
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.obs import observed_overhead

    catalog = experiment_catalog(args.units)
    mix = _mixes(args)[args.mix]
    report, _ = observed_overhead(
        mix,
        catalog,
        RunConfig(duration_s=args.duration),
        seed=args.seed,
        idle_detection=args.idle,
    )
    budget = report.budget

    if args.json is not None:
        payload = json.dumps(report.to_dict(), indent=2)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w") as handle:
                handle.write(payload + "\n")
    if args.json != "-":
        rows = [
            ["decide (controller)", budget.decide_ms, budget.decide_ms / max(1, budget.n_intervals)],
            ["  suggest (BO)", budget.suggest_ms, budget.suggest_ms / max(1, budget.n_intervals)],
            ["    gp_fit", budget.gp_fit_ms, budget.gp_fit_ms / max(1, budget.n_intervals)],
            ["    acquisition", budget.acquisition_ms, budget.acquisition_ms / max(1, budget.n_intervals)],
            ["  bookkeeping", budget.bookkeeping_ms, budget.bookkeeping_ms / max(1, budget.n_intervals)],
            ["actuation", budget.actuation_ms, budget.actuation_ms / max(1, budget.n_intervals)],
        ]
        print(
            format_table(
                ["span", "total (ms)", "per interval (ms)"],
                rows,
                precision=3,
                title=f"decision-latency budget, mix {report.mix_label} "
                      f"({budget.n_intervals} intervals):",
            )
        )
        print(
            f"\ndecision latency: {budget.mean_overhead_ms:.3f} ms/interval "
            f"({100 * budget.overhead_fraction_of_interval:.2f} % of the "
            f"{budget.control_interval_ms:.0f} ms interval; "
            f"paper reports ~1.2 ms for all BO tasks)"
        )
        print(f"span coverage: {100 * budget.span_coverage:.1f} % of the measured "
              f"decision latency is explained by gp_fit + acquisition + actuation")
        print(f"idle fraction: {report.idle_fraction:.2f} "
              f"(idle detection {'on' if report.idle_detection else 'off'})")
        if report.counters:
            print(format_table(
                ["counter", "count"],
                [[name, int(value)] for name, value in report.counters],
                title="\ncounters:",
            ))
    return 0


def cmd_resilience(args: argparse.Namespace) -> int:
    catalog = experiment_catalog(args.units)
    mix = _mixes(args)[args.mix]
    engine = _engine(args)
    result = resilience_sweep(
        mix,
        catalog,
        RunConfig(duration_s=args.duration),
        intensities=tuple(args.intensities),
        seed=args.seed,
        engine=engine,
    )
    rows = []
    for outcome in result.outcomes:
        if outcome.failed:
            rows.append([outcome.variant, outcome.intensity, "FAILED", "-", "-", "-"])
            continue
        recovery = "-"
        if outcome.recovery_time_s is not None:
            recovery = "never" if np.isinf(outcome.recovery_time_s) else f"{outcome.recovery_time_s:.1f}"
        rows.append([
            outcome.variant,
            outcome.intensity,
            f"{outcome.throughput:.3f}",
            f"{100 * outcome.throughput_retention:.1f}",
            f"{100 * outcome.fairness_retention:.1f}",
            recovery,
        ])
    print(
        format_table(
            ["variant", "intensity", "throughput", "T retained %", "F retained %", "recovery (s)"],
            rows,
            title=f"mix: {result.mix_label} (faults over the middle third of each run)",
        )
    )
    _print_engine_stats(engine)
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    from repro.cluster.simulator import MigrationConfig

    sweep, engine = _fleet_sweep(
        args,
        qos_fraction=args.qos_fraction,
        policies=tuple(args.policies),
        migration=(
            MigrationConfig(warmup_penalty_intervals=args.migration_penalty)
            if args.migrate
            else None
        ),
        warm_start=args.warm_start,
    )
    print(
        f"trace: {sweep.n_jobs} jobs over {sweep.n_epochs} epochs "
        f"({args.duration:g}s each), peak {sweep.peak_jobs} resident, "
        f"{args.nodes} nodes"
    )
    rows = []
    for cell in sweep.cells:
        r = cell.result
        rows.append([
            cell.placement,
            cell.policy,
            f"{r.throughput:.3f}",
            f"{r.mean_speedup:.3f}",
            f"{r.fairness:.3f}",
            f"{r.worst_job_speedup:.3f}",
            f"{r.p10_speedup:.3f}",
            len(r.rejected_jobs),
            r.migrations,
        ])
    print(
        format_table(
            ["placement", "policy", "throughput", "mean speedup", "fairness (jain)",
             "worst job", "p10 job", "rejected", "migrations"],
            rows,
            title="cluster-wide (per-job speedups averaged over resident epochs):",
        )
    )
    for cell in sweep.cells:
        node_rows = [
            [node_id, f"{throughput:.3f}", f"{fairness:.3f}", f"{occupancy:.1f}",
             f"{budget_units:.1f}", f"{budget_occupancy:.2f}"]
            for node_id, throughput, fairness, occupancy, budget_units,
                budget_occupancy in cell.result.node_summary()
        ]
        print()
        print(
            format_table(
                ["node", "throughput", "fairness", "mean jobs",
                 "budget units", "budget occ"],
                node_rows,
                title=f"per-node [{cell.placement} / {cell.policy}]:",
            )
        )

    _print_node_trends(sweep)

    # Placement-vs-placement paired deltas: each job is its own control,
    # so even a small fleet yields a meaningful CI on the speedup gain.
    delta_rows = []
    for policy in args.policies:
        cells = [c for c in sweep.cells if c.policy == policy]
        for i, base in enumerate(cells):
            for other in cells[i + 1:]:
                try:
                    pd = paired_deltas(
                        base.result.job_mean_speedups(),
                        other.result.job_mean_speedups(),
                    )
                except ExperimentError:
                    continue
                delta_rows.append([
                    policy,
                    f"{other.placement} - {base.placement}",
                    f"{pd.delta.mean:+.3f}",
                    f"[{pd.delta.ci_low:+.3f}, {pd.delta.ci_high:+.3f}]",
                    pd.n_common,
                    pd.n_only_a + pd.n_only_b,
                ])
    if delta_rows:
        print()
        print(
            format_table(
                ["policy", "placement delta", "mean Δspeedup", "95% CI",
                 "paired jobs", "unpaired"],
                delta_rows,
                title="paired per-job speedup deltas (same trace, same jobs):",
            )
        )
    _print_engine_stats(engine)
    return 0


def cmd_broker(args: argparse.Namespace) -> int:
    sweep, engine = _fleet_sweep(args, policies=(args.policy,), brokers=tuple(args.brokers))
    print(
        f"trace: {sweep.n_jobs} jobs over {sweep.n_epochs} epochs "
        f"({args.duration:g}s each), {args.nodes} nodes, "
        f"local policy {args.policy}"
    )
    rows = []
    for cell in sweep.cells:
        r = cell.result
        rows.append([
            cell.broker,
            cell.placement,
            f"{r.mean_speedup:.3f}",
            f"{r.fairness:.3f}",
            f"{r.slo_attainment(args.slo):.3f}",
            f"{r.worst_job_speedup:.3f}",
            r.budget_transfers,
            len(r.rejected_jobs),
        ])
    print(
        format_table(
            ["broker", "placement", "mean speedup", "fairness (jain)",
             f"SLO ≥ {args.slo:g}", "worst job", "units moved", "rejected"],
            rows,
            title="cluster-wide by broker scheme:",
        )
    )
    # A sweep without the static control still compares placements;
    # it just has nothing to pair against.
    deltas = sweep.deltas_vs_static(args.slo) if "static" in args.brokers else []
    if deltas:
        delta_rows = [
            [
                d.broker,
                d.placement,
                f"{d.speedup.delta.mean:+.3f}",
                f"[{d.speedup.delta.ci_low:+.3f}, {d.speedup.delta.ci_high:+.3f}]",
                f"{d.fairness_delta:+.3f}",
                f"{d.slo_delta:+.3f}",
                d.speedup.n_common,
            ]
            for d in deltas
        ]
        print()
        print(
            format_table(
                ["broker", "placement", "mean Δspeedup", "95% CI",
                 "Δfairness", "ΔSLO", "paired jobs"],
                delta_rows,
                title="paired deltas vs the static control (same trace, same jobs):",
            )
        )
    _print_node_trends(sweep)
    _print_engine_stats(engine)
    return 0


def cmd_warmstart(args: argparse.Namespace) -> int:
    from repro.experiments.warmstart import warmstart_experiment

    if args.mixes < 2:
        raise SystemExit(
            f"--mixes must be at least 2 (the recovery-gain confidence "
            f"interval needs two mixes), got {args.mixes}"
        )
    catalog = experiment_catalog(args.units)
    mixes = suite_mixes(args.suite, mix_size=3)[: args.mixes]
    engine = _engine(args)
    report = warmstart_experiment(
        mixes,
        catalog=catalog,
        run_config=RunConfig(duration_s=args.duration,
                             baseline_reset_s=args.duration / 2),
        n_nodes=args.nodes,
        n_epochs=args.epochs,
        seed=args.seed,
        engine=engine,
    )

    rows = []
    for cell in report.adaptation:
        rows.append([
            cell.mix_label,
            cell.cold_recovery_intervals,
            cell.warm_recovery_intervals,
            f"{cell.recovery_gain_intervals:+d}",
            f"{cell.plateau_delta:+.3f}",
            f"{cell.early_fairness_delta:+.3f}",
            f"{cell.early_throughput_delta:+.3f}",
        ])
    print(
        format_table(
            ["mix", "cold recovery", "warm recovery", "gain (intervals)",
             "plateau Δ", "early ΔF", "early ΔT"],
            rows,
            title="continuation epoch, cold vs warm (paired noise):",
        )
    )
    gain = report.recovery_gain_summary()
    print(f"\nrecovery gain: {gain} intervals saved by warm start")

    cluster = report.cluster
    fairness = cluster.node_epoch_fairness_delta()
    speedup = cluster.job_speedup_delta
    print(f"\ncluster replay ({args.nodes} nodes, round-robin, no migration):")
    print(f"  warm-started node-epochs: {cluster.warm_started_epochs}")
    print(f"  per-job Δspeedup (warm - cold): {speedup.delta.mean:+.3f} "
          f"[{speedup.delta.ci_low:+.3f}, {speedup.delta.ci_high:+.3f}] "
          f"(n={speedup.n_common})")
    print(f"  per-node-epoch Δfairness: {fairness.delta.mean:+.3f} "
          f"[{fairness.delta.ci_low:+.3f}, {fairness.delta.ci_high:+.3f}] "
          f"(n={fairness.n_common})")
    try:
        recovery = cluster.fairness_recovery_delta()
    except ExperimentError:
        print("  fairness recovery: too few warm-started epochs to pair")
    else:
        outcomes = cluster.fairness_recovery_outcomes()
        print(f"  fairness recovery, intervals saved by warm start (cold - warm): "
              f"{recovery.delta.mean:+.1f} "
              f"[{recovery.delta.ci_low:+.1f}, {recovery.delta.ci_high:+.1f}] "
              f"(n={recovery.n_common})")
        print(f"  recovery outcomes: warm faster {outcomes['wins']}, "
              f"tied {outcomes['ties']}, slower {outcomes['losses']}")

    if args.json:
        import json

        with open(args.json, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2)
        print(f"\nJSON summary written to {args.json}")
    _print_engine_stats(engine)
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.cluster import RecoveryConfig
    from repro.experiments.chaos import chaos_fleet_plans, chaos_sweep
    from repro.experiments.cluster import default_trace

    catalog = experiment_catalog(args.units)
    epoch_config = RunConfig(duration_s=args.duration)
    trace = default_trace(
        n_epochs=args.epochs,
        n_nodes=args.nodes,
        arrival_rate=args.arrival_rate,
        mean_residency=args.residency,
        suite=args.suite,
        seed=args.seed,
        catalog=catalog,
        qos_fraction=args.qos_fraction,
    )
    plans = chaos_fleet_plans(
        args.nodes,
        args.epochs,
        crash_node=args.crash_node,
        crash_epoch=args.crash_epoch,
        outage_epochs=args.outage,
        straggler_node=args.straggler_node,
        straggler_slowdown=args.straggler_slowdown,
    )
    engine = _engine(args)
    recovery = RecoveryConfig(
        snapshot_cadence_epochs=args.snapshot_cadence,
        warmup_penalty_intervals=args.penalty,
    )
    report = chaos_sweep(
        trace,
        args.nodes,
        plans,
        placement=args.placement,
        policy=args.policy,
        catalog=catalog,
        epoch_config=epoch_config,
        seed=args.seed,
        recovery=recovery,
        engine=engine,
    )
    print(report.summary())
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2)
        print(f"\nJSON report written to {args.json}")
    _print_engine_stats(engine)
    if args.assert_recovery:
        problems = []
        if report.recovery.jobs_lost:
            problems.append(
                f"recovery arm lost {report.recovery.jobs_lost} job(s)"
            )
        if not report.recovery.pool_conserved:
            problems.append("recovery arm's budget pool was not conserved")
        if problems:
            print("chaos assertions FAILED: " + "; ".join(problems), file=sys.stderr)
            return 1
        print("\nchaos assertions passed: zero jobs lost, budget pool conserved")
    return 0


def cmd_qos(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.qos import qos_sweep
    from repro.qos import SLOSpec

    catalog = experiment_catalog(args.units)
    engine = _engine(args)
    slo = SLOSpec(min_speedup=args.floor, window=args.window,
                  attain_target=args.attain_target)
    report = qos_sweep(
        shapes=tuple(args.shapes),
        policies=tuple(args.policies),
        qos_fractions=tuple(args.qos_fractions),
        trace_seeds=tuple(args.trace_seeds),
        n_nodes=args.nodes,
        n_epochs=args.epochs,
        slo=slo,
        catalog=catalog,
        epoch_config=RunConfig(duration_s=args.duration),
        placement=args.placement,
        warm_start=not args.cold_start,
        engine=engine,
    )
    print(report.summary())
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2)
        print(f"\nJSON report written to {args.json}")
    _print_engine_stats(engine)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ControlPlaneServer

    async def _serve() -> None:
        server = ControlPlaneServer(host=args.host, port=args.port)
        await server.start()
        host, port = server.address
        print(f"control plane listening on {host}:{port}", flush=True)
        print("dialects: newline-delimited JSON ops, minimal REST "
              "(GET /healthz, GET /metrics, GET /sessions, POST /sessions, "
              "POST /sessions/<id>/step, GET /sessions/<id>/snapshot, "
              "DELETE /sessions/<id>)", flush=True)
        if args.exit_after is not None:
            try:
                await asyncio.wait_for(server.serve_forever(), args.exit_after)
            except asyncio.TimeoutError:
                pass
            finally:
                await server.stop()
        else:
            await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.serve import ControlPlaneServer, LoadGenerator, SessionSpec
    from repro.workloads.arrivals import poisson_trace

    trace = poisson_trace(
        n_epochs=args.epochs,
        arrival_rate=args.arrival_rate,
        mean_residency=args.residency,
        suites=(args.suite,),
        seed=args.seed,
    )
    base_spec = SessionSpec(
        policy=args.policy, suite=args.suite, units=args.units, seed=args.seed
    )

    async def _drive():
        server = None
        host, port = args.host, args.port
        if args.self_host:
            server = ControlPlaneServer()
            await server.start()
            host, port = server.address
        try:
            generator = LoadGenerator(
                host,
                port,
                trace,
                base_spec=base_spec,
                epoch_s=args.epoch_s,
                steps_per_epoch=args.steps_per_epoch,
                connections=args.connections,
                snapshot_on_kill=args.snapshot_on_kill,
            )
            return await generator.run()
        finally:
            if server is not None:
                await server.stop()

    report = asyncio.run(_drive())
    rows = [
        ["epochs replayed", report.epochs],
        ["wall time (s)", f"{report.wall_s:.2f}"],
        ["sessions created", report.sessions_created],
        ["sessions killed", report.sessions_killed],
        ["peak concurrent", report.peak_concurrent],
        ["control steps", report.steps_total],
        ["sessions/sec", f"{report.sessions_per_sec:.1f}"],
        ["steps/sec", f"{report.steps_per_sec:.1f}"],
        ["decision p50 (ms)", f"{report.decision_latency_p50_ms:.3f}"],
        ["decision p99 (ms)", f"{report.decision_latency_p99_ms:.3f}"],
        ["request errors", report.errors],
        ["lagging epochs", report.lagging_epochs],
    ]
    target = "self-hosted server" if args.self_host else f"{args.host}:{args.port}"
    print(format_table(["measure", "value"],
                       rows, title=f"load replay against {target}:"))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2)
        print(f"\nJSON report written to {args.json}")
    return 1 if report.errors else 0


def cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments.figures import figure_names, run_figure

    if args.list:
        print("\n".join(figure_names()))
        return 0
    if not args.name:
        print("specify a figure id (or --list)", file=sys.stderr)
        return 2
    print(run_figure(args.name, _engine(args)))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import generate_report

    report = generate_report(_engine(args))
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report)
        print(f"report written to {args.out}")
    else:
        print(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    # The common options beyond --trace-dir that each command reads
    # (see _add_common); None registers none.
    for name, func, common in (
        ("workloads", cmd_workloads, None),
        ("quickstart", cmd_quickstart, "suite mix scale seed"),
        ("compare", cmd_compare, "suite mix scale seed engine"),
        ("weights", cmd_weights, "suite mix scale seed"),
        ("sensitivity", cmd_sensitivity, "suite mix scale seed engine"),
        ("scalability", cmd_scalability, "scale seed engine"),
        ("overhead", cmd_overhead, "suite mix scale seed"),
        ("obs", cmd_obs, "suite mix scale seed"),
        ("resilience", cmd_resilience, "suite mix scale seed engine"),
        ("cluster", cmd_cluster, "suite scale seed engine"),
        ("broker", cmd_broker, "suite scale seed engine"),
        ("warmstart", cmd_warmstart, "suite scale seed engine"),
        ("chaos", cmd_chaos, "suite scale seed engine"),
        ("qos", cmd_qos, "scale engine"),
        ("serve", cmd_serve, None),
        ("loadgen", cmd_loadgen, None),
        # figure and report run each claim at its own definition
        ("report", cmd_report, "engine"),
        ("figure", cmd_figure, "engine"),
    ):
        # No abbreviations: an option a command does not take must not
        # pass as a prefix of one it does (--mix for --mixes).
        p = sub.add_parser(name, help=func.__doc__, allow_abbrev=False)
        if common is not None:
            _add_common(p, common.split())
        if name == "compare":
            p.add_argument("--all-mixes", action="store_true", help="run every suite mix")
        if name == "scalability":
            p.add_argument("--degrees", type=int, nargs="+", default=[3, 5, 7])
        if name == "obs":
            p.add_argument("--json", nargs="?", const="-", default=None,
                           help="emit the JSON report ('-' or no value for stdout, "
                                "otherwise a file path)")
            p.add_argument("--idle", action="store_true",
                           help="enable idle detection during the measured run")
            # enough intervals for a stable per-interval budget
            p.set_defaults(duration=15.0)
        if name == "resilience":
            p.add_argument("--intensities", type=float, nargs="+",
                           default=[0.0, 0.25, 0.5, 1.0],
                           help="fault intensities in [0, 1] to sweep")
        if name in ("cluster", "broker"):
            p.add_argument("--nodes", type=int, default=4, help="fleet size")
            p.add_argument("--epochs", type=int, default=4 if name == "cluster" else 6,
                           help="placement epochs")
            p.add_argument("--arrival-rate", type=float, default=1.5,
                           help="mean job arrivals per epoch (Poisson)")
            p.add_argument("--residency", type=float, default=3.0,
                           help="mean resident epochs per job (geometric)")
            p.add_argument("--fault-intensity", type=float, default=0.0,
                           help="fault intensity on even-numbered nodes")
            p.add_argument("--node-budgets", default="",
                           help="comma-separated per-node unit counts, e.g. "
                                "'8,8,4,4' (uniform across resources); empty "
                                "means every node owns its full catalog")
            # for cluster and broker, --duration is the per-epoch length
            p.set_defaults(duration=4.0)
        if name == "cluster":
            p.add_argument("--placements", nargs="+",
                           default=["round_robin", "contention_aware"],
                           help="placement policies to compare")
            p.add_argument("--policies", nargs="+",
                           default=["SATORI", "EqualPartition"],
                           help="partitioning policies to compare")
            p.add_argument("--migrate", action="store_true",
                           help="migrate jobs off persistently unfair nodes")
            p.add_argument("--migration-penalty", type=int, default=0,
                           help="intervals of degraded speedup after a migration")
            p.add_argument("--warm-start", action="store_true",
                           help="carry controller state across epochs when a "
                                "node's job membership is unchanged")
            p.add_argument("--qos-fraction", type=float, default=0.0,
                           help="fraction of arrivals tagged 'qos' (0 keeps "
                                "the trace bit-identical to untyped runs)")
        if name == "broker":
            p.add_argument("--brokers", nargs="+",
                           default=["static", "harvest", "trade", "bo"],
                           help="broker schemes to compare")
            p.add_argument("--placements", nargs="+", default=["round_robin"],
                           help="placement policies to cross with")
            p.add_argument("--policy", default="SATORI",
                           help="partitioning policy every node runs")
            p.add_argument("--slo", type=float, default=0.8,
                           help="per-job mean-speedup SLO threshold")
        if name == "warmstart":
            p.add_argument("--mixes", type=int, default=4,
                           help="number of suite mixes for the adaptation sweep "
                                "(at least 2)")
            p.add_argument("--nodes", type=int, default=2,
                           help="fleet size for the cluster replay")
            p.add_argument("--epochs", type=int, default=12,
                           help="trace length for the cluster replay "
                                "(warm starts need membership-stable boundaries)")
            p.add_argument("--json", default="",
                           help="write the JSON report to this path")
            # warm-start value shows up over multi-epoch horizons
            p.set_defaults(duration=8.0)
        if name == "chaos":
            p.add_argument("--nodes", type=int, default=4, help="fleet size")
            p.add_argument("--epochs", type=int, default=6, help="placement epochs")
            p.add_argument("--arrival-rate", type=float, default=1.0,
                           help="mean job arrivals per epoch (Poisson)")
            p.add_argument("--residency", type=float, default=5.0,
                           help="mean resident epochs per job (geometric)")
            p.add_argument("--placement", default="least_loaded",
                           help="placement policy for both arms")
            p.add_argument("--policy", default="SATORI",
                           help="partitioning policy every node runs")
            p.add_argument("--crash-node", type=int, default=0,
                           help="node that crashes mid-trace")
            p.add_argument("--crash-epoch", type=int, default=None,
                           help="crash epoch (default: a third of the trace in)")
            p.add_argument("--outage", type=int, default=None,
                           help="blackout length in epochs before rejoin "
                                "(default: a quarter of the trace)")
            p.add_argument("--straggler-node", type=int, default=None,
                           help="optional second node that straggles")
            p.add_argument("--straggler-slowdown", type=float, default=2.0,
                           help="slowdown factor for the straggler node")
            p.add_argument("--snapshot-cadence", type=int, default=1,
                           help="checkpoint policy state every N epochs")
            p.add_argument("--penalty", type=int, default=0,
                           help="warmup penalty intervals for re-placed jobs")
            p.add_argument("--assert-recovery", action="store_true",
                           help="exit 1 unless the recovery arm lost zero jobs "
                                "and conserved the budget pool (CI smoke)")
            p.add_argument("--json", default="",
                           help="write the JSON report to this path")
            p.add_argument("--qos-fraction", type=float, default=0.0,
                           help="fraction of arrivals tagged 'qos' (0 keeps "
                                "the trace bit-identical to untyped runs)")
            # for chaos, --duration is the per-epoch length
            p.set_defaults(duration=3.0)
        if name == "qos":
            p.add_argument("--nodes", type=int, default=3, help="fleet size")
            p.add_argument("--epochs", type=int, default=8, help="placement epochs")
            p.add_argument("--shapes", nargs="+",
                           default=["flash_crowd", "diurnal"],
                           help="arrival-trace shapes to sweep")
            p.add_argument("--policies", nargs="+",
                           default=["SATORI", "BoPF", "QoSPARTIES"],
                           help="partitioning policies to compare")
            p.add_argument("--qos-fractions", type=float, nargs="+",
                           default=[0.25],
                           help="qos arrival fractions to sweep")
            p.add_argument("--trace-seeds", type=int, nargs="+",
                           default=[0, 1, 2],
                           help="trace seeds (cells pair across policies "
                                "within each seed)")
            p.add_argument("--floor", type=float, default=0.55,
                           help="SLO min-speedup floor for qos jobs")
            p.add_argument("--window", type=int, default=2,
                           help="control intervals per SLO evaluation window")
            p.add_argument("--attain-target", type=float, default=0.75,
                           help="windowed attainment a qos job-epoch must "
                                "reach to avoid a miss event")
            p.add_argument("--placement", default="slo_aware",
                           help="placement policy for every cell")
            p.add_argument("--cold-start", action="store_true",
                           help="disable warm starts (the guarantee phase "
                                "then re-probes every epoch)")
            p.add_argument("--json", default="",
                           help="write the JSON report to this path")
            # for qos, --duration is the per-epoch length
            p.set_defaults(duration=4.0)
        if name == "serve":
            p.add_argument("--host", default="127.0.0.1", help="bind address")
            p.add_argument("--port", type=int, default=7300,
                           help="bind port (0 picks a free one)")
            p.add_argument("--exit-after", type=float, default=None,
                           help="stop after this many seconds (smoke tests; "
                                "default: serve forever)")
        if name == "loadgen":
            p.add_argument("--host", default="127.0.0.1", help="server address")
            p.add_argument("--port", type=int, default=7300, help="server port")
            p.add_argument("--self-host", action="store_true",
                           help="boot an in-process server and replay against "
                                "it (ignores --host/--port)")
            p.add_argument("--suite", default="parsec",
                           choices=("parsec", "cloudsuite", "ecp"))
            p.add_argument("--policy", default="SATORI",
                           help="partitioning policy every session runs")
            p.add_argument("--units", type=int, default=8,
                           help="allocation units per resource")
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--epochs", type=int, default=20,
                           help="trace length in wall-clock ticks")
            p.add_argument("--arrival-rate", type=float, default=2.0,
                           help="mean session arrivals per tick (Poisson)")
            p.add_argument("--residency", type=float, default=4.0,
                           help="mean resident ticks per session (geometric)")
            p.add_argument("--epoch-s", type=float, default=0.05,
                           help="wall-clock seconds per tick")
            p.add_argument("--steps-per-epoch", type=int, default=1,
                           help="control intervals per resident session per tick")
            p.add_argument("--connections", type=int, default=16,
                           help="client connection-pool size")
            p.add_argument("--snapshot-on-kill", action="store_true",
                           help="snapshot each departing session before killing it")
            p.add_argument("--json", default="",
                           help="write the JSON load report to this path")
        if name == "report":
            p.add_argument("--out", default="", help="write markdown to this path")
        if name == "figure":
            p.add_argument("name", nargs="?", default="", help="figure id (e.g. fig7)")
            p.add_argument("--list", action="store_true", help="list figure ids")
        p.set_defaults(func=func)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    trace_dir = getattr(args, "trace_dir", "")
    if not trace_dir:
        return args.func(args)
    import os

    from repro.obs import TraceCollector, use_collector
    from repro.obs.export import write_chrome_trace, write_jsonl, write_prometheus

    # The one trace-export path: every command records into this
    # ambient collector, whatever it runs underneath.
    collector = TraceCollector()
    with use_collector(collector):
        code = args.func(args)
    os.makedirs(trace_dir, exist_ok=True)
    write_jsonl(collector.events, os.path.join(trace_dir, "trace.jsonl"))
    write_chrome_trace(
        collector.events,
        os.path.join(trace_dir, "trace.chrome.json"),
        process_name=f"repro {args.command}",
    )
    write_prometheus(collector.metrics, os.path.join(trace_dir, "metrics.prom"))
    # stderr: stdout may be a JSON report (obs --json -)
    print(f"trace artifacts written to {trace_dir}/ "
          f"(trace.jsonl, trace.chrome.json, metrics.prom)", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
