"""The two fleet workloads: ``fleet-dense`` and ``fleet-chaos``.

Both replay one fixed arrival trace, built from the workload seed, on a
12-node SATORI fleet with 6 s node-epochs (60 control intervals). A run
replays the whole trace a fixed number of times; every replay must
produce the same records, and the ``sim_*`` metrics come from that
(deterministic) result.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from common import (
    REFERENCE_MS,
    host_factor,
    median,
    own_peak_rss_mb,
    percentile,
    reference_ms,
    time_to_ready,
)


@dataclass(frozen=True)
class FleetScale:
    n_nodes: int = 12
    n_epochs: int = 8
    epoch_s: float = 6.0
    node_capacity: int = 4
    workers: int = 2


FULL = FleetScale()
TINY = FleetScale(n_nodes=4, n_epochs=6, epoch_s=1.0, node_capacity=3)

#: Seconds of run time per replay of the trace. The replay count is
#: fixed by ``--seconds`` rather than by a deadline: each epoch's best
#: time over more replays is lower, so a count that varied with host
#: speed would add spread of its own.
SECONDS_PER_REPLAY = 10.0
#: Fresh-interpreter set-ups timed per run (the median is reported).
SETUP_SAMPLES = 3


#: Resident jobs per epoch, the same for every seed. ``fleet-dense``
#: hovers around 3 jobs per node; ``fleet-chaos`` follows one diurnal
#: cycle. Least-loaded and slo-aware placement then keep nodes at 2-4.
DENSE_PER_NODE = (3.0, 3.2, 3.3, 3.2, 3.0, 2.8, 3.0, 3.2)
CHAOS_PER_NODE = (2.5, 2.8, 3.2, 3.5, 3.5, 3.2, 2.8, 2.5)
#: Share of resident jobs that depart at each epoch boundary.
CHURN = 0.25
#: Share of jobs tagged qos on ``fleet-chaos``.
QOS_SHARE = 0.3


class _Bag:
    """Draws from ``items`` without replacement, refilling when empty,
    so every item is used equally often (to within one)."""

    def __init__(self, items, rng) -> None:
        self._items = list(items)
        self._rng = rng
        self._bag = []

    def draw(self):
        if not self._bag:
            self._bag = list(self._items)
            self._rng.shuffle(self._bag)
        return self._bag.pop()


def build_trace(workload: str, seed: int, scale: FleetScale):
    """A seeded PARSEC trace whose load does not depend on the seed.

    The seed picks which benchmark each job runs, which jobs depart,
    and (on ``fleet-chaos``) which jobs are qos. How many jobs are
    resident each epoch, how many leave, the benchmark mix of the
    whole trace and the qos share are fixed, so the work a run
    measures, and the fleet scores, move little from seed to seed.
    """
    import random

    from repro.workloads.arrivals import KIND_BATCH, KIND_QOS, ArrivalTrace, JobArrival
    from repro.workloads.registry import default_registry

    per_node = DENSE_PER_NODE if workload == "fleet-dense" else CHAOS_PER_NODE
    per_node = (per_node * scale.n_epochs)[: scale.n_epochs]
    targets = [round(value * scale.n_nodes) for value in per_node]
    rng = random.Random(f"{workload}/{seed}")
    benchmarks = _Bag(default_registry().suite("parsec"), rng)
    tags = [KIND_QOS] * round(10 * QOS_SHARE) + [KIND_BATCH] * round(10 * (1 - QOS_SHARE))
    kinds = _Bag(tags if workload == "fleet-chaos" else [KIND_BATCH], rng)
    jobs = []  # [job_id, workload, arrival, departure, kind]
    resident = []
    for epoch, target in enumerate(targets):
        if epoch:
            leaving = rng.sample(resident, round(CHURN * len(resident)))
            for job in leaving:
                job[3] = epoch
            resident = [job for job in resident if job[3] is None]
        while len(resident) < target:
            job = [len(jobs), benchmarks.draw(), epoch, None, kinds.draw()]
            jobs.append(job)
            resident.append(job)
    return ArrivalTrace(
        n_epochs=scale.n_epochs,
        jobs=tuple(
            JobArrival(job_id=i, workload=w, arrival_epoch=a, departure_epoch=d, kind=k)
            for i, w, a, d, k in jobs
        ),
    )


def make_engine(workload: str, scale: FleetScale):
    from repro.engine import ExecutionEngine

    if workload == "fleet-dense":
        return ExecutionEngine()
    # As the CLI's _engine() builds it: default transport, no cache.
    return ExecutionEngine(workers=scale.workers)


def chaos_plans(scale: FleetScale) -> Dict[int, Any]:
    """Crash with rejoin, two stragglers either side of the deadline
    factor, and flaky telemetry, on four distinct nodes."""
    from repro.faults.nodes import NodeFaultPlan

    crash_epoch = max(1, scale.n_epochs // 3)
    return {
        0: NodeFaultPlan(crash_epoch=crash_epoch, crash_rejoin_epochs=2),
        1: NodeFaultPlan(straggler_rate=0.3, straggler_slowdown=2.0),
        2: NodeFaultPlan(straggler_rate=0.3, straggler_slowdown=3.5),
        3: NodeFaultPlan(flaky_rate=0.3, flaky_intensity=0.5),
    }


def make_simulator(workload: str, trace, engine, seed: int, scale: FleetScale):
    from repro.cluster import RecoveryConfig
    from repro.cluster.simulator import ClusterSimulator, MigrationConfig
    from repro.experiments.runner import RunConfig, experiment_catalog
    from repro.qos import SLOSpec

    common = dict(
        n_nodes=scale.n_nodes, catalog=experiment_catalog(),
        epoch_config=RunConfig(duration_s=scale.epoch_s),
        node_capacity=scale.node_capacity, seed=seed, engine=engine,
    )
    if workload == "fleet-dense":
        return ClusterSimulator(
            trace, placement="least_loaded", policy="SATORI", **common
        )
    return ClusterSimulator(
        trace, placement="slo_aware", policy="BoPF",
        fleet_plans=chaos_plans(scale),
        recovery=RecoveryConfig(snapshot_cadence_epochs=1),
        migration=MigrationConfig(), broker="trade", warm_start=True,
        qos_slo=SLOSpec(min_speedup=0.55, window=2, attain_target=0.75),
        **common,
    )


def probe_setup(workload: str, seed: int, scale: FleetScale) -> None:
    """Set-up as a fresh interpreter pays it, then signal readiness."""
    trace = build_trace(workload, seed, scale)
    engine = make_engine(workload, scale)
    make_simulator(workload, trace, engine, seed, scale)
    print("ready", flush=True)
    engine.close()


# -- one replay ------------------------------------------------------------


@dataclass
class Replay:
    wall_s: float
    epoch_s: List[float]
    #: Reference-kernel times before the first epoch and after each one.
    reference_ms: List[float]
    result: Any
    submitted: int
    engine_failed: int
    conserved: bool

    def calibrated_epoch_s(self) -> List[float]:
        """Epoch times at the nominal host speed, each scaled by the
        mean of the reference timings on either side of it."""
        refs = self.reference_ms
        return [
            seconds * 2.0 * REFERENCE_MS / (refs[i] + refs[i + 1])
            for i, seconds in enumerate(self.epoch_s)
        ]


def replay(workload: str, trace, engine, seed: int, scale: FleetScale) -> Replay:
    from repro.cluster.budget import pool_totals

    stats = engine.stats
    submitted, failed = stats.submitted, stats.failed
    simulator = make_simulator(workload, trace, engine, seed, scale)
    epoch_s = []
    references = [reference_ms()]
    while not simulator.finished:
        tick = time.perf_counter()
        simulator.step_epoch()
        epoch_s.append(time.perf_counter() - tick)
        references.append(reference_ms())
    return Replay(
        wall_s=sum(epoch_s),
        epoch_s=epoch_s,
        reference_ms=references,
        result=simulator.result(),
        submitted=stats.submitted - submitted,
        engine_failed=stats.failed - failed,
        conserved=pool_totals(n.budget for n in simulator.nodes) == simulator.pool,
    )


# -- outcome accounting ------------------------------------------------------


def node_epoch_counts(result) -> Dict[str, int]:
    """Simulated / synthesized / failed (engine vs weather) node-epochs."""
    failed_engine = failed_weather = 0
    for event in result.fleet_events:
        if event.kind != "node_epoch_failed":
            continue
        if event.detail.startswith("engine:"):
            failed_engine += 1
        else:
            failed_weather += 1
    return {
        "simulated": sum(1 for r in result.records if not r.synthesized and not r.failed),
        "synthesized": sum(1 for r in result.records if r.synthesized),
        "failed_engine": failed_engine,
        "failed_weather": failed_weather,
    }


def sim_metrics(result) -> Dict[str, float]:
    return {"sim_throughput": result.throughput, "sim_fairness": result.fairness}


def check(trace, run: Replay, first: Optional[Replay]) -> List[str]:
    """Output checks; returns the failures (empty when correct)."""
    problems = []
    result = run.result
    if not run.conserved:
        problems.append("budget pool not conserved at the end of the trace")
    placed = {job for record in result.records for job in record.job_ids}
    rejected = set(result.rejected_jobs)
    lost = set(result.jobs_lost)
    every = {job.job_id for job in trace.jobs}
    missing = every - placed - rejected - lost
    if missing:
        problems.append(f"trace jobs unaccounted for: {sorted(missing)[:10]}")
    if placed & rejected:
        problems.append(f"jobs both placed and rejected: {sorted(placed & rejected)}")
    if not 0.0 < result.fairness <= 1.0:
        problems.append(f"fleet fairness {result.fairness} outside (0, 1]")
    counts = node_epoch_counts(result)
    if counts["failed_engine"] != run.engine_failed:
        problems.append(
            f"{counts['failed_engine']} engine-failed records but the engine "
            f"returned {run.engine_failed} RunErrors"
        )
    if counts["simulated"] == 0:
        problems.append("no node-epoch was simulated")
    if first is not None and first.result != result:
        problems.append("a replay of the same trace produced different records")
    return problems


# -- the runs ----------------------------------------------------------------


def _setup_s(workload: str, seed: int, tiny: bool) -> float:
    argv = [sys.executable, "perfbench/run.py", "--probe-setup",
            "--workload", workload, "--seed", str(seed)]
    if tiny:
        argv.append("--tiny")
    return median([time_to_ready(argv, "ready") for _ in range(SETUP_SAMPLES)])


def run_untraced(workload: str, seed: int, seconds: float, scale: FleetScale,
                 tiny: bool) -> Tuple[Dict, Dict]:
    """End-to-end metrics; returns ``(summary, metrics)``."""
    raw_setup_s = _setup_s(workload, seed, tiny)
    trace = build_trace(workload, seed, scale)
    engine = make_engine(workload, scale)
    try:
        replays = [
            replay(workload, trace, engine, seed, scale)
            for _ in range(max(2, round(seconds / SECONDS_PER_REPLAY)))
        ]
    finally:
        engine.close()
    first = replays[0]
    problems = check(trace, first, None)
    for run in replays[1:]:
        problems += check(trace, run, first)
    intervals = node_epoch_counts(first.result)["simulated"] * _n_steps(scale)
    # Each epoch's best calibrated time over the replays: the host
    # drifts in bursts of seconds, and the best of several replays of
    # the same work is what stays put between runs.
    calibrated = [run.calibrated_epoch_s() for run in replays]
    best = [min(run[i] for run in calibrated) for i in range(scale.n_epochs)]
    raw_best = [min(run.epoch_s[i] for run in replays) for i in range(scale.n_epochs)]
    # A cluster epoch is on time when it takes no longer on the host
    # than the 6 s it simulates.
    epochs = [seconds for run in replays for seconds in run.epoch_s]
    on_time = sum(1 for seconds in epochs if seconds <= scale.epoch_s) / len(epochs)
    # Set-up times import and construction, which the reference kernel
    # tracks only as a level: it is scaled by the whole run's factor.
    factor = host_factor([r for run in replays for r in run.reference_ms])
    metrics = {
        "setup_s": (raw_setup_s / factor, "s"),
        "sim_intervals_per_s": (intervals / sum(best), "1/s"),
        "on_time_ratio": (on_time, "ratio"),
        "peak_rss_mb": (own_peak_rss_mb(), "MB"),
        "success_ratio": (1.0 - first.engine_failed / first.submitted, "ratio"),
    }
    sims = sim_metrics(first.result)
    metrics["sim_throughput"] = (sims["sim_throughput"], "score")
    metrics["sim_fairness"] = (sims["sim_fairness"], "index")
    summary = {
        "correct": not problems,
        "problems": problems,
        "attempted": first.submitted,
        "failed": first.engine_failed,
        "replays": len(replays),
        "epochs_per_replay": scale.n_epochs,
        "replay_wall_s": [round(run.wall_s, 4) for run in replays],
        "epoch_samples": len(best),
        "raw_setup_s": round(raw_setup_s, 4),
        "raw_sim_intervals_per_s": round(intervals / sum(raw_best), 3),
        "host_factor": round(factor, 4),
        "node_epochs": node_epoch_counts(first.result),
    }
    return summary, metrics


def _n_steps(scale: FleetScale) -> int:
    from repro.experiments.runner import RunConfig

    return RunConfig(duration_s=scale.epoch_s).n_steps


def run_traced(workload: str, seed: int, scale: FleetScale) -> Tuple[Dict, Dict]:
    """One untraced and one traced replay; per-layer metrics.

    The layer wrappers go in after the untraced replay and before the
    traced replay's engine forks its pool, so pool workers inherit
    them.
    """
    import layers
    from repro.obs import TraceCollector, use_collector

    trace = build_trace(workload, seed, scale)
    engine = make_engine(workload, scale)
    try:
        plain = replay(workload, trace, engine, seed, scale)
    finally:
        engine.close()
    layers.install()
    collector = TraceCollector()
    with use_collector(collector):
        engine = make_engine(workload, scale)
        try:
            traced = replay(workload, trace, engine, seed, scale)
        finally:
            engine.close()
    problems = check(trace, plain, None) + check(trace, traced, plain)
    if sim_metrics(traced.result) != sim_metrics(plain.result):
        problems.append("traced and untraced replays disagree on sim_* values")
    rows, instants = layers.span_rows(collector.events)
    spans = layers.SpanSet(rows, instants)
    metrics = layers.span_metrics(spans)
    metrics.update(_cluster_layers(spans, traced, scale))
    metrics.update(_engine_layers(spans, traced, collector, scale))
    result = traced.result
    covered = layers.union_ms([(s.start, s.end) for s in spans.roots()])
    epoch_ms = [seconds * 1e3 for seconds in plain.epoch_s]
    metrics.update({
        "cluster.epoch_p50_ms": percentile(epoch_ms, 50),
        "cluster.epoch_p90_ms": percentile(epoch_ms, 90),
        "state.snapshots_read": sum(1 for r in result.records if r.warm_started)
        + result.resurrections,
        "trace.coverage": covered / (traced.wall_s * 1e3),
        "trace.uncovered_ms": (traced.wall_s * 1e3 - covered) / scale.n_epochs,
        "trace.overhead_pct": 100.0 * (traced.wall_s / plain.wall_s - 1.0),
    })
    taken = metrics["state.snapshots_taken"]
    metrics["state.read_ratio"] = metrics["state.snapshots_read"] / taken if taken else 0.0
    summary = {
        "correct": not problems,
        "problems": problems,
        "attempted": traced.submitted,
        "failed": traced.engine_failed,
        "untraced_wall_s": round(plain.wall_s, 4),
        "traced_wall_s": round(traced.wall_s, 4),
        "spans": len(spans.spans),
        "epoch_samples": scale.n_epochs,
    }
    return summary, layers.complete(metrics)


def _cluster_layers(spans, run: Replay, scale: FleetScale) -> Dict[str, float]:
    result = run.result
    counts = node_epoch_counts(result)
    epochs = spans.named("cluster.step_epoch")
    self_ms = [
        epoch.ms - sum(c.ms for c in epoch.children if c.name == "engine.run")
        for epoch in epochs
    ]
    slo = result.slo
    return {
        "cluster.epoch_self_ms": median(self_ms),
        "cluster.placement_ms": spans.total_ms("cluster.place") / len(epochs),
        "cluster.node_epochs_simulated": counts["simulated"],
        "cluster.node_epochs_synthesized": counts["synthesized"],
        "cluster.node_epochs_failed_engine": counts["failed_engine"],
        "cluster.node_epochs_failed_weather": counts["failed_weather"],
        "broker.transfers": result.budget_transfers,
        "qos.score_ms": spans.total_ms("qos.score") / len(epochs),
        "qos.slo_misses": len(slo.misses) if slo is not None else 0,
        "qos.attainment": slo.attainment if slo is not None else 0.0,
    }


def _engine_layers(spans, run: Replay, collector, scale: FleetScale) -> Dict[str, float]:
    executions = spans.named("engine.execute_run")
    runs = spans.named("engine.run")
    # Adopted worker spans carry a lane; a serial engine runs in-process.
    workers = scale.workers if any(e.lane for e in executions) else 1
    # Worker spans are placed on the parent's timeline when harvested,
    # so only their durations are exact: a run's own time is its wall
    # minus the execution it harvested, spread over the workers.
    self_ms = [
        engine_run.ms - sum(
            e.ms for e in executions if engine_run.start <= e.end <= engine_run.end
        ) / workers
        for engine_run in runs
    ]
    busy_s = sum(e.ms for e in executions) / 1e3
    run_s = sum(r.ms for r in runs) / 1e3
    counters = collector.metrics.counters()
    rss_kb = spans.instant_values("execute_run.counts", "rss_kb")
    return {
        "engine.self_ms": median(self_ms),
        "engine.specs_submitted": run.submitted,
        "engine.worker_busy_s": busy_s,
        "engine.pool_utilization": busy_s / (workers * run_s) if run_s else 0.0,
        "engine.blob_cache_hits": counters.get("engine.blob_cache_hits", 0.0),
        "engine.blob_cache_misses": counters.get("engine.blob_cache_misses", 0.0),
        "engine.worker_peak_rss_mb": max(rss_kb, default=0) / 1024.0,
        "system.contention_calls": sum(spans.instant_values("execute_run.counts", "contention")),
        "core.lengthscale_searches": sum(spans.instant_values("execute_run.counts", "searches")),
        "core.lengthscale_reuses": sum(spans.instant_values("execute_run.counts", "reuses")),
    }
