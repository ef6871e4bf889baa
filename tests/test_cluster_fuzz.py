"""Combination fuzzer for :class:`~repro.cluster.ClusterSimulator`.

Each draw is a small fleet (1-3 nodes, 3-5 epochs) replaying a random
typed trace under a random mix of fleet features: per-node weather,
supervised recovery, migration, a budget broker, warm start, an SLO,
any stock placement and a SATORI, BoPF or EqualPartition fleet. A
small share of draws runs on a shared two-worker engine pool.

After every :meth:`~ClusterSimulator.step_epoch` the fleet invariants
are checked from the outside: budget conservation, job accounting
(no job on two nodes or on a down node, no departed job resident, no
job both lost and rejected, and with recovery off every arrived job
accounted for) and one record per live node. At the end of the run no
node-epoch may fail inside the engine, every fleet counter must equal
its count in the event trail, and a fresh serial ``run()`` with equal
arguments must reproduce the stepped result exactly.

The test reads only public names, so it pins behaviour across any
restructuring of the simulator's internals. Tier-1 runs hypothesis's
default ~100 derandomized examples; ``--hypothesis-profile=deep``
(registered in ``conftest.py``) runs a thousand.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import (
    EVT_JOB_LOST,
    EVT_JOB_REPLACED,
    EVT_NODE_DOWN,
    EVT_NODE_EPOCH_FAILED,
    EVT_NODE_QUARANTINED,
    EVT_NODE_REJOINED,
    EVT_SESSION_RESURRECTED,
    ClusterSimulator,
    MigrationConfig,
    RecoveryConfig,
    placement_names,
    pool_totals,
)
from repro.engine import ExecutionEngine
from repro.experiments.runner import RunConfig, experiment_catalog
from repro.faults import NodeFaultPlan
from repro.qos import SLOSpec
from repro.workloads.arrivals import KIND_BATCH, KIND_QOS, ArrivalTrace, JobArrival
from repro.workloads.registry import default_registry

#: Tiny methodology for fast simulator runs.
TINY = RunConfig(duration_s=1.0, baseline_reset_s=0.5)

WORKLOADS = ("canneal", "streamcluster", "vips", "freqmine", "fluidanimate")

#: The one pooled engine the pooled share of draws shares.
POOL = ExecutionEngine(workers=2)

#: Fleet counters and the event kinds each one counts (a quarantine
#: is a node going down too).
COUNTED_KINDS = {
    "node_downs": (EVT_NODE_DOWN, EVT_NODE_QUARANTINED),
    "node_rejoins": (EVT_NODE_REJOINED,),
    "replacements": (EVT_JOB_REPLACED,),
    "resurrections": (EVT_SESSION_RESURRECTED,),
    "quarantines": (EVT_NODE_QUARANTINED,),
    "node_epoch_failures": (EVT_NODE_EPOCH_FAILED,),
}


@pytest.fixture(scope="module", autouse=True)
def _close_pool():
    yield
    POOL.close()


@st.composite
def traces(draw, n_epochs):
    registry = default_registry()
    jobs = []
    for job_id in range(draw(st.integers(2, 7))):
        # Half the jobs open the trace and most stay to the end, so
        # memberships hold still long enough for warm starts and
        # resurrections to fire.
        arrival = draw(st.sampled_from((0,) * n_epochs + tuple(range(n_epochs))))
        departure = draw(st.sampled_from(
            (None,) * 2 + tuple(range(arrival + 1, n_epochs + 1))
        ))
        jobs.append(JobArrival(
            job_id,
            registry.get(draw(st.sampled_from(WORKLOADS))),
            arrival_epoch=arrival,
            departure_epoch=departure,
            kind=draw(st.sampled_from((KIND_BATCH, KIND_QOS))),
        ))
    return ArrivalTrace(n_epochs=n_epochs, jobs=tuple(jobs))


@st.composite
def weather(draw, n_epochs):
    """One node's fleet plan, or ``None`` for fair weather."""
    kind = draw(st.sampled_from(
        ("none", "crash", "blackout", "straggler", "flaky")
    ))
    if kind == "crash":
        crash = draw(st.integers(0, n_epochs - 1))
        rejoin = draw(st.none() | st.integers(1, n_epochs - crash))
        return NodeFaultPlan(crash_epoch=crash, crash_rejoin_epochs=rejoin)
    if kind == "blackout":
        return NodeFaultPlan(
            blackout_rate=0.5, blackout_epochs=draw(st.integers(1, 2))
        )
    if kind == "straggler":
        return NodeFaultPlan(
            straggler_rate=0.6,
            straggler_slowdown=draw(st.sampled_from((2.0, 3.5))),
            straggler_epochs=draw(st.integers(1, 2)),
        )
    if kind == "flaky":
        return NodeFaultPlan(flaky_rate=0.6, flaky_intensity=0.5)
    return None


recoveries = st.none() | st.builds(
    RecoveryConfig,
    snapshot_cadence_epochs=st.integers(1, 2),
    warmup_penalty_intervals=st.sampled_from((0, 2)),
    failure_threshold=st.sampled_from((1, 3)),
    max_queue_epochs=st.sampled_from((None, 1)),
)


@st.composite
def scenarios(draw):
    """``(simulator kwargs, pooled)`` for one fleet draw."""
    n_nodes = draw(st.integers(1, 3))
    n_epochs = draw(st.integers(3, 5))
    plans = {}
    for node_id in range(n_nodes):
        plan = draw(weather(n_epochs))
        if plan is not None:
            plans[node_id] = plan
    kwargs = dict(
        trace=draw(traces(n_epochs)),
        n_nodes=n_nodes,
        placement=draw(st.sampled_from(placement_names())),
        policy=draw(st.sampled_from(("SATORI", "BoPF", "EqualPartition"))),
        catalog=experiment_catalog(4),
        epoch_config=TINY,
        seed=draw(st.integers(0, 2**16)),
        node_capacity=draw(st.sampled_from((None, 2))),
        fleet_plans=plans,
        recovery=draw(recoveries),
        migration=draw(st.sampled_from((
            None,
            MigrationConfig(fairness_threshold=0.95, patience=1,
                            warmup_penalty_intervals=1),
        ))),
        broker=draw(st.sampled_from((None, "static", "harvest", "trade"))),
        warm_start=draw(st.booleans()),
        qos_slo=draw(st.sampled_from((
            None, SLOSpec(min_speedup=0.55, window=2, attain_target=0.75),
        ))),
    )
    pooled = draw(st.integers(0, 9)) == 0
    return kwargs, pooled


def check_epoch(sim, trace, records, epoch, recovery):
    """The fleet invariants after stepping ``epoch``."""
    assert pool_totals(n.budget for n in sim.nodes) == sim.pool
    down = set(sim.down_nodes)
    resident = [job for node in sim.nodes for job in node.job_ids]
    assert len(resident) == len(set(resident)), "a job sits on two nodes"
    for node_id in down:
        assert sim.nodes[node_id].job_ids == (), f"down node {node_id} hosts jobs"
    departed = {
        job.job_id for job in trace.jobs
        if job.departure_epoch is not None and job.departure_epoch <= epoch
    }
    assert not departed & set(resident), "a departed job is resident"
    result = sim.result()
    lost, rejected = set(result.jobs_lost), set(result.rejected_jobs)
    assert not lost & rejected, "a job is both lost and rejected"
    if recovery is None:
        arrived = {job.job_id for job in trace.jobs if job.arrival_epoch <= epoch}
        unaccounted = arrived - set(resident) - lost - rejected - departed
        assert not unaccounted, f"jobs {sorted(unaccounted)} vanished"
    # Live during the epoch: up now, or quarantined at its end.
    quarantined = {
        event.node_id for event in result.fleet_events
        if event.kind == EVT_NODE_QUARANTINED and event.epoch == epoch
    }
    live = (set(range(len(sim.nodes))) - down) | quarantined
    ids = [record.node_id for record in records]
    assert len(ids) == len(set(ids)), "two records for one node"
    assert set(ids) == live
    assert all(record.epoch == epoch for record in records)


def check_trail(result):
    """Engine-clean run whose counters all read off the event trail."""
    kinds = Counter(event.kind for event in result.fleet_events)
    engine_failures = [
        event for event in result.fleet_events
        if event.kind == EVT_NODE_EPOCH_FAILED
        and event.detail.startswith("engine:")
    ]
    assert not engine_failures, engine_failures
    for name, counted in COUNTED_KINDS.items():
        assert getattr(result, name) == sum(kinds[kind] for kind in counted), name
    assert result.jobs_lost == tuple(
        event.job_id for event in result.fleet_events if event.kind == EVT_JOB_LOST
    )


@settings(
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scenarios())
def test_feature_combinations_keep_fleet_invariants(scenario):
    kwargs, pooled = scenario
    trace, recovery = kwargs["trace"], kwargs["recovery"]
    sim = ClusterSimulator(**kwargs, engine=POOL if pooled else None)
    while not sim.finished:
        epoch = sim.epoch
        records = sim.step_epoch()
        check_epoch(sim, trace, records, epoch, recovery)
    stepped = sim.result()
    assert stepped.n_epochs == trace.n_epochs
    check_trail(stepped)
    # Equal arguments on a fresh serial simulator: run() replays the
    # stepped (and, for pooled draws, the pooled) result exactly.
    rerun = ClusterSimulator(**kwargs).run()
    assert dataclasses.asdict(rerun) == dataclasses.asdict(stepped)
