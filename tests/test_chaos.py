"""Tests for fleet fault tolerance and the chaos sweep.

Covers the supervised recovery protocol end to end: crash → drain →
re-placement → rejoin with zero lost jobs, bit-exact budget
conservation through down windows (parked budgets), snapshot-based
session resurrection when a crashed controller's job group reassembles,
the straggler circuit breaker (quarantine), the crash-during-migration
edge case, the horizon-validation bugfix (plans that outlive the trace
raise, naming the node), and the paired chaos experiment
(recovery strictly better than the ablation under identical weather).
"""

from __future__ import annotations

import json

import pytest

from repro.cluster import (
    EVT_JOB_LOST,
    EVT_JOB_REPLACED,
    EVT_NODE_DOWN,
    EVT_NODE_EPOCH_FAILED,
    EVT_NODE_QUARANTINED,
    EVT_NODE_REJOINED,
    EVT_SESSION_RESURRECTED,
    ClusterSimulator,
    FleetEvent,
    MigrationConfig,
    RecoveryConfig,
    pool_totals,
)
from repro.cluster.placement import PlacementPolicy
from repro.cluster.simulator import ClusterResult, NodeEpochRecord
from repro.errors import ClusterError
from repro.experiments.chaos import (
    adjusted_epoch_fairness,
    chaos_fleet_plans,
    chaos_sweep,
    recovery_intervals,
)
from repro.experiments.runner import RunConfig, experiment_catalog
from repro.faults import FaultPlan, NodeFaultPlan
from repro.workloads.arrivals import ArrivalTrace, JobArrival
from repro.workloads.registry import default_registry

#: Tiny methodology for fast simulator tests.
TINY = RunConfig(duration_s=1.0, baseline_reset_s=0.5)


class PackPlacement(PlacementPolicy):
    """First-fit: lowest-id open node (packs jobs onto one node)."""

    name = "pack"

    def place(self, nodes):
        return self._open_nodes(nodes)[0].node_id


def open_jobs(*names: str) -> ArrivalTrace:
    """Jobs that arrive at epoch 0 and never depart (n_epochs set later)."""
    registry = default_registry()
    return tuple(
        JobArrival(job_id, registry.get(name), arrival_epoch=0)
        for job_id, name in enumerate(names)
    )


def make_trace(n_epochs: int, *names: str) -> ArrivalTrace:
    return ArrivalTrace(n_epochs=n_epochs, jobs=open_jobs(*names))


def simulate(trace, fleet_plans, recovery=RecoveryConfig(), **kwargs):
    defaults = dict(
        n_nodes=2,
        placement="least_loaded",
        policy="EqualPartition",
        catalog=experiment_catalog(4),
        epoch_config=TINY,
        seed=1,
        node_capacity=2,
        fleet_plans=fleet_plans,
        recovery=recovery,
    )
    defaults.update(kwargs)
    return ClusterSimulator(trace, **defaults)


def events_of(result: ClusterResult, kind: str):
    return [e for e in result.fleet_events if e.kind == kind]


class TestHorizonValidation:
    """The bugfix: plans that outlive the trace raise, naming the node."""

    def test_fleet_crash_past_horizon_names_node(self):
        trace = make_trace(3, "canneal", "streamcluster")
        with pytest.raises(ClusterError, match="node 1"):
            simulate(trace, {1: NodeFaultPlan(crash_epoch=3)})

    def test_fleet_rejoin_past_horizon_names_node(self):
        trace = make_trace(4, "canneal", "streamcluster")
        with pytest.raises(ClusterError, match="node 0.*rejoin"):
            simulate(trace, {0: NodeFaultPlan(crash_epoch=2, crash_rejoin_epochs=3)})

    def test_fleet_plan_unknown_node_rejected(self):
        trace = make_trace(3, "canneal", "streamcluster")
        with pytest.raises(ClusterError, match="unknown node ids"):
            simulate(trace, {7: NodeFaultPlan(crash_epoch=1)})

    def test_intra_epoch_fault_window_outliving_epoch_names_node(self):
        # A node-epoch is TINY.duration_s long; a FaultPlan window
        # reaching past it used to be silently truncated by
        # FaultPlan.window() — now it's rejected loudly.
        trace = make_trace(3, "canneal", "streamcluster")
        plan = FaultPlan(sample_drop_rate=0.1, start_s=0.0, end_s=5.0)
        with pytest.raises(ClusterError, match="node 0.*outlives"):
            simulate(trace, {}, node_fault_plans={0: plan})


class TestCrashRecovery:
    def crash_run(self, recovery=RecoveryConfig(), **kwargs):
        # 3 open jobs on 2 capacity-2 nodes: least_loaded puts jobs
        # {0, 2} on node 0 and job 1 on node 1. Node 0 goes down for
        # epochs 1-2 and rejoins at 3; node 1 has one free slot, so one
        # drained job re-places immediately and the other must wait in
        # the queue until the rejoin.
        trace = make_trace(5, "canneal", "streamcluster", "vips")
        plans = {0: NodeFaultPlan(crash_epoch=1, crash_rejoin_epochs=2)}
        simulator = simulate(trace, plans, recovery=recovery, **kwargs)
        return simulator, simulator.run()

    def test_zero_jobs_lost_with_recovery(self):
        _, result = self.crash_run()
        assert result.jobs_lost == ()
        assert result.replacements == 2
        assert result.node_downs == 1
        assert result.node_rejoins == 1

    def test_displaced_job_waits_for_capacity(self):
        _, result = self.crash_run()
        # One drained job re-placed the same epoch (waited 0), the
        # other queued until the rejoin at epoch 3 (waited 2).
        assert result.displaced_job_epochs == 2
        replaced = events_of(result, EVT_JOB_REPLACED)
        assert len(replaced) == 2
        waits = sorted(int(e.detail.split("waited=")[1]) for e in replaced)
        assert waits == [0, 2]

    def test_event_trail_is_ordered(self):
        _, result = self.crash_run()
        downs = events_of(result, EVT_NODE_DOWN)
        rejoins = events_of(result, EVT_NODE_REJOINED)
        assert [e.epoch for e in downs] == [1]
        assert [e.epoch for e in rejoins] == [3]
        assert all(e.node_id == 0 for e in downs + rejoins)

    def test_down_node_produces_no_records(self):
        _, result = self.crash_run()
        node0_epochs = {r.epoch for r in result.node_records(0)}
        assert node0_epochs == {0, 3, 4}

    def test_pool_conserved_through_down_window(self):
        simulator, _ = self.crash_run()
        assert pool_totals(n.budget for n in simulator.nodes) == simulator.pool

    def test_pool_conserved_with_broker(self):
        # The broker must not see (or redistribute) a parked budget;
        # the per-epoch audit raises on any leak, so finishing is the
        # assertion.
        simulator, result = self.crash_run(broker="harvest")
        assert result.jobs_lost == ()
        assert pool_totals(n.budget for n in simulator.nodes) == simulator.pool

    def test_ablation_loses_drained_jobs(self):
        _, result = self.crash_run(recovery=None)
        assert sorted(result.jobs_lost) == [0, 2]
        assert result.replacements == 0
        lost = events_of(result, EVT_JOB_LOST)
        assert {e.job_id for e in lost} == {0, 2}
        # The node still rejoins — only its jobs are gone.
        assert result.node_rejoins == 1

    def test_max_queue_epochs_gives_up(self):
        # Fill node 1 completely so drained jobs have nowhere to go,
        # and cap queue patience below the outage length.
        trace = make_trace(5, "canneal", "streamcluster", "vips", "freqmine")
        plans = {0: NodeFaultPlan(crash_epoch=1, crash_rejoin_epochs=3)}
        simulator = simulate(
            trace, plans, recovery=RecoveryConfig(max_queue_epochs=1)
        )
        result = simulator.run()
        assert len(result.jobs_lost) == 2
        assert result.replacements == 0
        assert pool_totals(n.budget for n in simulator.nodes) == simulator.pool


class TestSessionResurrection:
    def test_reassembled_group_resurrects_checkpoint(self):
        # Both jobs packed on node 0 (SATORI -> a policy snapshot is
        # checkpointed after epoch 0). Node 0 crashes at epoch 1; both
        # jobs drain onto the empty capacity-2 node 1, membership
        # reassembles exactly, and node 1 adopts the checkpoint.
        trace = make_trace(4, "canneal", "streamcluster")
        plans = {0: NodeFaultPlan(crash_epoch=1, crash_rejoin_epochs=2)}
        simulator = simulate(
            trace, plans,
            placement=PackPlacement(),
            policy="SATORI",
            recovery=RecoveryConfig(snapshot_cadence_epochs=1),
        )
        result = simulator.run()
        assert result.jobs_lost == ()
        assert result.resurrections == 1
        (event,) = events_of(result, EVT_SESSION_RESURRECTED)
        assert event.node_id == 1
        assert event.epoch == 1
        assert "snapshot_epoch=0" in event.detail

    def test_scattered_group_cold_starts(self):
        # Three jobs packed on node 0 (capacity 3) and a fourth already
        # resident on node 1: after the crash the drained group cannot
        # reassemble (node 1 only has two free slots and a foreign
        # job), so no resurrection happens — the checkpoint-lag
        # contract makes resurrection an optimization, never a
        # requirement.
        trace = make_trace(4, "canneal", "streamcluster", "vips", "freqmine")
        plans = {0: NodeFaultPlan(crash_epoch=1, crash_rejoin_epochs=2)}
        simulator = simulate(
            trace, plans,
            placement=PackPlacement(),
            policy="SATORI",
            node_capacity=3,
            recovery=RecoveryConfig(snapshot_cadence_epochs=1),
        )
        result = simulator.run()
        assert result.resurrections == 0
        # Jobs survive regardless: two re-place onto node 1, the third
        # queues until node 0 rejoins.
        assert result.jobs_lost == ()

    def test_no_snapshot_no_resurrection(self):
        # EqualPartition produces no policy state, so there is nothing
        # to checkpoint and nothing to resurrect.
        trace = make_trace(4, "canneal", "streamcluster")
        plans = {0: NodeFaultPlan(crash_epoch=1, crash_rejoin_epochs=2)}
        result = simulate(trace, plans, placement=PackPlacement()).run()
        assert result.resurrections == 0
        assert result.jobs_lost == ()


class TestStragglerKeepsSnapshotMembership:
    """A straggler-failed node-epoch runs no controller, so the node's
    held snapshot still describes the mix it was learned under. Jobs
    that arrive during that epoch must not pair it with the new mix on
    the next warm start or resurrection: the controller cannot load
    another mix's snapshot, and the engine fails the node-epoch."""

    #: A straggler past the deadline factor in epoch 1 only.
    STRAGGLER = dict(
        straggler_rate=0.99, straggler_slowdown=3.5, start_epoch=1, end_epoch=2
    )

    @staticmethod
    def trace():
        registry = default_registry()
        return ArrivalTrace(n_epochs=4, jobs=(
            JobArrival(0, registry.get("canneal"), 0),
            JobArrival(1, registry.get("streamcluster"), 0),
            JobArrival(2, registry.get("vips"), 1),
        ))

    @staticmethod
    def engine_failures(result):
        return [
            e for e in result.fleet_events
            if e.kind == EVT_NODE_EPOCH_FAILED and e.detail.startswith("engine:")
        ]

    def test_warm_start_after_membership_change_runs_cold(self):
        result = simulate(
            self.trace(), {0: NodeFaultPlan(**self.STRAGGLER)},
            n_nodes=1, node_capacity=3, policy="SATORI", warm_start=True,
        ).run()
        assert self.engine_failures(result) == []
        records = result.node_records(0)
        assert [r.failed for r in records] == [False, True, False, False]
        # Epoch 2 is the first run of the three-job mix: cold. Epoch 3
        # inherits epoch 2's snapshot.
        assert [r.warm_started for r in records] == [False, False, False, True]

    def test_resurrection_after_membership_change_runs_cold(self):
        # The epoch-1 checkpoint holds the two-job state learned at
        # epoch 0; when node 0 crashes at epoch 2 and its three jobs
        # reassemble on node 1, that state must not resurrect there.
        plans = {0: NodeFaultPlan(crash_epoch=2, **self.STRAGGLER)}
        result = simulate(
            self.trace(), plans,
            placement=PackPlacement(), node_capacity=3, policy="SATORI",
        ).run()
        assert self.engine_failures(result) == []
        assert result.resurrections == 0
        assert events_of(result, EVT_SESSION_RESURRECTED) == []
        epoch2 = next(r for r in result.node_records(1) if r.epoch == 2)
        assert epoch2.job_ids == (0, 1, 2)
        assert not epoch2.failed


class TestQuarantine:
    def test_breaker_quarantines_after_consecutive_failures(self):
        # Node 0 straggles past the deadline factor every epoch: each
        # node-epoch fails, and after `failure_threshold` consecutive
        # failures the breaker drains it. The jobs re-place onto
        # node 1 — quarantine loses nothing.
        trace = make_trace(5, "canneal", "streamcluster")
        plans = {
            0: NodeFaultPlan(
                straggler_rate=0.95,
                straggler_epochs=5,
                straggler_slowdown=4.0,
            )
        }
        simulator = simulate(
            trace, plans,
            placement=PackPlacement(),
            recovery=RecoveryConfig(
                failure_threshold=2,
                quarantine_epochs=1,
                straggler_deadline_factor=3.0,
            ),
        )
        result = simulator.run()
        assert result.node_epoch_failures >= 2
        assert result.quarantines == 1
        assert result.jobs_lost == ()
        (event,) = events_of(result, EVT_NODE_QUARANTINED)
        assert event.node_id == 0
        assert "cause=quarantine" in event.detail
        failed = [r for r in result.records if r.failed]
        assert failed and all(r.node_id == 0 for r in failed)
        assert all(r.throughput == 0.0 and r.fairness == 0.0 for r in failed)

    def test_mild_straggler_slows_but_does_not_fail(self):
        # A slowdown under the deadline factor degrades scores instead
        # of failing the epoch — and no quarantine fires.
        trace = make_trace(3, "canneal", "streamcluster")
        plans = {
            0: NodeFaultPlan(
                straggler_rate=0.95,
                straggler_epochs=3,
                straggler_slowdown=2.0,
            )
        }
        clean = simulate(make_trace(3, "canneal", "streamcluster"), {},
                         placement=PackPlacement()).run()
        slowed = simulate(trace, plans, placement=PackPlacement(),
                          recovery=RecoveryConfig(
                              straggler_deadline_factor=3.0)).run()
        assert slowed.quarantines == 0
        assert slowed.node_epoch_failures == 0
        slowed_records = [r for r in slowed.node_records(0) if r.slowdown > 1.0]
        assert slowed_records, "straggler window never fired for this seed"
        for record in slowed_records:
            clean_twin = next(
                r for r in clean.node_records(0) if r.epoch == record.epoch
            )
            assert record.throughput < clean_twin.throughput


class TestCrashDuringMigration:
    def test_migrated_job_survives_destination_crash(self):
        # Epoch 0: both jobs on node 0; its fairness is below the
        # (impossible-to-meet) threshold, so at the epoch-1 boundary
        # the worst-treated job migrates to node 1. Node 1 then crashes
        # at epoch 2 — the freshly migrated job must drain back into
        # the queue and re-place onto node 0, not be lost.
        trace = make_trace(5, "canneal", "streamcluster")
        plans = {1: NodeFaultPlan(crash_epoch=2, crash_rejoin_epochs=2)}
        simulator = simulate(
            trace, plans,
            placement=PackPlacement(),
            migration=MigrationConfig(fairness_threshold=1.0, patience=1),
        )
        result = simulator.run()
        # At least the epoch-1 migration happened (the recovered pair
        # may legitimately trigger another one after the rejoin).
        assert result.migrations >= 1
        assert result.jobs_lost == ()
        assert result.replacements == 1
        # Both jobs are back together on node 0 for the down window.
        epoch2 = next(r for r in result.node_records(0) if r.epoch == 2)
        assert epoch2.job_ids == (0, 1)


class TestChaosFleetPlans:
    def test_defaults_fit_the_trace(self):
        plans = chaos_fleet_plans(4, 12)
        plan = plans[0]
        assert plan.crash_epoch == 4
        assert plan.crash_rejoin_epochs == 3
        plan.validate_horizon(12)

    def test_outage_clamped_to_horizon(self):
        plans = chaos_fleet_plans(2, 6, crash_epoch=5, outage_epochs=10)
        assert plans[0].crash_rejoin_epochs == 1

    def test_straggler_node(self):
        plans = chaos_fleet_plans(3, 9, straggler_node=2, straggler_slowdown=3.0)
        assert plans[2].straggler_slowdown == 3.0
        assert plans[2].crash_epoch is None

    @pytest.mark.parametrize("kwargs,match", [
        (dict(crash_node=5), "crash_node"),
        (dict(crash_epoch=9), "crash_epoch"),
        (dict(straggler_node=9), "straggler_node"),
        (dict(straggler_node=0), "must differ"),
    ])
    def test_validation(self, kwargs, match):
        with pytest.raises(ClusterError, match=match):
            chaos_fleet_plans(2, 8, **kwargs)


class TestAdjustedFairness:
    def make_result(self, records, events=()):
        return ClusterResult(
            n_nodes=1, policy="EqualPartition", placement="pack",
            n_epochs=3, records=tuple(records), fleet_events=tuple(events),
        )

    def record(self, epoch, speedups):
        return NodeEpochRecord(
            epoch=epoch, node_id=0, job_ids=tuple(speedups),
            synthesized=False, throughput=1.0, fairness=1.0,
            job_speedups=dict(speedups),
        )

    def test_lost_job_counts_zero_through_residency(self):
        registry = default_registry()
        trace = ArrivalTrace(n_epochs=3, jobs=(
            JobArrival(0, registry.get("canneal"), 0),
            JobArrival(7, registry.get("vips"), 0, departure_epoch=2),
        ))
        result = self.make_result(
            records=[
                self.record(0, {0: 0.8, 7: 0.8}),
                self.record(1, {0: 0.8}),
                self.record(2, {0: 0.8}),
            ],
            events=[FleetEvent(1, EVT_JOB_LOST, 0, job_id=7)],
        )
        fairness = adjusted_epoch_fairness(result, trace)
        # Epoch 0: both at 0.8 -> perfectly fair. Epoch 1: job 7 lost
        # but still resident -> counts 0.0 and drags fairness to 0.5.
        # Epoch 2: job 7's residency ended -> no longer penalized.
        assert fairness[0] == pytest.approx(1.0)
        assert fairness[1] == pytest.approx(0.5)
        assert fairness[2] == pytest.approx(1.0)

    def test_without_losses_matches_raw_epoch_fairness(self):
        result = self.make_result(
            records=[self.record(0, {0: 1.0, 1: 0.5})]
        )
        trace = make_trace(3, "canneal", "streamcluster")
        assert adjusted_epoch_fairness(result, trace)[0] == pytest.approx(
            result.epoch_fairness()[0]
        )


class TestRecoveryIntervals:
    FAIRNESS = {0: 0.95, 1: 0.94, 2: 0.40, 3: 0.70, 4: 0.93, 5: 0.95}

    def test_counts_epochs_to_recovery(self):
        out = recovery_intervals(self.FAIRNESS, (2,))
        # Baseline = mean(0.95, 0.94) = 0.945; 95% of that ~ 0.898;
        # first epoch at/above it after the disruption is 4.
        assert out == {2: 2}

    def test_never_recovered_is_none(self):
        fairness = dict(self.FAIRNESS)
        fairness[4] = fairness[5] = 0.5
        assert recovery_intervals(fairness, (2,)) == {2: None}

    def test_disruption_at_zero_uses_unit_baseline(self):
        assert recovery_intervals({0: 0.99, 1: 0.99}, (0,)) == {0: 0}

    def test_no_disruptions_empty(self):
        assert recovery_intervals(self.FAIRNESS, ()) == {}


class TestChaosSweep:
    @pytest.fixture(scope="class")
    def report(self):
        trace = make_trace(6, "canneal", "streamcluster", "vips")
        plans = chaos_fleet_plans(2, 6, crash_node=0, crash_epoch=1,
                                  outage_epochs=2)
        return chaos_sweep(
            trace, n_nodes=2, fleet_plans=plans,
            placement="least_loaded", policy="EqualPartition",
            catalog=experiment_catalog(4), epoch_config=TINY, seed=1,
        )

    def test_recovery_arm_loses_nothing(self, report):
        assert report.recovery.jobs_lost == 0
        assert report.recovery.pool_conserved
        assert report.recovery.result.replacements > 0

    def test_ablation_is_strictly_worse(self, report):
        # The acceptance criterion: identical weather, and the
        # recovery-disabled arm loses jobs and ends less fair under
        # the disruption-adjusted metric.
        assert report.ablation.jobs_lost > 0
        assert report.ablation.pool_conserved  # parked, not leaked
        assert report.recovery.fairness > report.ablation.fairness

    def test_disruption_epochs_reported(self, report):
        assert report.disruption_epochs == (1,)
        assert 1 in report.recovery.recovery_intervals

    def test_report_round_trips_through_json(self, report):
        data = json.loads(json.dumps(report.to_dict()))
        assert set(data["arms"]) == {"recovery", "no_recovery"}
        assert data["arms"]["recovery"]["jobs_lost"] == 0
        assert data["arms"]["no_recovery"]["jobs_lost"] > 0
        assert "chaos sweep" in report.summary()

    def test_needs_at_least_one_plan(self):
        with pytest.raises(ClusterError, match="at least one"):
            chaos_sweep(make_trace(3, "canneal"), n_nodes=1, fleet_plans={})
