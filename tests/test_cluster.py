"""Tests for the multi-node cluster layer (arrivals, placement, nodes,
the cluster simulator, and the sweep driver)."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.cluster import (
    ClusterSimulator,
    LeastLoadedPlacement,
    MigrationConfig,
    NodeView,
    RecoveryConfig,
    RoundRobinPlacement,
    ServerNode,
    instance_name,
    make_placement,
    node_capacity,
    placement_names,
)
from repro.cluster.placement import ContentionAwarePlacement
from repro.engine import ExecutionEngine
from repro.engine.spec import derive_seed
from repro.errors import ClusterError
from repro.experiments.cluster import (
    cluster_sweep,
    default_trace,
    node_fault_plans,
)
from repro.experiments.runner import RunConfig, experiment_catalog
from repro.faults import NodeFaultPlan
from repro.obs import TraceCollector, use_collector
from repro.qos import SLOSpec
from repro.workloads.arrivals import (
    KIND_BATCH,
    KIND_QOS,
    ArrivalTrace,
    JobArrival,
    diurnal_trace,
    flash_crowd_trace,
    poisson_trace,
    workload_from_dict,
    workload_to_dict,
)
from repro.workloads.registry import default_registry
from tests.platform_fingerprint import numeric_platform

#: Tiny methodology for fast simulator tests.
TINY = RunConfig(duration_s=1.0, baseline_reset_s=0.5)


def tiny_trace(n_epochs=2, seed=7, initial_jobs=4, rate=1.5):
    return poisson_trace(
        n_epochs=n_epochs,
        arrival_rate=rate,
        mean_residency=2.0,
        suites=("ecp",),
        seed=seed,
        initial_jobs=initial_jobs,
    )


class TestWorkloadSerialization:
    def test_round_trip(self, registry):
        workload = registry.get("canneal")
        data = json.loads(json.dumps(workload_to_dict(workload)))
        assert workload_from_dict(data) == workload


class TestJobArrival:
    def test_residency_interval_is_half_open(self, registry):
        job = JobArrival(0, registry.get("canneal"), arrival_epoch=2, departure_epoch=4)
        assert not job.resident_at(1)
        assert job.resident_at(2) and job.resident_at(3)
        assert not job.resident_at(4)

    def test_open_departure_means_forever(self, registry):
        job = JobArrival(0, registry.get("canneal"), arrival_epoch=0)
        assert job.resident_at(10**6)

    def test_validation(self, registry):
        workload = registry.get("canneal")
        with pytest.raises(ClusterError):
            JobArrival(-1, workload, 0)
        with pytest.raises(ClusterError):
            JobArrival(0, workload, arrival_epoch=3, departure_epoch=3)


class TestArrivalTrace:
    def test_events_are_consistent(self):
        trace = tiny_trace(n_epochs=6, rate=2.0)
        for epoch in range(trace.n_epochs):
            active = {job.job_id for job in trace.active_at(epoch)}
            for job in trace.arrivals_at(epoch):
                assert job.job_id in active
            for job in trace.departures_at(epoch):
                assert job.job_id not in active

    def test_deterministic_from_seed(self):
        assert tiny_trace(seed=3).to_dict() == tiny_trace(seed=3).to_dict()
        assert tiny_trace(seed=3).to_dict() != tiny_trace(seed=4).to_dict()

    def test_round_trip(self):
        trace = tiny_trace(n_epochs=4, rate=1.5)
        data = json.loads(json.dumps(trace.to_dict()))
        assert ArrivalTrace.from_dict(data) == trace

    def test_max_jobs_is_respected(self):
        trace = poisson_trace(
            n_epochs=8, arrival_rate=5.0, mean_residency=8.0, max_jobs=3, seed=0
        )
        assert trace.peak_jobs <= 3

    def test_duplicate_ids_rejected(self, registry):
        workload = registry.get("canneal")
        jobs = (JobArrival(0, workload, 0), JobArrival(0, workload, 1))
        with pytest.raises(ClusterError, match="duplicate job ids"):
            ArrivalTrace(n_epochs=3, jobs=jobs)

    def test_arrival_beyond_trace_rejected(self, registry):
        job = JobArrival(0, registry.get("canneal"), arrival_epoch=5)
        with pytest.raises(ClusterError, match="beyond the trace"):
            ArrivalTrace(n_epochs=3, jobs=(job,))


class TestNonStationaryTraces:
    """Diurnal and flash-crowd generators: deterministic, serializable,
    and actually concentrating load where they claim to."""

    def arrivals_per_epoch(self, trace):
        counts = [0] * trace.n_epochs
        for job in trace.jobs:
            if job.arrival_epoch < trace.n_epochs:
                counts[job.arrival_epoch] += 1
        return counts

    def test_diurnal_deterministic_and_round_trips(self):
        kwargs = dict(n_epochs=8, base_rate=0.2, peak_rate=2.0,
                      period_epochs=8, suites=("ecp",), seed=11)
        first, second = diurnal_trace(**kwargs), diurnal_trace(**kwargs)
        assert first == second
        data = json.loads(json.dumps(first.to_dict()))
        assert ArrivalTrace.from_dict(data) == first

    def test_diurnal_peaks_mid_period(self):
        # Average arrivals over many seeds: mid-period epochs (rate near
        # the peak) must outdraw the troughs at the period's edges.
        edge = peak = 0
        for seed in range(25):
            counts = self.arrivals_per_epoch(
                diurnal_trace(n_epochs=8, base_rate=0.1, peak_rate=4.0,
                              period_epochs=8, suites=("ecp",), seed=seed)
            )
            edge += counts[0] + counts[7]
            peak += counts[3] + counts[4]
        assert peak > edge

    def test_flash_crowd_concentrates_in_burst_window(self):
        burst = quiet = 0
        for seed in range(25):
            counts = self.arrivals_per_epoch(
                flash_crowd_trace(n_epochs=6, base_rate=0.1, burst_rate=5.0,
                                  burst_epoch=2, burst_duration=2,
                                  suites=("ecp",), seed=seed)
            )
            burst += counts[2] + counts[3]
            quiet += counts[0] + counts[1] + counts[4] + counts[5]
        assert burst > quiet

    def test_flash_crowd_deterministic_and_round_trips(self):
        kwargs = dict(n_epochs=6, burst_epoch=1, suites=("ecp",), seed=4)
        assert flash_crowd_trace(**kwargs) == flash_crowd_trace(**kwargs)
        data = json.loads(json.dumps(flash_crowd_trace(**kwargs).to_dict()))
        assert ArrivalTrace.from_dict(data) == flash_crowd_trace(**kwargs)

    def test_constant_rates_reduce_to_poisson_trace(self):
        # A flat diurnal cycle and a burst equal to the base rate are
        # both the stationary trace — pinning _rate_trace's draw-order
        # compatibility with poisson_trace.
        kwargs = dict(n_epochs=5, mean_residency=2.0, suites=("ecp",),
                      seed=9, initial_jobs=2)
        flat = poisson_trace(arrival_rate=1.5, **kwargs)
        assert diurnal_trace(base_rate=1.5, peak_rate=1.5, **kwargs) == flat
        assert flash_crowd_trace(base_rate=1.5, burst_rate=1.5, **kwargs) == flat

    def test_parameter_validation(self):
        with pytest.raises(ClusterError, match="peak_rate"):
            diurnal_trace(n_epochs=4, base_rate=2.0, peak_rate=1.0)
        with pytest.raises(ClusterError, match="period_epochs"):
            diurnal_trace(n_epochs=4, period_epochs=1)
        with pytest.raises(ClusterError, match="burst_duration"):
            flash_crowd_trace(n_epochs=4, burst_duration=0)
        with pytest.raises(ClusterError, match="burst_epoch"):
            flash_crowd_trace(n_epochs=4, burst_epoch=-1)


def view(node_id, n_jobs, capacity=4, mean_speedup=1.0, fairness=1.0):
    return NodeView(node_id, n_jobs, capacity, mean_speedup, fairness)


class TestPlacementPolicies:
    def test_registry(self):
        assert set(placement_names()) == {
            "round_robin",
            "least_loaded",
            "contention_aware",
            "slo_aware",
        }
        with pytest.raises(ClusterError, match="unknown placement"):
            make_placement("nope")

    def test_round_robin_cycles_and_skips_full(self):
        policy = RoundRobinPlacement()
        nodes = [view(0, 0), view(1, 4), view(2, 0)]  # node 1 full
        assert [policy.place(nodes) for _ in range(4)] == [0, 2, 0, 2]

    def test_least_loaded_prefers_emptiest(self):
        policy = LeastLoadedPlacement()
        assert policy.place([view(0, 3), view(1, 1), view(2, 2)]) == 1

    def test_contention_aware_prefers_uncontended(self):
        policy = ContentionAwarePlacement()
        nodes = [view(0, 1, mean_speedup=0.6), view(1, 2, mean_speedup=0.9)]
        assert policy.place(nodes) == 1

    def test_contention_aware_tie_breaks_by_load(self):
        policy = ContentionAwarePlacement()
        nodes = [view(0, 3, mean_speedup=0.8), view(1, 1, mean_speedup=0.8)]
        assert policy.place(nodes) == 1

    def test_full_cluster_raises(self):
        for name in placement_names():
            with pytest.raises(ClusterError, match="no free capacity"):
                make_placement(name).place([view(0, 4), view(1, 4)])


class TestServerNode:
    def test_capacity_from_catalog(self, catalog4):
        node = ServerNode(0, catalog4)
        assert node.capacity == node_capacity(catalog4) >= 2

    def test_add_remove_and_instance_names(self, catalog4, registry):
        node = ServerNode(0, catalog4, capacity=3)
        node.add_job(JobArrival(7, registry.get("canneal"), 0))
        assert node.has_job(7)
        assert node.workload_of(7).name == instance_name("canneal", 7) == "canneal#7"
        node.remove_job(7)
        assert not node.has_job(7)
        with pytest.raises(ClusterError):
            node.remove_job(7)

    def test_duplicate_copies_of_a_benchmark_coexist(self, catalog4, registry):
        node = ServerNode(0, catalog4, capacity=3)
        node.add_job(JobArrival(0, registry.get("canneal"), 0))
        node.add_job(JobArrival(1, registry.get("canneal"), 0))
        mix = node.mix()
        assert mix.names == ("canneal#0", "canneal#1")

    def test_full_node_rejects(self, catalog4, registry):
        node = ServerNode(0, catalog4, capacity=1)
        node.add_job(JobArrival(0, registry.get("canneal"), 0))
        with pytest.raises(ClusterError, match="full"):
            node.add_job(JobArrival(1, registry.get("vips"), 0))

    def test_mix_needs_two_jobs(self, catalog4, registry):
        node = ServerNode(0, catalog4)
        with pytest.raises(ClusterError, match=">= 2"):
            node.mix()

    def test_capacity_cannot_exceed_catalog(self, catalog4):
        with pytest.raises(ClusterError, match="exceeds"):
            ServerNode(0, catalog4, capacity=node_capacity(catalog4) + 1)

    def test_epoch_spec_carries_environment(self, catalog4, registry):
        node = ServerNode(0, catalog4, capacity=3)
        node.add_job(JobArrival(0, registry.get("canneal"), 0))
        node.add_job(JobArrival(1, registry.get("vips"), 0))
        spec = node.epoch_spec("EqualPartition", TINY, seed=42)
        assert spec.seed == 42
        assert spec.mix.names == ("canneal#0", "vips#1")
        assert spec.catalog == catalog4


class TestClusterSimulator:
    def run_tiny(self, **kwargs):
        defaults = dict(
            trace=tiny_trace(),
            n_nodes=2,
            placement="round_robin",
            policy="EqualPartition",
            catalog=experiment_catalog(4),
            epoch_config=TINY,
            seed=1,
        )
        defaults.update(kwargs)
        return ClusterSimulator(**defaults).run()

    def test_covers_every_node_and_epoch(self):
        result = self.run_tiny()
        coords = {(r.epoch, r.node_id) for r in result.records}
        assert coords == {(e, n) for e in range(2) for n in range(2)}

    def test_synthesized_epochs_score_isolation(self):
        # A 1-node cluster with a single resident job: nothing to
        # partition, so every epoch is synthesized at speedup 1.0.
        registry = default_registry()
        trace = ArrivalTrace(
            n_epochs=2, jobs=(JobArrival(0, registry.get("canneal"), 0),)
        )
        result = self.run_tiny(trace=trace, n_nodes=1)
        assert all(r.synthesized for r in result.records)
        assert result.job_mean_speedups() == {0: 1.0}
        assert result.fairness == 1.0

    def test_deterministic(self):
        first = self.run_tiny()
        second = self.run_tiny()
        assert first.job_mean_speedups() == second.job_mean_speedups()
        assert first.records == second.records

    def test_step_epoch_loop_matches_run(self):
        """The control-flow inversion's acceptance test: ``run()`` is a
        thin loop over ``step_epoch()``, so driving the epochs manually
        must reproduce the monolithic result bit-identically."""
        monolithic = self.run_tiny()

        sim = ClusterSimulator(
            trace=tiny_trace(),
            n_nodes=2,
            placement="round_robin",
            policy="EqualPartition",
            catalog=experiment_catalog(4),
            epoch_config=TINY,
            seed=1,
        )
        records = []
        while not sim.finished:
            assert sim.epoch == len(records) // 2  # two nodes per epoch
            records.extend(sim.step_epoch())
        stepped = sim.result()

        assert tuple(records) == stepped.records
        assert stepped.records == monolithic.records
        assert stepped == monolithic

    def test_run_resumes_after_manual_steps(self):
        """Mixed driving — step one epoch by hand, then ``run()`` the
        rest — still lands on the monolithic result."""
        monolithic = self.run_tiny()
        sim = ClusterSimulator(
            trace=tiny_trace(),
            n_nodes=2,
            placement="round_robin",
            policy="EqualPartition",
            catalog=experiment_catalog(4),
            epoch_config=TINY,
            seed=1,
        )
        sim.step_epoch()
        assert sim.run() == monolithic

    def test_node_epoch_seeds_are_placement_independent(self):
        # The seed is a function of (cluster seed, node, epoch) only —
        # the pairing guarantee across placement cells.
        assert derive_seed(1, "node", 0, "epoch", 2) == derive_seed(1, "node", 0, "epoch", 2)
        assert derive_seed(1, "node", 0, "epoch", 2) != derive_seed(1, "node", 1, "epoch", 2)

    def test_identical_placements_give_identical_results(self):
        by_rr = self.run_tiny(placement="round_robin")
        by_ll = self.run_tiny(placement="least_loaded")
        # With a fresh 2-node fleet and alternating arrivals these two
        # policies route identically, so paired seeding must make the
        # results bit-identical.
        if {r.job_ids for r in by_rr.records} == {r.job_ids for r in by_ll.records}:
            assert by_rr.job_mean_speedups() == by_ll.job_mean_speedups()

    def test_rejection_when_cluster_full(self):
        registry = default_registry()
        jobs = tuple(
            JobArrival(i, registry.get(name), 0)
            for i, name in enumerate(["canneal", "vips", "streamcluster"])
        )
        result = self.run_tiny(
            trace=ArrivalTrace(n_epochs=1, jobs=jobs), n_nodes=1, node_capacity=2
        )
        assert len(result.rejected_jobs) == 1

    def test_migration_moves_job_off_unfair_node(self):
        registry = default_registry()
        # Both initial jobs land on node 0 (arrival order + round robin
        # alternates, so pin them by capacity: node 0 takes 2, node 1
        # idle at first epoch); with threshold 1.0 and patience 1 any
        # simulated fairness < 1.0 triggers a migration at epoch 1.
        jobs = (
            JobArrival(0, registry.get("canneal"), 0, departure_epoch=None),
            JobArrival(1, registry.get("vips"), 0, departure_epoch=None),
            JobArrival(2, registry.get("streamcluster"), 0, departure_epoch=None),
        )
        trace = ArrivalTrace(n_epochs=3, jobs=jobs)
        result = self.run_tiny(
            trace=trace,
            n_nodes=2,
            migration=MigrationConfig(fairness_threshold=1.0, patience=1),
        )
        assert result.migrations >= 1

    def test_fault_plan_node_ids_validated(self):
        plans = node_fault_plans(4, intensity=0.5, epoch_duration_s=1.0)
        assert set(plans) == {0, 2}
        with pytest.raises(ClusterError, match="unknown node ids"):
            ClusterSimulator(
                tiny_trace(), n_nodes=2, node_fault_plans={5: plans[0]}
            )

    def test_bad_configs_rejected(self):
        with pytest.raises(ClusterError, match="at least one node"):
            ClusterSimulator(tiny_trace(), n_nodes=0)
        with pytest.raises(ClusterError):
            MigrationConfig(fairness_threshold=0.0)
        with pytest.raises(ClusterError):
            MigrationConfig(patience=0)


class TestPoolMatchesSerial:
    """A cluster on a worker pool replays bit-identically to one on a
    serial engine with every fleet feature on at once."""

    @staticmethod
    def replay(workers):
        registry = default_registry()
        names = ["canneal", "streamcluster", "vips", "freqmine",
                 "fluidanimate", "blackscholes"]
        # Three full capacity-2 nodes. Node 2's crash queues its pair
        # until it rejoins with its parked budget, where the pair
        # reassembles and resurrects the epoch-0 checkpoint; job 5's
        # departure opens the slot a migration needs.
        trace = ArrivalTrace(n_epochs=5, jobs=tuple(
            JobArrival(job_id, registry.get(name), 0,
                       departure_epoch=3 if job_id == 5 else None,
                       kind=KIND_QOS if job_id in (0, 2) else KIND_BATCH)
            for job_id, name in enumerate(names)
        ))
        plans = {
            0: NodeFaultPlan(straggler_rate=0.95, straggler_slowdown=3.5,
                             start_epoch=3, end_epoch=4),
            1: NodeFaultPlan(flaky_rate=0.5, flaky_intensity=0.5),
            2: NodeFaultPlan(crash_epoch=1, crash_rejoin_epochs=1),
        }
        collector = TraceCollector()
        with ExecutionEngine(workers=workers) as engine, use_collector(collector):
            result = ClusterSimulator(
                trace, n_nodes=3, placement="least_loaded", policy="BoPF",
                catalog=experiment_catalog(), epoch_config=TINY, seed=1,
                node_capacity=2, fleet_plans=plans,
                recovery=RecoveryConfig(snapshot_cadence_epochs=1),
                migration=MigrationConfig(fairness_threshold=0.9, patience=1),
                broker="trade", warm_start=True,
                qos_slo=SLOSpec(min_speedup=0.55, window=2, attain_target=0.75),
                engine=engine,
            ).run()
        return result, collector.metrics.counters()

    def test_every_fleet_feature(self):
        serial, counters = self.replay(workers=1)
        pooled, _ = self.replay(workers=2)
        assert dataclasses.asdict(pooled) == dataclasses.asdict(serial)
        assert counters.get("cluster.warm_starts", 0) > 0
        assert serial.budget_transfers > 0
        assert serial.node_epoch_failures > 0
        assert serial.resurrections > 0
        assert serial.migrations > 0
        assert serial.slo is not None and serial.jobs_lost == ()


def result_sha(result) -> str:
    """sha256 of a ``ClusterResult``'s canonical JSON (sorted keys)."""
    data = json.dumps(dataclasses.asdict(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(data.encode()).hexdigest()


class TestPinnedResults:
    """Two small fleets pinned to their canonical result bytes. Every
    node-epoch's noise streams, decisions and scores feed these hashes,
    so any change to the interval, the record book or the pool path
    that moves a bit shows here."""

    def test_serial_satori_fleet(self):
        # 70-interval node-epochs slide the 64-sample record window.
        trace = poisson_trace(
            n_epochs=3, arrival_rate=1.5, mean_residency=2.0, suites=("parsec",),
            seed=5, initial_jobs=7,
        )
        with ExecutionEngine() as engine:
            result = ClusterSimulator(
                trace, n_nodes=3, placement="least_loaded", policy="SATORI",
                catalog=experiment_catalog(), epoch_config=RunConfig(duration_s=7.0),
                seed=1, node_capacity=4, engine=engine,
            ).run()
        assert result_sha(result) == (
            "619935c89739560c25a9152d1ffaa21d338f099172672a0513df78d0d8ee5b68"
        ), numeric_platform()

    def test_pooled_bopf_fleet_with_every_feature(self):
        """The fleet-chaos feature set on a 2-worker pool: crash with
        rejoin, straggler, flaky telemetry, recovery, warm start,
        migration, the trade broker and a qos SLO."""
        trace = poisson_trace(
            n_epochs=4, arrival_rate=1.0, mean_residency=4.0, suites=("parsec",),
            seed=12, initial_jobs=8, qos_fraction=0.3,
        )
        plans = {
            0: NodeFaultPlan(crash_epoch=1, crash_rejoin_epochs=2),
            1: NodeFaultPlan(straggler_rate=0.3, straggler_slowdown=3.5),
            2: NodeFaultPlan(flaky_rate=0.3, flaky_intensity=0.5),
        }
        with ExecutionEngine(workers=2) as engine:
            result = ClusterSimulator(
                trace, n_nodes=3, placement="slo_aware", policy="BoPF",
                catalog=experiment_catalog(), epoch_config=RunConfig(duration_s=2.0),
                seed=1, node_capacity=4, fleet_plans=plans,
                recovery=RecoveryConfig(snapshot_cadence_epochs=1),
                migration=MigrationConfig(), broker="trade", warm_start=True,
                qos_slo=SLOSpec(min_speedup=0.55, window=2, attain_target=0.75),
                engine=engine,
            ).run()
        assert result_sha(result) == (
            "0aa1b1dd2f336483e86e6efa5e06110cdfc8557bda141947a5b052f26287c2ad"
        ), numeric_platform()
        assert any(record.warm_started for record in result.records)
        assert result.migrations and result.budget_transfers
        assert result.node_epoch_failures and result.node_rejoins
        assert result.slo is not None


class TestClusterSweep:
    def test_cells_and_lookup(self):
        trace = tiny_trace()
        engine = ExecutionEngine()
        sweep = cluster_sweep(
            trace,
            n_nodes=2,
            placements=("round_robin", "least_loaded"),
            policies=("EqualPartition",),
            catalog=experiment_catalog(4),
            epoch_config=TINY,
            seed=1,
            engine=engine,
        )
        assert sweep.placements() == ("round_robin", "least_loaded")
        assert sweep.policies() == ("EqualPartition",)
        cell = sweep.cell("round_robin", "EqualPartition")
        assert np.isfinite(cell.result.mean_speedup)
        assert 0.0 < cell.result.fairness <= 1.0
        with pytest.raises(ClusterError, match="no cell"):
            sweep.cell("round_robin", "SATORI")
        # Node-epoch runs flowed through the shared engine.
        assert engine.stats.submitted > 0

    def test_empty_axes_rejected(self):
        with pytest.raises(ClusterError):
            cluster_sweep(tiny_trace(), n_nodes=2, placements=())
        with pytest.raises(ClusterError):
            cluster_sweep(tiny_trace(), n_nodes=2, policies=())

    def test_default_trace_admission_controlled(self):
        catalog = experiment_catalog(4)
        trace = default_trace(
            n_epochs=3, n_nodes=2, arrival_rate=10.0, catalog=catalog, suite="ecp"
        )
        capacity = node_capacity(catalog)
        assert trace.peak_jobs <= 2 * capacity
        assert len(trace.active_at(0)) >= 2  # warm start

    @pytest.mark.slow
    def test_satori_vs_static_under_faults(self):
        # The acceptance-criteria configuration at reduced scale:
        # satori vs static, two placements, paired node fault plans.
        trace = default_trace(
            n_epochs=2, n_nodes=2, arrival_rate=1.0, seed=5,
            catalog=experiment_catalog(4), suite="ecp",
        )
        sweep = cluster_sweep(
            trace,
            n_nodes=2,
            placements=("round_robin", "least_loaded"),
            policies=("SATORI", "EqualPartition"),
            catalog=experiment_catalog(4),
            epoch_config=RunConfig(duration_s=2.0),
            seed=5,
            fault_intensity=0.5,
        )
        assert len(sweep.cells) == 4
        for cell in sweep.cells:
            assert np.isfinite(cell.result.mean_speedup)
            assert np.isfinite(cell.result.fairness)
