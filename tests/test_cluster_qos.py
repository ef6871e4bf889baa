"""Cluster-level SLO tests: placement, enforcement, and the qos sweep.

Three seams of the SLO-aware-scheduling feature:

* ``SLOAwarePlacement`` and the ``NodeView.qos_jobs`` signal it keys
  off — including the regression that the views the simulator hands
  every placement call track the *actual* qos population through
  migrations and post-crash re-placement;
* the simulator's SLO enforcement path (``qos_slo``): attainment in
  ``ClusterResult.slo`` and per-record ``slo_attained``, outage
  scoring for crashed nodes, and the qos_fraction=0 bit-identity
  guarantee;
* the ``qos_sweep`` experiment's report shape at toy scale.
"""

import json

import pytest

from repro.cluster import ClusterSimulator, MigrationConfig, NodeView, RecoveryConfig
from repro.cluster.placement import SLOAwarePlacement, make_placement
from repro.errors import ExperimentError
from repro.experiments.qos import qos_sweep, qos_trace
from repro.experiments.runner import RunConfig, experiment_catalog
from repro.faults import NodeFaultPlan
from repro.qos import SLOSpec
from repro.workloads.arrivals import ArrivalTrace, JobArrival, poisson_trace
from repro.workloads.registry import default_registry

#: Tiny methodology for fast simulator tests.
TINY = RunConfig(duration_s=1.0, baseline_reset_s=0.5)

#: A permissive SLO most healthy epochs meet — the tests below care
#: about the plumbing, not the attainment level itself.
EASY_SLO = SLOSpec(min_speedup=0.2, window=2, attain_target=0.5)


def qview(node_id, n_jobs, qos_jobs=0, capacity=4, mean_speedup=1.0):
    return NodeView(
        node_id, n_jobs, capacity, mean_speedup, 1.0, qos_jobs=qos_jobs
    )


def typed_jobs(*kinds):
    """Open-ended arrivals at epoch 0, one per kind label."""
    registry = default_registry()
    names = ("canneal", "streamcluster", "vips", "fluidanimate")
    return tuple(
        JobArrival(job_id, registry.get(names[job_id % len(names)]),
                   arrival_epoch=0, kind=kind)
        for job_id, kind in enumerate(kinds)
    )


def install_view_audit(simulator, trace):
    """Assert, at every ``_views`` call, that each view's ``qos_jobs``
    matches the node's actual qos population per the trace's kinds."""
    kind_by_id = {arrival.job_id: arrival.kind for arrival in trace.jobs}
    original = simulator._views
    calls = []

    def audited(exclude=None):
        views = original(exclude)
        for view, node in zip(views, simulator.nodes):
            actual = sum(
                1 for job_id in node.job_ids if kind_by_id[job_id] == "qos"
            )
            assert view.qos_jobs == actual, (
                f"view for node {node.node_id} reports {view.qos_jobs} qos "
                f"jobs; the node actually hosts {actual}"
            )
        calls.append(exclude)
        return views

    simulator._views = audited
    return calls


class TestSLOAwarePlacement:
    def test_spreads_qos_jobs_first(self):
        policy = SLOAwarePlacement()
        nodes = [qview(0, 1, qos_jobs=1), qview(1, 2, qos_jobs=0)]
        # Node 1 is busier but hosts no qos job: the spread criterion
        # dominates raw occupancy.
        assert policy.place(nodes) == 1

    def test_predicted_occupancy_breaks_qos_ties(self):
        policy = SLOAwarePlacement()
        nodes = [qview(0, 3, qos_jobs=1), qview(1, 1, qos_jobs=1)]
        assert policy.place(nodes) == 1

    def test_contention_breaks_occupancy_ties(self):
        policy = SLOAwarePlacement()
        nodes = [
            qview(0, 1, mean_speedup=0.6),
            qview(1, 1, mean_speedup=0.9),
        ]
        assert policy.place(nodes) == 1

    def test_elastic_capacity_changes_prediction(self):
        # Same job count, but node 0's budget shrank to capacity 2:
        # placing there would fill it (predicted 1.0 vs 0.5).
        policy = SLOAwarePlacement()
        nodes = [qview(0, 1, capacity=2), qview(1, 1, capacity=4)]
        assert policy.place(nodes) == 1

    def test_registry_constructs_it(self):
        assert isinstance(make_placement("slo_aware"), SLOAwarePlacement)


class TestViewsTrackQosPopulation:
    """Satellite regression: ``NodeView.qos_jobs`` must equal the actual
    qos population at every placement decision — after migrations and
    after recovery re-placement, not only at first arrival."""

    def test_after_migration(self):
        # Three open jobs on two nodes; an always-on migration trigger
        # (threshold 1.0, patience 1) moves one within two epochs. The
        # audit runs at every _views call, including the migration's
        # exclude-source call and every subsequent placement.
        trace = ArrivalTrace(
            n_epochs=3, jobs=typed_jobs("qos", "batch", "qos")
        )
        simulator = ClusterSimulator(
            trace,
            n_nodes=2,
            placement="slo_aware",
            policy="EqualPartition",
            catalog=experiment_catalog(4),
            epoch_config=TINY,
            seed=1,
            migration=MigrationConfig(fairness_threshold=1.0, patience=1),
            qos_slo=EASY_SLO,
        )
        calls = install_view_audit(simulator, trace)
        result = simulator.run()
        assert result.migrations >= 1
        # The migration path presents the source node as full.
        assert any(exclude is not None for exclude in calls)

    def test_after_crash_recovery_replacement(self):
        # Node 0 crashes with a qos job aboard; recovery drains it and
        # re-places via the placement policy. The re-placed arrival
        # must carry its qos kind, and every view must reflect it.
        trace = ArrivalTrace(
            n_epochs=5, jobs=typed_jobs("qos", "batch", "qos")
        )
        simulator = ClusterSimulator(
            trace,
            n_nodes=2,
            placement="slo_aware",
            policy="EqualPartition",
            catalog=experiment_catalog(4),
            epoch_config=TINY,
            seed=1,
            node_capacity=2,
            fleet_plans={0: NodeFaultPlan(crash_epoch=1, crash_rejoin_epochs=2)},
            recovery=RecoveryConfig(),
            qos_slo=EASY_SLO,
        )
        calls = install_view_audit(simulator, trace)
        result = simulator.run()
        assert result.node_downs == 1
        assert result.replacements >= 1
        assert result.jobs_lost == ()
        assert len(calls) > 0


class TestSimulatorSLO:
    def run_qos(self, trace=None, **kwargs):
        defaults = dict(
            n_nodes=2,
            placement="slo_aware",
            policy="EqualPartition",
            catalog=experiment_catalog(4),
            epoch_config=TINY,
            seed=1,
            qos_slo=EASY_SLO,
        )
        defaults.update(kwargs)
        if trace is None:
            trace = ArrivalTrace(
                n_epochs=3, jobs=typed_jobs("qos", "batch", "batch", "qos")
            )
        return ClusterSimulator(trace, **defaults).run()

    def test_result_carries_slo_summary(self):
        result = self.run_qos()
        assert result.slo is not None
        assert result.slo.qos_jobs == 2
        assert 0.0 <= result.slo.attainment <= 1.0
        assert result.qos_attainment() == result.slo.attainment
        assert result.qos_miss_rate() == result.slo.miss_rate

    def test_records_carry_kinds_and_attainment(self):
        result = self.run_qos()
        for record in result.records:
            assert len(record.job_kinds) == len(record.job_ids)
            scored = {job_id for job_id, _ in record.slo_attained}
            expected = {
                job_id
                for job_id, kind in zip(record.job_ids, record.job_kinds)
                if kind == "qos"
            }
            assert scored == expected

    def test_no_slo_means_no_summary(self):
        result = self.run_qos(qos_slo=None)
        assert result.slo is None
        assert result.qos_attainment() != result.qos_attainment()  # NaN

    def test_failed_epoch_scores_qos_jobs_zero(self):
        # A permanent straggler past the recovery deadline: every epoch
        # on the node fails with the jobs still aboard (a crash would
        # drain them into the queue instead), so the outage path must
        # score each resident qos job 0.0 for those epochs.
        trace = ArrivalTrace(n_epochs=3, jobs=typed_jobs("qos", "batch"))
        result = self.run_qos(
            trace=trace,
            n_nodes=1,
            fleet_plans={
                0: NodeFaultPlan(straggler_rate=0.99, straggler_slowdown=10.0)
            },
            recovery=RecoveryConfig(
                straggler_deadline_factor=3.0, failure_threshold=10
            ),
        )
        assert result.node_epoch_failures >= 1
        outage_scores = [
            value
            for record in result.records
            if record.failed
            for _, value in record.slo_attained
        ]
        assert outage_scores and all(value == 0.0 for value in outage_scores)
        assert result.slo.attainment < 1.0
        assert result.slo.misses  # the outage produced miss events

    def test_qos_fraction_zero_is_bit_identical(self):
        # The flag-threading guarantee: qos_fraction=0 must not change
        # a single RNG draw, so the whole cluster run — records, spec
        # digests, telemetry — is equal to the untyped-trace run.
        untyped = poisson_trace(
            n_epochs=3, arrival_rate=1.5, mean_residency=2.0,
            suites=("ecp",), seed=7, initial_jobs=4,
        )
        typed = poisson_trace(
            n_epochs=3, arrival_rate=1.5, mean_residency=2.0,
            suites=("ecp",), seed=7, initial_jobs=4, qos_fraction=0.0,
        )

        def run(trace):
            return ClusterSimulator(
                trace,
                n_nodes=2,
                placement="slo_aware",
                policy="EqualPartition",
                catalog=experiment_catalog(4),
                epoch_config=TINY,
                seed=1,
            ).run()

        assert run(untyped) == run(typed)


class TestQosSweep:
    @pytest.fixture(scope="class")
    def report(self):
        return qos_sweep(
            shapes=("flash_crowd",),
            policies=("EqualPartition", "SATORI"),
            qos_fractions=(0.5,),
            trace_seeds=(0,),
            n_nodes=2,
            n_epochs=3,
            slo=EASY_SLO,
            epoch_config=TINY,
        )

    def test_report_covers_the_grid(self, report):
        assert report.shapes == ("flash_crowd",)
        assert report.policies == ("EqualPartition", "SATORI")
        assert len(report.cells) == 2
        for cell in report.cells:
            assert cell.qos_jobs > 0
            assert 0.0 <= cell.attainment <= 1.0

    def test_aggregations_and_deltas(self, report):
        attainment = report.attainment("flash_crowd", "SATORI")
        cells = report.cells_for("flash_crowd", "SATORI", 0.5)
        assert len(cells) == 1
        assert attainment == pytest.approx(cells[0].attainment)
        # Deltas are against the SATORI baseline, so SATORI's is zero.
        assert report.attainment_delta("flash_crowd", "SATORI") == pytest.approx(0.0)
        assert report.fairness_delta("flash_crowd", "SATORI") == pytest.approx(0.0)

    def test_to_dict_is_json_codable(self, report):
        data = json.loads(json.dumps(report.to_dict()))
        assert data["slo"]["min_speedup"] == EASY_SLO.min_speedup
        nested = data["shapes"]["flash_crowd"]["SATORI"]
        assert set(nested) >= {"attainment", "fairness"}
        assert len(data["cells"]) == 2

    def test_summary_renders(self, report):
        text = report.summary()
        assert "flash_crowd" in text and "SATORI" in text

    def test_unknown_shape_rejected(self):
        with pytest.raises(ExperimentError, match="shape"):
            qos_trace("tsunami")

    def test_qos_trace_tags_requested_fraction(self):
        trace = qos_trace("diurnal", qos_fraction=1.0, seed=3)
        assert trace.jobs and all(job.kind == "qos" for job in trace.jobs)
