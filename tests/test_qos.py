"""Tests for the latency-critical / QoS subsystem."""

import math

import numpy as np
import pytest

from repro.errors import PolicyError, WorkloadError
from repro.experiments.qos import qos_colocation
from repro.experiments.runner import RunConfig
from repro.policies.qos_parties import QosPartiesPolicy
from repro.resources.space import ConfigurationSpace
from repro.system.simulation import CoLocationSimulator
from repro.workloads.latency_critical import (
    LatencyCriticalJob,
    RequestProfile,
    latency_critical_suite,
)
from repro.workloads.mixes import JobMix
from repro.workloads.registry import get_workload


@pytest.fixture(scope="module")
def lc_job():
    return LatencyCriticalJob(
        workload=get_workload("web_search"),
        profile=RequestProfile.constant(2e6, 0.02, 400.0),
    )


class TestRequestProfile:
    def test_constant_load(self):
        profile = RequestProfile.constant(1e6, 0.02, 500.0)
        assert profile.load_at(0.0) == 500.0
        assert profile.load_at(123.0) == 500.0

    def test_load_curve_repeats(self):
        profile = RequestProfile(1e6, 0.02, (100.0, 200.0, 300.0), load_step_s=1.0)
        assert profile.load_at(0.5) == 100.0
        assert profile.load_at(1.5) == 200.0
        assert profile.load_at(3.5) == 100.0  # wrapped back to sample 0

    def test_validation(self):
        with pytest.raises(WorkloadError):
            RequestProfile(0.0, 0.02, (100.0,))
        with pytest.raises(WorkloadError):
            RequestProfile(1e6, 0.0, (100.0,))
        with pytest.raises(WorkloadError):
            RequestProfile(1e6, 0.02, ())
        with pytest.raises(WorkloadError):
            RequestProfile(1e6, 0.02, (-1.0,))


class TestLatencyModel:
    def test_service_rate(self, lc_job):
        assert lc_job.service_rate(2e9) == pytest.approx(1000.0)

    def test_p99_matches_mm1_formula(self, lc_job):
        mu = lc_job.service_rate(2e9)  # 1000 rps
        lam = 400.0
        expected = -math.log(0.01) / (mu - lam)
        assert lc_job.p99_latency_s(2e9, 0.0) == pytest.approx(expected)

    def test_overload_is_infinite(self, lc_job):
        # 400 rps load; capacity below 400 rps -> unbounded tail.
        assert math.isinf(lc_job.p99_latency_s(0.5e9, 0.0))

    def test_p99_decreasing_in_capacity(self, lc_job):
        latencies = [lc_job.p99_latency_s(ips, 0.0) for ips in (1e9, 2e9, 4e9)]
        assert latencies[0] > latencies[1] > latencies[2]

    def test_meets_qos_threshold(self, lc_job):
        needed = lc_job.required_ips(0.0)
        assert lc_job.meets_qos(needed * 1.01, 0.0)
        assert not lc_job.meets_qos(needed * 0.9, 0.0)

    def test_headroom_semantics(self, lc_job):
        needed = lc_job.required_ips(0.0)
        assert lc_job.headroom(needed, 0.0) == pytest.approx(1.0, rel=0.01)
        assert lc_job.headroom(needed * 2, 0.0) > 1.0
        assert lc_job.headroom(0.5e9, 0.0) == 0.0  # overloaded

    def test_required_ips_inverts_model(self, lc_job):
        needed = lc_job.required_ips(0.0, slack=1.0)
        assert lc_job.p99_latency_s(needed, 0.0) == pytest.approx(
            lc_job.profile.target_p99_s, rel=1e-9
        )


class TestLcSuite:
    def test_three_services(self):
        jobs = latency_critical_suite()
        assert [j.name for j in jobs] == [
            "web_search",
            "media_streaming",
            "in_memory_analytics",
        ]

    def test_loads_feasible_at_equal_share(self):
        """At the default load fraction, QoS is achievable but tight."""
        from repro.resources.types import default_catalog

        catalog = default_catalog()
        for job in latency_critical_suite():
            equal_ips = job.workload.ips_under(
                catalog, 0.0, cores=10 / 3, llc_ways=10 / 3, bandwidth_units=10 / 3
            )
            mu = job.service_rate(equal_ips)
            assert mu > job.profile.load_at(0.0), "load must be below equal-share capacity"


class TestQosPartiesPolicy:
    @pytest.fixture
    def setup(self, catalog6):
        jobs = latency_critical_suite()
        mix = JobMix(tuple(j.workload for j in jobs))
        space = ConfigurationSpace(catalog6, 3)
        return jobs, mix, space

    def test_job_count_checked(self, setup, catalog6):
        jobs, _mix, _space = setup
        with pytest.raises(PolicyError):
            QosPartiesPolicy(ConfigurationSpace(catalog6, 2), jobs)

    def test_decisions_valid(self, setup, catalog6):
        jobs, mix, space = setup
        policy = QosPartiesPolicy(space, jobs)
        sim = CoLocationSimulator(mix, catalog6, seed=0)
        observation = None
        for _ in range(40):
            config = policy.decide(observation)
            assert space.contains(config)
            observation = sim.step(config)

    def test_qos_report_shape(self, setup, catalog6):
        jobs, mix, space = setup
        policy = QosPartiesPolicy(space, jobs)
        sim = CoLocationSimulator(mix, catalog6, seed=0)
        obs = sim.step(policy.decide(None))
        report = policy.qos_report(obs)
        assert len(report) == 3
        assert all(isinstance(v, (bool, np.bool_)) for v in report)


class TestQosExperiment:
    @pytest.fixture(scope="class")
    def comparison(self):
        return qos_colocation(run_config=RunConfig(duration_s=10.0), seed=0)

    def test_all_policies_present(self, comparison):
        assert set(comparison.results) == {"QoS-PARTIES", "SATORI", "Equal Partition"}

    def test_qos_parties_beats_equal_partition(self, comparison):
        """The native QoS controller must beat a naive split on QoS."""
        assert (
            comparison.result("QoS-PARTIES").qos_satisfaction
            > comparison.result("Equal Partition").qos_satisfaction
        )

    def test_qos_parties_strong_on_worst_job(self, comparison):
        assert comparison.result("QoS-PARTIES").worst_job_satisfaction > 0.5

    def test_satori_throughput_oriented(self, comparison):
        """SATORI (QoS-oblivious) extracts at least as much raw IPS."""
        assert (
            comparison.result("SATORI").mean_total_ips
            >= comparison.result("QoS-PARTIES").mean_total_ips * 0.95
        )
