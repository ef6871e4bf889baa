"""Tests for the extracted policy↔server control session."""

from __future__ import annotations

import math

import numpy as np

from repro.faults.plan import FaultPlan
from repro.faults.schedule import FaultSchedule
from repro.policies.registry import make_policy
from repro.system.session import ControlSession, ServerLike
from repro.system.simulation import CoLocationSimulator


def test_simulator_satisfies_protocol(make_simulator):
    assert isinstance(make_simulator(), ServerLike)


class TestStepSemantics:
    def test_run_records_one_entry_per_step(self, make_simulator, catalog6, parsec_mix3, goals):
        policy = make_policy("EqualPartition", parsec_mix3, catalog6, goals=goals)
        session = ControlSession(policy, make_simulator(), goals=goals)
        telemetry = session.run(12)
        assert len(telemetry) == 12
        assert telemetry is session.telemetry

    def test_policy_sees_held_baseline_not_true_isolation(
        self, make_simulator, catalog6, parsec_mix3, goals
    ):
        """The policy view must carry the held baseline even as the
        server's true isolation drifts with workload phases."""
        seen = []

        class Spy:
            name = "spy"

            def __init__(self, inner):
                self._inner = inner

            def decide(self, observation):
                if observation is not None:
                    seen.append(observation.isolation_ips)
                return self._inner.decide(observation)

            def diagnostics(self):
                return {}

        policy = Spy(make_policy("EqualPartition", parsec_mix3, catalog6, goals=goals))
        session = ControlSession(policy, make_simulator(), goals=goals, baseline_reset_s=math.inf)
        session.run(8)
        held = tuple(float(b) for b in session.baseline)
        assert all(view == held for view in seen)

    def test_periodic_reset_changes_held_baseline(
        self, make_simulator, catalog6, parsec_mix3, goals
    ):
        policy = make_policy("EqualPartition", parsec_mix3, catalog6, goals=goals)
        simulator = make_simulator(noise_sigma=0.05)
        session = ControlSession(policy, simulator, goals=goals, baseline_reset_s=0.5)
        session.step()
        first = np.array(session.baseline)
        session.run(10)
        assert not np.allclose(first, np.array(session.baseline))

    def test_refresh_baseline_patches_pending_view(
        self, make_simulator, catalog6, parsec_mix3, goals
    ):
        captured = []

        class Spy:
            name = "spy"

            def __init__(self, inner):
                self._inner = inner

            def decide(self, observation):
                if observation is not None:
                    captured.append(observation.isolation_ips)
                return self._inner.decide(observation)

            def diagnostics(self):
                return {}

        policy = Spy(make_policy("EqualPartition", parsec_mix3, catalog6, goals=goals))
        simulator = make_simulator(noise_sigma=0.05)
        session = ControlSession(policy, simulator, goals=goals)
        session.step()
        fresh = session.refresh_baseline()
        session.step()
        assert captured[-1] == tuple(float(b) for b in fresh)

    def test_satori_weights_land_in_telemetry(self, make_simulator, catalog6, parsec_mix3, goals):
        policy = make_policy("SATORI", parsec_mix3, catalog6, goals=goals, rng=3)
        session = ControlSession(policy, make_simulator(), goals=goals)
        session.run(5)
        # The first interval predates the controller's first weight
        # computation; every later record must carry them.
        assert all(record.weights is not None for record in list(session.telemetry)[1:])


class TestFaultTrail:
    def test_fault_trail_recorded_under_schedule(
        self, make_simulator, catalog6, parsec_mix3, goals
    ):
        plan = FaultPlan(sample_nan_rate=0.3, crash_rate=0.05)
        schedule = FaultSchedule.generate(
            plan, n_jobs=3, duration_s=5.0, interval_s=0.1, seed=11
        )
        simulator = make_simulator(fault_schedule=schedule)
        policy = make_policy("EqualPartition", parsec_mix3, catalog6, goals=goals)
        session = ControlSession(policy, simulator, goals=goals)
        session.run(20)
        for record in session.telemetry:
            assert "actuation_ok" in record.extra
            assert "faults_active" in record.extra

    def test_scored_ips_are_true_not_corrupted(
        self, make_simulator, catalog6, parsec_mix3, goals
    ):
        """Telemetry must never contain the NaNs the corrupted monitor
        feed shows the policy."""
        plan = FaultPlan(sample_nan_rate=0.5)
        schedule = FaultSchedule.generate(
            plan, n_jobs=3, duration_s=5.0, interval_s=0.1, seed=11
        )
        simulator = make_simulator(fault_schedule=schedule)
        policy = make_policy("EqualPartition", parsec_mix3, catalog6, goals=goals)
        session = ControlSession(policy, simulator, goals=goals)
        session.run(30)
        for record in session.telemetry:
            assert all(math.isfinite(v) for v in record.ips)


class TestValidationAgainstRunner:
    def test_matches_run_policy_output(self, catalog6, parsec_mix3, goals):
        """A hand-driven session reproduces run_policy bit for bit."""
        from repro.experiments.runner import RunConfig, run_policy

        run_config = RunConfig(duration_s=3.0, baseline_reset_s=1.0)
        policy = make_policy("SATORI", parsec_mix3, catalog6, goals=goals, rng=9)
        expected = run_policy(
            policy, parsec_mix3, catalog=catalog6, run_config=run_config, goals=goals, seed=4
        )

        policy2 = make_policy("SATORI", parsec_mix3, catalog6, goals=goals, rng=9)
        simulator = CoLocationSimulator(
            parsec_mix3,
            catalog=catalog6,
            control_interval_s=run_config.interval_s,
            noise_sigma=run_config.noise_sigma,
            seed=4,
        )
        session = ControlSession(
            policy2, simulator, goals=goals, baseline_reset_s=run_config.baseline_reset_s
        )
        telemetry = session.run(run_config.n_steps)
        assert telemetry.to_dict() == expected.telemetry.to_dict()
