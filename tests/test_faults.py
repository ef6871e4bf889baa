"""Fault-injection substrate and hardened-control-loop tests.

Covers the resilience contract end to end: plan/schedule determinism
and serialization, the faulty register file, the simulator's injection
points (actuation retry, last-known-good fallback, monitor corruption,
crashes/hangs), the controller's hardening layer (validation, retreat,
watchdog), and the engine-level guarantees (faulted runs bit-identical
across worker counts, fault plans in digests and the cache, retries,
partial batches, cache degradation).
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time

import numpy as np
import pytest

import repro.engine.engine as engine_module
from repro.engine import ExecutionEngine, RunCache, RunError, RunSpec, derive_seed
from repro.errors import (
    ActuationError,
    EngineError,
    ExperimentError,
    HardwareError,
)
from repro.faults import (
    ACTUATION,
    CRASH,
    DROP,
    HANG,
    OUTAGE_ATTEMPTS,
    OUTLIER,
    STUCK,
    FaultEvent,
    FaultPlan,
    FaultSchedule,
    FaultyMsrFile,
)
from repro.hardware.msr import IA32_L3_QOS_MASK_BASE
from repro.core.controller import SatoriController
from repro.experiments.runner import RunConfig, experiment_catalog, run_policy
from repro.resources.space import ConfigurationSpace
from repro.system.simulation import CoLocationSimulator, Observation
from repro.workloads.mixes import mix_from_names

FAST = RunConfig(duration_s=2.0, interval_s=0.1, baseline_reset_s=1.0)

#: A plan exercising every fault family over the whole run.
BUSY_PLAN = FaultPlan(
    actuation_fail_rate=0.3,
    actuation_fail_attempts=2,
    actuation_outage_rate=0.05,
    sample_drop_rate=0.1,
    sample_nan_rate=0.1,
    sample_stuck_rate=0.1,
    sample_outlier_rate=0.1,
    crash_rate=0.05,
    hang_rate=0.05,
)


def schedule_of(*events: FaultEvent) -> FaultSchedule:
    return FaultSchedule(events=tuple(events))


# -- FaultPlan -----------------------------------------------------------


class TestFaultPlan:
    def test_round_trip(self):
        rebuilt = FaultPlan.from_dict(BUSY_PLAN.to_dict())
        assert rebuilt == BUSY_PLAN

    def test_hashable_frozen(self):
        assert hash(BUSY_PLAN) == hash(FaultPlan.from_dict(BUSY_PLAN.to_dict()))
        with pytest.raises(dataclasses.FrozenInstanceError):
            BUSY_PLAN.crash_rate = 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"start_s": -1.0},
            {"start_s": 5.0, "end_s": 5.0},
            {"crash_rate": 1.0},
            {"sample_drop_rate": -0.1},
            {"actuation_fail_attempts": 0},
            {"crash_restart_s": 0.0},
            {"sample_outlier_scale": 1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ExperimentError):
            FaultPlan(**kwargs)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ExperimentError):
            FaultPlan.from_dict({"crash_rate": 0.1, "meltdown_rate": 0.5})

    def test_is_empty(self):
        assert FaultPlan().is_empty
        assert not FaultPlan(crash_rate=0.1).is_empty

    def test_window_clamps_to_duration(self):
        plan = FaultPlan(start_s=2.0, end_s=50.0, crash_rate=0.1)
        assert plan.window(10.0) == (2.0, 10.0)
        assert FaultPlan(crash_rate=0.1).window(10.0) == (0.0, 10.0)


# -- FaultSchedule -------------------------------------------------------


class TestFaultSchedule:
    def test_generation_is_deterministic(self):
        a = FaultSchedule.generate(BUSY_PLAN, n_jobs=3, duration_s=5.0, interval_s=0.1, seed=7)
        b = FaultSchedule.generate(BUSY_PLAN, n_jobs=3, duration_s=5.0, interval_s=0.1, seed=7)
        assert a == b and len(a) > 0

    def test_seed_changes_timeline(self):
        a = FaultSchedule.generate(BUSY_PLAN, n_jobs=3, duration_s=5.0, interval_s=0.1, seed=7)
        b = FaultSchedule.generate(BUSY_PLAN, n_jobs=3, duration_s=5.0, interval_s=0.1, seed=8)
        assert a != b

    def test_json_round_trip(self):
        schedule = FaultSchedule.generate(
            BUSY_PLAN, n_jobs=2, duration_s=3.0, interval_s=0.1, seed=1
        )
        assert FaultSchedule.from_dict(schedule.to_dict()) == schedule

    def test_events_confined_to_window(self):
        plan = dataclasses.replace(BUSY_PLAN, start_s=2.0, end_s=4.0)
        schedule = FaultSchedule.generate(plan, n_jobs=3, duration_s=10.0, interval_s=0.1, seed=3)
        assert len(schedule) > 0
        assert all(2.0 <= e.start_s < 4.0 for e in schedule)

    def test_window_restriction_preserves_shared_timeline(self):
        # Draws are consumed unconditionally, so narrowing the window
        # must not shift the events inside the remaining overlap.
        full = FaultSchedule.generate(BUSY_PLAN, n_jobs=3, duration_s=6.0, interval_s=0.1, seed=5)
        narrowed = FaultSchedule.generate(
            dataclasses.replace(BUSY_PLAN, end_s=3.0),
            n_jobs=3,
            duration_s=6.0,
            interval_s=0.1,
            seed=5,
        )
        assert tuple(e for e in full if e.start_s < 3.0) == narrowed.events

    def test_lookups(self):
        schedule = schedule_of(
            FaultEvent(ACTUATION, 0.0, 0.1, magnitude=2),
            FaultEvent(DROP, 0.0, 0.1, job=1),
            FaultEvent(CRASH, 0.0, 1.0, job=0),
        )
        assert schedule.actuation_fail_attempts(0.05) == 2
        assert schedule.actuation_fail_attempts(0.15) == 0
        assert [e.kind for e in schedule.monitor_events(1, 0.05)] == [DROP]
        assert schedule.monitor_events(0, 0.05) == []
        assert [e.kind for _, e in schedule.workload_events(0, 0.5)] == [CRASH]
        assert schedule.active_count(0.05) == 3
        assert schedule.active_count(0.5) == 1

    @pytest.mark.parametrize(
        "family, streams",
        [
            ("faults", ("actuation", "monitoring", "workload")),
            ("fleet", ("blackout", "straggler", "flaky")),
        ],
    )
    def test_stream_seeds_are_the_sha256_formula(self, family, streams):
        """Intra-run fault streams and fleet weather seed their RNGs with
        ``derive_seed(family, seed, stream)``: the first 8 bytes of the
        SHA-256 of ``family/seed/stream``, big-endian, mod 2**63 - 1."""
        for seed in (0, 1, 7, np.int64(12345), 2**62 + 3):
            for stream in streams:
                digest = hashlib.sha256(f"{family}/{int(seed)}/{stream}".encode()).digest()
                expected = int.from_bytes(digest[:8], "big") % (2**63 - 1)
                assert derive_seed(family, int(seed), stream) == expected

    def test_generate_validation(self):
        with pytest.raises(ExperimentError):
            FaultSchedule.generate(BUSY_PLAN, n_jobs=0, duration_s=1.0, interval_s=0.1)
        with pytest.raises(ExperimentError):
            FaultSchedule.generate(BUSY_PLAN, n_jobs=1, duration_s=1.0, interval_s=0.0)

    def test_event_validation(self):
        with pytest.raises(ExperimentError):
            FaultEvent("gremlin", 0.0, 1.0)
        with pytest.raises(ExperimentError):
            FaultEvent(CRASH, 1.0, 1.0)


# -- FaultyMsrFile -------------------------------------------------------


class TestFaultyMsrFile:
    def test_armed_write_raises_without_mutating(self):
        msr = FaultyMsrFile()
        msr.write(IA32_L3_QOS_MASK_BASE, 0b1111)
        msr.arm()
        with pytest.raises(HardwareError) as err:
            msr.write(IA32_L3_QOS_MASK_BASE, 0b0011)
        # The error names the register and the value that was lost.
        assert f"{IA32_L3_QOS_MASK_BASE:#x}" in str(err.value)
        assert f"{0b0011:#x}" in str(err.value)
        assert msr.read(IA32_L3_QOS_MASK_BASE) == 0b1111
        assert msr.injected_failures == 1

    def test_disarm_restores_writes(self):
        msr = FaultyMsrFile()
        msr.arm()
        msr.arm(False)
        msr.write(IA32_L3_QOS_MASK_BASE, 0b0111)
        assert msr.read(IA32_L3_QOS_MASK_BASE) == 0b0111
        assert not msr.armed and msr.injected_failures == 0


# -- simulator injection points -----------------------------------------


class TestSimulatorActuationFaults:
    def test_transient_failure_rescued_by_retry(self, make_simulator):
        schedule = schedule_of(FaultEvent(ACTUATION, 0.0, 0.1, magnitude=2))
        sim = make_simulator(fault_schedule=schedule, actuation_retries=2)
        obs = sim.step(sim.equal_partition())
        assert obs.actuation_ok
        assert sim.current_config == sim.equal_partition()
        assert sim.msr.read(IA32_L3_QOS_MASK_BASE) != 0
        assert sim.fault_counters["actuation_failures"] == 2
        assert sim.fault_counters["actuation_exhausted"] == 0

    def test_retry_failures_cost_ips(self, catalog6, parsec_mix3):
        schedule = schedule_of(FaultEvent(ACTUATION, 0.0, 0.1, magnitude=2))
        clean = CoLocationSimulator(parsec_mix3, catalog6, noise_sigma=0.0, seed=1)
        faulted = CoLocationSimulator(
            parsec_mix3,
            catalog6,
            noise_sigma=0.0,
            seed=1,
            fault_schedule=schedule,
            actuation_retries=2,
        )
        base = np.array(clean.step(clean.equal_partition()).ips)
        hit = np.array(faulted.step(faulted.equal_partition()).ips)
        assert np.all(hit < base)

    def test_outage_keeps_last_known_good(self, make_simulator):
        schedule = schedule_of(
            FaultEvent(ACTUATION, 0.1, 1.1, magnitude=OUTAGE_ATTEMPTS)
        )
        sim = make_simulator(fault_schedule=schedule, actuation_retries=2)
        good = sim.equal_partition()
        assert sim.step(good).actuation_ok
        flipped = good  # any install during the outage fails
        obs = sim.step(flipped)
        assert not obs.actuation_ok
        assert obs.config == good  # last-known-good stayed in force
        assert sim.fault_counters["actuation_exhausted"] == 1

    def test_apply_raises_actuation_error_on_exhaustion(self, make_simulator):
        schedule = schedule_of(
            FaultEvent(ACTUATION, 0.0, 1.0, magnitude=OUTAGE_ATTEMPTS)
        )
        sim = make_simulator(fault_schedule=schedule, actuation_retries=1)
        with pytest.raises(ActuationError):
            sim.apply(sim.equal_partition())
        assert sim.current_config is None


class TestSimulatorMonitorFaults:
    def test_drop_reports_nan_but_true_ips_survives(self, make_simulator):
        schedule = schedule_of(FaultEvent(DROP, 0.0, 0.1, job=1))
        sim = make_simulator(fault_schedule=schedule)
        obs = sim.step(sim.equal_partition())
        assert math.isnan(obs.ips[1])
        assert all(np.isfinite(sim.last_true_ips))
        assert sim.last_true_ips[1] > 0
        assert sim.fault_counters["samples_dropped"] == 1

    def test_outlier_scales_reported_value(self, make_simulator):
        schedule = schedule_of(FaultEvent(OUTLIER, 0.0, 0.1, job=0, magnitude=4.0))
        sim = make_simulator(fault_schedule=schedule)
        obs = sim.step(sim.equal_partition())
        assert obs.ips[0] == pytest.approx(4.0 * sim.last_true_ips[0])
        assert sim.fault_counters["samples_outlier"] == 1

    def test_stuck_counter_repeats_previous_report(self, make_simulator):
        schedule = schedule_of(FaultEvent(STUCK, 0.1, 0.2, job=0))
        sim = make_simulator(fault_schedule=schedule)
        first = sim.step(sim.equal_partition())
        second = sim.step()
        assert second.ips[0] == first.ips[0]
        assert second.ips[0] != sim.last_true_ips[0]
        assert sim.fault_counters["samples_stuck"] == 1


class TestSimulatorWorkloadFaults:
    def test_crash_zeroes_ips_and_progress(self, catalog6, parsec_mix3):
        schedule = schedule_of(FaultEvent(CRASH, 0.1, 1.0, job=0))
        sim = CoLocationSimulator(
            parsec_mix3, catalog6, noise_sigma=0.0, seed=1, fault_schedule=schedule
        )
        sim.step(sim.equal_partition())
        obs = sim.step()
        assert obs.ips[0] == 0.0
        assert all(v > 0 for v in obs.ips[1:])
        assert sim.fault_counters["crashes"] == 1

    def test_hang_zeroes_ips_once_per_event(self, catalog6, parsec_mix3):
        schedule = schedule_of(FaultEvent(HANG, 0.0, 0.3, job=2))
        sim = CoLocationSimulator(
            parsec_mix3, catalog6, noise_sigma=0.0, seed=1, fault_schedule=schedule
        )
        for _ in range(3):
            obs = sim.step(sim.equal_partition())
            assert obs.ips[2] == 0.0
        # One event spanning three intervals counts once.
        assert sim.fault_counters["hangs"] == 1
        assert sim.step().ips[2] > 0


# -- controller hardening ------------------------------------------------


def make_observation(config, ips, iso, ok=True, t=0.1):
    return Observation(
        time_s=t,
        interval_s=0.1,
        ips=tuple(float(v) for v in ips),
        isolation_ips=tuple(float(v) for v in iso),
        config=config,
        completed_runs=(0,) * len(ips),
        actuation_ok=ok,
    )


@pytest.fixture
def satori(space6x3):
    return SatoriController(space6x3, rng=0)


class TestControllerHardening:
    ISO = (2.0, 2.0, 2.0)

    def good_obs(self, config, scale=1.0, ok=True):
        return make_observation(config, (1.1 * scale, 1.0 * scale, 0.9 * scale), self.ISO, ok=ok)

    def test_validation_rejects_nonfinite(self, satori):
        config = satori.decide(None)
        satori.decide(make_observation(config, (1.0, float("nan"), 1.0), self.ISO))
        assert satori.rejected_samples == 1
        assert len(satori.records) == 0

    def test_validation_rejects_all_zero(self, satori):
        config = satori.decide(None)
        satori.decide(make_observation(config, (0.0, 0.0, 0.0), self.ISO))
        assert satori.rejected_samples == 1

    def test_validation_rejects_impossible_speedups(self, satori):
        config = satori.decide(None)
        satori.decide(make_observation(config, (10.0, 1.0, 1.0), self.ISO))
        assert satori.rejected_samples == 1

    def test_unhardened_controller_falls_over_on_degenerate_interval(self, space6x3):
        naive = SatoriController(space6x3, rng=0, hardening=False)
        config = naive.decide(None)
        with pytest.raises(ExperimentError):
            naive.decide(make_observation(config, (0.0, 0.0, 0.0), self.ISO))

    def test_retreat_returns_best_recorded_configuration(self, satori):
        config = satori.decide(None)
        # Feed enough clean samples to build records (scores vary so the
        # incumbent is distinguishable).
        for scale in (0.6, 1.0, 0.8, 0.7, 0.9, 0.75):
            config = satori.decide(self.good_obs(config, scale))
        values = satori.records.objective_values(satori.weights.pair)
        incumbent = satori.records.samples[int(np.nanargmax(values))].config
        retreat = satori.decide(make_observation(config, (0.0, 0.0, 0.0), self.ISO))
        assert retreat == incumbent

    def test_watchdog_engages_and_holds_installed_config(self, satori):
        config = satori.decide(None)
        installed = config  # the observation reports what actually ran
        for _ in range(2):
            config = satori.decide(self.good_obs(installed, ok=False))
            assert not satori.watchdog_active
        held = satori.decide(self.good_obs(installed, ok=False))
        assert satori.watchdog_active
        assert held == installed.restrict(satori.controlled_resources)
        assert satori.fallback_intervals == 1

    def test_watchdog_reengages_bo_on_recovery(self, satori):
        config = satori.decide(None)
        for _ in range(4):
            satori.decide(self.good_obs(config, ok=False))
        assert satori.watchdog_active
        records_before = len(satori.records)
        satori.decide(self.good_obs(config, ok=True))
        assert not satori.watchdog_active
        # The clean interval was recorded; faulted ones never were.
        assert len(satori.records) == records_before + 1

    def test_failed_actuation_not_attributed_to_suggestion(self, satori):
        suggested = satori.decide(None)
        installed = satori.space.sample(rng=5)
        while installed == suggested:
            installed = satori.space.sample(rng=None)
        satori.decide(self.good_obs(installed, ok=False))
        assert all(s.config != suggested for s in satori.records.samples)

    def test_hardening_diagnostics_exposed(self, satori):
        config = satori.decide(None)
        satori.decide(self.good_obs(config))
        diag = satori.diagnostics()
        assert {"watchdog_active", "rejected_samples", "fallback_intervals"} <= set(diag)


# -- engine-level guarantees --------------------------------------------


@pytest.fixture(scope="module")
def fault_batch():
    catalog = experiment_catalog(units=4)
    mixes = [
        mix_from_names(["canneal", "fluidanimate"]),
        mix_from_names(["streamcluster", "vips"]),
    ]
    return [
        RunSpec(
            mix=mix,
            policy="Random",
            catalog=catalog,
            run_config=FAST,
            seed=3,
            fault_plan=BUSY_PLAN,
        )
        for mix in mixes
    ]


class TestFaultedDeterminism:
    def test_workers_do_not_change_faulted_results(self, fault_batch):
        serial = [r.to_dict() for r in ExecutionEngine(workers=1).run(fault_batch)]
        parallel = [r.to_dict() for r in ExecutionEngine(workers=2).run(fault_batch)]
        assert serial == parallel

    def test_identical_plans_identical_digests(self, fault_batch):
        clone = dataclasses.replace(fault_batch[0], fault_plan=FaultPlan.from_dict(BUSY_PLAN.to_dict()))
        assert clone.digest == fault_batch[0].digest

    def test_fault_plan_changes_digest(self, fault_batch):
        clean = dataclasses.replace(fault_batch[0], fault_plan=None)
        milder = dataclasses.replace(
            fault_batch[0], fault_plan=dataclasses.replace(BUSY_PLAN, crash_rate=0.01)
        )
        assert len({fault_batch[0].digest, clean.digest, milder.digest}) == 3

    def test_faulted_runs_cache_hit(self, fault_batch, tmp_path):
        engine = ExecutionEngine(cache=RunCache(tmp_path))
        first = engine.run(fault_batch)
        again = engine.run(fault_batch)
        assert engine.stats.executed == len(fault_batch)
        assert engine.stats.cache_hits == len(fault_batch)
        assert [r.to_dict() for r in first] == [r.to_dict() for r in again]

    def test_environment_digest_ignores_policy_identity(self, fault_batch):
        base = fault_batch[0]
        other_policy = dataclasses.replace(base, policy="EqualPartition")
        other_kwargs = dataclasses.replace(base, policy_kwargs={"hardening": False})
        other_goals = dataclasses.replace(base, goals=("hmean_speedup", "jain"))
        assert base.digest != other_policy.digest
        assert base.environment_digest == other_policy.environment_digest
        assert base.environment_digest == other_kwargs.environment_digest
        assert base.environment_digest == other_goals.environment_digest
        # Environment changes do move it.
        other_seed = dataclasses.replace(base, seed=4)
        assert base.environment_digest != other_seed.environment_digest

    def test_fault_seed_derives_from_environment_digest(self, fault_batch):
        base = fault_batch[0]
        assert derive_seed(base.environment_digest, "faults") != derive_seed(
            base.digest, "faults"
        )

    def test_policy_variants_share_fault_timeline(self, fault_batch):
        # Same environment ⇒ same realized schedule inside execute_run:
        # verify through the recorded faults_active telemetry trail.
        base = fault_batch[0]
        twin = dataclasses.replace(base, policy="EqualPartition")
        results = ExecutionEngine().run([base, twin])
        trails = [r.telemetry.series("faults_active").tolist() for r in results]
        assert trails[0] == trails[1]


class TestEngineResilience:
    def test_retry_rescues_transient_failure(self, fault_batch, monkeypatch):
        real = engine_module.execute_run
        failures = {"left": 1}

        def flaky(spec):
            if failures["left"]:
                failures["left"] -= 1
                raise RuntimeError("transient worker loss")
            return real(spec)

        monkeypatch.setattr(engine_module, "execute_run", flaky)
        engine = ExecutionEngine(retries=1)
        results = engine.run(fault_batch[:1])
        assert results[0].to_dict() == ExecutionEngine().run(fault_batch[:1])[0].to_dict()
        assert engine.stats.retried == 1
        assert engine.stats.failed == 0

    def test_partial_batch_records_failures(self, fault_batch, monkeypatch):
        real = engine_module.execute_run

        def selective(spec):
            if spec == fault_batch[0]:
                raise RuntimeError("this spec always dies")
            return real(spec)

        monkeypatch.setattr(engine_module, "execute_run", selective)
        engine = ExecutionEngine()
        results = engine.run(fault_batch, on_error="record")
        assert isinstance(results[0], RunError)
        assert results[0].spec == fault_batch[0]
        assert "this spec always dies" in results[0].error
        assert not isinstance(results[1], RunError)
        assert engine.stats.failed == 1

    def test_on_error_raise_is_default(self, fault_batch, monkeypatch):
        def boom(spec):
            raise RuntimeError("no survivors")

        monkeypatch.setattr(engine_module, "execute_run", boom)
        with pytest.raises(EngineError):
            ExecutionEngine().run(fault_batch)

    def test_on_error_validated(self, fault_batch):
        with pytest.raises(EngineError):
            ExecutionEngine().run(fault_batch, on_error="ignore")

    def test_unwritable_cache_degrades_gracefully(self, fault_batch, tmp_path):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("occupied")
        cache = RunCache(blocker)
        engine = ExecutionEngine(cache=cache)
        with pytest.warns(RuntimeWarning, match="caching disabled"):
            results = engine.run(fault_batch[:1])
        assert not isinstance(results[0], RunError)
        assert cache.disabled
        assert engine.stats.cache_errors == 1
        # Subsequent batches still compute, silently uncached.
        again = engine.run(fault_batch[:1])
        assert again[0].to_dict() == results[0].to_dict()
        assert engine.stats.cache_errors == 1


class TestFaultedRunPolicy:
    def test_run_policy_scores_true_ips(self, catalog6, parsec_mix3):
        from repro.policies.static import EqualPartitionPolicy

        plan = FaultPlan(sample_outlier_rate=0.5, sample_outlier_scale=16.0)
        space = ConfigurationSpace(catalog6, len(parsec_mix3))
        noisy = run_policy(
            EqualPartitionPolicy(space),
            parsec_mix3,
            catalog6,
            FAST,
            seed=0,
            faults=plan,
            fault_seed=0,
        )
        clean = run_policy(EqualPartitionPolicy(space), parsec_mix3, catalog6, FAST, seed=0)
        # Heavy outlier corruption hits the policy's view only; the
        # scored telemetry stays at the clean level (same noise seed).
        assert noisy.throughput == pytest.approx(clean.throughput, rel=1e-6)

    def test_fault_trail_recorded(self, catalog6, parsec_mix3):
        from repro.policies.static import EqualPartitionPolicy

        plan = FaultPlan(crash_rate=0.3)
        space = ConfigurationSpace(catalog6, len(parsec_mix3))
        result = run_policy(
            EqualPartitionPolicy(space),
            parsec_mix3,
            catalog6,
            FAST,
            seed=0,
            faults=plan,
            fault_seed=1,
        )
        trail = result.telemetry.series("faults_active")
        assert len(trail) == FAST.n_steps
        assert trail.max() > 0


class TestEngineHardening:
    """Deadlines, backoff, and the knobs the fleet recovery layer uses."""

    def test_constructor_validation(self):
        with pytest.raises(EngineError):
            ExecutionEngine(spec_timeout_s=0)
        with pytest.raises(EngineError):
            ExecutionEngine(backoff_base_s=-0.1)
        with pytest.raises(EngineError):
            ExecutionEngine(backoff_jitter=-0.5)

    def test_backoff_is_exponential_and_deterministic(self, fault_batch, monkeypatch):
        from repro.obs import TraceCollector, use_collector

        real = engine_module.execute_run
        failures = {"left": 2}

        def flaky(spec):
            if failures["left"]:
                failures["left"] -= 1
                raise RuntimeError("transient worker loss")
            return real(spec)

        slept = []
        monkeypatch.setattr(engine_module, "execute_run", flaky)
        monkeypatch.setattr(engine_module.time, "sleep", slept.append)
        engine = ExecutionEngine(retries=2, backoff_base_s=0.2, backoff_jitter=0.25)
        collector = TraceCollector()
        with use_collector(collector):
            engine.run(fault_batch[:1])
        # Round r sleeps base * 2**(r-1), stretched by a jitter
        # fraction derived from the retried spec's digest — the exact
        # delays are reproducible, not merely bounded.
        spec = fault_batch[0]
        expected = [
            0.2 * 2 ** (r - 1)
            * (1.0 + 0.25 * (derive_seed(spec.digest, "backoff", r) % 10**6 / 10**6))
            for r in (1, 2)
        ]
        assert slept == pytest.approx(expected)
        backoffs = [e for e in collector.events if e.name == "retry_backoff"]
        assert [dict(e.args)["round"] for e in backoffs] == [1, 2]
        assert [dict(e.args)["delay_s"] for e in backoffs] == pytest.approx(expected)

    def test_zero_base_skips_sleep(self, fault_batch, monkeypatch):
        def boom(spec):
            raise RuntimeError("always")

        slept = []
        monkeypatch.setattr(engine_module, "execute_run", boom)
        monkeypatch.setattr(engine_module.time, "sleep", slept.append)
        engine = ExecutionEngine(retries=2)  # backoff_base_s defaults to 0
        engine.run(fault_batch[:1], on_error="record")
        assert slept == []

    def test_per_spec_deadline_abandons_straggler(self, fault_batch, monkeypatch):
        # Worker pools fork on this platform, so the monkeypatched
        # execute_run is inherited by the children: the first spec
        # outlives its deadline, the second finishes normally.
        real = engine_module.execute_run
        hang_spec = fault_batch[0]

        def selective(spec):
            if spec == hang_spec:
                time.sleep(2.5)
            return real(spec)

        monkeypatch.setattr(engine_module, "execute_run", selective)
        engine = ExecutionEngine(workers=2, spec_timeout_s=0.4)
        started = time.perf_counter()
        results = engine.run(fault_batch, on_error="record")
        assert isinstance(results[0], RunError)
        assert "per-spec deadline" in results[0].error
        assert not isinstance(results[1], RunError)
        # The batch did not wait out the straggler's full 2.5s sleep.
        assert time.perf_counter() - started < 2.5
        assert engine.stats.failed == 1

    def test_no_deadlines_is_single_wait(self, fault_batch):
        # Without timeouts the pool path produces complete results and
        # preserves order (the historical behavior).
        results = ExecutionEngine(workers=2).run(fault_batch)
        assert all(not isinstance(r, RunError) for r in results)
