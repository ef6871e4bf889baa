"""Tests for the co-location simulator."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ExperimentError
from repro.hardware.msr import IA32_L3_QOS_MASK_BASE
from repro.resources.allocation import Configuration
from repro.resources.types import CORES, LLC_WAYS, MEMORY_BANDWIDTH
from repro.system.contention import isolation_ips
from repro.system.simulation import RECONFIGURATION_PENALTY, CoLocationSimulator
from repro.workloads.mixes import mix_from_names


class TestStepping:
    def test_time_advances(self, make_simulator):
        sim = make_simulator()
        sim.step(sim.equal_partition())
        sim.step()
        assert sim.time_s == pytest.approx(0.2)

    def test_observation_shape(self, make_simulator):
        sim = make_simulator()
        obs = sim.step(sim.equal_partition())
        assert obs.n_jobs == 3
        assert len(obs.isolation_ips) == 3
        assert len(obs.memory_bandwidth_bytes_s) == 3

    def test_config_persists_between_steps(self, make_simulator):
        sim = make_simulator()
        config = sim.equal_partition()
        sim.step(config)
        obs = sim.step()  # no new config
        assert obs.config == config

    def test_run_helper(self, make_simulator):
        sim = make_simulator()
        observations = sim.run(sim.equal_partition(), 5)
        assert len(observations) == 5
        assert observations[-1].time_s == pytest.approx(0.5)

    def test_run_rejects_zero_steps(self, make_simulator):
        sim = make_simulator()
        with pytest.raises(ExperimentError):
            sim.run(sim.equal_partition(), 0)

    def test_noise_seeded(self, make_simulator):
        a = make_simulator().step(None)
        b = make_simulator().step(None)
        assert a.ips == b.ips

    def test_measured_ips_near_truth(self, catalog6, parsec_mix3):
        sim = CoLocationSimulator(parsec_mix3, catalog6, noise_sigma=0.02, seed=9)
        config = sim.equal_partition()
        truth = sim.true_ips(config, at_time=0.0)
        obs = sim.step(config)
        assert np.allclose(obs.ips, truth, rtol=0.2)

    def test_zero_noise_exact(self, catalog6, parsec_mix3):
        sim = CoLocationSimulator(parsec_mix3, catalog6, noise_sigma=0.0, seed=9)
        config = sim.equal_partition()
        truth = sim.true_ips(config, at_time=0.0)
        obs = sim.step(config)
        assert np.allclose(obs.ips, truth, rtol=1e-9)


class TestActuation:
    def test_apply_programs_cat_msrs(self, make_simulator):
        sim = make_simulator()
        sim.apply(sim.equal_partition())
        assert sim.msr.read(IA32_L3_QOS_MASK_BASE) != 0

    def test_partial_config_supported(self, make_simulator, catalog6):
        sim = make_simulator()
        obs = sim.step(Configuration({LLC_WAYS: (2, 2, 2)}))
        assert obs.config.partitions(LLC_WAYS)
        assert not obs.config.partitions(CORES)

    def test_wrong_job_count_rejected(self, make_simulator):
        sim = make_simulator()
        with pytest.raises(ConfigurationError):
            sim.apply(Configuration({CORES: (3, 3)}))

    def test_invalid_sum_rejected(self, make_simulator):
        sim = make_simulator()
        with pytest.raises(ConfigurationError):
            sim.apply(Configuration({CORES: (1, 1, 1)}))

    def test_none_clears_partitions(self, make_simulator):
        sim = make_simulator()
        sim.apply(sim.equal_partition())
        sim.apply(None)
        assert sim.current_config is None


class TestReconfigurationDisturbance:
    def test_stable_config_no_penalty(self, catalog6, parsec_mix3):
        sim = CoLocationSimulator(parsec_mix3, catalog6, noise_sigma=0.0, seed=1)
        config = sim.equal_partition()
        first = np.array(sim.step(config).ips)
        second = np.array(sim.step(config).ips)
        truth = sim.true_ips(config, at_time=0.1)
        assert np.allclose(second, truth, rtol=1e-9)

    def test_reconfiguration_costs_ips(self, catalog6, parsec_mix3):
        sim = CoLocationSimulator(parsec_mix3, catalog6, noise_sigma=0.0, seed=1)
        config = sim.equal_partition()
        sim.step(config)
        flipped = Configuration(
            {
                CORES: (4, 1, 1),
                LLC_WAYS: (4, 1, 1),
                MEMORY_BANDWIDTH: (4, 1, 1),
            }
        )
        obs = np.array(sim.step(flipped).ips)
        truth = sim.true_ips(flipped, at_time=0.1)
        assert np.all(obs <= truth + 1e-6)
        assert np.any(obs < truth * 0.99)

    def test_penalty_bounded(self):
        assert 0.0 <= RECONFIGURATION_PENALTY <= 1.0


class TestReapplySameConfig:
    def test_no_reconfiguration_penalty(self, catalog6, parsec_mix3):
        sim = CoLocationSimulator(parsec_mix3, catalog6, noise_sigma=0.0, seed=1)
        config = sim.equal_partition()
        sim.step(config)
        # Explicitly re-installing the identical configuration moves no
        # allocations, so the interval must be penalty-free.
        obs = sim.step(config)
        truth = sim.true_ips(config, at_time=0.1)
        assert np.allclose(obs.ips, truth, rtol=1e-9)

    def test_registers_unchanged(self, make_simulator):
        sim = make_simulator()
        config = sim.equal_partition()
        sim.apply(config)
        before = sim.msr.read(IA32_L3_QOS_MASK_BASE)
        sim.apply(config)
        assert sim.msr.read(IA32_L3_QOS_MASK_BASE) == before
        assert sim.current_config == config


class TestChurnMidRun:
    def test_swap_keeps_installed_config(self, make_simulator):
        from repro.workloads.registry import get_workload

        sim = make_simulator()
        config = sim.equal_partition()
        for _ in range(7):
            sim.step(config)
        sim.replace_workload(1, get_workload("vips"))
        # The co-location degree is unchanged, so the installed
        # partitioning stays valid and in force.
        assert sim.current_config == config
        obs = sim.step()
        assert obs.config == config
        assert all(v > 0 for v in obs.ips)

    def test_swap_at_unaligned_time_starts_phase_zero(self, make_simulator):
        from repro.workloads.registry import get_workload

        sim = make_simulator()
        # 0.7 s is not a multiple of any catalog workload's phase
        # period, so the offset shift must realign the newcomer.
        for _ in range(7):
            sim.step(sim.equal_partition())
        sim.replace_workload(2, get_workload("streamcluster"))
        assert sim.mix[2].phase_index_at(sim.time_s) == 0

    def test_swap_preserves_other_jobs_progress(self, make_simulator):
        from repro.workloads.registry import get_workload

        sim = make_simulator()
        for _ in range(5):
            obs = sim.step(sim.equal_partition())
        completed_before = obs.completed_runs
        sim.replace_workload(0, get_workload("vips"))
        obs = sim.step()
        assert obs.completed_runs[1:] >= completed_before[1:]
        assert obs.completed_runs[0] == 0


class TestFixedWork:
    def test_completions_accumulate(self, catalog6):
        mix = mix_from_names(["amg", "hypre"])
        # Shrink the fixed work so completions happen within a few steps.
        import dataclasses

        small = type(mix)(
            tuple(dataclasses.replace(w, total_instructions=1e8) for w in mix.workloads)
        )
        sim = CoLocationSimulator(small, catalog6, seed=0)
        obs = None
        for _ in range(10):
            obs = sim.step(sim.equal_partition())
        assert all(c >= 1 for c in obs.completed_runs)

    def test_phase_key(self, make_simulator):
        sim = make_simulator()
        key0 = sim.phase_key(at_time=0.0)
        assert len(key0) == 3
        assert key0 == tuple(w.phase_index_at(0.0) for w in sim.mix)


class TestBaselines:
    def test_measure_isolation_true_values(self, make_simulator):
        sim = make_simulator()
        iso = sim.measure_isolation()
        assert np.all(iso > 0)

    def test_noisy_isolation_close(self, make_simulator):
        sim = make_simulator()
        truth = sim.measure_isolation()
        noisy = sim.measure_isolation(noisy=True)
        assert np.allclose(noisy, truth, rtol=0.25)

    def test_phase_offset_changes_alignment(self, catalog6, parsec_mix3):
        a = CoLocationSimulator(parsec_mix3, catalog6, seed=1, phase_offset_s=0.0)
        b = CoLocationSimulator(parsec_mix3, catalog6, seed=1, phase_offset_s=1.7)
        assert not np.allclose(a.measure_isolation(), b.measure_isolation())


class TestIsolationMap:
    """measure_isolation() serves from a per-phase map; the reference is
    ``contention.isolation_ips``, which evaluates every job's model at t."""

    @staticmethod
    def _run_and_compare(sim, n_steps, seen):
        for _ in range(n_steps):
            obs = sim.step(sim.equal_partition())
            reference = isolation_ips(sim.mix, sim.catalog, sim.time_s)
            assert np.array_equal(sim.measure_isolation(), reference)
            assert obs.isolation_ips == tuple(reference)
            seen.update(w.phase_at(sim.time_s) for w in sim.mix)
            assert len(sim._isolation) <= len(seen)

    @staticmethod
    def _steps_for_two_periods(sim):
        period = max(w.schedule.period for w in sim.mix)
        return int(np.ceil(2 * period / sim.control_interval_s)) + 1

    def test_matches_reference_over_two_periods(self, make_simulator):
        sim = make_simulator(phase_offset_s=0.37)
        seen = {w.phase_at(0.0) for w in sim.mix}
        assert np.array_equal(sim.measure_isolation(), isolation_ips(sim.mix, sim.catalog, 0.0))
        self._run_and_compare(sim, self._steps_for_two_periods(sim), seen)
        # Every phase boundary was crossed, yet each phase was
        # evaluated once: one entry per distinct phase.
        assert len(sim._isolation) == len(seen)

    def test_matches_reference_after_rotated_swap(self, make_simulator):
        from repro.workloads.registry import get_workload

        sim = make_simulator()
        seen = set()
        self._run_and_compare(sim, 7, seen)
        # 0.7 s is not a multiple of the newcomer's period, so the
        # swap rotates its schedule with with_offset().
        vips = get_workload("vips")
        sim.replace_workload(1, vips)
        assert sim.mix[1] != vips
        assert sim.mix[1].phase_at(sim.time_s) == vips.phase_at(0.0)
        self._run_and_compare(sim, self._steps_for_two_periods(sim), seen)

    def test_map_stays_bounded_under_churn(self, make_simulator):
        from repro.workloads.registry import get_workload

        sim = make_simulator()
        names = ["vips", "canneal", "streamcluster", "fluidanimate"]
        hosted = {w.name: w for w in sim.mix}
        for round_ in range(12):
            for _ in range(9):
                sim.step(sim.equal_partition())
            newcomer = get_workload(names[round_ % len(names)])
            hosted[newcomer.name] = newcomer
            sim.replace_workload(round_ % sim.n_jobs, newcomer)
        phases = {phase for w in hosted.values() for _, phase in w.schedule.segments}
        assert len(sim._isolation) <= len(phases)


def counting(monkeypatch, owner, name, *also):
    """Rebind ``owner.name`` (and the same name on ``also``) to a
    wrapper that records each call; returns the call list."""
    calls = []
    solve = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    for other in also:
        monkeypatch.setattr(other, name, wrapper, raising=False)
    return calls


class TestContentionEntryPoints:
    """``perfbench/layers.py`` counts contention solves by rebinding
    ``evaluate_system`` and ``evaluate_system_batch`` on
    ``repro.system.simulation``; the simulator must keep resolving the
    solve through that module global.

    A step solves contention only when its key changed: the installed
    configuration or some job's phase at the interval's start, or the
    mix (``replace_workload``). Otherwise it reuses the last solve."""

    def test_module_exposes_the_solves(self):
        from repro.system import contention, simulation

        assert simulation.evaluate_system is contention.evaluate_system
        assert simulation.evaluate_system_batch is contention.evaluate_system_batch

    def test_step_solves_through_the_module_global(self, make_simulator, monkeypatch):
        """Five steps under one configuration in one phase: one solve."""
        from repro.system import simulation

        calls = counting(monkeypatch, simulation, "evaluate_system")
        sim = make_simulator()
        assert sim.phase_key(0.0) == sim.phase_key(0.4)
        sim.step(sim.equal_partition())
        for _ in range(4):
            sim.step()
        assert len(calls) == 1

    def test_step_solves_allocations_once(self, make_simulator, monkeypatch):
        """The reconfiguration penalty reads the allocations the
        interval's contention solve already computed, and a reused
        solve computes none."""
        from repro.system import contention, simulation

        # Also count a solve the simulator would make through a name of
        # its own.
        calls = counting(monkeypatch, contention, "effective_allocations", simulation)
        sim = make_simulator()
        sim.step(sim.equal_partition())
        for _ in range(4):
            sim.step()
        assert len(calls) == 1

    def test_alternating_configurations_solve_every_interval(
        self, make_simulator, monkeypatch
    ):
        from repro.system import contention, simulation

        solves = counting(monkeypatch, simulation, "evaluate_system")
        allocations = counting(monkeypatch, contention, "effective_allocations", simulation)
        sim = make_simulator()
        first = sim.equal_partition()
        second = first.move_unit(LLC_WAYS, 0, 1)
        for index in range(5):
            sim.step(first if index % 2 == 0 else second)
        assert len(solves) == 5
        assert len(allocations) == 5

    def test_phase_boundary_makes_a_solve(self, make_simulator, monkeypatch):
        from repro.system import simulation

        calls = counting(monkeypatch, simulation, "evaluate_system")
        sim = make_simulator()
        config = sim.equal_partition()
        keys = [sim.phase_key(0.1 * index) for index in range(40)]
        changes = sum(a != b for a, b in zip(keys, keys[1:]))
        assert changes >= 1
        for _ in keys:
            sim.step(config)
        assert len(calls) == 1 + changes
        # The solve after a boundary is the one a fresh solve gives.
        fresh = simulation.evaluate_system(sim.mix, sim.catalog, config, 3.9)
        assert np.array_equal(sim._solved[1].ips, fresh.ips)

    def test_replace_workload_makes_a_solve(self, make_simulator, monkeypatch):
        from repro.system import simulation
        from repro.workloads.registry import get_workload

        calls = counting(monkeypatch, simulation, "evaluate_system")
        sim = make_simulator()
        sim.step(sim.equal_partition())
        sim.step()
        assert len(calls) == 1
        sim.replace_workload(1, get_workload("vips"))
        sim.step()
        assert len(calls) == 2
        assert calls[-1][0] is sim.mix


class TestActuationCount:
    """A request for the installed configuration writes nothing, unless
    the fault schedule injects failing attempts at that time."""

    def test_same_configuration_programs_once(self, make_simulator, monkeypatch):
        sim = make_simulator()
        passes = counting(monkeypatch, sim, "_program")
        config = sim.equal_partition()
        for _ in range(5):
            sim.step(config)
        assert len(passes) == 1
        sim.step(config.move_unit(CORES, 0, 1))
        sim.apply(None)
        sim.step(config)
        assert len(passes) == 3

    def test_injected_failures_still_write(self, make_simulator, monkeypatch):
        from repro.faults.schedule import ACTUATION, OUTAGE_ATTEMPTS, FaultEvent, FaultSchedule

        schedule = FaultSchedule(
            (
                # One transient fault (retry rescues it), then an outage.
                FaultEvent(ACTUATION, 0.05, 0.15, magnitude=1),
                FaultEvent(ACTUATION, 0.25, 0.35, magnitude=OUTAGE_ATTEMPTS),
            )
        )
        sim = make_simulator(fault_schedule=schedule, actuation_retries=2)
        passes = counting(monkeypatch, sim, "_program")
        config = sim.equal_partition()
        ok = [sim.step(config).actuation_ok for _ in range(5)]
        # Intervals 0, 2 and 4 are clean: one pass installs, then none.
        # Interval 1 fails once and writes twice; interval 3 fails all
        # three attempts and keeps the configuration it had.
        assert ok == [True, True, True, False, True]
        assert len(passes) == 1 + 2 + 3
        assert sim.fault_counters["actuation_failures"] == 1 + 3
        assert sim.fault_counters["actuation_exhausted"] == 1
        assert sim.current_config == config
        assert sim.msr.read(IA32_L3_QOS_MASK_BASE) != 0
