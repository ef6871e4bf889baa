"""Tests for workload-profile validation and monitoring fault injection."""

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.faults.plan import FaultPlan
from repro.faults.schedule import FaultSchedule
from repro.hardware.pqos import PqosMonitor
from repro.workloads.model import Phase, PhaseSchedule, Workload
from repro.workloads.registry import get_workload
from repro.workloads.validation import (
    ERROR,
    INFO,
    WARNING,
    assert_valid,
    validate_workload,
)

MB = float(2**20)


def make_workload(phase, n_phases=1):
    segments = tuple((2.0, phase) for _ in range(n_phases))
    return Workload(
        name="w", suite="synthetic", description="", schedule=PhaseSchedule(segments)
    )


class TestValidation:
    def test_registry_workloads_have_no_errors(self, registry, paper_catalog):
        """Every shipped benchmark profile must be plausible."""
        for name in registry.names:
            findings = validate_workload(registry.get(name), paper_catalog)
            assert not [f for f in findings if f.severity == ERROR], name

    def test_absurd_miss_rate_flagged(self):
        phase = Phase(
            ips_per_core=2e9,
            parallel_fraction=0.9,
            working_set_bytes=8 * MB,
            miss_peak=0.5,
            miss_floor=0.001,
        )
        findings = validate_workload(make_workload(phase))
        assert any(f.severity == ERROR and "miss_peak" in f.message for f in findings)

    def test_absurd_core_speed_flagged(self):
        phase = Phase(
            ips_per_core=1e11,
            parallel_fraction=0.9,
            working_set_bytes=8 * MB,
            miss_peak=0.01,
            miss_floor=0.001,
        )
        findings = validate_workload(make_workload(phase))
        assert any("exceeds any real core" in f.message for f in findings)

    def test_memory_never_binds_warned(self):
        phase = Phase(
            ips_per_core=1e8,  # tiny compute demand, huge memory headroom
            parallel_fraction=0.5,
            working_set_bytes=0.1 * MB,
            miss_peak=0.0002,
            miss_floor=0.0001,
            stream_bytes_per_instr=0.0,
        )
        findings = validate_workload(make_workload(phase))
        assert any(f.severity == WARNING and "never binds" in f.message for f in findings)

    def test_huge_working_set_is_info(self):
        phase = Phase(
            ips_per_core=1.5e9,
            parallel_fraction=0.9,
            working_set_bytes=2000 * MB,
            miss_peak=0.02,
            miss_floor=0.01,
            stream_bytes_per_instr=0.5,
        )
        findings = validate_workload(make_workload(phase))
        assert any(f.severity == INFO and "working set" in f.message for f in findings)

    def test_phase_free_workload_noted(self):
        phase = Phase(
            ips_per_core=1.5e9,
            parallel_fraction=0.9,
            working_set_bytes=6 * MB,
            miss_peak=0.01,
            miss_floor=0.002,
            stream_bytes_per_instr=0.5,
        )
        findings = validate_workload(make_workload(phase, n_phases=3))
        assert any("phase-free" in f.message for f in findings)

    def test_findings_sorted_by_severity(self):
        phase = Phase(
            ips_per_core=1e11,
            parallel_fraction=0.9,
            working_set_bytes=2000 * MB,
            miss_peak=0.02,
            miss_floor=0.01,
        )
        findings = validate_workload(make_workload(phase))
        severities = [f.severity for f in findings]
        order = {ERROR: 0, WARNING: 1, INFO: 2}
        assert severities == sorted(severities, key=order.get)

    def test_assert_valid_raises_on_error(self):
        phase = Phase(
            ips_per_core=1e11,
            parallel_fraction=0.9,
            working_set_bytes=8 * MB,
            miss_peak=0.01,
            miss_floor=0.001,
        )
        with pytest.raises(ValueError):
            assert_valid(make_workload(phase))

    def test_assert_valid_passes_good_profile(self):
        assert_valid(get_workload("canneal"))

    def test_finding_str(self):
        phase = Phase(
            ips_per_core=1e11,
            parallel_fraction=0.9,
            working_set_bytes=8 * MB,
            miss_peak=0.01,
            miss_floor=0.001,
        )
        findings = validate_workload(make_workload(phase))
        assert "phase 0" in str(findings[0])


class TestFaultInjection:
    def test_clean_monitor_by_default(self):
        monitor = PqosMonitor(noise_sigma=0.0, rng=0)
        values = [monitor.observe([1e9], 0.1)[0].ips for _ in range(200)]
        assert all(v == 1e9 for v in values)

    @staticmethod
    def glitch_factors(make_simulator, plan, n_steps):
        """Reported / uncorrupted IPS of every sample of a faulted run."""
        schedule = FaultSchedule.generate(
            plan, n_jobs=3, duration_s=n_steps * 0.1, interval_s=0.1, seed=1
        )
        sim = make_simulator(fault_schedule=schedule)
        config = sim.equal_partition()
        factors = []
        for _ in range(n_steps):
            obs = sim.step(config)
            factors.append(np.asarray(obs.ips) / np.asarray(sim.last_true_ips))
        return np.concatenate(factors), sim.fault_counters["samples_outlier"]

    def test_outliers_injected_at_rate(self, make_simulator):
        factors, counted = self.glitch_factors(
            make_simulator, FaultPlan(sample_outlier_rate=0.2), n_steps=300
        )
        glitched = np.abs(np.log(factors)) > 1e-9
        assert 0.1 < glitched.mean() < 0.3
        assert glitched.sum() == counted

    def test_outlier_magnitude_bounded(self, make_simulator):
        plan = FaultPlan(sample_outlier_rate=0.5, sample_outlier_scale=4.0)
        factors, _ = self.glitch_factors(make_simulator, plan, n_steps=150)
        glitched = factors[np.abs(np.log(factors)) > 1e-9]
        assert len(glitched) > 0
        # Log-uniform in [scale**0.5, scale], randomly inverted.
        magnitude = np.maximum(glitched, 1.0 / glitched)
        assert magnitude.min() >= 2.0 * 0.999
        assert magnitude.max() <= 4.0 * 1.001
        assert (glitched > 1).any() and (glitched < 1).any()

    def test_invalid_parameters(self):
        with pytest.raises(ExperimentError):
            FaultPlan(sample_outlier_rate=1.5)
        with pytest.raises(ExperimentError):
            FaultPlan(sample_outlier_scale=0.5)

    def test_satori_survives_glitchy_counters(self, catalog6, parsec_mix3):
        """SATORI must degrade gracefully, not collapse, under glitches."""
        from repro.core.controller import SatoriController
        from repro.experiments.comparison import full_space
        from repro.system.simulation import CoLocationSimulator

        def run(outlier_rate):
            schedule = FaultSchedule.generate(
                FaultPlan(sample_outlier_rate=outlier_rate),
                n_jobs=3, duration_s=12.0, interval_s=0.1, seed=3,
            )
            sim = CoLocationSimulator(parsec_mix3, catalog6, seed=3, fault_schedule=schedule)
            controller = SatoriController(full_space(catalog6, 3), rng=3)
            observation = None
            objectives = []
            for _ in range(120):
                config = controller.decide(observation)
                observation = sim.step(config)
                truth = sim.true_ips()
                iso = sim.measure_isolation()
                s = truth / iso
                objectives.append(0.5 * float(np.mean(s)))
            return float(np.mean(objectives[-40:])), sim.fault_counters["samples_outlier"]

        clean, _ = run(0.0)
        glitchy, glitches = run(0.05)
        assert glitches > 0
        assert glitchy > clean * 0.8
