"""Tests for trace-driven workload construction."""

import pytest

from repro.errors import WorkloadError
from repro.workloads.registry import get_workload
from repro.workloads.trace import (
    TraceSample,
    fit_phase,
    synthesize_trace,
    workload_from_trace,
)

MB = float(2**20)


def make_sample(**overrides):
    params = dict(
        duration_s=3.0,
        ips_one_core=2e9,
        ips_all_cores=9e9,
        n_cores=8,
        cache_probe_bytes=(1 * MB, 4 * MB, 13.75 * MB),
        ips_at_cache=(5e9, 7e9, 9e9),
        bandwidth_bytes_s=6e9,
    )
    params.update(overrides)
    return TraceSample(**params)


class TestTraceSampleValidation:
    def test_valid(self):
        make_sample()

    def test_negative_duration(self):
        with pytest.raises(WorkloadError):
            make_sample(duration_s=0)

    def test_all_core_below_one_core(self):
        with pytest.raises(WorkloadError):
            make_sample(ips_all_cores=1e9)

    def test_mismatched_probe_arrays(self):
        with pytest.raises(WorkloadError):
            make_sample(ips_at_cache=(5e9,))

    def test_single_probe_rejected(self):
        with pytest.raises(WorkloadError):
            make_sample(cache_probe_bytes=(1 * MB,), ips_at_cache=(5e9,))


class TestFitPhase:
    def test_amdahl_recovered(self):
        phase = fit_phase(make_sample())
        # speedup 4.5 on 8 cores -> p = (1 - 1/4.5)/(1 - 1/8) = 0.889
        assert phase.parallel_fraction == pytest.approx(0.889, abs=0.01)
        assert phase.ips_per_core == pytest.approx(2e9)

    def test_miss_curve_ordered(self):
        phase = fit_phase(make_sample())
        assert phase.miss_peak >= phase.miss_floor > 0
        assert phase.working_set_bytes > 0

    def test_cache_insensitive_trace(self):
        phase = fit_phase(make_sample(ips_at_cache=(9e9, 9e9, 9e9)))
        assert phase.miss_peak <= phase.miss_floor * 2 + 1e-6


class TestWorkloadFromTrace:
    def test_builds_cyclic_schedule(self):
        workload = workload_from_trace("traced", [make_sample(), make_sample(duration_s=2.0)])
        assert workload.suite == "trace"
        assert workload.schedule.period == pytest.approx(5.0)

    def test_empty_trace_rejected(self):
        with pytest.raises(WorkloadError):
            workload_from_trace("traced", [])


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["swaptions", "canneal", "streamcluster"])
    def test_refit_preserves_core_scaling(self, name):
        """Synthesize a probe trace from a known model and re-fit it;
        the fitted model's core-scaling behaviour must match."""
        original = get_workload(name)
        trace = synthesize_trace(original, n_cores=8)
        refit = workload_from_trace(name + "_refit", trace)
        for t in (0.0,):
            orig_phase = original.phase_at(t)
            refit_phase = refit.phase_at(t)
            assert refit_phase.parallel_fraction == pytest.approx(
                orig_phase.parallel_fraction, abs=0.08
            )
            assert refit_phase.ips_per_core == pytest.approx(
                orig_phase.ips_per_core, rel=0.35
            )

    def test_refit_workload_runs_in_simulator(self, catalog6):
        from repro.system.simulation import CoLocationSimulator
        from repro.workloads.mixes import JobMix

        traced = workload_from_trace(
            "traced", synthesize_trace(get_workload("canneal"))
        )
        mix = JobMix((traced, get_workload("amg"), get_workload("hypre")))
        sim = CoLocationSimulator(mix, catalog6, seed=0)
        obs = sim.step(sim.equal_partition())
        assert all(v > 0 for v in obs.ips)
