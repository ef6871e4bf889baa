"""Unit and property tests for the roofline workload model."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workloads.model import (
    CACHE_LINE_BYTES,
    Phase,
    PhaseSchedule,
    Workload,
    smoothmin,
)
from repro.workloads.registry import default_registry

MB = float(2**20)


def make_phase(**overrides):
    params = dict(
        ips_per_core=2e9,
        parallel_fraction=0.9,
        working_set_bytes=8 * MB,
        miss_peak=0.01,
        miss_floor=0.001,
        stream_bytes_per_instr=0.5,
    )
    params.update(overrides)
    return Phase(**params)


class TestSmoothmin:
    def test_below_both_inputs(self):
        assert smoothmin(3.0, 5.0) < 3.0

    def test_approaches_min_when_far_apart(self):
        assert smoothmin(1.0, 100.0) == pytest.approx(1.0, rel=0.01)

    def test_symmetric(self):
        assert smoothmin(2.0, 7.0) == pytest.approx(smoothmin(7.0, 2.0))

    def test_vectorized(self):
        out = smoothmin(np.array([1.0, 2.0]), np.array([2.0, 1.0]))
        assert out.shape == (2,)
        assert out[0] == pytest.approx(out[1])

    def test_monotone_in_each_argument(self):
        assert smoothmin(2.0, 5.0) < smoothmin(3.0, 5.0)
        assert smoothmin(2.0, 5.0) < smoothmin(2.0, 6.0)


class TestPhaseValidation:
    def test_negative_ips_rejected(self):
        with pytest.raises(WorkloadError):
            make_phase(ips_per_core=-1)

    def test_parallel_fraction_range(self):
        with pytest.raises(WorkloadError):
            make_phase(parallel_fraction=1.5)

    def test_miss_ordering_enforced(self):
        with pytest.raises(WorkloadError):
            make_phase(miss_peak=0.001, miss_floor=0.01)

    def test_negative_stream_rejected(self):
        with pytest.raises(WorkloadError):
            make_phase(stream_bytes_per_instr=-0.1)

    def test_latency_sensitivity_range(self):
        with pytest.raises(WorkloadError):
            make_phase(latency_sensitivity=1.5)


class TestPhaseModel:
    def test_amdahl_one_core_is_one(self):
        assert make_phase().amdahl_speedup(1) == pytest.approx(1.0)

    def test_amdahl_monotone_in_cores(self):
        phase = make_phase()
        speedups = [phase.amdahl_speedup(c) for c in range(1, 11)]
        assert all(b > a for a, b in zip(speedups, speedups[1:]))

    def test_amdahl_bounded_by_serial_fraction(self):
        phase = make_phase(parallel_fraction=0.5)
        assert phase.amdahl_speedup(1000) < 2.0 + 1e-6

    def test_fully_parallel_scales_linearly(self):
        phase = make_phase(parallel_fraction=1.0)
        assert phase.amdahl_speedup(8) == pytest.approx(8.0)

    def test_miss_rate_decreasing_in_cache(self):
        phase = make_phase()
        sizes = np.linspace(0, 20 * MB, 30)
        misses = phase.miss_rate(sizes)
        assert np.all(np.diff(misses) <= 1e-12)

    def test_miss_rate_bounds(self):
        phase = make_phase()
        assert phase.miss_rate(0.0) <= phase.miss_peak + 1e-9
        assert phase.miss_rate(1e12) >= phase.miss_floor - 1e-9

    def test_miss_rate_cliff_around_working_set(self):
        """Most of the miss reduction happens near the working-set knee."""
        phase = make_phase()
        ws = phase.working_set_bytes
        drop_at_knee = phase.miss_rate(0.2 * ws) - phase.miss_rate(ws)
        total_drop = phase.miss_peak - phase.miss_floor
        assert drop_at_knee > 0.8 * total_drop

    def test_bytes_per_instruction_includes_stream(self):
        phase = make_phase(stream_bytes_per_instr=1.0)
        assert phase.bytes_per_instruction(1e12) == pytest.approx(
            phase.miss_rate(1e12) * CACHE_LINE_BYTES + 1.0, rel=1e-6
        )

    def test_memory_rate_linear_in_bandwidth(self):
        phase = make_phase()
        r1 = phase.memory_rate(4 * MB, 1e9)
        r2 = phase.memory_rate(4 * MB, 2e9)
        assert r2 == pytest.approx(2 * r1)

    def test_ips_below_both_rooflines(self):
        phase = make_phase()
        ips = phase.ips(4, 4 * MB, 2e9)
        assert ips <= phase.compute_rate(4)
        assert ips <= phase.memory_rate(4 * MB, 2e9)

    def test_ips_monotone_in_every_resource(self):
        phase = make_phase()
        base = phase.ips(2, 2 * MB, 2e9)
        assert phase.ips(4, 2 * MB, 2e9) > base
        assert phase.ips(2, 12 * MB, 2e9) > base
        assert phase.ips(2, 2 * MB, 4e9) > base

    def test_frequency_factor_scales_compute(self):
        phase = make_phase()
        assert phase.compute_rate(4, 0.5) == pytest.approx(0.5 * phase.compute_rate(4))

    def test_scaled_multiplies(self):
        phase = make_phase()
        scaled = phase.scaled(ips_per_core=0.5, miss_peak=2.0)
        assert scaled.ips_per_core == pytest.approx(1e9)
        assert scaled.miss_peak == pytest.approx(0.02)

    def test_scaled_clamps_parallel_fraction(self):
        assert make_phase(parallel_fraction=0.9).scaled(parallel_fraction=2.0).parallel_fraction == 1.0

    def test_scaled_unknown_param_rejected(self):
        with pytest.raises(WorkloadError):
            make_phase().scaled(bogus=2.0)

    @given(
        cores=st.floats(min_value=1, max_value=10),
        cache_mb=st.floats(min_value=0.5, max_value=16),
        bw_gb=st.floats(min_value=0.5, max_value=24),
    )
    @settings(max_examples=50, deadline=None)
    def test_ips_always_positive_finite(self, cores, cache_mb, bw_gb):
        ips = make_phase().ips(cores, cache_mb * MB, bw_gb * 1e9)
        assert np.isfinite(ips) and ips > 0


class TestPhaseSchedule:
    @pytest.fixture
    def schedule(self):
        return PhaseSchedule(
            (
                (2.0, make_phase()),
                (3.0, make_phase(ips_per_core=1e9)),
                (1.0, make_phase(ips_per_core=3e9)),
            )
        )

    def test_period(self, schedule):
        assert schedule.period == pytest.approx(6.0)

    def test_phase_index_at(self, schedule):
        assert schedule.phase_index_at(0.0) == 0
        assert schedule.phase_index_at(2.5) == 1
        assert schedule.phase_index_at(5.5) == 2

    def test_cyclic(self, schedule):
        assert schedule.phase_index_at(6.5) == 0
        assert schedule.phase_index_at(12.0 + 2.5) == 1

    def test_negative_time_rejected(self, schedule):
        with pytest.raises(WorkloadError):
            schedule.phase_at(-1.0)

    def test_empty_rejected(self):
        with pytest.raises(WorkloadError):
            PhaseSchedule(())

    def test_non_positive_duration_rejected(self):
        with pytest.raises(WorkloadError):
            PhaseSchedule(((0.0, make_phase()),))

    def test_constant(self):
        schedule = PhaseSchedule.constant(make_phase())
        assert schedule.phase_index_at(100.25) == 0

    @staticmethod
    def summing_lookup(schedule, t):
        """Reference: the period re-summed and the segments walked on
        every call."""
        t = t % sum(duration for duration, _ in schedule.segments)
        elapsed = 0.0
        for index, (duration, _phase) in enumerate(schedule.segments):
            elapsed += duration
            if t < elapsed:
                return index
        return len(schedule.segments) - 1

    def test_phase_index_at_matches_the_summing_loop(self, schedule):
        registry = default_registry()
        schedules = [
            schedule,
            PhaseSchedule.constant(make_phase(), duration=0.3),
            # Durations whose running sums round (0.1 + 0.2 != 0.3).
            PhaseSchedule(tuple((d, make_phase()) for d in (0.1, 0.2, 0.3, 0.7, 1.1))),
            *(registry.get(name).schedule for name in registry.names),
        ]
        for candidate in schedules:
            edges, elapsed = [0.0], 0.0
            for duration, _phase in candidate.segments:
                elapsed += duration
                edges.append(elapsed)
            times = {0.1 * step for step in range(400)}
            lap = 0.0
            for _ in range(6):
                for edge in edges:
                    t = lap + edge
                    times.update((t, math.nextafter(t, 0.0), math.nextafter(t, math.inf)))
                lap += candidate.period
            times.update(k * candidate.period for k in range(1, 40))
            for t in sorted(times):
                assert candidate.phase_index_at(t) == self.summing_lookup(candidate, t), (
                    candidate, t)

    def test_cached_lookups_are_not_fields(self, schedule):
        # Workloads enter spec digests through dataclasses.asdict.
        schedule.phase_index_at(1.0)
        assert [field.name for field in dataclasses.fields(schedule)] == ["segments"]
        assert dataclasses.asdict(schedule).keys() == {"segments"}
        assert schedule == PhaseSchedule(schedule.segments)


class TestWorkload:
    def test_isolation_ips_uses_full_machine(self, catalog6):
        workload = Workload(
            name="w", suite="synthetic", description="", schedule=PhaseSchedule.constant(make_phase())
        )
        iso = workload.isolation_ips(catalog6, 0.0)
        partial = workload.ips_under(catalog6, 0.0, cores=2, llc_ways=2, bandwidth_units=2)
        assert iso > partial

    def test_with_offset_shifts_phase(self):
        workload = Workload(
            name="w",
            suite="synthetic",
            description="",
            schedule=PhaseSchedule(((2.0, make_phase()), (2.0, make_phase(ips_per_core=1e9)))),
        )
        shifted = workload.with_offset(2.0)
        # Segment indices renumber after rotation; the active *phase*
        # must match the unshifted workload two seconds in.
        assert shifted.phase_at(0.0).ips_per_core == workload.phase_at(2.0).ips_per_core
        assert shifted.schedule.period == pytest.approx(workload.schedule.period)

    def test_with_offset_zero_identity(self):
        workload = Workload(
            name="w", suite="synthetic", description="", schedule=PhaseSchedule.constant(make_phase())
        )
        assert workload.with_offset(0.0) is workload

    def test_with_offset_partial(self):
        workload = Workload(
            name="w",
            suite="synthetic",
            description="",
            schedule=PhaseSchedule(((2.0, make_phase()), (2.0, make_phase(ips_per_core=1e9)))),
        )
        shifted = workload.with_offset(1.0)
        assert shifted.schedule.period == pytest.approx(4.0)
        assert shifted.phase_at(0.5).ips_per_core == workload.phase_at(1.5).ips_per_core

    def test_contention_sensitivity_validated(self):
        with pytest.raises(WorkloadError):
            Workload(
                name="w",
                suite="s",
                description="",
                schedule=PhaseSchedule.constant(make_phase()),
                contention_sensitivity=2.0,
            )
