"""Tests for the shared-resource contention model."""

import numpy as np
import pytest

from repro.resources.allocation import Configuration, equal_partition
from repro.resources.types import CORES, LLC_WAYS, MEMORY_BANDWIDTH
from repro.system.contention import (
    MIN_INTERFERENCE_FACTOR,
    effective_allocations,
    evaluate_system,
    interference_factors,
    isolation_ips,
)
from repro.workloads.mixes import mix_from_names


@pytest.fixture
def mix():
    return mix_from_names(["canneal", "fluidanimate", "streamcluster"])


class TestEffectiveAllocations:
    def test_partitioned_resources_pass_through(self, mix, catalog6):
        config = equal_partition(catalog6, 3)
        alloc = effective_allocations(mix, catalog6, config)
        assert list(alloc[CORES]) == list(config.units(CORES))

    def test_shared_resources_sum_to_total(self, mix, catalog6):
        alloc = effective_allocations(mix, catalog6, None)
        for resource in catalog6:
            assert np.sum(alloc[resource.name]) == pytest.approx(resource.units)

    def test_partial_configuration(self, mix, catalog6):
        config = Configuration({LLC_WAYS: (2, 2, 2)})
        alloc = effective_allocations(mix, catalog6, config)
        assert list(alloc[LLC_WAYS]) == [2, 2, 2]
        assert np.sum(alloc[CORES]) == pytest.approx(catalog6.get(CORES).units)

    def test_shared_llc_favours_high_pressure_jobs(self, mix, catalog6):
        """Streaming jobs grab an unpartitioned LLC (pressure shares)."""
        alloc = effective_allocations(mix, catalog6, None)
        names = mix.names
        streamcluster = alloc[LLC_WAYS][names.index("streamcluster")]
        canneal = alloc[LLC_WAYS][names.index("canneal")]
        assert streamcluster > canneal

    def test_shared_cores_favour_parallel_jobs(self, mix, catalog6):
        """Per-thread timeslicing gives parallel jobs more CPU."""
        alloc = effective_allocations(mix, catalog6, None)
        names = mix.names
        fluid = alloc[CORES][names.index("fluidanimate")]
        canneal = alloc[CORES][names.index("canneal")]
        assert fluid > 2 * canneal


class TestInterference:
    def test_fully_partitioned_no_penalty(self, mix, catalog6):
        config = equal_partition(catalog6, 3)
        assert np.allclose(interference_factors(mix, catalog6, config), 1.0)

    def test_unmanaged_has_penalty(self, mix, catalog6):
        factors = interference_factors(mix, catalog6, None)
        assert np.all(factors < 1.0)
        assert np.all(factors >= MIN_INTERFERENCE_FACTOR)

    def test_partial_partitioning_between(self, mix, catalog6):
        partial = Configuration({LLC_WAYS: (2, 2, 2)})
        unmanaged = interference_factors(mix, catalog6, None)
        partialf = interference_factors(mix, catalog6, partial)
        assert np.all(partialf >= unmanaged)

    def test_single_job_no_penalty(self, catalog6, synthetic_pair):
        factors = interference_factors(synthetic_pair, catalog6, None)
        assert factors.shape == (2,)


class TestEvaluateSystem:
    def test_full_partition_matches_workload_model(self, mix, catalog6):
        config = equal_partition(catalog6, 3)
        state = evaluate_system(mix, catalog6, config, t=0.0)
        for j, workload in enumerate(mix):
            expected = workload.ips_under(
                catalog6,
                0.0,
                cores=config.units(CORES)[j],
                llc_ways=config.units(LLC_WAYS)[j],
                bandwidth_units=config.units(MEMORY_BANDWIDTH)[j],
            )
            assert state.ips[j] == pytest.approx(expected, rel=1e-9)

    def test_unmanaged_worse_than_best_partition(self, mix, catalog6):
        """Unmanaged sharing loses to the best managed partition.

        (A rigid *equal* split does not always beat work-conserving
        sharing — the OS feeds the most parallel job — but the optimal
        partition does, on both goals at once.)
        """
        from repro.metrics.goals import GoalSet
        from repro.policies.oracle import OracleSearch
        from repro.system.contention import isolation_ips as iso_fn

        goals = GoalSet()
        iso = iso_fn(mix, catalog6, 0.0)
        best = OracleSearch(mix, catalog6, goals).best(0.0, 0.5, 0.5)
        unman = goals.scores(evaluate_system(mix, catalog6, None, 0.0).ips, iso)
        assert unman.weighted(0.5, 0.5) < best.objective
        assert unman.fairness < best.fairness

    def test_shared_bandwidth_respects_capacity(self, mix, catalog6):
        state = evaluate_system(mix, catalog6, None, 0.0)
        total_traffic = state.memory_bandwidth_bytes_s.sum()
        capacity = catalog6.get(MEMORY_BANDWIDTH).capacity
        assert total_traffic <= capacity * 1.01

    def test_latency_sensitive_jobs_hurt_more_when_bus_shared(self, catalog6):
        """canneal (latency bound) loses more than streamcluster under sharing."""
        mix = mix_from_names(["canneal", "streamcluster", "blackscholes"])
        config = equal_partition(catalog6, 3)
        iso = isolation_ips(mix, catalog6, 0.0)
        part = evaluate_system(mix, catalog6, config, 0.0).ips / iso
        shared_bw = config.restrict([CORES, LLC_WAYS])
        shar = evaluate_system(mix, catalog6, shared_bw, 0.0).ips / iso
        loss = 1.0 - shar / part
        names = mix.names
        assert loss[names.index("canneal")] > loss[names.index("streamcluster")]

    def test_ips_positive(self, mix, catalog6):
        for config in (None, equal_partition(catalog6, 3)):
            state = evaluate_system(mix, catalog6, config, 1.0)
            assert np.all(state.ips > 0)

    def test_phase_dependence(self, mix, catalog6):
        config = equal_partition(catalog6, 3)
        a = evaluate_system(mix, catalog6, config, 0.0).ips
        b = evaluate_system(mix, catalog6, config, 6.0).ips
        assert not np.allclose(a, b)

    def test_occupancy_bounded_by_allocation_and_working_set(self, mix, catalog6):
        config = equal_partition(catalog6, 3)
        state = evaluate_system(mix, catalog6, config, 0.0)
        way_bytes = catalog6.get(LLC_WAYS).unit_capacity
        for j, workload in enumerate(mix):
            assert state.llc_occupancy_bytes[j] <= config.units(LLC_WAYS)[j] * way_bytes + 1
            assert state.llc_occupancy_bytes[j] <= workload.phase_at(0.0).working_set_bytes + 1

    def test_state_carries_the_allocations_it_solved(self, mix, catalog6):
        partial = Configuration({LLC_WAYS: (2, 2, 2)})
        for t in (0.0, 6.0):
            for config in (None, equal_partition(catalog6, 3), partial):
                state = evaluate_system(mix, catalog6, config, t)
                expected = effective_allocations(mix, catalog6, config, t)
                assert list(state.allocations) == list(expected) == list(catalog6.names)
                for name, units in expected.items():
                    assert np.array_equal(state.allocations[name], units)


class TestIsolation:
    def test_isolation_beats_any_partition(self, mix, catalog6):
        iso = isolation_ips(mix, catalog6, 0.0)
        config = equal_partition(catalog6, 3)
        state = evaluate_system(mix, catalog6, config, 0.0)
        assert np.all(state.ips <= iso * 1.0001)

    def test_isolation_positive(self, mix, catalog6):
        assert np.all(isolation_ips(mix, catalog6, 3.0) > 0)
