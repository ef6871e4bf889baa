"""Paired bit-identity tests for the batched evaluation core.

The batched data path (DESIGN.md "Batched evaluation core") promises
that every batched entry point — the BO row pool, :class:`PhaseVector`,
:meth:`OracleSearch.evaluate_batch` and the stacked
:func:`evaluate_system_batch` — is *bit-identical* to the reference it
stands for, that :func:`evaluate_system`, the simulator's contention
solve, equals the batch-of-one solve it replaced, and that the
simulator's :meth:`CoLocationSimulator.true_ips` is that solve at its
clock. These tests pin each pairing with exact (``==`` /
``np.array_equal``) comparisons, not tolerances.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.bo as bo_module
from repro.core.bo import BayesianOptimizer
from repro.core.objective import GoalRecords
from repro.faults.plan import FaultPlan
from repro.faults.schedule import FaultSchedule
from repro.experiments.extensions import power_catalog
from repro.experiments.runner import experiment_catalog
from repro.policies.oracle import OracleSearch
from repro.resources.allocation import Configuration
from repro.resources.space import ConfigurationSpace
from repro.resources.types import (
    CORES,
    LLC_WAYS,
    MEMORY_BANDWIDTH,
    POWER,
    Resource,
    ResourceCatalog,
    ResourceKind,
    default_catalog,
)
from repro.rng import rng_from_state, rng_state
from repro.system import contention
from repro.system.contention import (
    SystemState,
    effective_allocations,
    evaluate_system,
    evaluate_system_batch,
    interference_factors,
)
from repro.system.simulation import CoLocationSimulator
from repro.workloads.mixes import mix_from_names, suite_mixes
from repro.workloads.model import Phase, PhaseVector
from repro.workloads.registry import default_registry

MIX = mix_from_names(["canneal", "fluidanimate", "streamcluster"])
CATALOG = experiment_catalog(units=6)
SPACE = ConfigurationSpace(CATALOG, len(MIX))

#: A plan that keeps faults firing throughout the short test runs.
BUSY_FAULTS = FaultPlan(
    actuation_fail_rate=0.5,
    sample_drop_rate=0.3,
    sample_outlier_rate=0.3,
    crash_rate=0.2,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
times = st.floats(min_value=0.0, max_value=40.0, allow_nan=False)


def sample_configs(seed: int, n: int, with_none: bool = True):
    """A mixed batch: sampled configs plus the unmanaged (None) server."""
    rng = np.random.default_rng(seed)
    configs = list(SPACE.sample_batch(n, rng))
    if with_none:
        configs.insert(len(configs) // 2, None)
    return configs


# -- configuration space --------------------------------------------------


class TestSpacePairing:
    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_sample_loop_matches_batch(self, seed):
        """n scalar sample() calls == one sample_batch(n), same stream.

        The vectorized sampler draws its uniform keys row-major, so a
        loop of scalar draws consumes the identical RNG stream — the
        configurations must match exactly, not just in distribution.
        """
        n = 1 + seed % 12
        batch = SPACE.sample_batch(n, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        looped = [SPACE.sample(rng) for _ in range(n)]
        assert looped == batch
        for config in batch:
            assert SPACE.contains(config)

    def test_single_job_space(self):
        space = ConfigurationSpace(CATALOG, 1)
        batch = space.sample_batch(3, np.random.default_rng(0))
        for config in batch:
            assert space.contains(config)
            for resource in CATALOG:
                assert config.units(resource.name) == (resource.units,)

    def test_empty_batch(self):
        assert SPACE.sample_batch(0, np.random.default_rng(0)) == []

    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_encode_loop_matches_encode_batch(self, seed):
        configs = sample_configs(seed, 1 + seed % 8, with_none=False)
        batch = SPACE.encode_batch(configs)
        assert batch.shape == (len(configs), SPACE.dimensions)
        for row, config in zip(batch, configs):
            assert np.array_equal(row, SPACE.encode(config))

    def test_encode_batch_empty(self):
        empty = SPACE.encode_batch([])
        assert empty.shape == (0, SPACE.dimensions)

    def test_encode_batch_rejects_foreign_config(self):
        from repro.errors import SpaceError

        other = ConfigurationSpace(experiment_catalog(units=8), len(MIX))
        configs = sample_configs(0, 2, with_none=False)
        bad = other.sample_batch(1, np.random.default_rng(1))[0]
        with pytest.raises(SpaceError):
            SPACE.encode_batch(configs + [bad])


# -- BO candidate pool (row form) -----------------------------------------
#
# The reference is the Configuration-list pool the row form replaced:
# sampled configurations, the incumbent's one-unit moves, the incumbent
# and the last 8 samples, deduplicated to first occurrences, then
# encoded resource by resource.


def reference_sample_batch(space, n, rng):
    """Uniform configurations, decoded from one row of keys each."""
    j = space.n_jobs
    slots = [r.units - j * r.min_units + j - 1 if j > 1 else 0 for r in space.catalog]
    keys = rng.random((n, sum(slots)))
    shares, start = [], 0
    for resource, width in zip(space.catalog, slots):
        if j == 1:
            shares.append(np.full((n, 1), resource.units, dtype=np.int64))
            continue
        order = np.argsort(keys[:, start : start + width], axis=1, kind="stable")
        cuts = np.sort(order[:, : j - 1], axis=1)
        bounds = np.concatenate(
            [np.full((n, 1), -1), cuts, np.full((n, 1), width)], axis=1
        )
        shares.append(np.diff(bounds, axis=1) - 1 + resource.min_units)
        start += width
    return [
        Configuration(
            {r.name: tuple(int(u) for u in share[i]) for r, share in zip(space.catalog, shares)}
        )
        for i in range(n)
    ]


def reference_neighbors(space, config):
    result = []
    for resource in space.catalog:
        units = config.units(resource.name)
        for donor in range(space.n_jobs):
            if units[donor] - 1 < resource.min_units:
                continue
            for receiver in range(space.n_jobs):
                if receiver != donor:
                    result.append(config.move_unit(resource.name, donor, receiver))
    return result


def reference_encode_batch(space, configs):
    return np.concatenate(
        [
            np.asarray([c.units(r.name) for c in configs], dtype=np.int64).reshape(
                len(configs), space.n_jobs
            )
            / r.units
            for r in space.catalog
        ],
        axis=1,
    )


def reference_pool(space, rng, pool_size, records, weights):
    pool = reference_sample_batch(space, pool_size, rng)
    best, _ = records.best(weights)
    pool.extend(reference_neighbors(space, best))
    pool.append(best)
    pool.extend(s.config for s in records.samples[-8:])
    seen, unique = set(), []
    for config in pool:
        if config not in seen:
            seen.add(config)
            unique.append(config)
    return unique


def as_rows(space, configs):
    return np.asarray(
        [[u for r in space.catalog for u in c.units(r.name)] for c in configs],
        dtype=np.int64,
    ).reshape(len(configs), space.dimensions)


def _min_units_2():
    # Unequal unit counts, so a share divided by the wrong resource's
    # units shows in the encoding.
    return ResourceCatalog(
        Resource(r.kind, r.units, min_units=2, unit_capacity=r.unit_capacity)
        for r in default_catalog(cores=10, llc_ways=11, bandwidth_units=12)
    )


def _broker_meta_space():
    """The BO broker's space for 12 nodes: pooled units, nodes as jobs."""
    pooled = ResourceCatalog(
        Resource(r.kind, 12 * r.units, min_units=1, unit_capacity=r.unit_capacity)
        for r in default_catalog()
    )
    return ConfigurationSpace(pooled, 12)


POOL_SPACES = {
    "default-3": lambda: ConfigurationSpace(default_catalog(), 3),
    "default-4": lambda: ConfigurationSpace(default_catalog(), 4),
    "default-5": lambda: ConfigurationSpace(default_catalog(), 5),
    "min-units-2": lambda: ConfigurationSpace(_min_units_2(), 3),
    "one-job": lambda: ConfigurationSpace(default_catalog(), 1),
    "power": lambda: ConfigurationSpace(power_catalog(units=8, power_units=6), 4),
    "broker-12": _broker_meta_space,
}


def _records(space, seed, n=20):
    rng = np.random.default_rng(seed + 7)
    records = GoalRecords()
    for config in reference_sample_batch(space, n, rng):
        records.add(config, space.encode(config), (rng.random(), rng.random()))
    return records


class TestCandidatePoolPairing:
    @pytest.mark.parametrize("name", sorted(POOL_SPACES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_row_pool_matches_configuration_pool(self, name, seed, monkeypatch):
        """Same rows in the same order, same encoding, same RNG stream."""
        # Force the sampled pool even where the space is small enough
        # for exact maximization (the one-job space has one member).
        monkeypatch.setattr(bo_module, "_EXACT_ACQUISITION_LIMIT", 0)
        space = POOL_SPACES[name]()
        records = _records(space, seed)
        weights = (0.3 + 0.1 * seed, 0.7 - 0.1 * seed)
        generator = np.random.default_rng(seed)
        bo = BayesianOptimizer(space, candidate_pool_size=64, rng=generator)
        for step in range(3):
            twin = rng_from_state(rng_state(generator))
            expected = reference_pool(space, twin, 64, records, weights)
            rows, encoded = bo._candidate_pool(records.inputs(), records.objective_values(weights))
            assert np.array_equal(rows, as_rows(space, expected))
            assert np.array_equal(encoded, reference_encode_batch(space, expected))
            assert generator.bit_generator.state == twin.bit_generator.state
            # Grow the records with pool members so the incumbent and
            # the recent window move between draws.
            for config in expected[step :: 17]:
                records.add(config, space.encode(config), (step / 3.0, 0.9))

    @pytest.mark.parametrize("name", sorted(POOL_SPACES))
    def test_row_sampler_reads_the_sample_batch_stream(self, name):
        space = POOL_SPACES[name]()
        for seed in range(3):
            a, b, c = (np.random.default_rng(seed) for _ in range(3))
            rows = space.sample_rows(50, a)
            assert np.array_equal(rows, as_rows(space, reference_sample_batch(space, 50, b)))
            assert np.array_equal(rows, as_rows(space, space.sample_batch(50, c)))
            assert a.bit_generator.state == b.bit_generator.state == c.bit_generator.state

    @given(
        n_jobs=st.integers(1, 5),
        floors=st.lists(st.integers(1, 3), min_size=1, max_size=4),
        spare=st.lists(st.integers(0, 9), min_size=4, max_size=4),
        shared=st.booleans(),
        n=st.integers(0, 130),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_row_sampler_pairs_the_per_resource_decode(
        self, n_jobs, floors, spare, shared, n, seed
    ):
        """Shared slot counts (one argsort for every resource) and mixed
        ones (one per resource) both decode the reference's rows and
        read the same RNG stream."""
        kinds = (CORES, LLC_WAYS, MEMORY_BANDWIDTH, POWER)
        catalog = ResourceCatalog(
            Resource(ResourceKind(kind), n_jobs * floor + (spare[0] if shared else extra),
                     min_units=floor)
            for kind, floor, extra in zip(kinds, floors, spare)
        )
        space = ConfigurationSpace(catalog, n_jobs)
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        rows = space.sample_rows(n, a)
        assert rows.shape == (n, space.dimensions) and rows.dtype == np.int64
        assert np.array_equal(rows, as_rows(space, reference_sample_batch(space, n, b)))
        assert a.bit_generator.state == b.bit_generator.state

    def test_exact_path_is_the_enumeration(self):
        """Spaces of at most 2048 members score every row, in enumerate() order."""
        space = ConfigurationSpace(experiment_catalog(units=6), 3)
        assert space.size() <= 2048
        configs = list(space.enumerate())
        records = _records(space, 0)
        bo = BayesianOptimizer(space, rng=0)
        rows, encoded = bo._candidate_pool(records.inputs(), records.objective_values((0.5, 0.5)))
        assert np.array_equal(rows, as_rows(space, configs))
        assert np.array_equal(space.enumerate_rows(), rows)
        assert np.array_equal(encoded, reference_encode_batch(space, configs))

    @pytest.mark.parametrize("name", sorted(POOL_SPACES))
    def test_neighbor_rows_match_unit_moves(self, name):
        space = POOL_SPACES[name]()
        for config in reference_sample_batch(space, 5, np.random.default_rng(3)):
            expected = reference_neighbors(space, config)
            assert np.array_equal(
                space.neighbor_rows(as_rows(space, [config])[0]), as_rows(space, expected)
            )


# -- workload models ------------------------------------------------------


class TestPhaseVectorPairing:
    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_ips_matches_scalar_loop(self, seed):
        """PhaseVector.ips row j == Phase.ips of job j, bit for bit."""
        rng = np.random.default_rng(seed)
        n_jobs = int(rng.integers(1, 6))
        phases = [
            Phase(
                ips_per_core=float(rng.uniform(0.5e9, 4e9)),
                parallel_fraction=float(rng.uniform(0.0, 1.0)),
                working_set_bytes=float(rng.uniform(1e6, 64e6)),
                miss_peak=float(rng.uniform(0.02, 0.2)),
                miss_floor=float(rng.uniform(0.0, 0.02)),
                stream_bytes_per_instr=float(rng.uniform(0.0, 4.0)),
                latency_sensitivity=float(rng.uniform(0.0, 1.0)),
            )
            for _ in range(n_jobs)
        ]
        cores = rng.uniform(1.0, 8.0, size=n_jobs)
        cache = rng.uniform(1e6, 32e6, size=n_jobs)
        bandwidth = rng.uniform(1e9, 30e9, size=n_jobs)

        vector = PhaseVector.from_phases(phases)
        batched = vector.ips(cores, cache, bandwidth)
        scalar = np.array(
            [p.ips(c, k, b) for p, c, k, b in zip(phases, cores, cache, bandwidth)]
        )
        assert np.array_equal(batched, scalar)

    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_miss_rate_matches_scalar_loop(self, seed):
        rng = np.random.default_rng(seed)
        phases = [w.phase_at(0.0) for w in MIX]
        cache = rng.uniform(1e6, 32e6, size=len(MIX))
        vector = PhaseVector.from_phases(phases)
        batched = vector.miss_rate(cache)
        scalar = np.array([p.miss_rate(k) for p, k in zip(phases, cache)])
        assert np.array_equal(batched, scalar)


# -- contention model -----------------------------------------------------


class TestSystemBatchPairing:
    @given(seed=seeds, t=times)
    @settings(max_examples=20, deadline=None)
    def test_mixed_batch_matches_scalar_loop(self, seed, t):
        """Grouped-by-signature batch == per-config evaluate_system."""
        configs = sample_configs(seed, n=5)
        batch = evaluate_system_batch(MIX, CATALOG, configs, t)
        for i, config in enumerate(configs):
            scalar = evaluate_system(MIX, CATALOG, config, t)
            assert np.array_equal(batch.ips[i], scalar.ips)
            assert np.array_equal(
                batch.llc_occupancy_bytes[i], scalar.llc_occupancy_bytes
            )
            assert np.array_equal(
                batch.memory_bandwidth_bytes_s[i], scalar.memory_bandwidth_bytes_s
            )

    def test_empty_batch(self):
        batch = evaluate_system_batch(MIX, CATALOG, [], 0.0)
        assert batch.ips.shape == (0, len(MIX))


# -- contention model: the batch-of-one reference -------------------------
#
# The reference is the solve evaluate_system replaced: the configuration
# stacked as a batch of one (``(1, n_jobs)`` unit arrays), shared rows
# broadcast to the batch, the bandwidth fixed point vectorized over the
# leading axis, and row 0 read back.


def reference_allocations(mix, catalog, config, t):
    """The stacked ``(1, n_jobs)`` allocations per resource name."""
    n = len(mix)
    units = {} if config is None else {
        name: np.array([config.units(name)], dtype=float) for name in config.resource_names
    }
    allocations = {}
    for resource in catalog:
        if resource.name in units:
            allocations[resource.name] = units[resource.name]
        elif resource.name == LLC_WAYS and n > 1:
            shares = contention._llc_pressure_shares(mix, t)
            allocations[resource.name] = np.broadcast_to(resource.units * shares, (1, n))
        elif resource.name == CORES and n > 1:
            shares = contention._runnable_thread_shares(mix, t, resource.units)
            allocations[resource.name] = np.broadcast_to(resource.units * shares, (1, n))
        else:
            allocations[resource.name] = np.broadcast_to(
                np.full(n, resource.units / n, dtype=float), (1, n)
            )
    return allocations


def reference_interference(mix, catalog, partitioned):
    n = len(mix)
    factors = np.ones(n, dtype=float)
    if n <= 1:
        return factors
    for resource in catalog:
        if resource.name in partitioned:
            continue
        weight = contention.INTERFERENCE_WEIGHT.get(resource.name, 0.5)
        for j, workload in enumerate(mix):
            penalty = weight * workload.contention_sensitivity * (n - 1)
            factors[j] *= max(1.0 - penalty, contention.MIN_INTERFERENCE_FACTOR)
    return np.maximum(factors, contention.MIN_INTERFERENCE_FACTOR)


def reference_work_conserving(ips, bytes_per_instr, capacity):
    rates = ips.copy()
    for _ in range(contention._BANDWIDTH_FIXED_POINT_ITERS):
        demand = np.sum(rates * bytes_per_instr, axis=-1, keepdims=True)
        over = demand > capacity
        if not np.any(over):
            break
        scale = np.where(over, capacity / np.where(over, demand, 1.0), 1.0)
        rates = rates * scale
    return np.minimum(rates, ips)


def reference_evaluate(mix, catalog, config, t):
    """Row 0 of the batch-of-one solve: (state, allocations, interference)."""
    partitioned = () if config is None else config.resource_names
    n = len(mix)
    allocations = reference_allocations(mix, catalog, config, t)
    cache_bytes = allocations[LLC_WAYS] * catalog.get(LLC_WAYS).unit_capacity
    bandwidth_bytes = allocations[MEMORY_BANDWIDTH] * catalog.get(MEMORY_BANDWIDTH).unit_capacity
    phases = PhaseVector.from_phases([workload.phase_at(t) for workload in mix])
    bandwidth_shared = MEMORY_BANDWIDTH not in partitioned
    if bandwidth_shared:
        bandwidth_bytes = np.full((1, n), catalog.get(MEMORY_BANDWIDTH).capacity)
    frequency = np.ones((1, n))
    if POWER in catalog:
        frequency = (allocations[POWER] / catalog.get(POWER).units) ** phases.power_exponent
    ips = phases.ips(allocations[CORES], cache_bytes, bandwidth_bytes, frequency)
    bytes_per_instr = np.asarray(phases.bytes_per_instruction(cache_bytes), dtype=float)
    if bandwidth_shared and n > 1:
        capacity = catalog.get(MEMORY_BANDWIDTH).capacity
        ips = reference_work_conserving(ips, bytes_per_instr, capacity)
        utilization = np.minimum(1.0, np.sum(ips * bytes_per_instr, axis=-1) / capacity)
        latency_factors = (
            1.0
            - contention._LATENCY_PENALTY_SCALE
            * phases.latency_sensitivity
            * utilization[..., None]
        )
        ips = ips * np.maximum(latency_factors, contention.MIN_INTERFERENCE_FACTOR)
    factors = reference_interference(mix, catalog, partitioned)
    ips = ips * factors
    state = SystemState(
        ips=ips[0],
        llc_occupancy_bytes=np.minimum(cache_bytes, phases.working_set_bytes)[0],
        memory_bandwidth_bytes_s=(ips * bytes_per_instr)[0],
    )
    return state, {name: np.array(rows[0]) for name, rows in allocations.items()}, factors


REFERENCE_MIXES = {
    "parsec-1": ["canneal"],
    "ecp-2": list(suite_mixes("ecp")[0].names),
    "cloudsuite-3": list(suite_mixes("cloudsuite")[0].names),
    "parsec-4": ["canneal", "fluidanimate", "streamcluster", "vips"],
    "parsec-5": list(suite_mixes("parsec")[0].names),
    "mixed-5": ["streamcluster", "data_analytics", "amg", "web_search", "xsbench"],
}

REFERENCE_CATALOGS = {
    "units-8": lambda: experiment_catalog(8),
    "units-10": lambda: experiment_catalog(10),
    "power": lambda: power_catalog(units=8, power_units=6),
}

#: What each policy family partitions (None: the unmanaged server).
PARTITIONED = {
    "everything": "all",
    "dcat": (LLC_WAYS,),
    "copart": (LLC_WAYS, MEMORY_BANDWIDTH),
    "cores": (CORES,),
    "power": (POWER,),
    "unmanaged": None,
}

#: Phase durations run 2-5 s, so these times straddle several phase
#: boundaries of every mix (asserted per mix below).
REFERENCE_TIMES = (0.0, 2.45, 2.5, 2.55, 3.0, 4.5, 7.05, 11.5, 19.95, 31.3)


def reference_configs(catalog, n_jobs, seed):
    """Sampled configurations restricted to each policy family's resources."""
    space = ConfigurationSpace(catalog, n_jobs)
    configs = []
    for names in PARTITIONED.values():
        if names is None:
            configs.append(None)
            continue
        names = catalog.names if names == "all" else names
        if not all(name in catalog for name in names):
            continue
        for full in space.sample_batch(3, np.random.default_rng(seed)):
            configs.append(Configuration({name: full.units(name) for name in names}))
    return configs


class TestContentionReference:
    @pytest.mark.parametrize("catalog_name", sorted(REFERENCE_CATALOGS))
    @pytest.mark.parametrize("mix_name", sorted(REFERENCE_MIXES))
    def test_matches_batch_of_one(self, mix_name, catalog_name):
        """evaluate_system == the batch-of-one solve, bit for bit."""
        names = REFERENCE_MIXES[mix_name]
        # JobMix needs two jobs; the contention model only iterates
        # the mix, so one job goes in as a plain tuple.
        mix = mix_from_names(names) if len(names) > 1 else (default_registry().get(names[0]),)
        catalog = REFERENCE_CATALOGS[catalog_name]()
        phase_keys = {tuple(w.phase_index_at(t) for w in mix) for t in REFERENCE_TIMES}
        assert len(phase_keys) > 2
        for config in reference_configs(catalog, len(mix), seed=len(mix_name)):
            for t in REFERENCE_TIMES:
                expected, allocations, factors = reference_evaluate(mix, catalog, config, t)
                state = evaluate_system(mix, catalog, config, t)
                assert np.array_equal(state.ips, expected.ips)
                assert np.array_equal(state.llc_occupancy_bytes, expected.llc_occupancy_bytes)
                assert np.array_equal(
                    state.memory_bandwidth_bytes_s, expected.memory_bandwidth_bytes_s
                )
                actual = effective_allocations(mix, catalog, config, t)
                assert list(actual) == list(allocations)
                for name, values in allocations.items():
                    assert np.array_equal(actual[name], values)
                assert np.array_equal(interference_factors(mix, catalog, config), factors)


# -- simulator ------------------------------------------------------------


class TestSimulatorBatchPairing:
    """The simulator's noise-free truth is the stacked contention solve
    at its clock, whatever it has stepped through."""

    def simulator(self, fault_schedule=None):
        return CoLocationSimulator(
            MIX,
            catalog=CATALOG,
            control_interval_s=0.1,
            noise_sigma=0.02,
            seed=11,
            fault_schedule=fault_schedule,
        )

    @staticmethod
    def stacked(sim, configs):
        resolved = [sim.current_config if c is None else c for c in configs]
        return evaluate_system_batch(sim.mix, sim.catalog, resolved, sim.time_s).ips

    @given(seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_true_ips_loop_matches_stacked_solve(self, seed):
        sim = self.simulator()
        configs = sample_configs(seed, n=4)
        scalar = np.stack([sim.true_ips(config) for config in configs])
        assert np.array_equal(self.stacked(sim, configs), scalar)

    @given(seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_batch_matches_loop_under_active_faults(self, seed):
        """Stepping under a busy fault schedule must not skew the pairing."""
        schedule = FaultSchedule.generate(
            BUSY_FAULTS, n_jobs=len(MIX), duration_s=2.0, interval_s=0.1, seed=3
        )
        sim = self.simulator(fault_schedule=schedule)
        rng = np.random.default_rng(seed)
        for _ in range(5):
            sim.apply(SPACE.sample(rng))
            sim.step()
        assert sim.current_config is not None
        configs = sample_configs(seed, n=4)
        scalar = np.stack([sim.true_ips(config) for config in configs])
        assert np.array_equal(self.stacked(sim, configs), scalar)


# -- oracle ---------------------------------------------------------------


class TestOracleBatchPairing:
    @given(seed=seeds, t=times)
    @settings(max_examples=15, deadline=None)
    def test_evaluate_batch_matches_scalar_loop(self, seed, t):
        search = OracleSearch(MIX, CATALOG)
        rng = np.random.default_rng(seed)
        configs = list(search.space.sample_batch(6, rng))
        throughput, fairness = search.evaluate_batch(configs, t)
        for i, config in enumerate(configs):
            t_i, f_i = search.evaluate(config, t)
            assert throughput[i] == t_i
            assert fairness[i] == f_i

    def test_empty_batch(self):
        search = OracleSearch(MIX, CATALOG)
        throughput, fairness = search.evaluate_batch([], 0.0)
        assert throughput.shape == (0,) and fairness.shape == (0,)

