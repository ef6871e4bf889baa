"""Tests for the baseline partitioning policies."""

import numpy as np
import pytest

from repro.errors import PolicyError
from repro.policies.copart import CoPartPolicy
from repro.policies.dcat import DCatPolicy
from repro.policies.parties import PartiesPolicy
from repro.policies.random_search import RandomSearchPolicy
from repro.policies.registry import make_policy, policy_names
from repro.policies.static import EqualPartitionPolicy
from repro.resources.space import ConfigurationSpace
from repro.resources.types import CORES, LLC_WAYS, MEMORY_BANDWIDTH
from repro.system.simulation import CoLocationSimulator


@pytest.fixture
def space(catalog6):
    return ConfigurationSpace(catalog6, 3)


@pytest.fixture
def llc_space(catalog6):
    return ConfigurationSpace(catalog6.subset([LLC_WAYS]), 3)


@pytest.fixture
def copart_space(catalog6):
    return ConfigurationSpace(catalog6.subset([LLC_WAYS, MEMORY_BANDWIDTH]), 3)


def drive(policy, simulator, n_steps):
    observation = None
    configs = []
    for _ in range(n_steps):
        config = policy.decide(observation)
        configs.append(config)
        observation = simulator.step(config)
    return configs


class TestStaticPolicies:
    def test_equal_partition_constant(self, space, make_simulator):
        policy = EqualPartitionPolicy(space)
        configs = drive(policy, make_simulator(), 5)
        assert all(c == space.equal_partition() for c in configs)


@pytest.mark.parametrize("name", policy_names())
def test_make_policy_rejects_unknown_kwargs(name, catalog6, parsec_mix3):
    """No policy factory swallows or forwards a keyword it does not take."""
    with pytest.raises(TypeError):
        make_policy(name, parsec_mix3, catalog6, rng=0, unexpected=1)


class TestRandomSearch:
    def test_samples_valid_members(self, space, make_simulator):
        policy = RandomSearchPolicy(space, rng=0)
        for config in drive(policy, make_simulator(), 20):
            assert space.contains(config)

    def test_avoids_repeats(self, space):
        policy = RandomSearchPolicy(space, rng=0)
        configs = [policy.decide(None) for _ in range(50)]
        # Best-effort non-repetition: overwhelmingly unique on a big space.
        assert len(set(configs)) >= 45


class TestDCat:
    def test_requires_llc_only_space(self, space):
        with pytest.raises(PolicyError):
            DCatPolicy(space)

    def test_controls_single_resource(self, llc_space, make_simulator):
        policy = DCatPolicy(llc_space, rng=0)
        configs = drive(policy, make_simulator(), 30)
        for config in configs:
            assert config.resource_names == (LLC_WAYS,)
            assert sum(config.units(LLC_WAYS)) == llc_space.catalog.get(LLC_WAYS).units

    def test_moves_cache_over_time(self, llc_space, make_simulator):
        policy = DCatPolicy(llc_space, rng=0)
        configs = drive(policy, make_simulator(), 60)
        assert len(set(configs)) > 1

    def test_diagnostics_expose_utilities(self, llc_space, make_simulator):
        policy = DCatPolicy(llc_space, rng=0)
        drive(policy, make_simulator(), 30)
        assert any(k.startswith("utility_job") for k in policy.diagnostics())

    def test_restart_returns_the_equal_partition(self, llc_space, make_simulator):
        policy = DCatPolicy(llc_space, rng=0)
        drive(policy, make_simulator(), 12)
        assert policy.decide(None) == llc_space.equal_partition()


class TestCoPart:
    def test_requires_llc_and_bandwidth(self, space, llc_space):
        with pytest.raises(PolicyError):
            CoPartPolicy(space)
        with pytest.raises(PolicyError):
            CoPartPolicy(llc_space)

    def test_controls_two_resources(self, copart_space, make_simulator):
        policy = CoPartPolicy(copart_space)
        for config in drive(policy, make_simulator(), 30):
            assert set(config.resource_names) == {LLC_WAYS, MEMORY_BANDWIDTH}

    def test_fairer_than_static_equal_partition(self, copart_space, catalog6, parsec_mix3, goals):
        """CoPart's active equalization should beat holding the equal split."""

        def run(policy_factory):
            means = []
            for seed in (5, 6, 7):  # average out noise realizations
                sim = CoLocationSimulator(parsec_mix3, catalog6, seed=seed)
                policy = policy_factory()
                observation = None
                fairness = []
                for _ in range(100):
                    config = policy.decide(observation)
                    observation = sim.step(config)
                    scores = goals.scores(observation.ips, observation.isolation_ips)
                    fairness.append(scores.fairness)
                means.append(np.mean(fairness[-40:]))
            return float(np.mean(means))

        copart = run(lambda: CoPartPolicy(copart_space, goals))
        static = run(lambda: EqualPartitionPolicy(copart_space, goals))
        assert copart > static - 0.01

    def test_moves_one_unit_at_a_time(self, copart_space, make_simulator):
        policy = CoPartPolicy(copart_space)
        configs = drive(policy, make_simulator(), 30)
        for prev, nxt in zip(configs, configs[1:]):
            diff = np.abs(prev.as_vector() - nxt.as_vector()).sum()
            assert diff in (0.0, 2.0)


class TestParties:
    def test_full_resource_control(self, space, make_simulator):
        policy = PartiesPolicy(space)
        for config in drive(policy, make_simulator(), 30):
            assert set(config.resource_names) == {CORES, LLC_WAYS, MEMORY_BANDWIDTH}

    def test_moves_one_dimension_at_a_time(self, space, make_simulator):
        policy = PartiesPolicy(space)
        configs = drive(policy, make_simulator(), 40)
        for prev, nxt in zip(configs, configs[1:]):
            changed = [
                name
                for name in space.resource_names
                if prev.units(name) != nxt.units(name)
            ]
            assert len(changed) <= 1

    def test_holds_between_decision_points(self, space, make_simulator):
        policy = PartiesPolicy(space)
        configs = drive(policy, make_simulator(), 20)
        # Configuration may only change at multiples of DECISION_EVERY (5).
        for i, (prev, nxt) in enumerate(zip(configs, configs[1:])):
            if (i + 1) % 5 != 0:
                assert prev == nxt

    def test_improves_over_start(self, space, catalog6, parsec_mix3, goals):
        sim = CoLocationSimulator(parsec_mix3, catalog6, seed=7)
        policy = PartiesPolicy(space, goals)
        observation = None
        objectives = []
        for _ in range(150):
            config = policy.decide(observation)
            observation = sim.step(config)
            scores = goals.scores(observation.ips, observation.isolation_ips)
            objectives.append(scores.weighted(0.5, 0.5))
        assert np.mean(objectives[-30:]) > np.mean(objectives[:30]) * 0.98

    def test_diagnostics(self, space, make_simulator):
        policy = PartiesPolicy(space)
        drive(policy, make_simulator(), 25)
        diag = policy.diagnostics()
        assert "moves_accepted" in diag and "moves_rejected" in diag
