"""Tests for the BO engine and initial configuration sets."""

import numpy as np
import pytest

from repro.core.bo import BayesianOptimizer
from repro.core.initializers import good_initial_set, tilt_toward
from repro.core.objective import GoalRecords
from repro.errors import ModelError
from repro.resources.space import ConfigurationSpace
from repro.resources.types import default_catalog
from repro.rng import make_rng, rng_state


@pytest.fixture
def space():
    return ConfigurationSpace(default_catalog(6, 6, 6), 3)


def seeded_records(space, objective, n=8, seed=0):
    records = GoalRecords()
    rng = make_rng(seed)
    for _ in range(n):
        config = space.sample(rng)
        value = objective(config)
        records.add(config, space.encode(config), (value, value))
    return records


class TestInitializers:
    def test_contains_equal_partition_first(self, space):
        initial = good_initial_set(space, rng=0)
        assert initial[0] == space.equal_partition()

    def test_all_members(self, space):
        for config in good_initial_set(space, rng=0):
            assert space.contains(config)

    def test_deduplicated(self, space):
        initial = good_initial_set(space, rng=0)
        assert len(set(initial)) == len(initial)

    def test_size_includes_tilts_and_randoms(self, space):
        initial = good_initial_set(space, rng=0)
        # equal + up to n_jobs tilts + 2 randoms, deduplicated
        assert len(initial) <= 1 + space.n_jobs + 2
        assert len(initial) >= space.n_jobs  # tilts are distinct from equal

    def test_tilt_gives_job_more(self, space):
        equal = space.equal_partition()
        tilted = tilt_toward(space, equal, job=1)
        for name in space.resource_names:
            assert tilted.units(name)[1] >= equal.units(name)[1]
        assert space.contains(tilted)


class TestBayesianOptimizer:
    def test_requires_samples(self, space):
        bo = BayesianOptimizer(space, rng=0)
        with pytest.raises(ModelError):
            bo.suggest(GoalRecords(), (0.5, 0.5))

    def test_suggestion_is_member(self, space):
        bo = BayesianOptimizer(space, rng=0)
        records = seeded_records(space, lambda c: float(c.units("cores")[0]) / 6.0)
        suggestion = bo.suggest(records, (0.5, 0.5))
        assert space.contains(suggestion.config)

    def test_iteration_counter(self, space):
        bo = BayesianOptimizer(space, rng=0)
        records = seeded_records(space, lambda c: 0.5)
        bo.suggest(records, (0.5, 0.5))
        bo.suggest(records, (0.5, 0.5))
        assert bo.iteration == 2

    def test_incumbent_tracked(self, space):
        bo = BayesianOptimizer(space, rng=0)
        records = seeded_records(space, lambda c: float(c.units("cores")[0]) / 6.0)
        suggestion = bo.suggest(records, (1.0, 0.0))
        expected = records.objective_values((1.0, 0.0)).max()
        assert suggestion.incumbent_value == pytest.approx(expected)

    def test_proxy_change_zero_first_then_finite(self, space):
        bo = BayesianOptimizer(space, rng=0)
        records = seeded_records(space, lambda c: float(c.units("cores")[0]) / 6.0)
        first = bo.suggest(records, (0.5, 0.5))
        assert first.proxy_change_percent == 0.0
        second = bo.suggest(records, (0.6, 0.4))
        assert np.isfinite(second.proxy_change_percent)

    def test_converges_on_easy_landscape(self, space):
        """BO should find a near-optimal config of a monotone objective."""

        def objective(config):
            return sum(config.units(name)[0] for name in space.resource_names) / 18.0

        bo = BayesianOptimizer(space, rng=1, candidate_pool_size=64)
        records = seeded_records(space, objective, n=3, seed=1)
        for _ in range(30):
            suggestion = bo.suggest(records, (0.5, 0.5))
            value = objective(suggestion.config)
            records.add(suggestion.config, space.encode(suggestion.config), (value, value))
        best, best_value = records.best((0.5, 0.5))
        # Optimum gives job 0 everything: (4+4+4)/18 with min_units=1 -> 12/18.
        assert best_value >= 0.6

    def test_probe_rows_pair_with_the_configuration_batch(self, space):
        """The probes are drawn as rows: the same RNG stream, encodings
        and snapshot JSON as drawing them as configurations."""
        optimizer = BayesianOptimizer(space, rng=21)
        rng = make_rng(21)
        probes = space.sample_batch(48, rng)
        snapshot = optimizer.snapshot()
        assert snapshot["probes"] == [config.to_dict() for config in probes]
        assert snapshot["rng"] == rng_state(rng)
        assert np.array_equal(optimizer._probe_x, space.encode_batch(probes))
        restored = BayesianOptimizer(space, rng=99).restore(snapshot)
        assert restored.snapshot()["probes"] == snapshot["probes"]
        assert np.array_equal(restored._probe_x, optimizer._probe_x)

    def test_restore_rejects_a_probe_outside_the_space(self, space):
        snapshot = BayesianOptimizer(space, rng=1).snapshot()
        other = ConfigurationSpace(default_catalog(6, 6, 6), 2)
        with pytest.raises(ModelError, match="outside this optimizer's space"):
            BayesianOptimizer(other, rng=1).restore(snapshot)

    def test_invalid_pool_size(self, space):
        with pytest.raises(ModelError):
            BayesianOptimizer(space, candidate_pool_size=0)

    def test_deterministic_given_seed(self, space):
        records = seeded_records(space, lambda c: float(c.units("cores")[0]))
        a = BayesianOptimizer(space, rng=5).suggest(records, (0.5, 0.5))
        b = BayesianOptimizer(space, rng=5).suggest(records, (0.5, 0.5))
        assert a.config == b.config
