"""Tests for the experiment runner and comparison harness."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.comparison import (
    STANDARD_POLICY_ORDER,
    aggregate,
    compare_on_mix,
    compare_on_mixes,
    comparison_specs,
    full_space,
)
from repro.experiments.runner import RunConfig, experiment_catalog, run_policy
from repro.policies.registry import make_policy
from repro.policies.static import EqualPartitionPolicy
from repro.resources.types import CORES, LLC_WAYS, MEMORY_BANDWIDTH


class TestExperimentCatalog:
    def test_default_units(self):
        catalog = experiment_catalog()
        assert all(catalog.get(name).units == 8 for name in catalog.names)

    def test_total_capacity_preserved(self):
        for units in (4, 8, 10):
            catalog = experiment_catalog(units)
            assert catalog.get(LLC_WAYS).capacity == pytest.approx(13.75 * 2**20)
            assert catalog.get(MEMORY_BANDWIDTH).capacity == pytest.approx(12e9)

    def test_too_few_units_rejected(self):
        with pytest.raises(ExperimentError):
            experiment_catalog(units=1)


class TestRunConfig:
    def test_n_steps(self):
        assert RunConfig(duration_s=2.0, interval_s=0.1).n_steps == 20

    def test_invalid_duration(self):
        with pytest.raises(ExperimentError):
            RunConfig(duration_s=0.01, interval_s=0.1)

    def test_invalid_warmup(self):
        with pytest.raises(ExperimentError):
            RunConfig(warmup_fraction=1.0)


class TestRunPolicy:
    def test_telemetry_length(self, catalog6, parsec_mix3):
        policy = EqualPartitionPolicy(full_space(catalog6, 3))
        result = run_policy(policy, parsec_mix3, catalog6, RunConfig(duration_s=3.0), seed=0)
        assert len(result.telemetry) == 30

    def test_scored_drops_warmup(self, catalog6, parsec_mix3):
        policy = EqualPartitionPolicy(full_space(catalog6, 3))
        rc = RunConfig(duration_s=4.0, warmup_fraction=0.25)
        result = run_policy(policy, parsec_mix3, catalog6, rc, seed=0)
        assert len(result.scored) == 30

    def test_scores_in_range(self, catalog6, parsec_mix3):
        policy = EqualPartitionPolicy(full_space(catalog6, 3))
        result = run_policy(policy, parsec_mix3, catalog6, RunConfig(duration_s=3.0), seed=0)
        assert 0 < result.throughput <= 1
        assert 0 < result.fairness <= 1
        assert 0 < result.worst_job_speedup <= 1

    def test_deterministic_given_seed(self, catalog6, parsec_mix3):
        def run():
            policy = EqualPartitionPolicy(full_space(catalog6, 3))
            return run_policy(policy, parsec_mix3, catalog6, RunConfig(duration_s=2.0), seed=42)

        assert run().throughput == run().throughput

    def test_baseline_reset_interval(self, catalog6, parsec_mix3):
        """Policies see a baseline held constant within each reset period."""
        seen_baselines = []

        class Spy(EqualPartitionPolicy):
            def decide(self, observation):
                if observation is not None:
                    seen_baselines.append(observation.isolation_ips)
                return super().decide(observation)

        policy = Spy(full_space(catalog6, 3))
        rc = RunConfig(duration_s=3.0, baseline_reset_s=1.0)
        run_policy(policy, parsec_mix3, catalog6, rc, seed=0)
        # Within the first reset period the held baseline is constant.
        assert seen_baselines[0] == seen_baselines[5]
        # Across reset periods it changes (noise + phases).
        assert seen_baselines[0] != seen_baselines[15]


class TestComparison:
    @pytest.fixture(scope="class")
    def comparison(self, catalog6, parsec_mix3):
        return compare_on_mix(
            parsec_mix3, catalog6, RunConfig(duration_s=5.0), seed=0
        )

    def test_all_standard_policies_present(self, comparison):
        assert set(comparison.scores) == set(STANDARD_POLICY_ORDER)

    def test_scores_normalized_to_oracle(self, comparison):
        for score in comparison.scores.values():
            assert 0 < score.throughput_vs_oracle < 200
            assert 0 < score.fairness_vs_oracle < 200

    def test_unknown_policy_raises(self, comparison):
        with pytest.raises(ExperimentError):
            comparison.score("Heracles")

    def test_include_subset(self, catalog6, parsec_mix3):
        comparison = compare_on_mix(
            parsec_mix3,
            catalog6,
            RunConfig(duration_s=2.0),
            seed=0,
            include=("Random", "SATORI"),
        )
        assert set(comparison.scores) == {"Random", "SATORI"}

    def test_aggregate(self, catalog6, parsec_mix3, synthetic_pair):
        comparisons = compare_on_mixes(
            [parsec_mix3],
            catalog6,
            RunConfig(duration_s=2.0),
            seed=0,
            include=("Random",),
        )
        agg = aggregate(comparisons, ("Random",))
        assert "Random" in agg
        t, f = agg["Random"]
        assert 0 < t < 200 and 0 < f < 200

    def test_aggregate_empty_rejected(self):
        with pytest.raises(ExperimentError):
            aggregate([])

    def test_standard_policies_resource_sets(self, catalog6):
        policies = {
            name: make_policy(name, None, catalog6, rng=0, n_jobs=3)
            for name in STANDARD_POLICY_ORDER
        }
        assert policies["dCAT"].controlled_resources == (LLC_WAYS,)
        assert set(policies["CoPart"].controlled_resources) == {LLC_WAYS, MEMORY_BANDWIDTH}
        assert set(policies["SATORI"].controlled_resources) == {
            CORES,
            LLC_WAYS,
            MEMORY_BANDWIDTH,
        }

    def test_standard_policies_unknown_name(self, catalog6, parsec_mix3):
        with pytest.raises(ExperimentError):
            comparison_specs(parsec_mix3, catalog6, include=("Heracles",))
