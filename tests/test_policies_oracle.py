"""Tests for the brute-force Oracle."""

import pytest

from repro.errors import PolicyError
from repro.metrics.goals import GoalSet
from repro.policies.oracle import OraclePolicy, OracleSearch, balanced_oracle
from repro.resources.types import default_catalog
from repro.workloads.mixes import mix_from_names


@pytest.fixture(scope="module")
def mix():
    return mix_from_names(["canneal", "fluidanimate", "streamcluster"])


@pytest.fixture(scope="module")
def search(mix):
    from repro.experiments.runner import experiment_catalog

    return OracleSearch(mix, experiment_catalog(units=6))


class TestOracleSearch:
    def test_best_is_space_member(self, search):
        result = search.best(0.0, 0.5, 0.5)
        assert search.space.contains(result.config)

    def test_vectorized_matches_exhaustive(self, mix):
        """The broadcasting search must equal literal enumeration."""
        from repro.experiments.runner import experiment_catalog

        catalog = experiment_catalog(units=4)
        small = OracleSearch(mix, catalog)
        result = small.best(0.0, 0.5, 0.5)

        best_value = -1.0
        best_config = None
        for config in small.space.enumerate():
            t, f = small.evaluate(config, 0.0)
            value = 0.5 * t + 0.5 * f
            if value > best_value:
                best_value = value
                best_config = config
        assert result.objective == pytest.approx(best_value, rel=1e-9)
        assert result.config == best_config

    def test_throughput_oracle_dominates_in_throughput(self, search):
        t_opt = search.best(0.0, 1.0, 0.0)
        balanced = search.best(0.0, 0.5, 0.5)
        f_opt = search.best(0.0, 0.0, 1.0)
        assert t_opt.throughput >= balanced.throughput >= f_opt.throughput - 1e-12

    def test_fairness_oracle_dominates_in_fairness(self, search):
        t_opt = search.best(0.0, 1.0, 0.0)
        f_opt = search.best(0.0, 0.0, 1.0)
        assert f_opt.fairness >= t_opt.fairness

    def test_conflicting_goals_give_different_configs(self, search):
        assert search.best(0.0, 1.0, 0.0).config != search.best(0.0, 0.0, 1.0).config

    def test_cache_hit_returns_same_object(self, search):
        a = search.best(0.0, 0.5, 0.5)
        b = search.best(0.0, 0.5, 0.5)
        assert a is b

    def test_same_phase_key_shares_result(self, search, mix):
        t_same = 0.01  # still inside every job's first phase
        assert search.phase_key(0.0) == search.phase_key(t_same)
        assert search.best(0.0, 0.5, 0.5) is search.best(t_same, 0.5, 0.5)

    def test_optimum_changes_across_phases(self, search):
        """Fig. 1: the optimal configuration drifts as phases change."""
        configs = {search.best(t, 1.0, 0.0).config for t in (0.0, 3.2, 5.6, 7.9)}
        assert len(configs) > 1

    def test_evaluate_consistent_with_best(self, search):
        result = search.best(0.0, 0.5, 0.5)
        t, f = search.evaluate(result.config, 0.0)
        assert t == pytest.approx(result.throughput, rel=1e-9)
        assert f == pytest.approx(result.fairness, rel=1e-9)

    def test_space_size_guard(self, mix):
        # 406 compositions of 30 units per resource: 66.9M points.
        with pytest.raises(PolicyError, match="above the cap"):
            OracleSearch(mix, default_catalog(30, 30, 30))

    def test_n_configs_reported(self, search):
        assert search.best(0.0, 0.5, 0.5).n_configs == search.space.size()

    @pytest.mark.parametrize("throughput_metric", ["sum_ips", "geometric_mean", "harmonic_mean"])
    @pytest.mark.parametrize("fairness_metric", ["jain", "one_minus_cov"])
    def test_all_metric_combinations(self, mix, throughput_metric, fairness_metric):
        from repro.experiments.runner import experiment_catalog

        goals = GoalSet(throughput_metric, fairness_metric)
        search = OracleSearch(mix, experiment_catalog(units=4), goals)
        result = search.best(0.0, 0.5, 0.5)
        t, f = search.evaluate(result.config, 0.0)
        assert result.objective == pytest.approx(0.5 * t + 0.5 * f, rel=1e-9)


class TestOraclePolicy:
    def test_variant_names(self, search):
        assert OraclePolicy(search, 1.0, 0.0).name == "Throughput Oracle"
        assert OraclePolicy(search, 0.0, 1.0).name == "Fairness Oracle"
        assert OraclePolicy(search, 0.5, 0.5).name == "Balanced Oracle"

    def test_decide_uses_observation_time(self, search, mix, catalog6):
        from repro.experiments.runner import experiment_catalog
        from repro.system.simulation import CoLocationSimulator

        catalog = experiment_catalog(units=6)
        policy = OraclePolicy(search, 0.5, 0.5)
        sim = CoLocationSimulator(mix, catalog, seed=0)
        config = policy.decide(None)
        assert config == search.best(0.0, 0.5, 0.5).config
        obs = sim.step(config)
        config2 = policy.decide(obs)
        assert config2 == search.best(obs.time_s, 0.5, 0.5).config

    def test_balanced_oracle_helper(self, mix):
        from repro.experiments.runner import experiment_catalog

        policy = balanced_oracle(mix, experiment_catalog(units=4))
        assert policy.name == "Balanced Oracle"
