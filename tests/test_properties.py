"""Cross-cutting property-based tests (hypothesis) on system invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.runner import experiment_catalog
from repro.metrics.goals import GoalSet
from repro.policies.oracle import OracleSearch
from repro.resources.space import ConfigurationSpace
from repro.rng import make_rng
from repro.system.contention import evaluate_system, isolation_ips
from repro.workloads.mixes import JobMix
from repro.workloads.synthetic import random_workloads

CATALOG = experiment_catalog(units=6)
SPACE = ConfigurationSpace(CATALOG, 3)


def random_mix(seed: int) -> JobMix:
    return JobMix(tuple(random_workloads(3, rng=seed)))


class TestSystemInvariants:
    @given(seed=st.integers(min_value=0, max_value=500), t=st.floats(min_value=0, max_value=30))
    @settings(max_examples=30, deadline=None)
    def test_ips_positive_and_bounded_by_isolation(self, seed, t):
        """Any valid configuration yields positive IPS <= isolation IPS."""
        mix = random_mix(seed)
        config = SPACE.sample(make_rng(seed))
        state = evaluate_system(mix, CATALOG, config, t)
        iso = isolation_ips(mix, CATALOG, t)
        assert np.all(state.ips > 0)
        assert np.all(state.ips <= iso * (1 + 1e-9))

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_own_allocation(self, seed):
        """Giving a job strictly more of every resource never hurts it."""
        mix = random_mix(seed)
        rng = make_rng(seed)
        config = SPACE.sample(rng)
        donor_candidates = [
            j
            for j in range(3)
            if all(config.units(r)[j] > 1 for r in SPACE.resource_names)
        ]
        if not donor_candidates:
            return
        donor = donor_candidates[0]
        receiver = (donor + 1) % 3
        richer = config
        for resource in SPACE.resource_names:
            richer = richer.move_unit(resource, donor, receiver)
        before = evaluate_system(mix, CATALOG, config, 0.0).ips[receiver]
        after = evaluate_system(mix, CATALOG, richer, 0.0).ips[receiver]
        assert after >= before * (1 - 1e-9)

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=20, deadline=None)
    def test_goal_scores_well_formed(self, seed):
        mix = random_mix(seed)
        config = SPACE.sample(make_rng(seed))
        state = evaluate_system(mix, CATALOG, config, 0.0)
        iso = isolation_ips(mix, CATALOG, 0.0)
        scores = GoalSet().scores(state.ips, iso)
        assert 0 < scores.throughput <= 1 + 1e-9
        assert 0 < scores.fairness <= 1 + 1e-9


class TestOracleInvariants:
    @pytest.fixture(scope="class")
    def search(self):
        mix = random_mix(99)
        return OracleSearch(mix, CATALOG)

    @given(
        w=st.floats(min_value=0.0, max_value=1.0),
        t=st.floats(min_value=0.0, max_value=12.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_oracle_dominates_random_config(self, search, w, t):
        """The oracle's objective beats any sampled configuration's."""
        config = search.space.sample(make_rng(int(w * 1000) + int(t * 10)))
        t_score, f_score = search.evaluate(config, t)
        best = search.best(t, w, 1.0 - w)
        assert best.objective >= w * t_score + (1.0 - w) * f_score - 1e-9

    @given(w=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=15, deadline=None)
    def test_objective_consistency(self, search, w):
        # The oracle caches results per weight rounded to 6 decimals;
        # query on that grid so cache hits carry the exact weights.
        w = round(w, 6)
        best = search.best(0.0, w, 1.0 - w)
        assert best.objective == pytest.approx(
            w * best.throughput + (1.0 - w) * best.fairness, rel=1e-6, abs=1e-9
        )

    def test_throughput_weight_monotonicity(self, search):
        """More throughput weight never decreases achieved throughput."""
        weights = (0.0, 0.25, 0.5, 0.75, 1.0)
        throughputs = [search.best(0.0, w, 1.0 - w).throughput for w in weights]
        for earlier, later in zip(throughputs, throughputs[1:]):
            assert later >= earlier - 1e-9

    def test_fairness_weight_monotonicity(self, search):
        weights = (0.0, 0.25, 0.5, 0.75, 1.0)
        fairness = [search.best(0.0, 1.0 - w, w).fairness for w in weights]
        for earlier, later in zip(fairness, fairness[1:]):
            assert later >= earlier - 1e-9


class TestConfigurationProperties:
    @given(seed=st.integers(min_value=0, max_value=2000))
    @settings(max_examples=40, deadline=None)
    def test_move_unit_preserves_totals(self, seed):
        rng = make_rng(seed)
        config = SPACE.sample(rng)
        resource = SPACE.resource_names[int(rng.integers(0, 3))]
        units = config.units(resource)
        donors = [j for j in range(3) if units[j] > 1]
        if not donors:
            return
        donor = donors[0]
        receiver = (donor + 1) % 3
        moved = config.move_unit(resource, donor, receiver)
        assert sum(moved.units(resource)) == sum(units)
        moved.validate(CATALOG)

    @given(seed=st.integers(min_value=0, max_value=2000))
    @settings(max_examples=40, deadline=None)
    def test_encode_is_injective_on_samples(self, seed):
        rng = make_rng(seed)
        a = SPACE.sample(rng)
        b = SPACE.sample(rng)
        ea, eb = SPACE.encode(a), SPACE.encode(b)
        if a == b:
            assert np.allclose(ea, eb)
        else:
            assert not np.allclose(ea, eb)
