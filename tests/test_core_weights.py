"""Tests for the dynamic weight scheduler (Eqs. 3-6) and static weights."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.weights import (
    WEIGHT_LOWER_BOUND,
    WEIGHT_UPPER_BOUND,
    DynamicWeightScheduler,
    StaticWeights,
)
from repro.errors import PolicyError


def make_scheduler(**kwargs):
    defaults = dict(prioritization_period_s=1.0, equalization_period_s=10.0)
    defaults.update(kwargs)
    return DynamicWeightScheduler(**defaults)


class TestStaticWeights:
    def test_fixed_pair(self):
        scheduler = StaticWeights(0.5, 0.5)
        state = scheduler.update(0.3, 0.9)
        assert state.pair == (0.5, 0.5)

    def test_normalizes(self):
        scheduler = StaticWeights(2.0, 2.0)
        assert scheduler.update(0, 0).pair == (0.5, 0.5)

    def test_single_goal_variants(self):
        assert StaticWeights(1.0, 0.0).update(0, 0).pair == (1.0, 0.0)
        assert StaticWeights(0.0, 1.0).update(0, 0).pair == (0.0, 1.0)

    def test_negative_rejected(self):
        with pytest.raises(PolicyError):
            StaticWeights(-1.0, 2.0)

    def test_all_zero_rejected(self):
        with pytest.raises(PolicyError):
            StaticWeights(0.0, 0.0)


class TestDynamicScheduler:
    def test_periods_quantized_to_interval(self):
        scheduler = make_scheduler()
        assert scheduler.prioritization_period_s == pytest.approx(1.0)
        assert scheduler.equalization_period_s == pytest.approx(10.0)

    def test_weights_sum_to_one(self):
        scheduler = make_scheduler()
        rng = np.random.default_rng(0)
        for _ in range(250):
            state = scheduler.update(rng.uniform(0.2, 0.5), rng.uniform(0.6, 1.0))
            assert state.w_throughput + state.w_fairness == pytest.approx(1.0)

    def test_weights_bounded(self):
        scheduler = make_scheduler()
        rng = np.random.default_rng(1)
        for _ in range(500):
            state = scheduler.update(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9))
            assert WEIGHT_LOWER_BOUND - 1e-9 <= state.w_throughput <= WEIGHT_UPPER_BOUND + 1e-9
            assert WEIGHT_LOWER_BOUND - 1e-9 <= state.w_fairness <= WEIGHT_UPPER_BOUND + 1e-9

    def test_long_term_average_near_half(self):
        """The equalization mechanism keeps the average weight ~0.5."""
        scheduler = make_scheduler()
        rng = np.random.default_rng(2)
        weights = [scheduler.update(rng.uniform(0.2, 0.6), rng.uniform(0.5, 1.0)).w_throughput
                   for _ in range(1000)]
        assert np.mean(weights) == pytest.approx(0.5, abs=0.05)

    def test_period_reset_flag_fires_each_equalization_period(self):
        scheduler = make_scheduler(equalization_period_s=1.0)
        resets = [scheduler.update(0.4, 0.8).period_reset for _ in range(30)]
        assert sum(resets) == 3
        assert resets[9] and resets[19] and resets[29]

    def test_prioritization_favors_weaker_goal(self):
        """If fairness improved a lot last period, throughput gets weight."""
        scheduler = make_scheduler(equalization_period_s=100.0)
        # First prioritization period: fairness improves, throughput flat.
        for i in range(10):
            scheduler.update(0.4, 0.5 + 0.03 * i)
        state = scheduler.update(0.4, 0.8)
        assert state.w_throughput > 0.5

    def test_favor_stronger_inverts(self):
        weaker = make_scheduler(equalization_period_s=100.0, favor_weaker_goal=True)
        stronger = make_scheduler(equalization_period_s=100.0, favor_weaker_goal=False)
        for i in range(10):
            weaker.update(0.4, 0.5 + 0.03 * i)
            stronger.update(0.4, 0.5 + 0.03 * i)
        assert weaker.update(0.4, 0.8).w_throughput > 0.5
        assert stronger.update(0.4, 0.8).w_throughput < 0.5

    def test_no_improvement_gives_equal_priorities(self):
        scheduler = make_scheduler(equalization_period_s=100.0)
        for _ in range(15):
            state = scheduler.update(0.4, 0.8)
        assert state.prioritization_throughput + state.prioritization_fairness == pytest.approx(
            (1 - state.equalization_fraction) * 1.0
        )

    def test_equalization_fraction_grows(self):
        scheduler = make_scheduler()
        fractions = [scheduler.update(0.4, 0.8).equalization_fraction for _ in range(100)]
        assert fractions[0] < fractions[50] < fractions[99]
        assert fractions[99] == pytest.approx(1.0)

    def test_starts_a_fresh_equalization_period(self):
        state = make_scheduler().update(0.3, 0.9)
        assert state.equalization_fraction == pytest.approx(0.01)

    def test_invalid_periods_rejected(self):
        with pytest.raises(PolicyError):
            make_scheduler(prioritization_period_s=0.01)
        with pytest.raises(PolicyError):
            make_scheduler(equalization_period_s=0.5)

    @given(
        t_seq=st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=30, max_size=60),
    )
    @settings(max_examples=25, deadline=None)
    def test_invariants_hold_for_arbitrary_scores(self, t_seq):
        scheduler = make_scheduler(equalization_period_s=2.0)
        for i, t in enumerate(t_seq):
            state = scheduler.update(t, 1.0 - 0.5 * t)
            assert state.w_throughput + state.w_fairness == pytest.approx(1.0)
            assert WEIGHT_LOWER_BOUND - 1e-9 <= state.w_throughput <= WEIGHT_UPPER_BOUND + 1e-9
