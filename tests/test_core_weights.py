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

#: The paper's control interval (Sec. IV), which the runs use.
INTERVAL_S = 0.1


def make_scheduler(**kwargs):
    defaults = dict(prioritization_period_s=1.0, equalization_period_s=10.0)
    defaults.update(kwargs)
    return DynamicWeightScheduler(**defaults)


class TestStaticWeights:
    def test_fixed_pair(self):
        scheduler = StaticWeights(0.5, 0.5)
        state = scheduler.update(0.3, 0.9, INTERVAL_S)
        assert state.pair == (0.5, 0.5)

    def test_normalizes(self):
        scheduler = StaticWeights(2.0, 2.0)
        assert scheduler.update(0, 0, INTERVAL_S).pair == (0.5, 0.5)

    def test_single_goal_variants(self):
        assert StaticWeights(1.0, 0.0).update(0, 0, INTERVAL_S).pair == (1.0, 0.0)
        assert StaticWeights(0.0, 1.0).update(0, 0, INTERVAL_S).pair == (0.0, 1.0)

    def test_interval_is_ignored(self):
        scheduler = StaticWeights(0.7, 0.3)
        states = [scheduler.update(0.3, 0.9, interval_s) for interval_s in (0.1, 0.2, 5.0)]
        assert states[0] == states[1] == states[2]
        assert states[0].pair == pytest.approx((0.7, 0.3))

    def test_negative_rejected(self):
        with pytest.raises(PolicyError):
            StaticWeights(-1.0, 2.0)

    def test_all_zero_rejected(self):
        with pytest.raises(PolicyError):
            StaticWeights(0.0, 0.0)


class TestDynamicScheduler:
    def test_periods_quantized_to_interval(self):
        # T_E = 10 s is 100 updates at 0.1 s and 50 at 0.2 s.
        for interval_s, per_period in ((0.1, 100), (0.2, 50)):
            scheduler = make_scheduler()
            resets = [
                i + 1
                for i in range(250)
                if scheduler.update(0.4, 0.8, interval_s).period_reset
            ]
            assert resets == list(range(per_period, 251, per_period))

    def test_prioritization_boundary_counts_observed_intervals(self):
        # T_P = 1 s: Eq. 4 reruns after 5 updates at 0.2 s, so fairness
        # improving over the first 5 hands throughput the weight at the
        # 6th; at 0.1 s the period is still open there.
        def sixth(interval_s):
            scheduler = make_scheduler(equalization_period_s=100.0)
            for i in range(5):
                scheduler.update(0.4, 0.5 + 0.05 * i, interval_s)
            return scheduler.update(0.4, 0.8, interval_s)

        open_period = sixth(0.1)
        assert open_period.prioritization_throughput == pytest.approx(
            0.5 * (1 - open_period.equalization_fraction)
        )
        boundary = sixth(0.2)
        assert boundary.prioritization_throughput > 0.5 * (1 - boundary.equalization_fraction)

    def test_weights_sum_to_one(self):
        scheduler = make_scheduler()
        rng = np.random.default_rng(0)
        for _ in range(250):
            state = scheduler.update(rng.uniform(0.2, 0.5), rng.uniform(0.6, 1.0), INTERVAL_S)
            assert state.w_throughput + state.w_fairness == pytest.approx(1.0)

    def test_weights_bounded(self):
        scheduler = make_scheduler()
        rng = np.random.default_rng(1)
        for _ in range(500):
            state = scheduler.update(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9), INTERVAL_S)
            assert WEIGHT_LOWER_BOUND - 1e-9 <= state.w_throughput <= WEIGHT_UPPER_BOUND + 1e-9
            assert WEIGHT_LOWER_BOUND - 1e-9 <= state.w_fairness <= WEIGHT_UPPER_BOUND + 1e-9

    def test_long_term_average_near_half(self):
        """The equalization mechanism keeps the average weight ~0.5."""
        scheduler = make_scheduler()
        rng = np.random.default_rng(2)
        weights = [
            scheduler.update(rng.uniform(0.2, 0.6), rng.uniform(0.5, 1.0), INTERVAL_S).w_throughput
            for _ in range(1000)
        ]
        assert np.mean(weights) == pytest.approx(0.5, abs=0.05)

    def test_period_reset_flag_fires_each_equalization_period(self):
        scheduler = make_scheduler(equalization_period_s=1.0)
        resets = [scheduler.update(0.4, 0.8, INTERVAL_S).period_reset for _ in range(30)]
        assert sum(resets) == 3
        assert resets[9] and resets[19] and resets[29]

    def test_prioritization_favors_weaker_goal(self):
        """If fairness improved a lot last period, throughput gets weight."""
        scheduler = make_scheduler(equalization_period_s=100.0)
        # First prioritization period: fairness improves, throughput flat.
        for i in range(10):
            scheduler.update(0.4, 0.5 + 0.03 * i, INTERVAL_S)
        state = scheduler.update(0.4, 0.8, INTERVAL_S)
        assert state.w_throughput > 0.5

    def test_favor_stronger_inverts(self):
        weaker = make_scheduler(equalization_period_s=100.0, favor_weaker_goal=True)
        stronger = make_scheduler(equalization_period_s=100.0, favor_weaker_goal=False)
        for i in range(10):
            weaker.update(0.4, 0.5 + 0.03 * i, INTERVAL_S)
            stronger.update(0.4, 0.5 + 0.03 * i, INTERVAL_S)
        assert weaker.update(0.4, 0.8, INTERVAL_S).w_throughput > 0.5
        assert stronger.update(0.4, 0.8, INTERVAL_S).w_throughput < 0.5

    def test_no_improvement_gives_equal_priorities(self):
        scheduler = make_scheduler(equalization_period_s=100.0)
        for _ in range(15):
            state = scheduler.update(0.4, 0.8, INTERVAL_S)
        assert state.prioritization_throughput + state.prioritization_fairness == pytest.approx(
            (1 - state.equalization_fraction) * 1.0
        )

    def test_equalization_fraction_grows(self):
        scheduler = make_scheduler()
        fractions = [
            scheduler.update(0.4, 0.8, INTERVAL_S).equalization_fraction for _ in range(100)
        ]
        assert fractions[0] < fractions[50] < fractions[99]
        assert fractions[99] == pytest.approx(1.0)

    def test_starts_a_fresh_equalization_period(self):
        state = make_scheduler().update(0.3, 0.9, INTERVAL_S)
        assert state.equalization_fraction == pytest.approx(0.01)

    def test_invalid_periods_rejected(self):
        # T_P shorter than the interval is known only when update runs.
        short = make_scheduler(prioritization_period_s=0.01)
        with pytest.raises(PolicyError, match="at least one interval"):
            short.update(0.4, 0.8, INTERVAL_S)
        make_scheduler(prioritization_period_s=0.2).update(0.4, 0.8, 0.2)
        with pytest.raises(PolicyError, match="at least one interval"):
            make_scheduler(prioritization_period_s=0.2).update(0.4, 0.8, 0.3)
        with pytest.raises(PolicyError):
            make_scheduler(equalization_period_s=0.5)

    def test_non_positive_interval_rejected(self):
        # A zero or negative interval counts no periods at all.
        for interval_s in (0.0, -0.1):
            with pytest.raises(PolicyError, match="at least one interval"):
                make_scheduler().update(0.4, 0.8, interval_s)

    @given(
        t_seq=st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=30, max_size=60),
    )
    @settings(max_examples=25, deadline=None)
    def test_invariants_hold_for_arbitrary_scores(self, t_seq):
        scheduler = make_scheduler(equalization_period_s=2.0)
        for i, t in enumerate(t_seq):
            state = scheduler.update(t, 1.0 - 0.5 * t, INTERVAL_S)
            assert state.w_throughput + state.w_fairness == pytest.approx(1.0)
            assert WEIGHT_LOWER_BOUND - 1e-9 <= state.w_throughput <= WEIGHT_UPPER_BOUND + 1e-9
