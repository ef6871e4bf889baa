"""Equation-level tests: the paper's formulas verified numerically."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from repro.core.acquisition import ExpectedImprovement, ProbabilityOfImprovement
from repro.core.kernels import Matern52
from repro.core.weights import DynamicWeightScheduler
from repro.metrics.fairness import jain_index
from repro.metrics.goals import GoalSet


class TestEquation4Prioritization:
    """Eq. 4: W_TP = 1/4 + (1/2) * dF / (dT + dF)."""

    def make(self):
        # One-step prioritization period isolates Eq. 4 exactly.
        return DynamicWeightScheduler(
            prioritization_period_s=0.1,
            equalization_period_s=1000.0,  # equalization negligible early
        )

    def test_exact_weights_for_known_deltas(self):
        scheduler = self.make()
        # Period 1: T 0.40 -> 0.44 (+10 %), F 0.80 -> 0.84 (+5 %).
        scheduler.update(0.40, 0.80, 0.1)
        state = scheduler.update(0.44, 0.84, 0.1)
        # At the boundary Eq. 4 gives W_TP = 0.25 + 0.5 * (5 / 15) = 5/12.
        expected_w_tp = 0.25 + 0.5 * (5.0 / 15.0)
        # With negligible equalization, the combined weight ~ W_TP.
        assert state.prioritization_throughput / (1 - state.equalization_fraction) == pytest.approx(
            expected_w_tp, abs=1e-6
        )

    def test_prioritization_bounds_are_quarter_and_three_quarters(self):
        scheduler = self.make()
        # Fairness improves hugely, throughput not at all.
        scheduler.update(0.40, 0.10, 0.1)
        state = scheduler.update(0.40, 0.90, 0.1)
        w_tp = state.prioritization_throughput / (1 - state.equalization_fraction)
        assert w_tp == pytest.approx(0.75, abs=1e-6)  # throughput gets the max

    def test_symmetric_improvement_gives_half(self):
        scheduler = self.make()
        scheduler.update(0.40, 0.80, 0.1)
        state = scheduler.update(0.44, 0.88, 0.1)  # both +10 %
        w_tp = state.prioritization_throughput / (1 - state.equalization_fraction)
        assert w_tp == pytest.approx(0.5, abs=1e-6)


class TestEquation3Equalization:
    """Eq. 3: W_TE = t_e/2 - sum(W_T so far) drives the long-run balance."""

    def test_equalization_corrects_accumulated_imbalance(self):
        scheduler = DynamicWeightScheduler(
            prioritization_period_s=0.2, equalization_period_s=2.0
        )
        # Feed scores that keep fairness improving, biasing weight
        # toward throughput early in the period.
        weights = []
        for i in range(20):
            state = scheduler.update(0.4, 0.5 + 0.02 * i, 0.1)
            weights.append(state.w_throughput)
        # The equalization component must pull the period mean to ~0.5.
        assert np.mean(weights) == pytest.approx(0.5, abs=0.06)

    def test_late_period_weights_counteract_early_bias(self):
        scheduler = DynamicWeightScheduler(
            prioritization_period_s=0.2, equalization_period_s=2.0
        )
        weights = [scheduler.update(0.4, 0.5 + 0.02 * i, 0.1).w_throughput for i in range(20)]
        early = np.mean(weights[:10])
        late = np.mean(weights[10:])
        if early > 0.5:
            assert late < early
        elif early < 0.5:
            assert late > early


class TestExpectedImprovementClosedForm:
    """EI's closed form must match a Monte Carlo estimate."""

    @given(
        mean=st.floats(min_value=-1.0, max_value=2.0),
        std=st.floats(min_value=0.05, max_value=1.0),
        best=st.floats(min_value=-0.5, max_value=1.5),
    )
    @settings(max_examples=30, deadline=None)
    def test_ei_matches_monte_carlo(self, mean, std, best):
        ei = ExpectedImprovement()
        closed = ei(np.array([mean]), np.array([std]), best)[0]
        rng = np.random.default_rng(42)
        draws = rng.normal(mean, std, size=200_000)
        monte_carlo = np.maximum(draws - best - ei.xi, 0.0).mean()
        assert closed == pytest.approx(monte_carlo, abs=0.01)

    @given(
        mean=st.floats(min_value=-1.0, max_value=2.0),
        std=st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_pi_matches_monte_carlo(self, mean, std):
        best = 0.5
        pi = ProbabilityOfImprovement()
        closed = pi(np.array([mean]), np.array([std]), best)[0]
        rng = np.random.default_rng(7)
        draws = rng.normal(mean, std, size=200_000)
        assert closed == pytest.approx((draws > best + pi.xi).mean(), abs=0.01)


def _posterior_draw(rng):
    """1-300 candidates, |z| spread out to about 40; zero stds go far beyond."""
    n = int(rng.integers(1, 301))
    std = rng.uniform(0.0, 1.0, size=n)
    std[rng.uniform(size=n) < 0.1] = 0.0
    best = float(rng.normal())
    z = rng.uniform(-40.0, 40.0, size=n) * rng.uniform(size=n) ** 2
    mean = best + z * np.maximum(std, 1e-3)
    return mean, std, best


class TestAcquisitionMatchesScipyStats:
    """EI and PI equal the ``scipy.stats.norm`` formulas bit for bit."""

    DRAWS = 2000

    def test_ei_bit_identical(self):
        rng = np.random.default_rng(2021)
        for draw in range(self.DRAWS):
            mean, std, best = _posterior_draw(rng)
            floored = np.maximum(std, 1e-12)
            improvement = mean - best - ExpectedImprovement.xi
            z = improvement / floored
            expected = improvement * norm.cdf(z) + floored * norm.pdf(z)
            got = ExpectedImprovement()(mean, std, best)
            assert np.array_equal(got, expected), f"draw {draw}"

    def test_pi_bit_identical(self):
        rng = np.random.default_rng(2022)
        for draw in range(self.DRAWS):
            mean, std, best = _posterior_draw(rng)
            expected = norm.cdf(
                (mean - best - ProbabilityOfImprovement.xi) / np.maximum(std, 1e-12)
            )
            got = ProbabilityOfImprovement()(mean, std, best)
            assert np.array_equal(got, expected), f"draw {draw}"


class TestMatern52ClosedForm:
    def test_known_values(self):
        """k(r) = (1 + sqrt(5) r + 5 r^2 / 3) exp(-sqrt(5) r)."""
        kernel = Matern52(lengthscale=1.0, variance=1.0)
        for r in (0.0, 0.5, 1.0, 2.0):
            a = np.array([[0.0]])
            b = np.array([[r]])
            sqrt5r = np.sqrt(5) * r
            expected = (1 + sqrt5r + sqrt5r**2 / 3) * np.exp(-sqrt5r)
            assert kernel(a, b)[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_lengthscale_rescales_distance(self):
        wide = Matern52(lengthscale=2.0)
        narrow = Matern52(lengthscale=1.0)
        a, b = np.array([[0.0]]), np.array([[1.0]])
        assert wide(a, b)[0, 0] == pytest.approx(
            narrow(np.array([[0.0]]), np.array([[0.5]]))[0, 0], rel=1e-12
        )


class TestMetricFormulas:
    def test_jain_matches_canonical_form(self):
        """Jain = (sum x)^2 / (n * sum x^2), equivalent to 1/(1+CoV^2)."""
        x = np.array([0.3, 0.5, 0.7, 0.2])
        canonical = x.sum() ** 2 / (len(x) * (x**2).sum())
        assert jain_index(x) == pytest.approx(canonical, rel=1e-12)

    def test_sum_ips_normalization(self):
        """sum-of-IPS throughput equals total IPS over total isolation IPS."""
        iso = np.array([2e9, 3e9])
        ips = np.array([1e9, 2.4e9])
        throughput = GoalSet().scores(ips, iso).throughput
        assert throughput == pytest.approx(ips.sum() / iso.sum(), rel=1e-12)
