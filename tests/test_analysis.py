"""Tests for the analysis module's replication statistics."""

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.analysis.stats import confidence_interval, paired_deltas
from repro.errors import ExperimentError


class TestConfidenceInterval:
    def test_symmetric_about_mean(self):
        score = confidence_interval([1.0, 2.0, 3.0, 4.0])
        assert score.mean == pytest.approx(2.5)
        assert score.ci_low < 2.5 < score.ci_high
        assert score.ci_high - score.mean == pytest.approx(score.mean - score.ci_low)

    def test_tighter_with_more_samples(self):
        rng = np.random.default_rng(0)
        small = confidence_interval(rng.normal(0, 1, size=5))
        large = confidence_interval(rng.normal(0, 1, size=100))
        assert (large.ci_high - large.ci_low) < (small.ci_high - small.ci_low)

    def test_requires_two_values(self):
        with pytest.raises(ExperimentError):
            confidence_interval([1.0])

    def test_str(self):
        assert "n=3" in str(confidence_interval([1.0, 2.0, 3.0]))

    def test_bounds_equal_scipy_stats_t(self):
        rng = np.random.default_rng(0)
        for n in range(2, 201):
            values = rng.normal(1.0, 0.3, size=n)
            mean = float(values.mean())
            sem = float(values.std(ddof=1) / np.sqrt(n))
            t = scipy_stats.t.ppf(0.975, df=n - 1)
            score = confidence_interval(values)
            assert (score.ci_low, score.ci_high) == (mean - t * sem, mean + t * sem), n


class TestPairedDeltas:
    def test_constant_shift_recovered_exactly(self):
        a = {job: 1.0 + 0.1 * job for job in range(6)}
        b = {job: value + 0.25 for job, value in a.items()}
        delta = paired_deltas(a, b)
        assert delta.delta.mean == pytest.approx(0.25)
        assert delta.delta.std == pytest.approx(0.0)
        assert delta.n_common == 6
        assert delta.n_only_a == delta.n_only_b == 0

    def test_direction_is_b_minus_a(self):
        a = {0: 1.0, 1: 1.0, 2: 1.0}
        b = {0: 0.5, 1: 0.5, 2: 0.5}
        assert paired_deltas(a, b).delta.mean == pytest.approx(-0.5)

    def test_unpaired_keys_counted_not_silently_dropped(self):
        a = {0: 1.0, 1: 2.0, 2: 3.0, 9: 4.0}
        b = {0: 1.5, 1: 2.5, 2: 3.5, 7: 0.0, 8: 0.0}
        delta = paired_deltas(a, b)
        assert delta.n_common == 3
        assert delta.n_only_a == 1
        assert delta.n_only_b == 2

    def test_no_common_keys_rejected(self):
        with pytest.raises(ExperimentError, match="common keys"):
            paired_deltas({0: 1.0, 1: 2.0}, {5: 2.0, 6: 3.0})

    def test_single_common_key_zero_width_interval(self):
        # A one-job trace still yields a well-formed report row.
        delta = paired_deltas({0: 1.0, 1: 2.0}, {1: 2.4, 5: 3.0})
        assert delta.n_common == 1
        assert delta.delta.n == 1
        assert delta.delta.mean == pytest.approx(0.4)
        assert delta.delta.std == 0.0
        assert delta.delta.ci_low == delta.delta.ci_high == delta.delta.mean

    def test_zero_variance_deltas_collapse_interval(self):
        a = {job: float(job) for job in range(4)}
        b = {job: value + 1.0 for job, value in a.items()}
        delta = paired_deltas(a, b)
        assert delta.delta.std == 0.0
        assert delta.delta.ci_low == pytest.approx(1.0)
        assert delta.delta.ci_high == pytest.approx(1.0)
        assert np.isfinite(delta.delta.ci_low) and np.isfinite(delta.delta.ci_high)

    def test_ci_shrinks_relative_to_unpaired_noise(self):
        # Huge per-key variance, tiny per-key delta: the paired CI must
        # still pin the shift tightly — the whole point of pairing.
        rng = np.random.default_rng(0)
        a = {job: float(v) for job, v in enumerate(rng.normal(10.0, 5.0, size=30))}
        b = {job: value + 0.1 for job, value in a.items()}
        delta = paired_deltas(a, b)
        assert delta.delta.ci_low == pytest.approx(0.1, abs=1e-9)
        assert delta.delta.ci_high == pytest.approx(0.1, abs=1e-9)
