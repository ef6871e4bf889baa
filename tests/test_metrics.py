"""Unit and property tests for throughput/fairness metrics and GoalSet."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExperimentError
from repro.metrics.fairness import jain_index
from repro.metrics.goals import FAIRNESS_CHOICES, THROUGHPUT_CHOICES, GoalScores, GoalSet
from repro.metrics.summation import np_sum
from repro.metrics.throughput import speedups

positive_speedups = st.lists(
    st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=8
)


def score(speedup_values, throughput_metric="sum_ips", fairness_metric="jain"):
    """``GoalSet.scores`` of jobs with unit isolation IPS running at
    the given speedups."""
    iso = [1e9] * len(speedup_values)
    ips = [value * 1e9 for value in speedup_values]
    return GoalSet(throughput_metric, fairness_metric).scores(ips, iso)


class TestSpeedups:
    def test_basic(self):
        s = speedups([1e9, 2e9], [2e9, 2e9])
        assert list(s) == [0.5, 1.0]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ExperimentError):
            speedups([1e9], [1e9, 2e9])

    def test_zero_baseline_rejected(self):
        with pytest.raises(ExperimentError):
            speedups([1e9], [0.0])

    def test_negative_ips_rejected(self):
        with pytest.raises(ExperimentError):
            speedups([-1.0], [1e9])


class TestThroughputMetrics:
    def test_geometric_mean_of_equal_speedups(self):
        assert score([0.5, 0.5, 0.5], "geometric_mean").throughput == pytest.approx(0.5)

    def test_harmonic_below_geometric(self):
        s = [0.2, 0.8]
        assert score(s, "harmonic_mean").throughput < score(s, "geometric_mean").throughput

    def test_weighted_mean_equals_ips_ratio(self):
        iso = [2e9, 4e9]
        ips = [0.5 * 2e9, 0.75 * 4e9]
        expected = (0.5 * 2e9 + 0.75 * 4e9) / 6e9
        assert GoalSet().scores(ips, iso).throughput == pytest.approx(expected)

    @pytest.mark.parametrize("throughput_metric", THROUGHPUT_CHOICES)
    def test_empty_rejected(self, throughput_metric):
        with pytest.raises(ExperimentError):
            GoalSet(throughput_metric).scores([], [])

    @given(positive_speedups)
    @settings(max_examples=50, deadline=None)
    def test_means_bounded_by_extremes(self, s):
        for metric in ("geometric_mean", "harmonic_mean"):
            value = score(s, metric).throughput
            assert min(s) - 1e-9 <= value <= max(s) + 1e-9


class TestFairnessMetrics:
    def test_perfect_fairness(self):
        assert jain_index([0.5, 0.5, 0.5]) == pytest.approx(1.0)
        assert score([0.5, 0.5, 0.5], fairness_metric="one_minus_cov").fairness == pytest.approx(1.0)

    def test_jain_decreases_with_spread(self):
        assert jain_index([0.4, 0.6]) > jain_index([0.2, 0.8])

    def test_jain_formula(self):
        s = [0.2, 0.8]
        cov = np_cov(s)
        assert jain_index(s) == pytest.approx(1.0 / (1.0 + cov**2))

    def test_normalized_clipped(self):
        s = [0.01, 1.0, 0.01]
        assert np_one_minus_cov(s) < 0
        assert score(s, fairness_metric="one_minus_cov").fairness == 0.0

    def test_scale_invariance(self):
        assert jain_index([0.2, 0.4]) == pytest.approx(jain_index([0.4, 0.8]))

    @pytest.mark.parametrize("fairness_metric", FAIRNESS_CHOICES)
    def test_zero_mean_rejected(self, fairness_metric):
        with pytest.raises(ExperimentError):
            score([0.0, 0.0], fairness_metric=fairness_metric)

    @given(positive_speedups)
    @settings(max_examples=50, deadline=None)
    def test_jain_in_unit_interval(self, s):
        assert 0.0 < jain_index(s) <= 1.0

    @given(positive_speedups)
    @settings(max_examples=50, deadline=None)
    def test_jain_lower_bound_one_over_n(self, s):
        # Jain's index is bounded below by 1/n for n values.
        assert jain_index(s) >= 1.0 / len(s) - 1e-9


class TestGoalSet:
    def test_defaults_match_paper(self):
        goals = GoalSet()
        assert goals.throughput_metric == "sum_ips"
        assert goals.fairness_metric == "jain"

    def test_unknown_metrics_rejected(self):
        with pytest.raises(ExperimentError):
            GoalSet(throughput_metric="latency")
        with pytest.raises(ExperimentError):
            GoalSet(fairness_metric="karma")

    def test_scores_in_unit_interval(self):
        scores = GoalSet().scores([1e9, 2e9], [4e9, 4e9])
        assert 0 < scores.throughput <= 1
        assert 0 < scores.fairness <= 1

    def test_weighted_combination(self):
        scores = GoalScores(throughput=0.4, fairness=0.8)
        assert scores.weighted(0.75, 0.25) == pytest.approx(0.5)

    @pytest.mark.parametrize("throughput_metric", ["sum_ips", "geometric_mean", "harmonic_mean"])
    @pytest.mark.parametrize("fairness_metric", ["jain", "one_minus_cov"])
    def test_batch_matches_scalar(self, throughput_metric, fairness_metric):
        goals = GoalSet(throughput_metric, fairness_metric)
        iso = np.array([2e9, 3e9, 5e9])
        ips = np.array([[1e9, 2e9, 2e9], [0.5e9, 3e9, 1e9]])
        t_batch, f_batch = goals.scores_batch(ips, iso)
        for i in range(2):
            scalar = goals.scores(ips[i], iso)
            assert t_batch[i] == pytest.approx(scalar.throughput, rel=1e-9)
            assert f_batch[i] == pytest.approx(scalar.fairness, rel=1e-9)

    def test_batch_shape_checked(self):
        with pytest.raises(ExperimentError):
            GoalSet().scores_batch(np.ones((2, 3)), np.ones(2))


# -- the float metrics against numpy, bit for bit ---------------------------
#
# The numpy expressions the metrics computed before they moved to Python
# floats, kept here as the reference the float path must equal with ``==``.


def np_speedups(ips, iso):
    return np.asarray(ips, dtype=float) / np.asarray(iso, dtype=float)


def np_cov(s):
    s = np.asarray(s, dtype=float)
    mean = float(np.mean(s))
    return float(np.std(s) / mean)


def np_jain(s):
    cov = np_cov(s)
    return 1.0 / (1.0 + cov * cov)


def np_one_minus_cov(s):
    return 1.0 - np_cov(s)


def np_one_minus_cov_normalized(s):
    return float(np.clip(np_one_minus_cov(s), 0.0, 1.0))


def np_weighted_mean(s, iso):
    s, iso = np.asarray(s, dtype=float), np.asarray(iso, dtype=float)
    return float(np.sum(s * iso) / np.sum(iso))


def np_harmonic(s):
    s = np.asarray(s, dtype=float)
    return float(len(s) / np.sum(1.0 / np.maximum(s, 1e-12)))


def np_geometric(s):
    s = np.asarray(s, dtype=float)
    return float(np.exp(np.mean(np.log(np.maximum(s, 1e-12)))))


def np_scores_batch(throughput_metric, fairness_metric, ips, iso):
    """``GoalSet.scores_batch`` as one vectorized pass over the rows."""
    s = ips / iso
    if throughput_metric == "sum_ips":
        throughput = (s * iso).sum(axis=1) / iso.sum()
    elif throughput_metric == "geometric_mean":
        throughput = np.exp(np.log(np.maximum(s, 1e-12)).mean(axis=1))
    else:
        throughput = s.shape[1] / (1.0 / np.maximum(s, 1e-12)).sum(axis=1)
    cov = s.std(axis=1) / np.maximum(s.mean(axis=1), 1e-12)
    if fairness_metric == "jain":
        return throughput, 1.0 / (1.0 + cov * cov)
    return throughput, np.clip(1.0 - cov, 0.0, 1.0)


NP_THROUGHPUT = {
    "sum_ips": np_weighted_mean,
    "geometric_mean": lambda s, iso: np_geometric(s),
    "harmonic_mean": lambda s, iso: np_harmonic(s),
}
NP_FAIRNESS = {"jain": np_jain, "one_minus_cov": np_one_minus_cov_normalized}


def metric_draws(seed, count):
    """Seeded ``(ips, iso)`` pairs of 1-300 jobs.

    Sizes cover the left-to-right path (n < 8), numpy's 8-accumulator
    block (8-128) and its pairwise split (above 128); values span
    1e-3 to 1e9 and include exact zeros and runs of equal values.
    """
    rng = np.random.default_rng(seed)
    sizes = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 64, 127, 128, 129, 130, 136, 255, 256, 300]
    for i in range(count):
        n = sizes[i] if i < len(sizes) else int(rng.integers(1, 301))
        scale = 10.0 ** rng.uniform(-3, 9)
        iso = scale * rng.uniform(0.5, 2.0, n)
        ips = iso * rng.uniform(0.0, 1.2, n)
        shape = i % 4
        if shape == 1:
            ips[rng.random(n) < 0.3] = 0.0
        elif shape == 2:
            ips[:] = ips[0]
            iso[:] = iso[0]
        elif shape == 3:
            ips = ips * 10.0 ** rng.uniform(-3, 3, n)
        yield ips, iso


class TestFloatMetricsMatchNumpy:
    DRAWS = list(metric_draws(seed=25, count=600))

    def test_speedups(self):
        for ips, iso in self.DRAWS:
            assert speedups(ips.tolist(), iso.tolist()) == tuple(np_speedups(ips, iso).tolist())

    def test_jain_index(self):
        checked = 0
        for ips, iso in self.DRAWS:
            s = np_speedups(ips, iso)
            if not np.any(s > 0):
                continue
            assert jain_index(s.tolist()) == np_jain(s)
            checked += 1
        assert checked > 500

    @pytest.mark.parametrize("throughput_metric", ["sum_ips", "geometric_mean", "harmonic_mean"])
    @pytest.mark.parametrize("fairness_metric", ["jain", "one_minus_cov"])
    def test_goal_scores(self, throughput_metric, fairness_metric):
        goals = GoalSet(throughput_metric, fairness_metric)
        for ips, iso in self.DRAWS:
            s = np_speedups(ips, iso)
            if not np.any(s > 0):
                continue
            scores = goals.scores(tuple(ips.tolist()), tuple(iso.tolist()))
            assert scores.throughput == NP_THROUGHPUT[throughput_metric](s, iso)
            assert scores.fairness == NP_FAIRNESS[fairness_metric](s)

    @pytest.mark.parametrize("throughput_metric", ["sum_ips", "geometric_mean", "harmonic_mean"])
    @pytest.mark.parametrize("fairness_metric", ["jain", "one_minus_cov"])
    def test_goal_scores_batch(self, throughput_metric, fairness_metric):
        goals = GoalSet(throughput_metric, fairness_metric)
        rng = np.random.default_rng(11)
        for _ in range(40):
            n_jobs, n_configs = int(rng.integers(1, 9)), int(rng.integers(1, 40))
            iso = rng.uniform(1e8, 5e9, n_jobs)
            ips = iso * rng.uniform(0.01, 1.0, (n_configs, n_jobs))
            throughput, fairness = goals.scores_batch(ips, iso)
            expected = np_scores_batch(throughput_metric, fairness_metric, ips, iso)
            assert np.array_equal(throughput, expected[0])
            assert np.array_equal(fairness, expected[1])

    def test_signed_sums_keep_numpy_order(self):
        # Cancellation makes the order visible: a left-to-right sum of
        # these differs from numpy's blocked one.
        rng = np.random.default_rng(7)
        for n in (3, 8, 13, 128, 129, 200, 300):
            values = rng.normal(0.0, 1.0, n) * 10.0 ** rng.uniform(-3, 9, n)
            assert np_sum(values.tolist()) == float(np.sum(values))

    @pytest.mark.parametrize("throughput_metric", THROUGHPUT_CHOICES)
    @pytest.mark.parametrize("fairness_metric", FAIRNESS_CHOICES)
    def test_results_are_python_floats(self, throughput_metric, fairness_metric):
        scores = GoalSet(throughput_metric, fairness_metric).scores(
            [0.25e9, 1e9, 2.25e9], [1e9, 2e9, 3e9]
        )
        s = [0.25, 0.5, 0.75]
        for value in (
            scores.throughput,
            scores.fairness,
            jain_index(s),
            *speedups([1e9, 2e9], [2e9, 4e9]),
        ):
            assert type(value) is float

    @pytest.mark.parametrize(
        "call",
        [
            lambda: speedups([], [1e9]),
            lambda: speedups([1e9, 2e9], [1e9]),
            lambda: speedups([1e9], [0.0]),
            lambda: speedups([1e9], [-1e9]),
            lambda: speedups([-1.0], [1e9]),
            lambda: jain_index([]),
            lambda: jain_index([0.5, -0.1]),
            lambda: jain_index([0.0, 0.0, 0.0]),
            lambda: jain_index([0.0]),
            lambda: GoalSet().scores([1e9, 2e9], [1e9]),
            lambda: GoalSet().scores([0.0, 0.0], [1e9, 1e9]),
            lambda: GoalSet("harmonic_mean", "one_minus_cov").scores([1e9], [0.0]),
        ],
    )
    def test_rejected_inputs_raise(self, call):
        with pytest.raises(ExperimentError):
            call()

    @pytest.mark.parametrize("throughput_metric", THROUGHPUT_CHOICES)
    @pytest.mark.parametrize("fairness_metric", FAIRNESS_CHOICES)
    @pytest.mark.parametrize(
        "ips, iso, message",
        [
            pytest.param([], [], "need at least one job", id="empty"),
            pytest.param([1e9, 2e9], [1e9], "2 IPS values for 1 baselines", id="mismatch"),
            pytest.param([1e9], [0.0], "isolation IPS must be positive", id="zero-baseline"),
            pytest.param(
                [1e9, 1e9], [1e9, -1e9], "isolation IPS must be positive", id="negative-baseline"
            ),
            pytest.param([-1.0], [1e9], "IPS must be non-negative", id="negative-ips"),
            pytest.param(
                [0.5e9, -0.5e9], [1e9, 1e9], "IPS must be non-negative", id="one-negative-ips"
            ),
            pytest.param(
                [0.0, 0.0], [1e9, 1e9], "mean speedup must be positive to compute CoV",
                id="all-zero",
            ),
            pytest.param(
                [0.0, 1e9], [1e9, float("inf")], "mean speedup must be positive to compute CoV",
                id="infinite-baseline",
            ),
        ],
    )
    def test_scores_reject_each_measurement_at_its_check(
        self, throughput_metric, fairness_metric, ips, iso, message
    ):
        """``GoalSet.scores`` checks the speedups once and then runs the
        formulas; every metric choice rejects a bad measurement at the
        same check, with the same message."""
        with pytest.raises(ExperimentError) as raised:
            GoalSet(throughput_metric, fairness_metric).scores(ips, iso)
        assert str(raised.value) == message
