"""Tests for the Gaussian process, kernels, and acquisition functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.acquisition import (
    ExpectedImprovement,
    ProbabilityOfImprovement,
    UpperConfidenceBound,
    make_acquisition,
)
from repro.core.gp import _JITTER, GaussianProcess
from repro.core.kernels import RBF, Matern52
from repro.errors import ModelError


def log_evidence(gp, x, y):
    """Log marginal likelihood of ``y`` under ``gp``'s kernel and noise,
    in the GP's standardized target units (reference formula: dense
    solve and log-determinant, no Cholesky)."""
    z = (y - np.mean(y)) / np.std(y)
    k = gp.kernel(x, x) + (gp.noise + _JITTER) * np.eye(len(x))
    _, logdet = np.linalg.slogdet(k)
    return float(-0.5 * z @ np.linalg.solve(k, z) - 0.5 * logdet - 0.5 * len(x) * np.log(2 * np.pi))


class TestKernels:
    @pytest.mark.parametrize("kernel_cls", [Matern52, RBF])
    def test_diagonal_is_variance(self, kernel_cls):
        kernel = kernel_cls(lengthscale=0.5, variance=2.0)
        x = np.random.default_rng(0).random((5, 3))
        k = kernel(x, x)
        assert np.allclose(np.diag(k), 2.0)

    @pytest.mark.parametrize("kernel_cls", [Matern52, RBF])
    def test_symmetric_psd(self, kernel_cls):
        x = np.random.default_rng(1).random((8, 4))
        k = kernel_cls()(x, x)
        assert np.allclose(k, k.T)
        eigenvalues = np.linalg.eigvalsh(k)
        assert eigenvalues.min() > -1e-8

    @pytest.mark.parametrize("kernel_cls", [Matern52, RBF])
    def test_decays_with_distance(self, kernel_cls):
        kernel = kernel_cls(lengthscale=0.3)
        near = kernel(np.array([[0.0]]), np.array([[0.1]]))[0, 0]
        far = kernel(np.array([[0.0]]), np.array([[1.0]]))[0, 0]
        assert near > far

    def test_invalid_hyperparams(self):
        with pytest.raises(ModelError):
            Matern52(lengthscale=0.0)
        with pytest.raises(ModelError):
            Matern52(variance=-1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ModelError):
            Matern52()(np.ones((2, 3)), np.ones((2, 4)))

    def test_with_params(self):
        k = Matern52(lengthscale=0.5).with_params(lengthscale=1.0)
        assert k.lengthscale == 1.0
        assert isinstance(k, Matern52)


class TestGaussianProcess:
    def test_interpolates_noise_free(self):
        x = np.linspace(0, 1, 8).reshape(-1, 1)
        y = np.sin(3 * x).ravel()
        gp = GaussianProcess(noise=1e-8).fit(x, y)
        mean, std = gp.predict(x)
        assert np.allclose(mean, y, atol=1e-3)
        assert np.all(std < 0.05)

    def test_uncertainty_grows_away_from_data(self):
        x = np.array([[0.0], [0.1]])
        gp = GaussianProcess().fit(x, [0.0, 0.1])
        _, std_near = gp.predict(np.array([[0.05]]))
        _, std_far = gp.predict(np.array([[3.0]]))
        assert std_far > std_near

    def test_prediction_reverts_to_mean_far_away(self):
        x = np.array([[0.0], [0.2]])
        gp = GaussianProcess().fit(x, [1.0, 3.0])
        mean, _ = gp.predict(np.array([[50.0]]))
        assert mean[0] == pytest.approx(2.0, abs=0.2)

    def test_constant_targets_handled(self):
        x = np.random.default_rng(0).random((5, 2))
        gp = GaussianProcess().fit(x, np.full(5, 0.7))
        mean, _ = gp.predict(x)
        assert np.allclose(mean, 0.7, atol=1e-6)

    def test_fit_shape_mismatch(self):
        with pytest.raises(ModelError):
            GaussianProcess().fit(np.ones((3, 2)), [1.0, 2.0])

    def test_fit_empty(self):
        with pytest.raises(ModelError):
            GaussianProcess().fit(np.empty((0, 2)), [])

    def test_predict_before_fit(self):
        with pytest.raises(ModelError):
            GaussianProcess().predict(np.ones((1, 2)))

    def test_negative_noise_rejected(self):
        with pytest.raises(ModelError):
            GaussianProcess(noise=-0.1)

    def test_lengthscale_optimization_improves_evidence(self):
        rng = np.random.default_rng(3)
        x = rng.random((30, 2))
        y = np.sin(4 * x[:, 0]) + 0.3 * x[:, 1]
        fixed = GaussianProcess(kernel=Matern52(lengthscale=5.0), noise=1e-4).fit(x, y)
        tuned = GaussianProcess(kernel=Matern52(lengthscale=5.0), noise=1e-4).fit(
            x, y, optimize_lengthscale=True
        )
        assert tuned.kernel.lengthscale != fixed.kernel.lengthscale
        assert log_evidence(tuned, x, y) >= log_evidence(fixed, x, y) - 1e-9

    def test_n_samples(self):
        gp = GaussianProcess().fit(np.ones((4, 1)) * np.arange(4).reshape(-1, 1), np.arange(4.0))
        assert gp.n_samples == 4

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_posterior_std_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.random((6, 3))
        y = rng.random(6)
        gp = GaussianProcess().fit(x, y)
        _, std = gp.predict(rng.random((10, 3)))
        assert np.all(std >= 0)


class TestAcquisitions:
    def test_ei_zero_when_certain_and_worse(self):
        ei = ExpectedImprovement()
        value = ei(np.array([0.0]), np.array([1e-9]), best=1.0)
        assert value[0] == pytest.approx(0.0, abs=1e-6)

    def test_ei_positive_with_uncertainty(self):
        ei = ExpectedImprovement()
        assert ei(np.array([0.0]), np.array([1.0]), best=1.0)[0] > 0

    def test_ei_increases_with_mean(self):
        ei = ExpectedImprovement()
        lo, hi = ei(np.array([0.5, 0.9]), np.array([0.1, 0.1]), best=1.0)
        assert hi > lo

    def test_pi_bounded(self):
        pi = ProbabilityOfImprovement()
        values = pi(np.array([-1.0, 0.0, 5.0]), np.array([0.5, 0.5, 0.5]), best=1.0)
        assert np.all(values >= 0) and np.all(values <= 1)

    def test_ucb_formula(self):
        ucb = UpperConfidenceBound()
        assert ucb(np.array([1.0]), np.array([0.5]), best=0.0)[0] == pytest.approx(2.0)

    def test_factory(self):
        assert isinstance(make_acquisition("ei"), ExpectedImprovement)
        assert isinstance(make_acquisition("pi"), ProbabilityOfImprovement)
        assert isinstance(make_acquisition("ucb"), UpperConfidenceBound)

    def test_factory_unknown(self):
        with pytest.raises(ModelError):
            make_acquisition("thompson")

    def test_margins_raise_the_bar(self):
        """EI and PI count only improvement beyond their fixed margins."""
        pi = ProbabilityOfImprovement()
        assert pi(np.array([pi.xi]), np.array([0.3]), best=0.0)[0] == 0.5
        ei = ExpectedImprovement()
        certain = np.array([1e-12])
        assert ei(np.array([ei.xi + 0.1]), certain, best=0.0)[0] == pytest.approx(0.1)
        # Merely matching the incumbent improves on nothing.
        assert ei(np.array([0.0]), certain, best=0.0)[0] == 0.0


class TestIncrementalFit:
    """Gated length-scale refits and incremental Cholesky extension."""

    def _trace(self, n, d=3, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.random((n, d))
        y = np.sin(3 * x[:, 0]) + 0.4 * x[:, 1] + rng.normal(scale=0.02, size=n)
        return x, y

    def test_incremental_matches_full_refit(self):
        """Extending the factor one sample at a time must agree with a
        from-scratch fit at every size (numerically, not bitwise)."""
        x, y = self._trace(20)
        incremental = GaussianProcess(noise=5e-2)
        query = np.random.default_rng(9).random((5, 3))
        for n in range(4, 21):
            incremental.fit(x[:n], y[:n])
            fresh = GaussianProcess(noise=5e-2).fit(x[:n], y[:n])
            mean_inc, std_inc = incremental.predict(query)
            mean_new, std_new = fresh.predict(query)
            np.testing.assert_allclose(mean_inc, mean_new, rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(std_inc, std_new, rtol=1e-8, atol=1e-10)

    def test_incremental_handles_multi_row_extension(self):
        x, y = self._trace(16)
        gp = GaussianProcess(noise=5e-2).fit(x[:6], y[:6])
        gp.fit(x, y)  # extend by 10 rows at once
        fresh = GaussianProcess(noise=5e-2).fit(x, y)
        query = np.random.default_rng(1).random((4, 3))
        np.testing.assert_allclose(gp.predict(query)[0], fresh.predict(query)[0], rtol=1e-8)

    def test_non_prefix_refit_falls_back(self):
        """A sliding window (GoalRecords max_samples) breaks the prefix;
        the GP must silently fall back to a full factorization."""
        x, y = self._trace(12)
        gp = GaussianProcess(noise=5e-2).fit(x[:8], y[:8])
        gp.fit(x[2:10], y[2:10])  # shifted window, same size growth pattern
        fresh = GaussianProcess(noise=5e-2).fit(x[2:10], y[2:10])
        query = np.random.default_rng(2).random((4, 3))
        np.testing.assert_allclose(gp.predict(query)[0], fresh.predict(query)[0], rtol=1e-8)

    def test_kernel_change_invalidates_incremental_path(self):
        x, y = self._trace(10)
        gp = GaussianProcess(kernel=Matern52(lengthscale=0.8), noise=5e-2).fit(x[:8], y[:8])
        gp.kernel = Matern52(lengthscale=2.0)
        gp.fit(x, y)
        fresh = GaussianProcess(kernel=Matern52(lengthscale=2.0), noise=5e-2).fit(x, y)
        query = np.random.default_rng(3).random((4, 3))
        np.testing.assert_allclose(gp.predict(query)[0], fresh.predict(query)[0], rtol=1e-8)

    def test_refit_gating_skips_grid_between_periods(self, monkeypatch):
        x, y = self._trace(20)
        gp = GaussianProcess(noise=5e-2, lengthscale_refit_every=5)
        searches = []
        original = GaussianProcess._best_kernel

        def counting(self, xx, zz):
            searches.append(xx.shape[0])
            return original(self, xx, zz)

        monkeypatch.setattr(GaussianProcess, "_best_kernel", counting)
        for n in range(4, 21):
            gp.fit(x[:n], y[:n], optimize_lengthscale=True)
        # First optimize call searches immediately; afterwards only
        # every 5 new samples (at n=9, 14, 19).
        assert searches == [4, 9, 14, 19]

    def test_first_optimize_call_always_searches(self):
        x, y = self._trace(8)
        gp = GaussianProcess(
            kernel=Matern52(lengthscale=5.0), noise=1e-4, lengthscale_refit_every=50
        )
        gp.fit(x, y, optimize_lengthscale=True)
        assert gp.kernel.lengthscale != 5.0

    def test_refit_every_validated(self):
        with pytest.raises(ModelError):
            GaussianProcess(lengthscale_refit_every=0)


class TestPredictMean:
    """The proxy-change probe asks for the posterior mean alone."""

    def test_equals_predict_mean_bit_for_bit(self):
        rng = np.random.default_rng(5)
        x = rng.random((24, 4))
        y = np.cos(2 * x[:, 0]) + 0.3 * x[:, 2] + rng.normal(scale=0.02, size=24)
        gp = GaussianProcess(noise=5e-2, lengthscale_refit_every=3)
        query = rng.random((48, 4))
        for n in range(2, 25):  # full factorizations, extensions and grid searches
            gp.fit(x[:n], y[:n], optimize_lengthscale=True)
            assert np.array_equal(gp.predict_mean(query), gp.predict(query)[0])
            assert np.array_equal(gp.predict_mean(query[0]), gp.predict(query[0])[0])

    def test_before_fit_rejected(self):
        with pytest.raises(ModelError):
            GaussianProcess().predict_mean(np.zeros((1, 2)))
