"""Stacked-Cholesky primitive: bit-identity with per-matrix factoring.

:func:`repro.core.gp.stacked_cholesky` promises that batching B
same-shape kernel factorizations into one gufunc call never changes a
result bit — the stacked factors equal per-matrix
``np.linalg.cholesky`` calls exactly, the stacked solves equal
per-matrix ``_cho_solve`` calls exactly, and the BO length-scale grid
search built on them picks the identical winner. These tests pin the
pairings.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gp import (
    _JITTER,
    _LENGTHSCALE_GRID,
    GaussianProcess,
    _cho_solve,
    stacked_cho_solve,
    stacked_cholesky,
)
from repro.errors import ModelError

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def spd_stack(rng, b, n):
    """A stack of b random symmetric positive-definite (n, n) matrices."""
    a = rng.standard_normal((b, n, n))
    stack = a @ np.swapaxes(a, 1, 2)
    stack[:, np.arange(n), np.arange(n)] += n
    return stack


class TestStackedCholesky:
    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_matches_per_matrix_factorization(self, seed):
        rng = np.random.default_rng(seed)
        b = int(rng.integers(1, 8))
        n = int(rng.integers(1, 12))
        stack = spd_stack(rng, b, n)
        chols, ok = stacked_cholesky(stack)
        assert ok.all()
        for i in range(b):
            assert np.array_equal(chols[i], np.linalg.cholesky(stack[i]))

    def test_failed_entries_masked_not_fatal(self):
        rng = np.random.default_rng(0)
        stack = spd_stack(rng, 3, 4)
        stack[1] = -np.eye(4)  # not positive definite
        chols, ok = stacked_cholesky(stack)
        assert list(ok) == [True, False, True]
        assert np.array_equal(chols[1], np.zeros((4, 4)))
        for i in (0, 2):
            assert np.array_equal(chols[i], np.linalg.cholesky(stack[i]))

    def test_rejects_non_stack_shapes(self):
        with pytest.raises(ModelError):
            stacked_cholesky(np.eye(3))
        with pytest.raises(ModelError):
            stacked_cholesky(np.zeros((2, 3, 4)))


class TestStackedChoSolve:
    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_matches_per_matrix_cho_solve(self, seed):
        rng = np.random.default_rng(seed)
        b = int(rng.integers(0, 7))
        n = int(rng.integers(1, 65))
        chols, _ = stacked_cholesky(spd_stack(rng, b, n))
        z = rng.standard_normal(n)
        alphas = stacked_cho_solve(chols, z)
        assert alphas.shape == (b, n)
        for i in range(b):
            assert np.array_equal(alphas[i], _cho_solve(chols[i], z))


def manual_search(gp, x, z, failed=()):
    """A literal per-kernel grid search; ``failed`` grid indices are skipped."""
    n = x.shape[0]
    manual_best = gp.kernel
    manual_evidence = -np.inf
    manual_chol = None
    for i, ls in enumerate(_LENGTHSCALE_GRID):
        kernel = gp.kernel.with_params(lengthscale=ls)
        k = kernel(x, x)
        k[np.diag_indices_from(k)] += gp.noise + _JITTER
        if i in failed:
            continue
        try:
            chol = np.linalg.cholesky(k)
        except np.linalg.LinAlgError:
            continue
        alpha = _cho_solve(chol, z)
        evidence = (
            -0.5 * z @ alpha
            - np.sum(np.log(np.diag(chol)))
            - 0.5 * n * np.log(2.0 * np.pi)
        )
        if evidence > manual_evidence:
            manual_evidence = evidence
            manual_best = kernel
            manual_chol = chol
    return manual_best, manual_chol


class TestLengthscaleGridPairing:
    @given(seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_stacked_grid_search_matches_manual_loop(self, seed):
        """The stacked _best_kernel equals a literal per-kernel search."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 12))
        x = rng.uniform(0.0, 1.0, size=(n, 2))
        y = rng.uniform(0.0, 5.0, size=n)

        gp = GaussianProcess()
        z = (y - np.mean(y)) / max(np.std(y), 1e-12)
        best_kernel, best_chol = gp._best_kernel(x, z)
        manual_best, manual_chol = manual_search(gp, x, z)
        assert best_kernel.lengthscale == manual_best.lengthscale
        assert np.array_equal(best_chol, manual_chol)

    @pytest.mark.parametrize("failed", [(1,), (0, 2, 4), (0, 1, 2, 3, 4)])
    def test_failed_grid_points_drop_out(self, monkeypatch, failed):
        """Grid points that fail to factorize leave the stacked solve;
        the others still pair with the per-kernel loop, and with none
        left the current kernel stays, with no factor."""
        import repro.core.gp as gp_module

        factor = gp_module.stacked_cholesky

        def failing(stack):
            chols, ok = factor(stack)
            chols[list(failed)] = 0.0
            ok[list(failed)] = False
            return chols, ok

        monkeypatch.setattr(gp_module, "stacked_cholesky", failing)
        rng = np.random.default_rng(6)
        x = rng.uniform(0.0, 1.0, size=(11, 3))
        z = rng.standard_normal(11)
        gp = GaussianProcess()
        best_kernel, best_chol = gp._best_kernel(x, z)
        manual_best, manual_chol = manual_search(gp, x, z, failed)
        assert best_kernel.lengthscale == manual_best.lengthscale
        if manual_chol is None:
            assert best_chol is None and best_kernel is gp.kernel
        else:
            assert np.array_equal(best_chol, manual_chol)

    def test_grid_renders_the_distance_matrix_once(self, monkeypatch):
        """The five grid kernels share one distance matrix; the test
        above pairs the result with one ``kernel(x, x)`` per scale."""
        import repro.core.gp as gp_module

        calls = []
        render = gp_module.pairwise_distance

        def counting(a, b):
            calls.append(a.shape)
            return render(a, b)

        monkeypatch.setattr(gp_module, "pairwise_distance", counting)
        rng = np.random.default_rng(4)
        x = rng.uniform(0.0, 1.0, size=(9, 3))
        GaussianProcess()._best_kernel(x, rng.standard_normal(9))
        assert calls == [(9, 3)]

    def test_fit_with_optimization_unchanged_end_to_end(self):
        """fit(optimize_lengthscale=True) predictions match a manual fit
        with the manually-selected winning kernel."""
        rng = np.random.default_rng(9)
        x = rng.uniform(0.0, 1.0, size=(8, 2))
        y = rng.uniform(0.0, 5.0, size=8)
        query = rng.uniform(0.0, 1.0, size=(5, 2))

        gp = GaussianProcess().fit(x, y, optimize_lengthscale=True)
        mean, std = gp.predict(query)
        manual = GaussianProcess(kernel=gp.kernel).fit(x, y)
        manual_mean, manual_std = manual.predict(query)
        assert np.array_equal(mean, manual_mean)
        assert np.array_equal(std, manual_std)
