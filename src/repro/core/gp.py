"""Gaussian-process regression for the BO proxy model.

A deliberately small, dependency-free GP: Cholesky-factored exact
inference with a Matérn 5/2 kernel, internal standardization of the
targets, and an optional grid-search marginal-likelihood update of the
length scale. The paper's point (Sec. I, III-A) is that the proxy
model only needs to be "just accurate enough" to steer sampling — so
the implementation favours robustness and speed (it runs every 100 ms
interval) over hyperparameter sophistication. The one batched step is
the length-scale search: its grid of kernel matrices factors as one
:func:`stacked_cholesky` call, bit-identical to factoring each matrix.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import ModelError
from repro.core.kernels import RBF, Kernel, Matern52, pairwise_distance
from repro.obs import active_collector
from repro.state import STATE_VERSION, check_version

#: Kernel classes by snapshot name (lowercase class name).
_KERNELS = {"matern52": Matern52, "rbf": RBF}

#: Jitter added to the kernel diagonal for numerical stability.
_JITTER = 1e-8

#: Length-scale grid used by the marginal-likelihood update. The
#: encoded configuration space has 10-35 dimensions, where typical
#: inter-point distances are well above 1, so useful length scales are
#: larger than the rule-of-thumb for low-dimensional BO.
_LENGTHSCALE_GRID = (0.3, 0.5, 0.8, 1.2, 2.0)


class GaussianProcess:
    """Exact GP regression with standardized targets.

    Args:
        kernel: covariance function; defaults to Matérn 5/2 with the
            length scale suited to [0, 1]-normalized configuration
            encodings.
        noise: observation-noise variance in *standardized* target
            units. SATORI's measurements carry a few percent of pqos
            sampling noise, which is a large fraction of the
            objective's dynamic range, so the default is substantial —
            an interpolating GP would chase measurement noise.
        lengthscale_refit_every: when ``fit(optimize_lengthscale=True)``
            is called repeatedly, actually re-run the length-scale grid
            search only every this-many optimize calls (in the
            controller's steady state, one call per new sample); in
            between the incumbent length scale is reused. The grid
            search costs
            ``len(_LENGTHSCALE_GRID)`` Cholesky factorizations, which
            dominates the 100 ms control interval's budget, while the
            marginal-likelihood winner almost never changes from one
            sample to the next. The default of 1 preserves
            search-every-call semantics; the BO engine passes 10.
    """

    def __init__(
        self,
        kernel: Optional[Kernel] = None,
        noise: float = 5e-2,
        lengthscale_refit_every: int = 1,
    ):
        if noise < 0:
            raise ModelError(f"noise must be >= 0, got {noise}")
        if lengthscale_refit_every < 1:
            raise ModelError(
                f"lengthscale_refit_every must be >= 1, got {lengthscale_refit_every}"
            )
        self.kernel = kernel or Matern52()
        self.noise = float(noise)
        self._refit_every = int(lengthscale_refit_every)
        self._x: Optional[np.ndarray] = None
        self._alpha: Optional[np.ndarray] = None
        self._chol: Optional[np.ndarray] = None
        self._y_mean = 0.0
        self._y_std = 1.0
        self._fits_since_search: Optional[int] = None
        self._fit_key: Optional[tuple] = None

    @property
    def is_fitted(self) -> bool:
        return self._x is not None

    @property
    def n_samples(self) -> int:
        return 0 if self._x is None else self._x.shape[0]

    def fit(
        self,
        x: np.ndarray,
        y: Sequence[float],
        optimize_lengthscale: bool = False,
    ) -> "GaussianProcess":
        """Condition the GP on observations.

        Args:
            x: ``(n, d)`` input matrix (normalized encodings).
            y: ``n`` target values (objective scores).
            optimize_lengthscale: if True, pick the length scale from a
                small grid by marginal likelihood before factorizing.

        Returns:
            self, for chaining.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float)
        if x.shape[0] != y.shape[0]:
            raise ModelError(f"{x.shape[0]} inputs but {y.shape[0]} targets")
        if x.shape[0] == 0:
            raise ModelError("cannot fit a GP on zero samples")
        n = x.shape[0]

        self._y_mean = float(np.mean(y))
        self._y_std = float(np.std(y))
        if self._y_std < 1e-12:
            self._y_std = 1.0
        z = (y - self._y_mean) / self._y_std

        chol = None
        if optimize_lengthscale and n >= 4:
            # Gate by optimize-requested fit calls, not by n: the
            # controller appends one sample per call, but GoalRecords'
            # sliding window pins n at max_samples once full — a
            # growth-based gate would then never refit again.
            if self._fits_since_search is None:
                due = True  # the first optimize call always searches
            else:
                self._fits_since_search += 1
                due = self._fits_since_search >= self._refit_every
            if due:
                self.kernel, chol = self._best_kernel(x, z)
                self._fits_since_search = 0
                active_collector().metrics.counter("gp.lengthscale_searches").inc()
            else:
                active_collector().metrics.counter("gp.lengthscale_reuses").inc()

        if chol is None:
            chol = self._factorize(x)

        self._x = x
        self._chol = chol
        self._alpha = _cho_solve(chol, z)
        self._fit_key = self._kernel_key()
        return self

    # -- snapshot / restore ----------------------------------------------

    def snapshot(self) -> dict:
        """The full posterior as a versioned JSON dict :meth:`restore` reads.

        The Cholesky factor and dual weights are captured verbatim
        rather than recomputed on restore: a from-scratch factorization
        matches an incrementally extended one only to floating-point
        error, and the snapshot protocol promises bit-identical resume.
        ``fits_since_search`` is the length-scale refit counter; it
        keeps the grid-search cadence aligned with an uninterrupted
        run. The kernel travels by name and hyperparameters.
        """
        kernel_name = type(self.kernel).__name__.lower()
        if kernel_name not in _KERNELS:
            raise ModelError(f"kernel {type(self.kernel).__name__} has no snapshot name")
        fitted = self._x is not None
        return {
            "kernel": kernel_name,
            "lengthscale": self.kernel.lengthscale,
            "variance": self.kernel.variance,
            "noise": self.noise,
            "y_mean": self._y_mean,
            "y_std": self._y_std,
            "fits_since_search": self._fits_since_search,
            "x": self._x.tolist() if fitted else None,
            "chol": self._chol.tolist() if fitted else None,
            "alpha": self._alpha.tolist() if fitted else None,
            "version": STATE_VERSION,
        }

    def restore(self, state: dict) -> "GaussianProcess":
        """Resume from a :meth:`snapshot`; returns self for chaining.

        ``_fit_key`` is recomputed from the restored kernel (it holds a
        type object and cannot ride through JSON); the next ``fit``
        call therefore extends the restored factor incrementally,
        exactly as an uninterrupted run would.
        """
        check_version("GP state", state.get("version", STATE_VERSION))
        try:
            kernel_cls = _KERNELS[state["kernel"]]
        except KeyError:
            raise ModelError(f"unknown kernel name {state['kernel']!r} in GP state") from None
        self.kernel = kernel_cls(lengthscale=state["lengthscale"], variance=state["variance"])
        self.noise = float(state["noise"])
        self._y_mean = float(state["y_mean"])
        self._y_std = float(state["y_std"])
        fits = state.get("fits_since_search")
        self._fits_since_search = None if fits is None else int(fits)
        if state.get("x") is None:
            self._x = self._chol = self._alpha = None
            self._fit_key = None
        else:
            if state.get("chol") is None or state.get("alpha") is None:
                raise ModelError("GP state has inputs but no factorization")
            self._x = np.asarray(state["x"], dtype=float)
            self._chol = np.asarray(state["chol"], dtype=float)
            self._alpha = np.asarray(state["alpha"], dtype=float)
            self._fit_key = self._kernel_key()
        return self

    def _kernel_key(self) -> tuple:
        """Hashable hyperparameter state, for factorization reuse."""
        return (type(self.kernel), self.kernel.lengthscale, self.kernel.variance, self.noise)

    def _factorize(self, x: np.ndarray) -> np.ndarray:
        """Cholesky factor of the (noise-augmented) kernel matrix.

        When ``x`` extends the previously fitted inputs as a prefix and
        the hyperparameters are unchanged — the steady state of the
        controller, which appends one observation per 100 ms interval —
        the existing factor is extended by a block update:
        ``L21 = L11⁻¹ K12`` and ``L22 = chol(K22 − L21ᵀL21)``, costing
        O(n²·m) instead of the O(n³) full refactorization.
        """
        old_n = 0 if self._x is None else self._x.shape[0]
        if (
            self._chol is not None
            and self._fit_key == self._kernel_key()
            and 0 < old_n < x.shape[0]
            and x.shape[1] == self._x.shape[1]
            and np.array_equal(x[:old_n], self._x)
        ):
            new = x[old_n:]
            k12 = self.kernel(self._x, new)
            k22 = self.kernel(new, new)
            k22.flat[:: k22.shape[0] + 1] += self.noise + _JITTER
            l21t = np.linalg.solve(self._chol, k12)  # L11 @ l21t = K12
            schur = k22 - l21t.T @ l21t
            try:
                l22 = np.linalg.cholesky(schur)
            except np.linalg.LinAlgError:
                pass  # ill-conditioned extension: fall through to full
            else:
                n = x.shape[0]
                chol = np.zeros((n, n))
                chol[:old_n, :old_n] = self._chol
                chol[old_n:, :old_n] = l21t.T
                chol[old_n:, old_n:] = l22
                active_collector().metrics.counter("gp.chol_extended").inc()
                return chol

        active_collector().metrics.counter("gp.chol_full").inc()
        k = self.kernel(x, x)
        k.flat[:: x.shape[0] + 1] += self.noise + _JITTER
        try:
            return np.linalg.cholesky(k)
        except np.linalg.LinAlgError as exc:
            raise ModelError(f"kernel matrix not positive definite: {exc}") from exc

    def predict(self, x_query: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at query points.

        Returns values in the original (unstandardized) target units.
        """
        k_star = self._cross_kernel(x_query)
        v = np.linalg.solve(self._chol, k_star.T)
        var_z = self.kernel.diagonal(k_star.shape[0]) - np.sum(v**2, axis=0)
        var_z = np.maximum(var_z, 1e-12)
        return self._mean(k_star), np.sqrt(var_z) * self._y_std

    def predict_mean(self, x_query: np.ndarray) -> np.ndarray:
        """Posterior mean alone, bit-identical to ``predict(x_query)[0]``.

        Skips the triangular solve the standard deviation needs.
        """
        return self._mean(self._cross_kernel(x_query))

    def _cross_kernel(self, x_query: np.ndarray) -> np.ndarray:
        """Kernel between the query points and the fitted inputs."""
        if not self.is_fitted:
            raise ModelError("prediction before fit()")
        return self.kernel(np.atleast_2d(np.asarray(x_query, dtype=float)), self._x)

    def _mean(self, k_star: np.ndarray) -> np.ndarray:
        """Posterior mean in target units, from the cross kernel."""
        return (k_star @ self._alpha) * self._y_std + self._y_mean

    def _best_kernel(self, x: np.ndarray, z: np.ndarray) -> Tuple[Kernel, Optional[np.ndarray]]:
        """Grid-search the length scale by marginal likelihood.

        The grid's kernel matrices are factored as one stacked Cholesky
        (one gufunc call for the whole grid instead of one LAPACK trip
        per length scale), and every factorized grid point's dual
        weights come from one :func:`stacked_cho_solve`. LAPACK still
        works matrix by matrix, so every factor and dual-weight vector
        is bit-identical to per-matrix calls, and the winner and its
        evidence are unchanged.

        Returns the winning kernel together with its Cholesky factor so
        the caller can reuse it instead of refactorizing (``None`` only
        when every grid point failed to factorize).

        The grid shares one distance matrix: each kernel matrix divides
        the same rendered distances by its own length scale, exactly
        what a ``kernel(x, x)`` call per length scale computes.
        """
        n = x.shape[0]
        kernels = [self.kernel.with_params(lengthscale=ls) for ls in _LENGTHSCALE_GRID]
        distance = pairwise_distance(x, x)
        stack = np.empty((len(kernels), n, n))
        for i, kernel in enumerate(kernels):
            k = kernel.at_distance(distance)
            k.flat[:: n + 1] += self.noise + _JITTER
            stack[i] = k
        chols, ok = stacked_cholesky(stack)
        factorized = np.flatnonzero(ok)
        chols = chols[factorized]
        alphas = stacked_cho_solve(chols, z)

        best_kernel = self.kernel
        best_chol: Optional[np.ndarray] = None
        best_evidence = -np.inf
        for i, chol, alpha in zip(factorized, chols, alphas):
            evidence = (
                -0.5 * z @ alpha
                - np.sum(np.log(np.diag(chol)))
                - 0.5 * n * np.log(2.0 * np.pi)
            )
            if evidence > best_evidence:
                best_evidence = evidence
                best_kernel = kernels[i]
                best_chol = chol
        return best_kernel, best_chol


def stacked_cholesky(matrices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Factor a ``(B, n, n)`` stack of matrices in one gufunc call.

    LAPACK's ``dpotrf`` runs on each stack entry either way; one call
    for the whole stack only removes B-1 Python round trips, so every
    factor is bit-identical to a per-matrix ``np.linalg.cholesky``.

    Returns ``(chols, ok)``: the lower Cholesky factors and a boolean
    mask of which stack entries factorized. numpy's batched
    ``cholesky`` raises if *any* entry fails, so on failure the stack
    is re-factored entry by entry — successful entries produce the
    identical factors either way — and failed entries hold zeros with
    ``ok[i] = False``.
    """
    matrices = np.asarray(matrices, dtype=float)
    if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2]:
        raise ModelError(f"expected a (B, n, n) stack, got shape {matrices.shape}")
    size = matrices.shape[0]
    try:
        return np.linalg.cholesky(matrices), np.ones(size, dtype=bool)
    except np.linalg.LinAlgError:
        chols = np.zeros_like(matrices)
        ok = np.zeros(size, dtype=bool)
        for i in range(size):
            try:
                chols[i] = np.linalg.cholesky(matrices[i])
            except np.linalg.LinAlgError:
                continue
            ok[i] = True
        return chols, ok


def stacked_cho_solve(chols: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``K_i x_i = b`` for a ``(B, n, n)`` stack of lower Cholesky factors.

    Two stacked ``np.linalg.solve`` calls; LAPACK solves each stack
    entry as :func:`_cho_solve` does, so row i of the ``(B, n)`` result
    is bit-identical to ``_cho_solve(chols[i], b)``.
    """
    return np.linalg.solve(chols.transpose(0, 2, 1), np.linalg.solve(chols, b[:, None]))[..., 0]


def _cho_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``K x = b`` given the lower Cholesky factor of K."""
    return np.linalg.solve(chol.T, np.linalg.solve(chol, b))
