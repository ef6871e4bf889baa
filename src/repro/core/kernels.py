"""Covariance kernels for the Gaussian-process proxy model.

SATORI uses the Matérn 5/2 covariance kernel for its GP proxy model
(Sec. III-A, citing Snoek et al.). The squared-exponential (RBF)
kernel is provided as an alternative for ablation.

Kernels operate on inputs already normalized into ``[0, 1]`` per
dimension (the configuration-space encoding), so a single scalar
length scale is meaningful across resources.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import ModelError


class Kernel(abc.ABC):
    """A stationary covariance function ``k(x, x')``."""

    def __init__(self, lengthscale: float = 0.8, variance: float = 1.0):
        if lengthscale <= 0:
            raise ModelError(f"lengthscale must be positive, got {lengthscale}")
        if variance <= 0:
            raise ModelError(f"variance must be positive, got {variance}")
        self.lengthscale = float(lengthscale)
        self.variance = float(variance)

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Covariance matrix between row-sets ``a`` (n, d) and ``b`` (m, d)."""
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_2d(np.asarray(b, dtype=float))
        if a.shape[1] != b.shape[1]:
            raise ModelError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
        return self.at_distance(pairwise_distance(a, b))

    def at_distance(self, distance: np.ndarray) -> np.ndarray:
        """Covariance at unscaled :func:`pairwise_distance` values."""
        return self._from_distance(distance / self.lengthscale)

    def diagonal(self, n: int) -> np.ndarray:
        """The prior variance at each of ``n`` points (``k(x, x)``)."""
        return np.full(n, self.variance)

    def with_params(self, lengthscale: float = None, variance: float = None) -> "Kernel":
        """A copy with replaced hyperparameters."""
        return type(self)(
            lengthscale=self.lengthscale if lengthscale is None else lengthscale,
            variance=self.variance if variance is None else variance,
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(lengthscale={self.lengthscale:.4g}, "
            f"variance={self.variance:.4g})"
        )

    @abc.abstractmethod
    def _from_distance(self, r: np.ndarray) -> np.ndarray:
        """Covariance as a function of scaled distance ``r >= 0``."""


class Matern52(Kernel):
    """Matérn covariance with smoothness 5/2 (the paper's choice)."""

    def _from_distance(self, r: np.ndarray) -> np.ndarray:
        sqrt5_r = np.sqrt(5.0) * r
        return self.variance * (1.0 + sqrt5_r + sqrt5_r**2 / 3.0) * np.exp(-sqrt5_r)


class RBF(Kernel):
    """Squared-exponential kernel (infinitely smooth alternative)."""

    def _from_distance(self, r: np.ndarray) -> np.ndarray:
        return self.variance * np.exp(-0.5 * r**2)


def pairwise_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix between row-sets, numerically clamped."""
    sq = (
        np.sum(a**2, axis=1)[:, None]
        + np.sum(b**2, axis=1)[None, :]
        - 2.0 * a @ b.T
    )
    return np.sqrt(np.maximum(sq, 0.0))
