"""Acquisition functions for the BO engine.

SATORI chooses Expected Improvement (EI) because it "provides a
reasonable balance between exploration vs. exploitation at a low
evaluation cost" (Sec. III-A). Probability of Improvement and
Upper Confidence Bound are provided for ablations.
"""

from __future__ import annotations

import abc

import numpy as np
from scipy import special

from repro.errors import ModelError

# The standard normal cdf is ``special.ndtr`` and its pdf the closed form
# below, exactly what SciPy's ``norm`` distribution evaluates after its
# argument checks. Importing SciPy's statistics package for them would
# cost every process over a second of start-up.
_SQRT_2PI = np.sqrt(2 * np.pi)


class AcquisitionFunction(abc.ABC):
    """Scores candidate points from GP posterior mean/std (maximization)."""

    @abc.abstractmethod
    def __call__(self, mean: np.ndarray, std: np.ndarray, best: float) -> np.ndarray:
        """Acquisition values; higher means sample sooner.

        Args:
            mean: posterior means at the candidates.
            std: posterior standard deviations at the candidates.
            best: best objective value observed so far (the incumbent).
        """


class ExpectedImprovement(AcquisitionFunction):
    """EI with an exploration margin ``xi``."""

    def __init__(self, xi: float = 0.003):
        if xi < 0:
            raise ModelError(f"xi must be >= 0, got {xi}")
        self.xi = float(xi)

    def __call__(self, mean: np.ndarray, std: np.ndarray, best: float) -> np.ndarray:
        mean = np.asarray(mean, dtype=float)
        std = np.maximum(np.asarray(std, dtype=float), 1e-12)
        improvement = mean - best - self.xi
        z = improvement / std
        pdf = np.exp(-z**2 / 2.0) / _SQRT_2PI
        return improvement * special.ndtr(z) + std * pdf


class ProbabilityOfImprovement(AcquisitionFunction):
    """PI: chance the candidate beats the incumbent by ``xi``."""

    def __init__(self, xi: float = 0.01):
        if xi < 0:
            raise ModelError(f"xi must be >= 0, got {xi}")
        self.xi = float(xi)

    def __call__(self, mean: np.ndarray, std: np.ndarray, best: float) -> np.ndarray:
        mean = np.asarray(mean, dtype=float)
        std = np.maximum(np.asarray(std, dtype=float), 1e-12)
        return special.ndtr((mean - best - self.xi) / std)


class UpperConfidenceBound(AcquisitionFunction):
    """UCB: ``mean + kappa * std`` (ignores the incumbent)."""

    def __init__(self, kappa: float = 2.0):
        if kappa < 0:
            raise ModelError(f"kappa must be >= 0, got {kappa}")
        self.kappa = float(kappa)

    def __call__(self, mean: np.ndarray, std: np.ndarray, best: float) -> np.ndarray:
        return np.asarray(mean, dtype=float) + self.kappa * np.asarray(std, dtype=float)


_ACQUISITIONS = {
    "ei": ExpectedImprovement,
    "pi": ProbabilityOfImprovement,
    "ucb": UpperConfidenceBound,
}


def make_acquisition(name: str, **kwargs: float) -> AcquisitionFunction:
    """Construct an acquisition function by name (``ei``/``pi``/``ucb``)."""
    try:
        factory = _ACQUISITIONS[name]
    except KeyError:
        raise ModelError(
            f"unknown acquisition {name!r}; choices: {sorted(_ACQUISITIONS)}"
        ) from None
    return factory(**kwargs)
