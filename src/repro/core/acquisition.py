"""Acquisition functions for the BO engine.

SATORI chooses Expected Improvement (EI) because it "provides a
reasonable balance between exploration vs. exploitation at a low
evaluation cost" (Sec. III-A). Probability of Improvement and
Upper Confidence Bound are provided for ablations.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from repro.errors import ModelError

# The standard normal pdf is the closed form below, exactly what SciPy's
# ``norm`` distribution evaluates; its cdf is :func:`ndtr`, a port of
# the Cephes routine behind ``scipy.special.ndtr``, so that importing
# the program loads no SciPy module: ``scipy.special`` alone costs
# every process about 18 MB of RSS and 0.2 s of start-up.
_SQRT_2PI = np.sqrt(2 * np.pi)

# Cephes ``ndtr``'s constants and rational approximations, as SciPy
# ships them. Near zero, ``erf(x) = x * T(x*x) / U(x*x)``; from 1 on,
# ``erfc(x) = exp(-x*x) * P(x) / Q(x)`` below 8 and ``R(x) / S(x)`` past
# it. The denominators have an implicit leading coefficient of 1.
_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2
_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)

#: Horner steps every branch runs: the coefficients of the longest
#: polynomial, ``p1evl``'s leading 1 and then ``_Q``.
_STEPS = 9


def _horner_pair(num: tuple, den: tuple) -> np.ndarray:
    """Cephes's ``polevl(num)`` and ``p1evl(den)`` as two Horner rows.

    ``p1evl``'s implicit 1 becomes a coefficient (``1.0 * v`` is exact)
    and both rows are padded with leading zeros (``0.0 * v + 0.0`` is 0
    for finite ``v``), so every branch runs the same steps and each
    step rounds exactly as Cephes's loop does.
    """
    rows = np.zeros((2, _STEPS))
    rows[0, _STEPS - len(num):] = num
    rows[1, _STEPS - len(den) - 1:] = (1.0, *den)
    return rows


# Six categories of x = a / sqrt(2), the ``searchsorted`` slots of
# _EDGES: erfc past 8, erfc below 8, erf, erf, erfc below 8 and erfc
# past 8, from x <= -8 up to x >= 8. The result is
# ``_BASE + _SIGN * h``: ``h`` on the negative erfc side, ``1 - h`` on
# the positive one, and ``0.5 -/+ h`` around zero, where Cephes's
# ``0.5 + 0.5 * erf(x)`` carries the sign in x.
_EDGES = np.array([-8.0, -1.0, 0.0, np.nextafter(1.0, 0.0), np.nextafter(8.0, 0.0)])
_ERF, _NEAR, _FAR = _horner_pair(_T, _U), _horner_pair(_P, _Q), _horner_pair(_R, _S)
_HORNER = np.stack([_FAR, _NEAR, _ERF, _ERF, _NEAR, _FAR])
_BASE = np.array([0.0, 0.0, 0.5, 0.5, 1.0, 1.0])
_SIGN = np.array([1.0, 1.0, -1.0, 1.0, -1.0, -1.0])


def ndtr(a: np.ndarray) -> np.ndarray:
    """The standard normal cdf, bit-identical to ``scipy.special.ndtr``.

    Cephes's formula in Cephes's evaluation order, with x = a / sqrt(2):
    ``0.5 + 0.5 * erf(x)`` while |x| < 1, else ``h = 0.5 * erfc(|x|)``
    and ``1 - h`` for positive x. ``erfc`` is 0 once ``x*x`` passes
    ``MAXLOG``. The polynomials run as separate numpy multiplies and
    adds, never fused, over one stacked Horner pass whose per-element
    coefficients come from one table lookup. ``exp`` is libm's
    (``math.exp``): numpy's SIMD ``exp`` differs from it in the last
    bit for a few percent of arguments. NaN stays NaN, and ±inf give 1
    and 0. Returns an array of ``a``'s shape.
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(invalid="ignore"):  # a signaling NaN, quieted here
        x = a.ravel() * _SQRT1_2
    z = np.abs(x)
    # Past 27, x*x is past MAXLOG either way; clipping first keeps the
    # square and the polynomials finite.
    zc = np.minimum(z, 27.0)
    zz = zc * zc
    e = np.fromiter(map(math.exp, (-zz).tolist()), float, zz.size)
    e[zz > _MAXLOG] = 0.0
    erf = z < 1.0
    m = np.where(erf, z, e)
    v = np.where(erf, zz, zc)
    slot = _EDGES.searchsorted(x)
    n = v.size
    coef = np.ascontiguousarray(_HORNER.take(slot, axis=0).T).reshape(_STEPS, 2 * n)
    v = np.concatenate((v, v))
    acc = coef[0]
    for c in coef[1:]:
        acc = acc * v + c
    h = 0.5 * ((m * acc[:n]) / acc[n:])
    return (_BASE.take(slot) + _SIGN.take(slot) * h).reshape(a.shape)


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

    xi = 0.003

    def __call__(self, mean: np.ndarray, std: np.ndarray, best: float) -> np.ndarray:
        mean = np.asarray(mean, dtype=float)
        std = np.maximum(np.asarray(std, dtype=float), 1e-12)
        improvement = mean - best - self.xi
        z = improvement / std
        pdf = np.exp(-z**2 / 2.0) / _SQRT_2PI
        return improvement * ndtr(z) + std * pdf


class ProbabilityOfImprovement(AcquisitionFunction):
    """PI: chance the candidate beats the incumbent by ``xi``."""

    xi = 0.01

    def __call__(self, mean: np.ndarray, std: np.ndarray, best: float) -> np.ndarray:
        mean = np.asarray(mean, dtype=float)
        std = np.maximum(np.asarray(std, dtype=float), 1e-12)
        return ndtr((mean - best - self.xi) / std)


class UpperConfidenceBound(AcquisitionFunction):
    """UCB: ``mean + kappa * std`` (ignores the incumbent)."""

    kappa = 2.0

    def __call__(self, mean: np.ndarray, std: np.ndarray, best: float) -> np.ndarray:
        return np.asarray(mean, dtype=float) + self.kappa * np.asarray(std, dtype=float)


_ACQUISITIONS = {
    "ei": ExpectedImprovement,
    "pi": ProbabilityOfImprovement,
    "ucb": UpperConfidenceBound,
}


def make_acquisition(name: str) -> AcquisitionFunction:
    """Construct an acquisition function by name (``ei``/``pi``/``ucb``)."""
    try:
        factory = _ACQUISITIONS[name]
    except KeyError:
        raise ModelError(
            f"unknown acquisition {name!r}; choices: {sorted(_ACQUISITIONS)}"
        ) from None
    return factory()
