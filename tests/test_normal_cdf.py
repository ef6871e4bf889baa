"""The acquisition's normal cdf equals ``scipy.special.ndtr`` bit for bit.

``repro.core.acquisition.ndtr`` ports the Cephes routine SciPy
evaluates, so that importing the program loads no SciPy module. These
tests pair the port with the installed SciPy: values, NaNs, the sign
of zeros and the shape, with no warning raised along the way. CI runs
this file again with ``--hypothesis-profile=deep``.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special

from repro.core.acquisition import ndtr

SQRT2 = math.sqrt(2.0)
#: Where Cephes's erfc stops calling exp: (a / sqrt 2)**2 > MAXLOG.
UNDERFLOW_EDGE = math.sqrt(2.0 * 7.09782712893383996843e2)


def port(a):
    """The port's value, with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return ndtr(a)


def assert_same_bits(a):
    got = port(a)
    expected = special.ndtr(a)
    assert np.shape(got) == np.shape(expected)
    assert np.asarray(got).dtype == np.float64
    assert np.array_equal(got, expected, equal_nan=True)
    zeros = np.asarray(expected) == 0.0
    assert np.array_equal(np.signbit(np.asarray(got)[zeros]), np.signbit(np.asarray(expected)[zeros]))


def neighbours(points):
    """Each point with its two adjacent doubles, both signs."""
    points = np.asarray(points, dtype=float)
    around = np.concatenate(
        [np.nextafter(points, -np.inf), points, np.nextafter(points, np.inf)]
    )
    return np.concatenate([around, -around])


class TestFixedEdges:
    def test_special_values(self):
        tiny = np.finfo(float).smallest_subnormal
        normal = np.finfo(float).tiny
        big = np.finfo(float).max
        edges = np.array(
            [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, tiny, -tiny, normal, -normal,
             1e-300, -1e-300, 1e300, -1e300, big, -big]
        )
        assert_same_bits(edges)
        assert port(np.array([np.inf, -np.inf])).tolist() == [1.0, 0.0]

    def test_nan_payloads_stay_nan(self):
        """Quiet and signaling NaNs of both signs give NaN, silently."""
        bits = np.array(
            [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
             0x7FF0000000000001, 0xFFF0000000000001, 0x7FF4000000000000],
            dtype=np.uint64,
        )
        got = port(bits.view(np.float64))
        assert np.isnan(got).all()

    def test_branch_edges(self):
        """|a| = sqrt 2 (erf to erfc) and 8 sqrt 2 (the two erfc fits)."""
        assert_same_bits(neighbours([SQRT2, 8.0 * SQRT2, 1.0, 8.0, 1.5, 11.5]))

    def test_underflow_edge(self):
        """Past (a / sqrt 2)**2 = MAXLOG Cephes returns 0 instead of exp's subnormals."""
        assert_same_bits(neighbours([UNDERFLOW_EDGE, 27.0 * SQRT2, 38.0, 38.6]))
        assert_same_bits(-np.linspace(UNDERFLOW_EDGE - 0.2, UNDERFLOW_EDGE + 1.0, 20_001))

    @pytest.mark.parametrize(
        "low, high",
        [(0.0, 1.0), (1.0, 8.0), (8.0, 27.0)],
        ids=["erf", "erfc-below-8", "erfc-past-8"],
    )
    def test_dense_grid_across_each_branch(self, low, high):
        """|a| / sqrt 2 swept across one branch, both signs."""
        x = np.linspace(low, high, 50_001)
        assert_same_bits(np.concatenate([x * SQRT2, -x * SQRT2]))

    def test_random_inputs(self):
        rng = np.random.default_rng(30)
        assert_same_bits(rng.normal(0.0, 1.0, 200_000))
        assert_same_bits(rng.normal(0.0, 5.0, 200_000))
        assert_same_bits(rng.uniform(-40.0, 40.0, 200_000))
        assert_same_bits(-np.abs(rng.standard_cauchy(200_000)))


class TestShapes:
    def test_zero_dimensional(self):
        assert_same_bits(np.float64(0.3))
        assert_same_bits(np.array(-2.5))
        assert_same_bits(-40.0)

    def test_empty(self):
        assert_same_bits(np.array([]))
        assert_same_bits(np.empty((0, 3)))

    def test_two_dimensional(self):
        rng = np.random.default_rng(31)
        assert_same_bits(rng.normal(0.0, 4.0, (7, 13)))
        assert_same_bits(rng.normal(0.0, 4.0, (13, 7)).T)

    def test_input_is_not_written(self):
        a = np.array([-3.0, 0.5, np.nan])
        port(a)
        assert np.array_equal(a, [-3.0, 0.5, np.nan], equal_nan=True)


@given(st.floats())
def test_every_double(a):
    assert_same_bits(np.float64(a))


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=40),
                  elements=st.floats()))
def test_arrays_of_any_doubles(a):
    assert_same_bits(a)


@given(hnp.arrays(np.float64, st.integers(0, 300),
                  elements=st.floats(-60.0, 60.0)))
def test_arrays_in_the_working_range(a):
    assert_same_bits(a)
