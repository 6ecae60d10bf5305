import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from entroflow.errors import PrecisionError
from entroflow.quadrature import adaptive_simpson, gauss_legendre


def test_polynomial_exact():
    assert adaptive_simpson(lambda x: x**3, 0.0, 1.0) == pytest.approx(0.25, abs=1e-13)


def test_transcendental():
    val = adaptive_simpson(math.sin, 0.0, math.pi)
    assert val == pytest.approx(2.0, abs=1e-11)


def test_orientation():
    fwd = adaptive_simpson(lambda x: x * x, 0.0, 2.0)
    bwd = adaptive_simpson(lambda x: x * x, 2.0, 0.0)
    assert bwd == -fwd


def test_degenerate_interval():
    assert adaptive_simpson(math.exp, 1.3, 1.3) == 0.0


def test_large_integral_relative_tolerance():
    # absolute 1e-12 would sit below round-off here; the tolerance scales
    val = adaptive_simpson(lambda t: 2.0 * t, 0.0, 50.0)
    assert val == pytest.approx(2500.0, rel=1e-11)


def test_precision_error_carries_estimate():
    with pytest.raises(PrecisionError) as info:
        adaptive_simpson(lambda x: math.cos(40.0 * x), 0.0, 1.0, max_depth=1)
    assert info.value.achieved is not None
    assert info.value.achieved >= 0.0


@pytest.mark.parametrize(
    "f",
    [
        lambda t: np.abs(t - 0.3) ** -0.5,  # cusp at 0.3: never meets the budget
        lambda t: np.sign(np.sin(1e4 / t)),  # rough: too many panels
    ],
    ids=["cusp", "rough"],
)
def test_batch_precision_error_instead_of_a_value(f):
    with pytest.raises(PrecisionError) as info:
        gauss_legendre(f, np.array([0.01, 0.2]), 1.0)
    assert info.value.achieved > 0.0


def test_oscillatory_needs_depth_but_converges():
    val = adaptive_simpson(lambda x: math.cos(40.0 * x), 0.0, 1.0)
    assert val == pytest.approx(math.sin(40.0) / 40.0, abs=1e-10)


@given(
    st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
)
def test_cubic_matches_antiderivative(coeffs, a, b):
    c0, c1, c2 = coeffs

    def f(x):
        return c0 + c1 * x + c2 * x * x

    def F(x):
        return c0 * x + c1 * x * x / 2.0 + c2 * x**3 / 3.0

    val = adaptive_simpson(f, a, b)
    assert val == pytest.approx(F(b) - F(a), abs=1e-10)
