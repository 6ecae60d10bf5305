import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from entroflow import coeff_models
from entroflow.coeff_models import Linear, PowerLaw, ShiftedPowerLaw, TabulatedModel
from entroflow.errors import PrecisionError
from entroflow.quadrature import adaptive_simpson, gauss_legendre


def test_polynomial_exact():
    assert adaptive_simpson(lambda x: x**3, 0.0, 1.0) == pytest.approx(0.25, abs=1e-13)


def test_transcendental():
    val = adaptive_simpson(np.sin, 0.0, math.pi)
    assert val == pytest.approx(2.0, abs=1e-11)


def test_orientation():
    fwd = adaptive_simpson(lambda x: x * x, 0.0, 2.0)
    bwd = adaptive_simpson(lambda x: x * x, 2.0, 0.0)
    assert bwd == -fwd


def test_degenerate_interval():
    assert adaptive_simpson(np.exp, 1.3, 1.3) == 0.0


def test_large_integral_relative_tolerance():
    # absolute 1e-12 would sit below round-off here; the tolerance scales
    val = adaptive_simpson(lambda t: 2.0 * t, 0.0, 50.0)
    assert val == pytest.approx(2500.0, rel=1e-11)


def test_precision_error_carries_estimate():
    with pytest.raises(PrecisionError) as info:
        adaptive_simpson(lambda x: np.cos(40.0 * x), 0.0, 1.0, max_depth=1)
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
    val = adaptive_simpson(lambda x: np.cos(40.0 * x), 0.0, 1.0)
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


def _simpson(fa, fm, fb, a, b):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _recurse(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(fa, flm, fm, a, m)
    right = _simpson(fm, frm, fb, m, b)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth <= 0:
        raise PrecisionError(
            "adaptive Simpson failed to converge on [%g, %g]" % (a, b),
            achieved=abs(delta) / 15.0,
        )
    half = 0.5 * tol
    return _recurse(f, a, fa, m, fm, lm, flm, left, half, depth - 1) + _recurse(
        f, m, fm, b, fb, rm, frm, right, half, depth - 1
    )


def reference_simpson(f, a, b, tol=1e-12, max_depth=40):
    """The depth-first recursion, one scalar node per call."""
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    fa = f(a)
    fb = f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = _simpson(fa, fm, fb, a, b)
    tol_eff = tol * max(1.0, abs(whole))
    return sign * _recurse(f, a, fa, b, fb, m, fm, whole, tol_eff, max_depth)


@pytest.mark.parametrize(
    "f, a, b",
    [
        (lambda x: 1.0 - 3.0 * x + x**4, -1.5, 2.0),
        (lambda x: np.cos(40.0 * x), 0.0, 1.0),
        (lambda x: np.exp(np.sin(7.0 * x)), 3.0, -1.0),
        (lambda x: x * x, 2.0, 0.0),
    ],
    ids=["polynomial", "oscillatory", "reversed", "reversed-quadratic"],
)
def test_levelwise_equals_recursion(f, a, b):
    assert adaptive_simpson(f, a, b) == reference_simpson(f, a, b)


def test_oracle_integrands_equal_recursion(monkeypatch):
    # Every integral primitives_by_quadrature asks for, through the module
    # global the models call, against the recursion on the same integrand.
    pairs = []

    def both(f, a, b):
        value = adaptive_simpson(f, a, b)
        pairs.append((value, reference_simpson(f, a, b)))
        return value

    monkeypatch.setattr(coeff_models, "adaptive_simpson", both)
    knots = np.geomspace(0.1, 10.0, 40)
    table = TabulatedModel(knots, ShiftedPowerLaw(2.0).a(knots))
    for model in (Linear(), PowerLaw(0.5), ShiftedPowerLaw(2.0), table):
        for s in (0.15, 0.7, 1.0, 2.5, 9.5):
            model.primitives_by_quadrature(s)
    # Lambda, H, Sigma and F at five states; the table has no F.
    assert len(pairs) == 3 * 5 * 4 + 5 * 3
    assert all(new == ref for new, ref in pairs)


def test_depth_limit_error_equals_recursion():
    def f(x):
        return np.cos(40.0 * x)

    with pytest.raises(PrecisionError) as ref:
        reference_simpson(f, 0.0, 1.0, max_depth=1)
    with pytest.raises(PrecisionError) as new:
        adaptive_simpson(f, 0.0, 1.0, max_depth=1)
    assert str(new.value) == str(ref.value)
    assert new.value.achieved == ref.value.achieved


def test_scalar_integrand_is_broadcast():
    assert adaptive_simpson(lambda t: 2.0, 1.0, 4.0) == 6.0


def test_rough_integrand_fails_fast():
    start = time.perf_counter()
    with pytest.raises(PrecisionError) as info:
        adaptive_simpson(lambda t: np.sign(np.sin(1e4 / t)), 0.01, 1.0)
    assert time.perf_counter() - start < 1.0
    assert "open intervals" in str(info.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("quad", [adaptive_simpson, gauss_legendre])
def test_non_finite_integrand_fails_at_once(quad, bad):
    calls = []

    def f(t):
        calls.append(1)
        return np.where(t > 0.5, bad, t)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PrecisionError) as info:
            quad(f, 0.0, 1.0)
    assert "non-finite" in str(info.value)
    assert info.value.achieved == math.inf
    # Both quadratures sample past 0.5 on their first level.
    assert len(calls) <= 2
