import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from entroflow import coeff_models
from entroflow.coeff_models import Linear, PowerLaw, ShiftedPowerLaw, TabulatedModel
from entroflow.errors import PrecisionError
from entroflow.quadrature import adaptive_simpson, gauss_legendre, integral_rows


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
        gauss_legendre(lambda t, k: f(t), np.array([[0.01, 0.2]]), 1.0)
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
    # Every integral of primitives_by_quadrature's one pass, through the
    # module global the models call, against the recursion on its own
    # integrand, one scalar node per call.
    passes = []

    def spy(f, a, b):
        values = adaptive_simpson(f, a, b)
        passes.append((f, a, b, values))
        return values

    monkeypatch.setattr(coeff_models, "adaptive_simpson", spy)
    knots = np.geomspace(0.1, 10.0, 40)
    table = TabulatedModel(knots, ShiftedPowerLaw(2.0).a(knots))
    checked = 0
    for model in (Linear(), PowerLaw(0.5), ShiftedPowerLaw(2.0), table):
        for s in (0.15, 0.7, 1.0, 2.5, 9.5):
            passes.clear()
            prims = model.primitives_by_quadrature(s)
            ((f, a, b, values),) = passes  # one pass per state
            for j, value in enumerate(values):
                def fj(x, j=j):
                    return f(np.array([[x]]), np.array([[j]]))[0, 0]

                assert value == reference_simpson(fj, a[j], b[j])
                checked += 1
            assert prims.lam == values[0]
            assert prims.entropy_density == s * values[0] - values[1]
            assert prims.sigma == values[2]
            assert prims.flux_primitive == (values[3] if len(values) == 4 else None)
    # Lambda, int a, Sigma and F at five states; the table has no F.
    assert checked == 3 * 5 * 4 + 5 * 3


@pytest.mark.parametrize("column", [False, True], ids=["flat", "column"])
@pytest.mark.parametrize("k, count, expected", [
    ([0, 0, 0], 1, [(0, None)]),
    ([1, 1], 2, [(0, 0), (0, None)]),
    ([0, 2], 3, [(0, 1), (1, 1), (1, None)]),
    ([0, 0, 2, 2, 2], 4, [(0, 2), (2, 2), (2, 5), (5, None)]),
    ([0, 1, 1, 2], 4, [(0, 1), (1, 3), (3, 4), (4, None)]),
])
def test_integral_rows_slices_every_group_even_an_empty_one(k, count, expected, column):
    k = np.array(k)[:, None] if column else np.array(k)
    rows = integral_rows(k, count)
    assert rows == [slice(*pair) for pair in expected]
    index = np.arange(len(k))
    for j, r in enumerate(rows):
        assert index[r].tolist() == np.flatnonzero(k.ravel() == j).tolist()


def _smooth(x, k):
    # one integrand per row group: k = 0, 1, 2, 3
    rows = integral_rows(k, 4)
    return np.concatenate((np.cos(40.0 * x[rows[0]]), np.exp(np.sin(7.0 * x[rows[1]])),
                           x[rows[2]] ** 2, 1.0 - 3.0 * x[rows[3]] + x[rows[3]] ** 4))


def _alone(j):
    return lambda x, k=None: _smooth(x, np.full((len(x), 1), j))


def test_k_integrals_in_one_pass_equal_single_calls():
    # An oscillatory, a reversed, a zero-length and a polynomial integral.
    a, b = np.array([0.0, 3.0, 1.0, -1.5]), np.array([1.0, -1.0, 1.0, 2.0])
    together = adaptive_simpson(_smooth, a, b)
    alone = [adaptive_simpson(_alone(j), a[j], b[j]) for j in range(4)]
    assert together.tolist() == alone
    assert alone[2] == 0.0
    assert alone[1] == reference_simpson(lambda x: np.exp(np.sin(7.0 * x)), 3.0, -1.0)


def test_k_integrals_over_states_equal_single_calls():
    # Every integral at every state, in one pass, against one integral at a
    # time and one state at a time.  s = 1 is a zero-length interval, and
    # states below 1 are reversed ones.
    states = np.r_[np.geomspace(0.05, 20.0, 29), 1.0]
    ends = np.broadcast_to(states, (4, states.size))
    together = gauss_legendre(_smooth, 1.0, ends)
    assert together.shape == (4, states.size)
    for j in range(4):
        alone = gauss_legendre(_alone(j), 1.0, states[None])[0]
        np.testing.assert_array_equal(together[j], alone)
        for i, s in enumerate(states):
            assert gauss_legendre(_alone(j), 1.0, [s])[0] == together[j, i]
    assert (together[:, -1] == 0.0).all()


def test_blocked_level_loop_equals_per_block_and_per_state_calls():
    # The level loop runs on blocks of at most _BLOCK_STATES flattened
    # states; a value depends on its own panels only, so 1024 states in one
    # call, in an (8, 128) array, block by block and state by state are
    # the same numbers.
    from entroflow import quadrature

    model = ShiftedPowerLaw(2.0)
    states = np.random.default_rng(11).uniform(0.25, 4.0, 1024)
    first_rows = []

    def integrand(x, k):
        if not first_rows:
            first_rows.append(len(x))
        return model._integrand(x, k)

    whole = gauss_legendre(integrand, 1.0, np.stack((states,) * 3))
    assert first_rows == [3 * quadrature._BLOCK_STATES]
    assert np.array_equal(np.stack(model.lam_entropy_sigma(states)[::2]),
                          whole[::2])
    grid = gauss_legendre(model._integrand, 1.0,
                          np.stack((states.reshape(8, 128),) * 3))
    assert np.array_equal(grid.reshape(3, 1024), whole)
    for start in range(0, 1024, 128):
        cols = slice(start, start + 128)
        block = gauss_legendre(model._integrand, 1.0, np.stack((states[cols],) * 3))
        assert np.array_equal(block, whole[:, cols])
    for i in range(0, 1024, 7):
        one = gauss_legendre(model._integrand, 1.0, np.full((3, 1), states[i]))
        assert np.array_equal(one[:, 0], whole[:, i])


def test_crowding_bound_counts_per_integral():
    # Smooth integrals that need many intervals each pass together, though
    # their sum of open intervals (panels) is over the bound; a rough one
    # next to them still fails.
    k_many = 30
    values = adaptive_simpson(lambda x, k: np.cos(40.0 * x), np.zeros(k_many),
                              np.ones(k_many))
    assert (values == adaptive_simpson(lambda x: np.cos(40.0 * x), 0.0, 1.0)).all()
    panels = gauss_legendre(lambda x, k: np.cos(4e4 * x), np.zeros((3, 1)), 1.0)
    assert (panels == gauss_legendre(lambda x, k: np.cos(4e4 * x), [[0.0]], 1.0)).all()

    def rough_first(x, k):
        rough, smooth = integral_rows(k, 2)
        return np.concatenate((np.sign(np.sin(1e4 / x[rough])), np.cos(40.0 * x[smooth])))

    with pytest.raises(PrecisionError, match="open intervals"):
        adaptive_simpson(rough_first, [0.01, 0.0, 0.0], [1.0, 1.0, 1.0])
    with pytest.raises(PrecisionError, match="failed to converge"):
        gauss_legendre(rough_first, [[0.01], [0.0], [0.0]], 1.0)


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


def _middle_of_three(quad):
    # Three integrals in one pass; only the middle one's integrand is non-finite.
    def call(f, a, b):
        return quad(lambda t, k: np.where(k == 1, f(t), t), np.full(3, a), np.full(3, b))

    return call


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("quad", [
    adaptive_simpson,
    gauss_legendre,
    pytest.param(_middle_of_three(adaptive_simpson), id="adaptive_simpson_k3"),
    pytest.param(_middle_of_three(gauss_legendre), id="gauss_legendre_k3"),
])
def test_non_finite_integrand_fails_at_once(quad, bad):
    calls = []

    def f(t):
        calls.append(1)
        return np.where(t > 0.5, bad, t)

    if quad is gauss_legendre:  # one integral: the integrand gets k, the ends an axis
        def quad(f, a, b):
            return gauss_legendre(lambda t, k: f(t), [a], [b])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PrecisionError) as info:
            quad(f, 0.0, 1.0)
    assert "non-finite" in str(info.value)
    assert info.value.achieved == math.inf
    # Both quadratures sample past 0.5 on their first level.
    assert len(calls) <= 2
