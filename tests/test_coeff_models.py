"""Model catalog: closed forms against independent quadrature oracles.

The ORACLE constants below were computed once with scipy.integrate.quad
(nested quad for the double primitives) and frozen; they are independent
of this package's own adaptive Simpson path.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from entroflow import coeff_models
from entroflow.coeff_models import (
    KSModel,
    Linear,
    PowerLaw,
    ShiftedPowerLaw,
    TabulatedModel,
    eval_ks,
    eval_primitives,
)
from entroflow.diffusion import initial_cosine, stable_dt, step
from entroflow.errors import DomainError, ModelError
from entroflow.fields import Grid

# scipy.integrate.quad oracle values, frozen
ORACLE_PL2_AT_3 = dict(lam=4.0, entropy_density=4.0,
                       sigma=5.594869896942170, flux_primitive=9.0)
ORACLE_PL05_AT_4 = dict(lam=0.5, entropy_density=1.0,
                        sigma=0.693147180559945, flux_primitive=2.0)
ORACLE_SPL2_AT_2 = dict(lam=3.386294361119890, entropy_density=1.772588722239780,
                        sigma=4.094757082487300, flux_primitive=8.0)
ORACLE_KS21_AT_2 = dict(ratio_primitive=0.287682072451781,
                        double_primitive=0.169899036795397,
                        psi=0.280465108108164)
ORACLE_KS21_PSI_AT_03 = -0.1144367622463
ORACLE_KS21_G_AT_03 = 0.19882594962241
ORACLE_KS10_PSI_AT_3 = 2.07944154167984
ORACLE_KS10_G_AT_3 = 0.523248143764548


def _assert_primitives(prims, oracle, tol=1e-9):
    for key, want in oracle.items():
        assert getattr(prims, key) == pytest.approx(want, abs=tol, rel=tol)


def test_power_law_m2_against_oracle():
    _assert_primitives(eval_primitives(PowerLaw(2.0), 3.0), ORACLE_PL2_AT_3)


def test_power_law_m05_against_oracle():
    _assert_primitives(eval_primitives(PowerLaw(0.5), 4.0), ORACLE_PL05_AT_4)


def test_shifted_power_law_against_oracle():
    m = ShiftedPowerLaw(2.0)
    prims = eval_primitives(m, 2.0)
    _assert_primitives(prims, ORACLE_SPL2_AT_2)


def test_ks_critical_against_oracle():
    c = eval_ks(2.0, 1.0, 2.0)
    for key, want in ORACLE_KS21_AT_2.items():
        assert getattr(c, key) == pytest.approx(want, abs=1e-9)


def test_ks_psi_below_one():
    ks = KSModel(2.0, 1.0)
    assert float(ks.psi(0.3)) == pytest.approx(ORACLE_KS21_PSI_AT_03, abs=1e-9)
    assert float(ks.G(0.3)) == pytest.approx(ORACLE_KS21_G_AT_03, abs=1e-9)


def test_ks_p1_branch_against_oracle():
    ks = KSModel(1.0, 0.0)
    assert float(ks.psi(3.0)) == pytest.approx(ORACLE_KS10_PSI_AT_3, abs=1e-9)
    assert float(ks.G(3.0)) == pytest.approx(ORACLE_KS10_G_AT_3, abs=1e-9)
    # p one rounding step or so off 1, as p = 1 + q forms it: no cancellation
    for p in (1.0 - 1e-13, 1.0 + 1e-13):
        psi = float(KSModel(p, p - 1.0).psi(3.0))
        assert psi == pytest.approx(ORACLE_KS10_PSI_AT_3, abs=1e-9)


# exponents at and next to 0, 1 and 2, where (x^eps - 1)/eps written out
# divides by 0 or cancels
_CRITICAL_P = (0.0, 1e-13, 0.7, 1.0, 1.0 - 1e-13, 1.0 + 1e-13, 1.1, 1.2, 1.5, 2.0,
               2.0 - 1e-13, 2.0 + 1e-13, 3.0, 5.0)


@pytest.mark.parametrize("p", _CRITICAL_P)
def test_critical_psi_matches_its_single_integral(p):
    # Psi(s) = int_1^s (s - t) t D S'/S + t D dt, by scipy quad
    from scipy.integrate import quad

    q = p - 1.0
    ks = KSModel(p, q)
    assert ks.critical

    def integrand(t, s):
        D = (1.0 + t) ** (-p)
        return (s - t) * D * (1.0 + t - q * t) / (1.0 + t) + t * D

    for s in (0.05, 0.3, 1.0, 2.0, 10.0, 1e2, 1e4):
        want = quad(integrand, 1.0, s, args=(s,), epsabs=1e-14, epsrel=1e-13,
                    limit=200)[0]
        assert float(ks.psi(s)) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_primitives_vanish_at_reference_state():
    for model in (Linear(), PowerLaw(2.0), PowerLaw(0.5)):
        prims = eval_primitives(model, 1.0)
        assert prims.lam == 0.0
        assert prims.entropy_density == 0.0
        assert prims.sigma == 0.0
    ks = KSModel(2.0, 1.0)
    assert float(ks.ratio_primitive(1.0)) == 0.0
    assert float(ks.G(1.0)) == 0.0
    assert float(ks.psi(1.0)) == 0.0


@pytest.mark.parametrize(
    "model", [Linear(), PowerLaw(0.5), PowerLaw(1.0), PowerLaw(2.0), PowerLaw(3.0),
              PowerLaw(1.0 + 1e-13), PowerLaw(0.5 + 1e-13)]
)
def test_closed_forms_match_own_quadrature(model):
    for s in (0.3, 1.0, 2.5, 7.0):
        closed = eval_primitives(model, s)
        quad = model.primitives_by_quadrature(s)
        assert closed.lam == pytest.approx(quad.lam, abs=1e-9, rel=1e-9)
        assert closed.entropy_density == pytest.approx(
            quad.entropy_density, abs=1e-9, rel=1e-9
        )
        assert closed.sigma == pytest.approx(quad.sigma, abs=1e-9, rel=1e-9)
        assert closed.flux_primitive == pytest.approx(
            quad.flux_primitive, abs=1e-9, rel=1e-9
        )


@given(st.floats(0.2, 20.0), st.sampled_from([0.5, 1.0, 2.0, 3.0]))
def test_lambda_derivative_recovers_coefficient(s, m):
    model = PowerLaw(m)
    eps = 1e-5 * s
    d = (float(model.lam(s + eps)) - float(model.lam(s - eps))) / (2.0 * eps)
    assert d == pytest.approx(float(model.a(s)) / s, rel=1e-6)


@given(st.floats(0.2, 20.0), st.sampled_from([0.5, 1.0, 2.0, 3.0]))
def test_sigma_derivative_recovers_coefficient(s, m):
    model = PowerLaw(m)
    eps = 1e-5 * s
    d = (float(model.sigma(s + eps)) - float(model.sigma(s - eps))) / (2.0 * eps)
    assert d == pytest.approx(float(model.a(s)) / np.sqrt(s), rel=1e-6)


@given(st.floats(0.0, 1.0), st.floats(0.0, 50.0))
def test_ks_sensitivity_concave(q, s):
    assert float(KSModel(q + 1.0, q).S_second(s)) <= 1e-15


def test_ks_critical_detection():
    assert KSModel(2.0, 1.0).critical
    assert KSModel(1.0, 0.0).critical
    assert not KSModel(2.0, 0.5).critical


def test_eval_ks_off_critical_makes_three_quadrature_passes(monkeypatch):
    # R, G and Psi: G takes R and its by-parts integral in one pass
    original, passes = coeff_models.gauss_legendre, []

    def spy(f, a, b):
        passes.append(1)
        return original(f, a, b)

    monkeypatch.setattr(coeff_models, "gauss_legendre", spy)
    eval_ks(2.0, 0.5, 1.5)
    assert len(passes) == 3


def test_domain_errors():
    with pytest.raises(DomainError):
        eval_primitives(Linear(), -1.0)
    with pytest.raises(DomainError):
        eval_primitives(Linear(), 0.0)
    with pytest.raises(DomainError):
        eval_ks(2.0, 1.0, 0.0)
    with pytest.raises(ModelError):
        PowerLaw(0.0)
    with pytest.raises(ModelError):
        PowerLaw(-1.0)


@pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, np.nan, np.inf, -np.inf])
def test_require_positive_rejects_a_nonpositive_or_nonfinite_state(bad):
    for s in (bad, np.float64(bad), np.array(bad), np.array([2.0, bad, 0.5]),
              [[1.0], [bad]]):
        with pytest.raises(DomainError):
            coeff_models._require_positive(s)


def test_require_positive_returns_positive_states_as_floats():
    assert coeff_models._require_positive(3).dtype == float
    states = [5e-324, 1.0, 1e308]
    assert coeff_models._require_positive(states).tolist() == states
    assert coeff_models._require_positive(np.array([])).shape == (0,)  # vacuously


def test_tabulated_matches_source():
    src = PowerLaw(2.0)
    knots = np.geomspace(0.1, 10.0, 40)
    tab = TabulatedModel(knots, src.a(knots))
    for s in (0.2, 1.0, 5.0):
        assert float(tab.a(s)) == pytest.approx(float(src.a(s)), rel=1e-3)
    with pytest.raises(DomainError):
        tab.a(50.0)


def test_tabulated_primitives_match_own_quadrature():
    src = ShiftedPowerLaw(2.0)
    knots = np.geomspace(0.1, 10.0, 40)
    tab = TabulatedModel(knots, src.a(knots))
    for s in (0.15, 0.7, 1.0, 3.3, 9.5):
        oracle = tab.primitives_by_quadrature(s)
        for batch, want in ((tab.lam, oracle.lam),
                            (tab.entropy_density, oracle.entropy_density),
                            (tab.sigma, oracle.sigma)):
            assert float(batch(s)) == pytest.approx(want, abs=1e-9, rel=1e-9)


def test_tabulated_model_has_no_flux_primitive():
    # F integrates from 0, below a table's first knot: the other three
    # primitives are still evaluated, and F is reported as absent
    src = ShiftedPowerLaw(2.0)
    knots = np.geomspace(0.1, 10.0, 40)
    tab = TabulatedModel(knots, src.a(knots))
    oracle = tab.primitives_by_quadrature(2.0)
    assert oracle.flux_primitive is None
    prims = eval_primitives(tab, 2.0)
    assert prims.flux_primitive is None
    assert prims.lam == pytest.approx(oracle.lam, rel=1e-9)
    assert prims.entropy_density == pytest.approx(oracle.entropy_density, rel=1e-9)
    assert prims.sigma == pytest.approx(oracle.sigma, rel=1e-9)


def test_vector_call_matches_scalar_calls():
    states = np.geomspace(1e-6, 1e6, 128)
    spl, ks = ShiftedPowerLaw(2.0), KSModel(2.0, 0.5)
    for fn in (spl.lam, spl.entropy_density, spl.sigma, spl.flux_primitive,
               ks.ratio_primitive, ks.G, ks.psi):
        vector = fn(states)
        scalar = np.array([float(fn(float(s))) for s in states])
        assert vector.shape == states.shape
        np.testing.assert_array_equal(vector, scalar)


@pytest.mark.parametrize("model", [ShiftedPowerLaw(2.0), ShiftedPowerLaw(0.7)],
                         ids=["m2", "m0.7"])
def test_one_pass_matches_each_primitive_and_scalar_state(model):
    # Lambda, H and Sigma from one batch pass over a 128-state array equal
    # the separate batch methods and each state's own pass, bit for bit.
    states = np.random.default_rng(7).uniform(0.25, 4.0, 128)
    lam, H, sigma = model.lam_entropy_sigma(states)
    np.testing.assert_array_equal(lam, model.lam(states))
    np.testing.assert_array_equal(H, model.entropy_density(states))
    np.testing.assert_array_equal(sigma, model.sigma(states))
    for i, s in enumerate(states):
        assert tuple(map(float, model.lam_entropy_sigma(float(s)))) == (
            lam[i], H[i], sigma[i])
        prims = eval_primitives(model, float(s))
        assert (prims.lam, prims.entropy_density, prims.sigma) == (lam[i], H[i], sigma[i])


def test_tabulated_rejects_three_column_table(tmp_path):
    # A table is (s, a); a third column (once an a' column) is refused,
    # also when only one row has it.
    rows = ["%.17g,%.17g" % (s, 2.0 * s) for s in np.linspace(1.0, 5.0, 20)]
    path = tmp_path / "table.csv"
    for extra in (range(20), [7]):
        lines = [r + ",2" if k in extra else r for k, r in enumerate(rows)]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelError, match=r"2 columns \(s, a\), got 3"):
            TabulatedModel.from_csv(path)


def test_tabulated_rejects_bad_tables():
    with pytest.raises(ModelError):
        TabulatedModel([1.0, 2.0], [1.0, 1.0])  # too few knots
    with pytest.raises(ModelError):
        TabulatedModel([1.0, 3.0, 2.0, 4.0], [1.0, 1.0, 1.0, 1.0])
    with pytest.raises(ModelError):
        TabulatedModel([1.0, 2.0, 3.0, 4.0], [1.0, -1.0, 1.0, 1.0])
    for s_knots, a_knots in (([1.0, 2.0, np.nan, 4.0], [1.0, 1.0, 1.0, 1.0]),
                             ([1.0, 2.0, 3.0, np.inf], [1.0, 1.0, 1.0, 1.0]),
                             ([1.0, 2.0, 3.0, 4.0], [1.0, np.inf, 1.0, 1.0]),
                             ([1.0, 2.0, 3.0, 4.0], [1.0, np.nan, 1.0, 1.0])):
        with pytest.raises(ModelError, match="finite"):
            TabulatedModel(s_knots, a_knots)


def test_tabulated_from_csv(tmp_path):
    src = ShiftedPowerLaw(2.0)
    knots = np.linspace(0.5, 4.0, 25)
    path = tmp_path / "table.csv"
    lines = ["s,a"] + ["%.17g,%.17g" % (s, float(src.a(s))) for s in knots]
    path.write_text("\n".join(lines) + "\n")
    tab = TabulatedModel.from_csv(path)
    assert float(tab.a(2.0)) == pytest.approx(float(src.a(2.0)), rel=1e-3)


def test_tabulated_from_csv_rejects_unparsable_rows(tmp_path):
    # only the first row that is not a comment may be a header: a later
    # unparsable row is an error naming its line, not a skipped row
    path = tmp_path / "table.csv"
    good = ["0.5,1", "1.0,2", "3.0,4", "4.0,5"]
    for bad, line in (("2.0,3.O", 4), ("5.0,6.0,", 6)):
        lines = ["# s, a(s)", "s,a"] + good
        lines.insert(line - 1, bad)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelError, match="line %d " % line):
            TabulatedModel.from_csv(path)
    path.write_text("\n".join(["# s, a(s)", "s,a", "", *good, "  "]) + "\n")
    tab = TabulatedModel.from_csv(path)
    assert (tab.s_knots[0], tab.s_knots[-1]) == (0.5, 4.0)
    path.write_text("\n".join(good + ["s,a"]) + "\n")
    with pytest.raises(ModelError, match="line 5 "):
        TabulatedModel.from_csv(path)


def test_linear_is_the_m1_power_law_bit_for_bit():
    states = np.geomspace(1e-6, 1e6, 61)
    linear, power = Linear(), PowerLaw(1.0)
    for name in ("a", "lam", "entropy_density", "sigma", "flux_primitive",
                 "lam_entropy_sigma"):
        got, want = getattr(linear, name)(states), getattr(power, name)(states)
        assert np.array_equal(got, want), name
    g = Grid(1, 64)
    u = initial_cosine(g)
    dt = stable_dt(u, linear, g.h)
    assert dt == stable_dt(u, power, g.h)
    assert np.array_equal(step(u, linear, g.h, dt), step(u, power, g.h, dt))
    assert (repr(linear), repr(power)) == ("Linear()", "PowerLaw(m=1)")
