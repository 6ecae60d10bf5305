from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from entroflow import inequalities
from entroflow.coeff_models import Linear, PowerLaw, ShiftedPowerLaw
from entroflow.errors import ConstructionError, HypothesisError, UsageError
from entroflow.fields import (
    Field,
    Grid,
    TestFunctionSpec,
    build_test_function,
    central_diff,
    gradient_of_vector,
    integrate,
    neumann_hessian,
    second_diff,
)
from entroflow.inequalities import (
    bernis_check,
    bernis_constant,
    cmkm_ratio,
    default_tol,
    fisher_constant,
    fisher_ineq_check,
    sample_spec,
    worst_ratio_search,
)


def test_constants_exact_n1():
    assert bernis_constant(1) == 4.0
    assert fisher_constant(1, 1.0) == 4.0
    assert fisher_constant(1, 2.0) == 2.0


def test_constants_n2_n3():
    assert bernis_constant(2) == pytest.approx((1.0 + np.sqrt(2.0)) ** 2)
    assert fisher_constant(3, 0.5) == pytest.approx((4.0 + (1 + np.sqrt(3)) ** 2))


def test_default_tol():
    g = Grid(1, 64)
    assert default_tol(g) == pytest.approx(50.0 / 64**2)


def test_constant_field_degenerate_pass():
    g = Grid(2, 16)
    f = Field(g, np.full(g.shape, 2.0))
    rep = bernis_check(f, Linear())
    assert rep.passed and rep.ratio == 0.0
    assert rep.rhs_integral == 0.0
    assert cmkm_ratio(f) == 0.0


@pytest.mark.parametrize("dim,cells", [(1, 64), (2, 32), (3, 16)])
@pytest.mark.parametrize("model", [Linear(), PowerLaw(2.0), ShiftedPowerLaw(2.0)])
def test_inequalities_hold_on_cosine_fields(dim, cells, model):
    g = Grid(dim, cells)
    spec = TestFunctionSpec(2.0, tuple((0.6 / dim, -0.3 / dim) for _ in range(dim)))
    f = build_test_function(g, spec)
    rb = bernis_check(f, model)
    assert rb.passed
    assert rb.constant == pytest.approx(bernis_constant(dim))
    lam = float(np.min(np.asarray(model.a(np.linspace(f.min(), f.max(), 64)))))
    rf = fisher_ineq_check(f, model, lam)
    assert rf.passed
    assert rf.constant == pytest.approx(fisher_constant(dim, lam))


def test_fisher_lambda_hypothesis_probed():
    g = Grid(1, 64)
    f = build_test_function(g, TestFunctionSpec(2.0, ((0.5,),)))
    # a = 2s on a field ranging over [1.5, 2.5]: lam = 5 is a false hypothesis
    with pytest.raises(HypothesisError):
        fisher_ineq_check(f, PowerLaw(2.0), lam=5.0)


def test_fisher_rejects_nonpositive_lambda():
    g = Grid(1, 64)
    f = build_test_function(g, TestFunctionSpec(2.0, ((0.5,),)))
    with pytest.raises(UsageError):
        fisher_ineq_check(f, Linear(), lam=0.0)


def test_cmkm_ratio_positive():
    g = Grid(2, 32)
    f = build_test_function(g, TestFunctionSpec(2.0, ((0.5,), (0.3,))))
    r = cmkm_ratio(f)
    assert r > 0.0
    assert np.isfinite(r)


@given(st.integers(0, 2**31), st.integers(1, 3))
def test_sampled_specs_respect_margin(seed, dim):
    rng = np.random.default_rng(seed)
    spec = sample_spec(rng, dim)
    total = sum(abs(a) for axis in spec.cosine_coeffs for a in axis)
    assert spec.offset - total >= TestFunctionSpec.MARGIN


def test_search_deterministic():
    a = worst_ratio_search(1, Linear(), trials=25, seed=99, cells=64)
    b = worst_ratio_search(1, Linear(), trials=25, seed=99, cells=64)
    assert a.rows == b.rows
    assert a.max_bernis == b.max_bernis
    assert a.argmax_bernis == b.argmax_bernis


def test_search_summary_fields():
    s = worst_ratio_search(2, PowerLaw(2.0), trials=10, seed=1, cells=32)
    assert s.n == 2 and s.trials == 10 and len(s.rows) == 10
    assert s.all_passed
    assert s.max_bernis <= bernis_constant(2) * (1.0 + s.tol)
    with pytest.raises(UsageError):
        worst_ratio_search(1, Linear(), trials=0, seed=1)


def test_ratio_refines_towards_continuum():
    # the observed worst ratio should not drift by more than a few percent
    # between successive grids (the acceptance tests pin this at 5%)
    a = worst_ratio_search(1, Linear(), trials=50, seed=5, cells=64)
    b = worst_ratio_search(1, Linear(), trials=50, seed=5, cells=128)
    assert abs(a.max_bernis - b.max_bernis) <= 0.05 * max(a.max_bernis, b.max_bernis)


def _sum_sq(entries):
    acc = np.zeros(entries[0].values.shape)
    for e in entries:
        acc += e.values**2
    return acc


def _gradient(f):
    """Per-axis central differences with scalar mirror ghosts."""
    return [Field(f.grid, central_diff(f.values, ax, f.grid.h))
            for ax in range(f.grid.dim)]


def _field_reference(f, model):
    """The checks written with one Field per gradient and matrix entry."""
    g = f.grid
    vals = f.values
    a_vals = np.asarray(model.a(vals), dtype=float)
    sig = Field(g, np.asarray(model.sigma(vals), dtype=float))
    w = [Field(g, 1.0 / np.sqrt(vals) * d.values) for d in _gradient(sig)]
    matrix = [e for row in gradient_of_vector(w) for e in row]
    rhs = integrate(vals * a_vals * _sum_sq(matrix), g.h)
    grad_sq = _sum_sq(_gradient(f))
    bernis = integrate(a_vals**3 / vals**3 * grad_sq**2, g.h)
    fisher = integrate(_sum_sq([e for r in neumann_hessian(sig) for e in r]), g.h)

    def hess_sq(values):
        return _sum_sq([e for r in neumann_hessian(Field(g, values)) for e in r])

    cmkm = (integrate(hess_sq(np.sqrt(vals)), g.h)
            / integrate(vals * hess_sq(np.log(vals)), g.h))
    return bernis / rhs, fisher / rhs, cmkm


def _checks(f, model, lam):
    return (
        lambda: bernis_check(f, model).ratio,
        lambda: fisher_ineq_check(f, model, lam).ratio,
        lambda: cmkm_ratio(f),
    )


def _run(check, f):
    before = f.values.copy()
    ratio = check()
    assert type(ratio) is float
    assert f.values.tobytes() == before.tobytes()
    return ratio


def test_checks_match_field_reference_and_survive_interleaving():
    # Scratch buffers are cached per grid shape.  Checks that switch grid
    # at every call (3D, 1D, 2D, 3D, then the next check) must give the
    # ratios of the same checks run one grid at a time, and both must
    # equal the Field-by-Field formula bit for bit.
    model = PowerLaw(2.0)
    rng = np.random.default_rng(7)
    fields = [
        build_test_function(Grid(n, cells), sample_spec(rng, n))
        for n, cells in ((3, 10), (1, 64), (2, 16), (3, 10))
    ]
    lams = [float(np.min(model.a(np.linspace(f.min(), f.max(), 64)))) for f in fields]
    checks = [_checks(f, model, lam) for f, lam in zip(fields, lams)]
    one_at_a_time = [tuple(_run(c, f) for c in cs) for f, cs in zip(fields, checks)]
    interleaved = [[_run(cs[k], f) for f, cs in zip(fields, checks)] for k in range(3)]
    assert list(zip(*interleaved)) == one_at_a_time
    for f, ratios in zip(fields, one_at_a_time):
        assert ratios == _field_reference(f, model)
    assert one_at_a_time[0] != one_at_a_time[3]


def test_sigma_overflow_is_a_construction_error():
    g = Grid(2, 16)
    f = build_test_function(g, TestFunctionSpec(2.0, ((0.5,), (0.3,))))
    huge = Field(g, 1e250 * f.values)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ConstructionError):
            bernis_check(huge, PowerLaw(2.0))
        with pytest.raises(ConstructionError):
            fisher_ineq_check(huge, PowerLaw(2.0), lam=1.0)


def _replayed_search(n, model, trials, seed, cells, tol):
    """The search written as a loop over the public checks."""
    grid = Grid(n, cells)
    rng = np.random.default_rng(seed)
    rows, all_passed = [], True
    max_b = max_f = -np.inf
    arg_b = arg_f = None
    for trial in range(trials):
        spec = sample_spec(rng, n)
        f = build_test_function(grid, spec)
        lam = float(np.min(model.a(np.linspace(f.min(), f.max(), 64))))
        rb = bernis_check(f, model, tol)
        rf = fisher_ineq_check(f, model, lam, tol)
        all_passed = all_passed and rb.passed and rf.passed
        if rb.ratio > max_b:
            max_b, arg_b = rb.ratio, spec
        if rf.ratio > max_f:
            max_f, arg_f = rf.ratio, spec
        rows.append((trial, spec.offset, rb.ratio, rf.ratio, lam))
    return rows, all_passed, arg_b, arg_f


@pytest.mark.parametrize("n,cells", [(1, 64), (2, 24), (3, 12)])
@pytest.mark.parametrize(
    "model", [Linear(), PowerLaw(0.5), PowerLaw(2.0), ShiftedPowerLaw(2.0)]
)
def test_search_equals_public_checks_on_replayed_specs(n, cells, model):
    s = worst_ratio_search(n, model, trials=6, seed=41, cells=cells)
    rows, all_passed, arg_b, arg_f = _replayed_search(n, model, 6, 41, cells, s.tol)
    assert s.rows == rows
    assert s.all_passed == all_passed
    assert (s.argmax_bernis, s.argmax_fisher) == (arg_b, arg_f)
    assert (s.max_bernis, s.max_fisher) == (max(r[2] for r in rows),
                                            max(r[3] for r in rows))


class _CountingPowerLaw(PowerLaw):
    """PowerLaw(2) that counts its a and Sigma calls by argument shape."""

    def __init__(self):
        self.calls = Counter()
        super().__init__(2.0)
        self.calls.clear()  # the constructor probes a

    def a(self, s):
        self.calls["a", np.shape(s)] += 1
        return super().a(s)

    def sigma(self, s):
        self.calls["sigma", np.shape(s)] += 1
        return super().sigma(s)


@pytest.mark.parametrize(
    "n,central,second", [(1, 3, 1), (2, 10, 2), (3, 21, 3)]
)
def test_search_evaluates_each_term_once_per_trial(n, central, second, monkeypatch):
    calls = Counter()

    def spy(name):
        original = getattr(inequalities, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(inequalities, name, counted)

    spy("central_diff")
    spy("second_diff")
    model = _CountingPowerLaw()
    trials, cells = 3, 10
    worst_ratio_search(n, model, trials=trials, seed=5, cells=cells)
    assert calls == {"central_diff": trials * central, "second_diff": trials * second}
    assert model.calls == {
        ("a", (cells,) * n): trials,
        ("a", (64,)): trials,
        ("sigma", (cells,) * n): trials,
    }


class _InfiniteSigma(Linear):
    def sigma(self, s):
        return np.full(np.shape(s), np.inf)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_nonfinite_sigma_aborts_the_search_as_the_checks(n):
    model = _InfiniteSigma()
    f = build_test_function(Grid(n, 10), sample_spec(np.random.default_rng(2), n))
    for check in (
        lambda: bernis_check(f, model),
        lambda: fisher_ineq_check(f, model, lam=1.0),
        lambda: bernis_check(f, model).rhs_integral,
        lambda: worst_ratio_search(n, model, trials=2, seed=2, cells=10),
    ):
        with pytest.raises(ConstructionError):
            check()


def _poison_stencils(monkeypatch, k, bad):
    """Patch the stencils so that the k-th difference they return (counting
    calls of both from 0) holds ``bad`` at its center; returns the list
    the calls are counted in."""
    calls = []

    def wrap(name, original):
        def poisoned(*args, **kwargs):
            out = original(*args, **kwargs)
            if len(calls) == k:
                out[tuple(c // 2 for c in out.shape)] = bad
            calls.append(name)
            return out

        monkeypatch.setattr(inequalities, name, poisoned)

    wrap("central_diff", central_diff)
    wrap("second_diff", second_diff)
    return calls


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_nonfinite_difference_aborts_every_check(n, bad, monkeypatch):
    # Squared entries are not checked one by one: each sum of squares and
    # each integrand is, once, before use.  So one non-finite value in any
    # difference a check takes must still end in the error a field gives.
    model = PowerLaw(2.0)
    f = build_test_function(Grid(n, 10), sample_spec(np.random.default_rng(3), n))
    checks = {
        "bernis": lambda: bernis_check(f, model),
        "fisher": lambda: fisher_ineq_check(f, model, lam=0.1),
        "cmkm": lambda: cmkm_ratio(f),
        "search": lambda: worst_ratio_search(n, model, trials=2, seed=3, cells=10),
    }
    for name, check in checks.items():
        calls = _poison_stencils(monkeypatch, -1, bad)
        check()
        total = len(calls)
        assert total > 0, name
        for k in range(total):
            _poison_stencils(monkeypatch, k, bad)
            with pytest.raises(ConstructionError, match="field values must be finite"):
                check()
