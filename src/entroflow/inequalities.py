"""Numerical verification of the two dissipation-term inequalities.

For positive Neumann fields f and positive coefficients a, the quartic
gradient integral is bounded by (1+sqrt(n))^2 times the dissipation
integral, and (when a >= lambda > 0) the squared Hessian of Sigma(f) is
bounded by (4+(1+sqrt(n))^2)/(2 lambda) times the same integral.  The
checks evaluate both sides with one canonical discretization and report
the observed ratio; a seeded sampler searches cosine test functions for
the worst ratio.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisError, UsageError
from .fields import (
    TestFunctionSpec,
    build_test_function,
    central_diff,
    require_finite,
    require_positive_field,
    scratch,
    second_diff,
)

_TINY = 1e-30


@dataclass(frozen=True)
class IneqReport:
    lhs: float
    rhs_integral: float
    constant: float
    ratio: float
    passed: bool


@dataclass
class SearchSummary:
    n: int
    cells: int
    trials: int
    seed: int
    tol: float
    max_bernis: float
    max_fisher: float
    argmax_bernis: TestFunctionSpec
    argmax_fisher: TestFunctionSpec
    all_passed: bool
    rows: list  # (trial, c0, bernis_ratio, fisher_ratio, lam)


def default_tol(grid):
    """Discretization budget for the inequality verdicts."""
    return 50.0 * grid.h**2


def bernis_constant(n):
    return (1.0 + math.sqrt(n)) ** 2


def fisher_constant(n, lam):
    return (4.0 + (1.0 + math.sqrt(n)) ** 2) / (2.0 * lam)


# The checks below work on raw arrays taken from fields.scratch and return
# plain floats.  Each intermediate that is a field in the continuum formula
# (a gradient, a matrix entry, a pointwise norm, an integrand) is checked
# finite as it is formed.  Squared entries are summed one at a time in
# row-major (i, j) order, the order of a sum over a matrix of fields, so
# every integral is bit-for-bit that of the field-by-field formula.


def _integral(values, h):
    """Midpoint rule on raw values: the arithmetic of fields.integrate."""
    return float(values.sum()) * h**values.ndim


def _add_square(acc, entry):
    """acc += entry**2, once the entry is checked finite; entry is spent."""
    require_finite(entry)
    np.add(acc, np.square(entry, out=entry), out=acc)


def _hessian_sq(values, h, acc, entry, firsts):
    """|D^2 values|^2 pointwise into acc, with mirror ghosts.

    On-axis entries use the second central difference; mixed entries
    compose two first differences, each with its own mirror, as
    fields.neumann_hessian does.  ``firsts`` holds one array per axis.
    """
    n = values.ndim
    if n > 1:
        for ax in range(n):
            central_diff(values, ax, h, out=firsts[ax])
    acc.fill(0.0)
    for i in range(n):
        for j in range(n):
            if i == j:
                second_diff(values, i, h, out=entry)
            else:
                central_diff(firsts[j], i, h, out=entry)
            _add_square(acc, entry)
    return require_finite(acc)


def dissipation_rhs(f, model):
    """int f a(f) |grad(f^{-1/2} grad Sigma(f))|^2, the canonical rhs.

    The matrix field is formed by differentiating the vector field
    f^{-1/2} grad Sigma(f) componentwise with mirror ghosts (odd across
    the component's own axis).  Used identically on both sides of every
    check.
    """
    vals = f.values
    h, n = f.grid.h, f.grid.dim
    a_vals = np.asarray(model.a(vals), dtype=float)
    sig = require_finite(np.asarray(model.sigma(vals), dtype=float))
    acc, entry, *w = scratch(vals.shape, 2 + n)
    for k in range(n):
        require_finite(central_diff(sig, k, h, out=w[k]))
    inv_sqrt = np.divide(1.0, np.sqrt(vals, out=entry), out=entry)
    for k in range(n):
        require_finite(np.multiply(inv_sqrt, w[k], out=w[k]))
    acc.fill(0.0)
    for i in range(n):
        for j in range(n):
            _add_square(acc, central_diff(w[j], i, h, odd=(i == j), out=entry))
    require_finite(acc)
    integrand = np.multiply(np.multiply(vals, a_vals, out=entry), acc, out=entry)
    return _integral(require_finite(integrand), h)


def _make_report(lhs, rhs, constant, tol):
    if rhs <= _TINY and lhs <= _TINY:
        return IneqReport(lhs, rhs, constant, 0.0, True)
    ratio = lhs / rhs if rhs > _TINY else math.inf
    return IneqReport(lhs, rhs, constant, ratio, lhs <= constant * rhs * (1.0 + tol))


def bernis_check(f, model, tol=None):
    """Quartic-gradient bound with constant (1+sqrt(n))^2."""
    require_positive_field(f)
    if tol is None:
        tol = default_tol(f.grid)
    vals = f.values
    h, n = f.grid.h, f.grid.dim
    a_vals = np.asarray(model.a(vals), dtype=float)
    grad_sq, work, cubes = scratch(vals.shape, 3)
    grad_sq.fill(0.0)
    for k in range(n):
        _add_square(grad_sq, central_diff(vals, k, h, out=work))
    require_finite(grad_sq)
    # a^3 / f^3 * |grad f|^4
    np.divide(np.power(a_vals, 3, out=work), np.power(vals, 3, out=cubes), out=work)
    integrand = np.multiply(work, np.square(grad_sq, out=grad_sq), out=work)
    lhs = _integral(require_finite(integrand), h)
    rhs = dissipation_rhs(f, model)
    return _make_report(lhs, rhs, bernis_constant(n), tol)


def fisher_ineq_check(f, model, lam, tol=None):
    """Hessian-of-Sigma bound with constant (4+(1+sqrt(n))^2)/(2 lambda)."""
    require_positive_field(f)
    if lam <= 0.0:
        raise UsageError("lambda must be positive")
    if tol is None:
        tol = default_tol(f.grid)
    a_range = np.asarray(model.a(np.linspace(f.min(), f.max(), 64)), dtype=float)
    if a_range.min() < lam * (1.0 - 1e-12):
        raise HypothesisError(
            "coefficient drops below lambda=%g on the field range (min a = %g)"
            % (lam, a_range.min())
        )
    h, n = f.grid.h, f.grid.dim
    sig = require_finite(np.asarray(model.sigma(f.values), dtype=float))
    acc, entry, *firsts = scratch(sig.shape, 2 + n)
    lhs = _integral(_hessian_sq(sig, h, acc, entry, firsts), h)
    rhs = dissipation_rhs(f, model)
    return _make_report(lhs, rhs, fisher_constant(n, lam), tol)


def cmkm_ratio(f):
    """int |D^2 sqrt(f)|^2 / int f |D^2 log f|^2.

    No explicit constant is available for this linear-case inequality, so
    only the observed ratio is reported; 0 when both integrals vanish.
    """
    require_positive_field(f)
    vals = f.values
    h, n = f.grid.h, f.grid.dim
    root, log, acc, entry, *firsts = scratch(vals.shape, 4 + n)
    require_finite(np.sqrt(vals, out=root))
    require_finite(np.log(vals, out=log))
    num = _integral(_hessian_sq(root, h, acc, entry, firsts), h)
    weighted = np.multiply(vals, _hessian_sq(log, h, acc, entry, firsts), out=entry)
    den = _integral(require_finite(weighted), h)
    if num <= _TINY and den <= _TINY:
        return 0.0
    return num / den


def sample_spec(rng, dim, max_modes=4):
    """Draw one positive cosine spec; total coefficient mass <= 0.9 c0."""
    c0 = float(rng.uniform(1.0, 5.0))
    modes = [int(rng.integers(1, max_modes + 1)) for _ in range(dim)]
    total = sum(modes)
    bound = 0.9 * c0 / total
    coeffs = tuple(
        tuple(float(rng.uniform(-bound, bound)) for _ in range(m)) for m in modes
    )
    return TestFunctionSpec(offset=c0, cosine_coeffs=coeffs)


def worst_ratio_search(n, model, trials, seed, cells=64, tol=None):
    """Seeded sampling of test functions; reports the worst observed ratios.

    Deterministic for a given (seed, grid, model): trial index, not
    arrival order, fixes the sample.
    """
    from .fields import Grid

    if trials < 1:
        raise UsageError("need at least one trial")
    grid = Grid(dim=n, cells=cells)
    if tol is None:
        tol = default_tol(grid)
    rng = np.random.default_rng(seed)
    max_b = -math.inf
    max_f = -math.inf
    arg_b = arg_f = None
    rows = []
    all_passed = True
    for trial in range(trials):
        spec = sample_spec(rng, n)
        f = build_test_function(grid, spec)
        lam = float(np.asarray(model.a(np.linspace(f.min(), f.max(), 64))).min())
        rb = bernis_check(f, model, tol)
        rf = fisher_ineq_check(f, model, lam, tol)
        all_passed = all_passed and rb.passed and rf.passed
        if rb.ratio > max_b:
            max_b, arg_b = rb.ratio, spec
        if rf.ratio > max_f:
            max_f, arg_f = rf.ratio, spec
        rows.append((trial, spec.offset, rb.ratio, rf.ratio, lam))
    return SearchSummary(
        n=n,
        cells=cells,
        trials=trials,
        seed=seed,
        tol=tol,
        max_bernis=max_b,
        max_fisher=max_f,
        argmax_bernis=arg_b,
        argmax_fisher=arg_f,
        all_passed=all_passed,
        rows=rows,
    )
