"""Numerical verification of the two dissipation-term inequalities.

For positive Neumann fields f and positive coefficients a, the quartic
gradient integral is bounded by (1+sqrt(n))^2 times the dissipation
integral, and (when a >= lambda > 0) the squared Hessian of Sigma(f) is
bounded by (4+(1+sqrt(n))^2)/(2 lambda) times the same integral.  The
checks evaluate both sides with one canonical discretization and report
the observed ratio; a seeded sampler searches cosine test functions for
the worst ratio, evaluating the terms the two checks share once per
sampled field.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, HypothesisError, UsageError
from .fields import (
    Grid,
    TestFunctionSpec,
    build_test_function,
    central_diff,
    integrate,
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
# plain floats; like all of the package's calculus, they integrate with
# fields.integrate on raw values, and so check finiteness under its rule
# (the fields module docstring): each integral checks its own sum, and
# Sigma(f), the model's output, is the one array checked here, before the
# stencils difference it.  Squared entries are summed in row-major (i, j)
# order, the first written into the sum, as a sum over a matrix of fields
# is, so every integral is bit-for-bit that formula's.
#
# Each check is its own left-hand side plus the shared dissipation
# integral, and both the Fisher lhs and the dissipation integral start
# from grad Sigma(f).  The public checks and worst_ratio_search compose
# the same helpers; the search evaluates a(f), Sigma(f), grad Sigma(f)
# and the dissipation integral once per sampled field for both checks.


def _add_square(acc, entry, first):
    """acc = entry**2 if first (0 + entry**2 exactly), else acc += entry**2;
    entry is spent."""
    if first:
        np.square(entry, out=acc)
    else:
        np.add(acc, np.square(entry, out=entry), out=acc)


def _mixed_firsts(values, h, firsts):
    """First differences along axes 1..n-1 into ``firsts``, one array
    each: what the mixed Hessian entries compose (1D has none)."""
    for ax, out in enumerate(firsts, start=1):
        central_diff(values, ax, h, out=out)
    return firsts


def _hessian_sq(values, h, acc, spare, firsts, reuse=False):
    """|D^2 values|^2 pointwise into acc, with mirror ghosts.

    On-axis entries use the second central difference.  The mixed entry
    (i, j), i < j, composes D_i with firsts[j - 1], the first difference
    of values along j, as fields.neumann_hessian does, and stands at
    (j, i) too: it is formed once, and its square is held, in one of the
    ``spare`` arrays, until its second use.  Squares are summed in
    row-major order.  ``spare`` holds one array in 1D and 2D and two in
    3D; with ``reuse``, a first difference joins them once its last mixed
    entry is formed, and one spare array suffices in 3D.
    """
    n = values.ndim
    free, held = list(spare), {}
    for i in range(n):
        for j in range(n):
            if j < i:
                square = held.pop((j, i))
                np.add(acc, square, out=acc)
                free.append(square)
                continue
            entry = free.pop()
            if i == j:
                _add_square(acc, second_diff(values, i, h, out=entry), i == 0)
                free.append(entry)
            else:
                _add_square(acc, central_diff(firsts[j - 1], i, h, out=entry), False)
                held[i, j] = entry
                if reuse and i == j - 1:
                    free.append(firsts[j - 1])
    return acc


def _a_on_range(model, lo, hi):
    """a on 64 points of the field range [lo, hi], where lambda is read
    and the hypothesis a >= lambda is probed."""
    return np.asarray(model.a(np.linspace(lo, hi, 64)), dtype=float)


def _require_lambda(a_range, lam):
    if lam <= 0.0:
        raise UsageError("lambda must be positive")
    if a_range.min() < lam * (1.0 - 1e-12):
        raise HypothesisError(
            "coefficient drops below lambda=%g on the field range (min a = %g)"
            % (lam, a_range.min())
        )


def _bernis_lhs(f, a_vals):
    """int a^3 / f^3 |grad f|^4, from a(f) in a_vals."""
    vals, h = f.values, f.grid.h
    grad_sq, work, cubes = scratch(vals.shape, 3)
    for k in range(vals.ndim):
        _add_square(grad_sq, central_diff(vals, k, h, out=work), k == 0)
    np.divide(np.power(a_vals, 3, out=work), np.power(vals, 3, out=cubes), out=work)
    integrand = np.multiply(work, np.square(grad_sq, out=grad_sq), out=work)
    return integrate(integrand, h)


def _grad_sigma(f, model):
    """Sigma(f), checked finite, and grad Sigma(f).

    Returns Sigma(f) and ``work``, three scratch items: ``grads``, which
    holds grad Sigma, one array per axis, the first differences that the
    Hessian of Sigma and the rhs vector field f^{-1/2} grad Sigma both
    start from; and ``acc`` and ``entry``, two arrays for the sums.  Any
    scratch taken earlier (as by _bernis_lhs) is overwritten.
    """
    vals = f.values
    sig = np.asarray(model.sigma(vals), dtype=float)
    if not np.isfinite(sig).all():
        raise ConstructionError("field values must be finite")
    acc, entry, *grads = scratch(vals.shape, 2 + f.grid.dim)
    for k, out in enumerate(grads):
        central_diff(sig, k, f.grid.h, out=out)
    return sig, (grads, acc, entry)


def _fisher_lhs(sig, h, work):
    """int |D^2 Sigma(f)|^2; the mixed entries compose grad Sigma, which
    stays intact for _dissipation, so 3D takes one scratch array more."""
    grads, acc, entry = work
    n = sig.ndim  # in 3D, the one array past the 2 + n of _grad_sigma
    spare = [entry] if n < 3 else [entry, scratch(sig.shape, 3 + n)[-1]]
    return integrate(_hessian_sq(sig, h, acc, spare, grads[1:]), h)


def _dissipation(f, a_vals, work):
    """int f a(f) |grad(f^{-1/2} grad Sigma(f))|^2, from a(f) in a_vals
    and grad Sigma(f) in ``work``, which becomes f^{-1/2} grad Sigma(f)."""
    grads, acc, entry = work
    vals, h, n = f.values, f.grid.h, f.grid.dim
    inv_sqrt = np.divide(1.0, np.sqrt(vals, out=entry), out=entry)
    for w in grads:
        np.multiply(inv_sqrt, w, out=w)
    for i in range(n):
        for j in range(n):
            _add_square(acc, central_diff(grads[j], i, h, odd=(i == j), out=entry),
                        i == j == 0)
    integrand = np.multiply(np.multiply(vals, a_vals, out=entry), acc, out=entry)
    return integrate(integrand, h)


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
    a_vals = np.asarray(model.a(f.values), dtype=float)
    lhs = _bernis_lhs(f, a_vals)
    rhs = _dissipation(f, a_vals, _grad_sigma(f, model)[1])
    return _make_report(lhs, rhs, bernis_constant(f.grid.dim), tol)


def fisher_ineq_check(f, model, lam, tol=None):
    """Hessian-of-Sigma bound with constant (4+(1+sqrt(n))^2)/(2 lambda)."""
    lo = require_positive_field(f)
    if tol is None:
        tol = default_tol(f.grid)
    _require_lambda(_a_on_range(model, lo, f.max()), lam)
    sig, work = _grad_sigma(f, model)
    lhs = _fisher_lhs(sig, f.grid.h, work)
    rhs = _dissipation(f, np.asarray(model.a(f.values), dtype=float), work)
    return _make_report(lhs, rhs, fisher_constant(f.grid.dim, lam), tol)


def cmkm_ratio(f):
    """int |D^2 sqrt(f)|^2 / int f |D^2 log f|^2.

    No explicit constant is available for this linear-case inequality, so
    only the observed ratio is reported; 0 when both integrals vanish.
    """
    require_positive_field(f)
    vals = f.values
    h, n = f.grid.h, f.grid.dim
    root, log, acc, entry, *firsts = scratch(vals.shape, 3 + n)
    np.sqrt(vals, out=root)
    np.log(vals, out=log)
    _mixed_firsts(root, h, firsts)
    num = integrate(_hessian_sq(root, h, acc, [entry], firsts, reuse=True), h)
    _mixed_firsts(log, h, firsts)
    hess_sq = _hessian_sq(log, h, acc, [entry], firsts, reuse=True)
    weighted = np.multiply(vals, hess_sq, out=entry)
    den = integrate(weighted, h)
    if num <= _TINY and den <= _TINY:
        return 0.0
    return num / den


def sample_spec(rng, dim):
    """One positive cosine spec: 1-4 modes per axis, coefficient mass <= 0.9 c0."""
    c0 = float(rng.uniform(1.0, 5.0))
    modes = [int(rng.integers(1, 5)) for _ in range(dim)]
    total = sum(modes)
    bound = 0.9 * c0 / total
    coeffs = tuple(
        tuple(float(rng.uniform(-bound, bound)) for _ in range(m)) for m in modes
    )
    return TestFunctionSpec(offset=c0, cosine_coeffs=coeffs)


def worst_ratio_search(n, model, trials, seed, cells=64):
    """Seeded sampling of test functions; reports the worst observed ratios.

    Deterministic for a given (seed, grid, model): trial index, not
    arrival order, fixes the sample.  Each trial gives the ratios that
    bernis_check and fisher_ineq_check (with lambda the least a on the
    field range) give on its field, under the same checks, from one
    evaluation of the field's extremes, a(f), Sigma(f), grad Sigma(f) and
    the dissipation integral.
    """
    if trials < 1:
        raise UsageError("need at least one trial")
    grid = Grid(dim=n, cells=cells)
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
        a_range = _a_on_range(model, require_positive_field(f), f.max())
        lam = float(a_range.min())
        _require_lambda(a_range, lam)
        a_vals = np.asarray(model.a(f.values), dtype=float)
        lhs_b = _bernis_lhs(f, a_vals)
        sig, work = _grad_sigma(f, model)
        lhs_f = _fisher_lhs(sig, grid.h, work)
        rhs = _dissipation(f, a_vals, work)
        rb = _make_report(lhs_b, rhs, bernis_constant(n), tol)
        rf = _make_report(lhs_f, rhs, fisher_constant(n, lam), tol)
        all_passed = all_passed and rb.passed and rf.passed
        if rb.ratio > max_b:
            max_b, arg_b = rb.ratio, spec
        if rf.ratio > max_f:
            max_f, arg_f = rf.ratio, spec
        rows.append((trial, spec.offset, rb.ratio, rf.ratio, lam))
    return SearchSummary(
        tol=tol,
        max_bernis=max_b,
        max_fisher=max_f,
        argmax_bernis=arg_b,
        argmax_fisher=arg_f,
        all_passed=all_passed,
        rows=rows,
    )
