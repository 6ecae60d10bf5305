"""Quadrature with strict error control: a batch path and its oracle.

All primitive functionals in this package are one-dimensional integrals of
smooth integrands.  ``gauss_legendre`` evaluates them for a whole state
array at once with fixed Gauss-Legendre rules (Golub & Welsch, Math. Comp.
23, 1969) on adaptively bisected panels.  ``adaptive_simpson``, the scalar
pure-Python recursion with the 1/15 Richardson correction, is the
independent oracle it is checked against.  The default tolerance is
deliberately tight (1e-12): these values feed identity residuals that must
sit well below any grid discretization error.
"""

import functools

import numpy as np

from .errors import PrecisionError

DEFAULT_TOL = 1e-12
DEFAULT_MAX_DEPTH = 40

# The fine rule's value is kept; the coarse one only estimates its error.
_COARSE_NODES, _FINE_NODES = 20, 40
# A panel also passes when the rules agree to rounding: the budget share
# of a deeply bisected panel can sit below the rounding of its own sum.
_ROUNDING = 64.0 * np.finfo(float).eps
# Missing on this many panels at once means a rough integrand, whose work
# would otherwise double at every level down to the depth limit.
_MAX_PANELS_PER_STATE = 1024


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


def adaptive_simpson(f, a, b, tol=DEFAULT_TOL, max_depth=DEFAULT_MAX_DEPTH):
    """Integrate ``f`` over [a, b] to tolerance ``tol``.

    The tolerance is absolute for integrals of magnitude up to 1 and
    relative beyond that (an absolute 1e-12 on an integral of size 1e5
    sits below round-off and can never terminate).  Orientation is
    respected: a > b yields the negated integral.  Raises PrecisionError
    (carrying the achieved estimate) if ``max_depth`` bisection levels do
    not suffice.
    """
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


@functools.cache
def _rule(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    return np.polynomial.legendre.leggauss(n)


def gauss_legendre(f, a, b):
    """Integrate the vectorized ``f`` from a[i] to b[i] for every state i.

    Each state starts as one panel.  A panel passes when the 20- and
    40-point rules agree within its width's share of the state's budget
    ``DEFAULT_TOL * max(1, |value|)``, and is bisected otherwise.  A
    state's value depends on its own panels only, so a scalar call returns
    the same number as that state inside a vector call.  Raises
    PrecisionError (carrying the largest missed estimate) when
    ``DEFAULT_MAX_DEPTH`` levels do not suffice or a state misses on too
    many panels at once.  Like any sampled rule it assumes no jumps: a
    jump between a panel's end and its outermost node goes unseen.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    # Children share their parent's midpoint, so panels tile [a, b] exactly:
    # an edge rounded off next to a near-singular end costs more than the tolerance.
    lo, hi = a.ravel(), b.ravel()
    state = np.arange(lo.size)
    total = np.zeros(lo.size)
    for depth in range(DEFAULT_MAX_DEPTH + 1):
        center, hw = 0.5 * (lo + hi)[:, None], 0.5 * (hi - lo)[:, None]
        x, w = _rule(_COARSE_NODES)
        coarse = np.sum(hw * w * f(center + hw * x), axis=1)
        x, w = _rule(_FINE_NODES)
        terms = hw * w * f(center + hw * x)
        fine = np.sum(terms, axis=1)
        if depth == 0:
            budget = DEFAULT_TOL * np.maximum(1.0, np.abs(fine))
        err = np.abs(fine - coarse)
        rounding = _ROUNDING * np.sum(np.abs(terms), axis=1)
        ok = err <= np.maximum(budget[state] * 0.5**depth, rounding)
        total += np.bincount(state[ok], weights=fine[ok], minlength=total.size)
        miss = ~ok
        if not miss.any():
            return total.reshape(a.shape)[()]
        crowded = np.bincount(state[miss]).max() > _MAX_PANELS_PER_STATE
        if depth == DEFAULT_MAX_DEPTH or crowded:
            raise PrecisionError(
                "Gauss-Legendre panels failed to converge at depth %d" % depth,
                achieved=float(err[miss].max()),
            )
        lo, hi, state = lo[miss], hi[miss], state[miss]
        mid = 0.5 * (lo + hi)
        lo, hi, state = np.r_[lo, mid], np.r_[mid, hi], np.r_[state, state]
