"""Quadrature with strict error control: a batch path and its oracle.

All primitive functionals in this package are one-dimensional integrals of
smooth integrands.  ``gauss_legendre`` evaluates them for a whole state
array at once with fixed Gauss-Legendre rules (Golub & Welsch, Math. Comp.
23, 1969) on adaptively bisected panels.  ``adaptive_simpson`` is the
independent oracle it is checked against: the adaptive Simpson recursion
with the 1/15 Richardson correction (Lyness, J. ACM 16, 1969; Gander &
Gautschi, BIT 40, 2000), run level by level on a table of the open
intervals, one row each, which one gather per level splits.  Both take an
integrand that maps an array of nodes to an array of values, and
integrate K integrals in one pass, each to the value a call for it alone
returns, so that all of a model's primitives cost one integrand call per
level; a non-finite value is a PrecisionError at the level where it
appears.  The default tolerance is deliberately tight (1e-12): these
values feed identity residuals that must sit well below any grid
discretization error.
"""

import functools
import itertools

import numpy as np

from .errors import PrecisionError

DEFAULT_TOL = 1e-12
DEFAULT_MAX_DEPTH = 40

# The fine rule's value is kept; the coarse one only estimates its error.
_COARSE_NODES, _FINE_NODES = 20, 40
# A panel also passes when the rules agree to rounding: the budget share
# of a deeply bisected panel can sit below the rounding of its own sum.
_ROUNDING = 64.0 * np.finfo(float).eps
# The most states one Gauss-Legendre level loop takes: temporaries past ~80 KB
# cost several times more per element than they save in calls.
_BLOCK_STATES = 128
# Missing on this many panels at once means a rough integrand, whose work
# would otherwise double at every level down to the depth limit.
_MAX_PANELS_PER_STATE = 1024
# The same bound for the oracle's open intervals.  Oscillatory test
# integrands such as cos(40 x) on [0, 1] peak at ~3,200 and the primitive
# integrands at a few hundred.
_MAX_OPEN_INTERVALS = 1 << 16
# The oracle's interval table has columns a, m, b, f(a), f(m), f(b) and the
# Simpson estimate.  With the quarter points lm, rm, their values and the
# halves' estimates appended (columns 7 to 12), an interval's left half is
# row 0 of these columns and its right half row 1.
_HALVES = np.array([[0, 7, 1, 3, 9, 4, 11], [1, 8, 2, 4, 10, 5, 12]])


def adaptive_simpson(f, a, b, tol=DEFAULT_TOL, max_depth=DEFAULT_MAX_DEPTH):
    """Integrate ``f`` over [a, b], or with arrays of K ends ``f(., k)``
    over [a[k], b[k]] for every k, to tolerance ``tol``.

    ``f(x)`` or ``f(x, k)`` maps an array of nodes to an array of values
    (a scalar result is broadcast); see ``integral_rows`` for ``k``.  Each
    bisection level passes the two new quarter points of every still open
    interval to ``f`` in one call.  An interval whose halves agree with it,
    |left + right - whole| <= 15 tol, keeps left + right + delta/15; the
    others split, with tol halved per level.  Each open interval is one
    row of a table, its nodes, the integrand there and its Simpson
    estimate, so that one gather turns the rows that miss into their
    halves' rows, each value computed once.  A split interval's value is
    its left half's plus its right half's, so each result equals the
    depth-first recursion's bit for bit.  Each tolerance is absolute for
    integrals of magnitude up to 1 and relative beyond that (an absolute
    1e-12 on an integral of size 1e5 sits below round-off and can never
    terminate).  a > b yields the negated integral, a = b gives 0.0.
    Raises PrecisionError (carrying the achieved estimate) for the leftmost
    interval that still fails after ``max_depth`` bisection levels, when
    one integral would hold more than ``_MAX_OPEN_INTERVALS`` intervals at
    a level, or, with an infinite estimate, when ``f`` returns a non-finite
    value.
    """
    lo, hi = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    shape = lo.shape  # () for one integral of f(x): the K = 1 case
    sign = np.where(hi < lo, -1.0, 1.0).ravel()
    lo, hi = np.minimum(lo, hi).ravel(), np.maximum(lo, hi).ravel()

    def sample(x, k, depth):
        y = np.asarray(f(x, k[:, None]) if shape else f(x), dtype=float)
        if not np.isfinite(y).all():
            raise PrecisionError(
                "adaptive Simpson: integrand is non-finite at depth %d" % depth,
                achieved=np.inf,
            )
        return y if y.shape == x.shape else np.broadcast_to(y, x.shape)

    # The open intervals, one row each of the table (see _HALVES), grouped by
    # integral and left to right within it; k holds each row's integral.
    x = np.stack((lo, 0.5 * (lo + hi), hi), axis=1)
    k = np.arange(lo.size)
    fx = sample(x, k, 0)
    whole = (hi - lo) / 6.0 * (fx[:, 0] + 4.0 * fx[:, 1] + fx[:, 2])
    tol = tol * np.maximum(1.0, np.abs(whole))
    table = np.concatenate((x, fx, whole[:, None]), axis=1)
    levels = []
    for depth in itertools.count():
        left, right, fx = table[:, 0:2], table[:, 1:3], table[:, 3:6]
        q = 0.5 * (left + right)
        fq = sample(q, k, depth)
        # Simpson on the left and right half of every interval.
        halves = (right - left) / 6.0 * (fx[:, :-1] + 4.0 * fq + fx[:, 1:])
        both = halves[:, 0] + halves[:, 1]
        delta = both - table[:, 6]
        ok = np.abs(delta) <= 15.0 * tol[k]
        levels.append((both + delta / 15.0, ok))
        if ok.all():
            break
        rows = np.flatnonzero(~ok)
        if depth >= max_depth:
            i = rows[0]
            raise PrecisionError(
                "adaptive Simpson failed to converge on [%g, %g]"
                % (table[i, 0], table[i, 2]),
                achieved=abs(delta[i]) / 15.0,
            )
        k = k[rows]
        many = 2 * rows.size > _MAX_OPEN_INTERVALS  # summed over integrals
        if many and 2 * np.bincount(k).max() > _MAX_OPEN_INTERVALS:
            raise PrecisionError(
                "adaptive Simpson needs more than %d open intervals at depth %d"
                % (_MAX_OPEN_INTERVALS, depth + 1),
                achieved=float(np.abs(delta[rows]).max() / 15.0),
            )
        # Each missed interval becomes its two halves, side by side: one gather.
        wide = np.concatenate((table, q, fq, halves), axis=1)
        table = wide[rows[:, None, None], _HALVES].reshape(-1, 7)
        k = np.repeat(k, 2)
        tol = 0.5 * tol
    # Bottom up: a split interval's value is its left half's plus its right half's.
    value = levels.pop()[0]
    while levels:
        parent, ok = levels.pop()
        parent[~ok] = value[0::2] + value[1::2]
        value = parent
    if not shape:
        return float(sign[0] * value[0])
    return (sign * value).reshape(shape)


def integral_rows(k, count):
    """The row slices of integrals 0, ..., count - 1.  An integrand's ``k``
    broadcasts against its nodes and holds each row's integral index, and
    both routines pass the rows grouped by integral in increasing k."""
    ends = k.ravel().searchsorted(_later_integrals(count)).tolist()
    return list(map(slice, [0, *ends], [*ends, None]))


@functools.cache
def _later_integrals(count):
    """Integral indices 1, ..., count - 1, whose first rows integral_rows finds."""
    return np.arange(1, count)


@functools.cache
def _rules():
    """The coarse and the fine Gauss-Legendre rule on [-1, 1]: both rules'
    nodes, stacked, and the coarse and the fine weights."""
    (xc, wc), (xf, wf) = (np.polynomial.legendre.leggauss(n)
                          for n in (_COARSE_NODES, _FINE_NODES))
    return np.concatenate((xc, xf)), wc, wf


def gauss_legendre(f, a, b):
    """Integrate the vectorized ``f(., k)`` from a[k, i] to b[k, i] for
    every integral k and state i; a, b and the result have shape (K,) +
    the state shape, and see ``integral_rows`` for ``k``.

    Each integral at each state starts as one panel.  A panel passes when
    the 20- and 40-point rules agree within its width's share of that
    value's budget ``DEFAULT_TOL * max(1, |value|)``, and is bisected
    otherwise.  A value depends on its own panels only, so a scalar call
    returns the same number as that state inside a vector call, and so
    does one integral of K, and the level loop runs on blocks of at most
    ``_BLOCK_STATES`` flattened states.  Raises PrecisionError (carrying
    the largest missed estimate) when ``DEFAULT_MAX_DEPTH`` levels do not
    suffice or a value misses on too many panels at once, and, with an
    infinite estimate, when ``f`` returns a non-finite value.  Like any
    sampled rule it assumes no jumps: a jump between a panel's end and
    its outermost node goes unseen.
    """
    ends = np.empty((2,) + np.broadcast(a, b).shape)  # cheaper than broadcast_arrays
    ends[0], ends[1] = a, b
    a, b = ends
    if a[0].size > _BLOCK_STATES:
        lo, hi, step = a.reshape(len(a), -1), b.reshape(len(b), -1), _BLOCK_STATES
        blocks = [gauss_legendre(f, lo[:, i:i + step], hi[:, i:i + step])
                  for i in range(0, lo.shape[1], step)]
        return np.concatenate(blocks, axis=1).reshape(a.shape)
    nodes, wc, wf = _rules()

    # Children share their parent's midpoint, so panels tile [a, b] exactly:
    # an edge rounded off next to a near-singular end costs more than the tolerance.
    lo, hi = a.ravel(), b.ravel()
    states = lo.size // a.shape[0]
    state = np.arange(lo.size)  # integral k at state i is state k * states + i
    total = np.zeros(lo.size)
    for depth in range(DEFAULT_MAX_DEPTH + 1):
        center, hw = 0.5 * (lo + hi)[:, None], 0.5 * (hi - lo)[:, None]
        # Both rules' nodes in one call: a(t) is evaluated once per level.
        y = f(center + hw * nodes, (state // states)[:, None])
        if not np.isfinite(y).all():
            raise PrecisionError(
                "Gauss-Legendre: integrand is non-finite at depth %d" % depth,
                achieved=np.inf,
            )
        fc, ff = y[:, :_COARSE_NODES], y[:, _COARSE_NODES:]
        coarse = np.add.reduce(hw * wc * fc, axis=1)  # np.sum's reduction, less overhead
        terms = hw * wf * ff
        fine = np.add.reduce(terms, axis=1)
        if depth == 0:
            budget = DEFAULT_TOL * np.maximum(1.0, np.abs(fine))
        err = np.abs(fine - coarse)
        rounding = _ROUNDING * np.add.reduce(np.abs(terms), axis=1)
        ok = err <= np.maximum(budget[state] * 0.5**depth, rounding)
        total += np.bincount(state[ok], weights=fine[ok], minlength=total.size)
        miss = ~ok
        if not miss.any():
            return total.reshape(a.shape)
        crowded = np.bincount(state[miss]).max() > _MAX_PANELS_PER_STATE
        if depth == DEFAULT_MAX_DEPTH or crowded:
            raise PrecisionError(
                "Gauss-Legendre panels failed to converge at depth %d" % depth,
                achieved=float(err[miss].max()),
            )
        lo, hi, state = lo[miss], hi[miss], state[miss]
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        state = np.concatenate((state, state))
        # Stable: a value sums its left halves, then its right halves.
        order = np.argsort(state, kind="stable")
        lo, hi, state = lo[order], hi[order], state[order]
