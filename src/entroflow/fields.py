"""Uniform cell-centered Neumann grids on the unit box, n = 1..3.

Scalar fields mirror evenly across the boundary (ghost value = adjacent
interior value), which makes the discrete normal derivative vanish
exactly.  Components of gradient-like vector fields mirror oddly across
their own axis, exactly as the normal component of a reflected vector
flips sign; with that pairing the discrete summation-by-parts identity

    sum f (d g) + sum (d f) g = 0

holds bit-exactly, which is what every integration-by-parts based check
in this package relies on.

A ``Field`` is a validated scalar on a grid: a sampled test function,
the nD input of the inequality checks.  A flow's initial state is a raw
array: ``diffusion.march``'s floor check, its guard and the first step
refuse a non-finite value (the run contract there).  The calculus acts
on raw arrays: the stencils difference them, and ``integrate(values, h)``
is the one midpoint rule behind every integral the package reports; with
``rows=True`` it integrates each row of a run's (S, N) snapshot array.

Finiteness has one rule: a ``Field`` refuses non-finite values, and each
integral checks its own sum in ``integrate``, which a non-finite value in
its integrand, or in a difference, square or product that formed it,
makes non-finite.  The inequality checks add one check, on Sigma(f).

The difference stencils write into a caller-given ``out`` array.  The
nD inequality checks take theirs from a scratch workspace (``scratch``),
under one rule: the workspace caches the arrays of a single grid shape
(per thread), and a request for another shape drops them, so its memory
is bounded by the largest grid in use; a scratch array is never returned
to the caller of a check, nor kept past the call that took it; and
nothing configures the workspace.
"""

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ConstructionError, DomainError

MIN_CELLS = 8


@dataclass(frozen=True)
class Grid:
    """Uniform grid of cell centers on the unit box (0,1)^dim."""

    dim: int
    cells: int

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ConstructionError("dim must be 1, 2 or 3")
        if self.cells < MIN_CELLS:
            raise ConstructionError("need at least %d cells per axis" % MIN_CELLS)

    @property
    def h(self):
        return 1.0 / self.cells

    @property
    def shape(self):
        return (self.cells,) * self.dim

    def full(self, value):
        """np.full on the grid; a grid numpy cannot hold is a ConfigError."""
        try:
            return np.full(self.shape, value)
        except (MemoryError, ValueError):
            raise ConfigError("cannot hold a grid of %d^%d cells"
                              % (self.cells, self.dim)) from None

    def axis_centers(self):
        return (np.arange(self.cells) + 0.5) * self.h


@dataclass
class Field:
    """Values of a scalar on the cell centers of a grid."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ConstructionError(
                "values shape %s does not match grid shape %s"
                % (self.values.shape, self.grid.shape)
            )
        if not np.all(np.isfinite(self.values)):
            raise ConstructionError("field values must be finite")

    def min(self):
        return float(self.values.min())

    def max(self):
        return float(self.values.max())


# ---------------------------------------------------------------------------
# Mirror-ghost difference stencils
#
# Each stencil writes the interior differences and the two ghost faces of
# one axis straight into ``out`` (a fresh array when None); ``out`` must
# not overlap ``values``.  Every entry is formed by the operations of
# differencing a ghost-padded copy and dividing by the step (2h or h^2),
# except that a power-of-two step (2^k cells) is applied as a product
# with its exact reciprocal, which rounds to the same bits; so results
# are bit-for-bit those of the padded formula.  In 1D a ghost face is a
# single cell, and it is computed in scalar arithmetic, which rounds as
# the ufunc does without its per-call cost; the explicit flows difference
# 1D arrays of a few hundred cells every step.  Along the last axis of
# C-contiguous nD arrays both stencils take the flattened arrays in one
# run: central_diff's entries across two lines are the ghost faces, and
# second_diff forms the two ends of every line again after the run.
# Stencils check nothing: a non-finite difference reaches the sum of the
# integral it ends in (see the finiteness rule in the module docstring).


def _cuts(axis):
    lead = (slice(None),) * axis
    return tuple(
        lead + (s,)
        for s in (
            slice(2, None),  # ahead: i + 1 for the interior
            slice(None, -2),  # behind: i - 1 for the interior
            slice(1, -1),  # interior
            slice(1, None),  # tail
            slice(None, -1),  # head
            slice(0, 1),  # first
            slice(1, 2),  # second
            slice(-2, -1),  # penultimate
            slice(-1, None),  # last
        )
    )


_CUTS = tuple(_cuts(axis) for axis in range(3))


def _flat_axis(values, axis, out):
    """Whether ``axis`` is the last axis of C-contiguous nD ``values`` and
    ``out``, along which a stencil takes the flattened arrays in one run."""
    return (0 < axis == values.ndim - 1 and values.flags.c_contiguous
            and out.flags.c_contiguous)


def _scaled(out, step):
    """out / step in place, as the product with 1 / step when step is a
    power of two: its reciprocal is then exact, so both round the exact
    quotient once, to the same bits, and a product costs less."""
    mantissa, exponent = math.frexp(step)
    if mantissa == 0.5 and exponent >= -1022:  # 1 / step = 2^(1 - exponent) is finite
        return np.multiply(out, 1.0 / step, out=out)
    return np.divide(out, step, out=out)


def central_diff(values, axis, h, odd=False, out=None):
    """Central difference with mirror ghosts.

    odd=False: scalar mirror (ghost = edge value), the Neumann stencil.
    odd=True: vector mirror (ghost = -edge value), for differentiating
    the axis-aligned component of a gradient-like field.
    """
    ahead, behind, inner, _, _, first, second, penult, last = _CUTS[axis]
    if out is None:
        out = np.empty(values.shape)
    if _flat_axis(values, axis, out):
        flat = values.reshape(-1)
        np.subtract(flat[2:], flat[:-2], out=out.reshape(-1)[1:-1])
    else:
        np.subtract(values[ahead], values[behind], out=out[inner])
    if values.ndim == 1:
        out[0] = values[1] + values[0] if odd else values[1] - values[0]
        out[-1] = (-values[-1] if odd else values[-1]) - values[-2]
    elif odd:
        # v[1] - (-v[0]) is v[1] + v[0] exactly.  The upper ghost is
        # formed first, so that a zero difference keeps its sign, and by
        # multiplication: np.negative into a strided out= view misreads
        # its input on numpy 2.4.
        np.add(values[second], values[first], out=out[first])
        np.multiply(values[last], -1.0, out=out[last])
        np.subtract(out[last], values[penult], out=out[last])
    else:
        np.subtract(values[second], values[first], out=out[first])
        np.subtract(values[last], values[penult], out=out[last])
    return _scaled(out, 2.0 * h)


def second_diff(values, axis, h, out=None):
    """On-axis second central difference with scalar mirror ghosts."""
    _, _, _, tail, head, first, second, penult, last = _CUTS[axis]
    if out is None:
        out = np.empty(values.shape)
    np.multiply(values, 2.0, out=out)
    # (v[i+1] - 2 v[i]) + v[i-1], the ghosts being v[-1] and v[0]
    if _flat_axis(values, axis, out):
        # The flat run takes the end entries of each line from the
        # adjacent line; both line ends are formed again afterwards.
        flat, flat_out = values.reshape(-1), out.reshape(-1)
        np.subtract(flat[1:], flat_out[:-1], out=flat_out[:-1])
        np.add(flat_out[1:], flat[:-1], out=flat_out[1:])
        for end, ahead, behind in ((first, second, first), (last, last, penult)):
            np.multiply(values[end], 2.0, out=out[end])
            np.subtract(values[ahead], out[end], out=out[end])
            np.add(out[end], values[behind], out=out[end])
        return _scaled(out, h * h)
    # both ghost faces are done before the tail, which overwrites the last one
    np.subtract(values[tail], out[head], out=out[head])
    if values.ndim == 1:
        out[-1] = values[-1] - out[-1]
        out[0] += values[0]
    else:
        np.subtract(values[last], out[last], out=out[last])
        np.add(out[first], values[first], out=out[first])
    np.add(out[tail], values[head], out=out[tail])
    return _scaled(out, h * h)


# ---------------------------------------------------------------------------
# Scratch workspace (see the module docstring for its rule)
#
# A sampled field's inequality checks difference 2 MB (64^3) arrays two
# dozen times.
# Fresh arrays of that size come back from the allocator as fresh pages,
# and faulting those in cost about as much as the arithmetic; reused
# arrays do not.


class _Workspace(threading.local):
    shape = None

    def arrays(self, shape, count):
        if shape != self.shape:
            self.shape = shape
            self.floats = []
        while len(self.floats) < count:
            self.floats.append(np.empty(shape))
        return self.floats[:count]


_WORKSPACE = _Workspace()


def scratch(shape, count):
    """``count`` distinct float arrays of ``shape``, with garbage contents,
    reused by the next call for the same shape (see the workspace rule)."""
    return _WORKSPACE.arrays(shape, count)


# ---------------------------------------------------------------------------
# Calculus operations
#
# A measuring pass takes a run's snapshot rows at most this many cells at a
# time: temporaries past ~64 KB cost more per element than the calls saved.
_BLOCK_CELLS = 8192


def integrate(values, h, rows=False):
    """Midpoint rule on raw cell values: h^n times their sum, n being
    values.ndim; exact on constants.  With ``rows``, values is an (S, N)
    array of S snapshots of a 1D grid, and the result is the S integrals
    of its rows, each summed as the row alone is.

    This is each integral's one finiteness check (the module's rule, under
    which Sigma(f) in the inequality checks is the only other): it raises
    ConstructionError, as Field does, unless the sum is finite, each row's
    with ``rows``.  A non-finite value or an overflow makes it so; numpy's
    warnings for them are silenced, as the error reports them.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if rows:
            sums = np.ascontiguousarray(values).sum(axis=1) * h
        else:
            sums = float(values.sum()) * h**values.ndim
    if not (np.isfinite(sums).all() if rows else math.isfinite(sums)):
        raise ConstructionError("field values must be finite")
    return sums


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def by_row_blocks(fn, *arrays):
    """``fn(*arrays)``, a record of per-row arrays (or None), made on blocks
    of at most ``_BLOCK_CELLS`` cells of rows of the arrays, the first of
    them (S, N), and joined: no temporary outgrows a block.  Numpy's
    overflow, invalid and divide warnings are off, so a measuring pass that
    overflows ends in ``integrate``'s finiteness check, never in a warning."""
    step = max(1, _BLOCK_CELLS // arrays[0].shape[1])
    parts = [fn(*(a[i:i + step] for a in arrays))
             for i in range(0, len(arrays[0]), step)]
    joined = {k: None if v is None else np.concatenate([vars(p)[k] for p in parts])
              for k, v in vars(parts[0]).items()}
    return type(parts[0])(**joined)


def gradient_of_vector(components):
    """Matrix M[i][j] = d_i w_j for a gradient-like vector field w.

    Differentiating w_j along its own axis uses the odd (sign-flipped)
    mirror; along any other axis the tangential component mirrors evenly.
    """
    grid = components[0].grid
    return [[Field(grid, central_diff(w.values, i, grid.h, odd=(i == j)))
             for j, w in enumerate(components)] for i in range(grid.dim)]


def neumann_hessian(f):
    """Matrix of second derivatives with mirror ghosts.

    On-axis entries use the second central difference.  The mixed entry
    (i, j), i < j, is D_i(D_j f), two first differences, each with its own
    mirror, and the matrix holds that same Field at (j, i), so it is
    exactly symmetric.
    """
    grid, h, n = f.grid, f.grid.h, f.grid.dim
    firsts = [central_diff(f.values, ax, h) for ax in range(1, n)]
    hess = [[Field(grid, second_diff(f.values, i, h)) if i == j else None
             for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            hess[i][j] = hess[j][i] = Field(grid, central_diff(firsts[j - 1], i, h))
    return hess


# ---------------------------------------------------------------------------
# Cosine test functions (exactly Neumann-compatible under the mirror)


@dataclass(frozen=True)
class TestFunctionSpec:
    """Positive cosine polynomial: c0 + sum over axes/modes of a_k cos(k pi x).

    The margin invariant c0 - sum |a_k| >= 0.05 guarantees uniform
    positivity without evaluating the field.
    """

    offset: float
    cosine_coeffs: tuple  # one tuple of mode coefficients per axis

    MARGIN = 0.05
    __test__ = False  # not a pytest item despite the name

    def __post_init__(self):
        coeffs = tuple(tuple(float(a) for a in axis) for axis in self.cosine_coeffs)
        object.__setattr__(self, "cosine_coeffs", coeffs)
        total = sum(abs(a) for axis in coeffs for a in axis)
        if self.offset - total < self.MARGIN:
            raise ConstructionError(
                "positivity margin violated: c0 - sum|a_k| = %g < %g"
                % (self.offset - total, self.MARGIN)
            )


def build_test_function(grid, spec):
    """Sample the spec's cosine polynomial on the grid.

    Cosines of integer multiples of pi are even across both faces of the
    unit interval, so the discrete normal derivative vanishes exactly
    under the mirror convention.
    """
    if len(spec.cosine_coeffs) != grid.dim:
        raise ConstructionError(
            "spec has %d axes, grid has %d" % (len(spec.cosine_coeffs), grid.dim)
        )
    vals = grid.full(spec.offset)
    x = grid.axis_centers()
    for ax, coeffs in enumerate(spec.cosine_coeffs):
        axis_vals = np.zeros(grid.cells)
        for k, a_k in enumerate(coeffs, start=1):
            axis_vals += a_k * np.cos(k * np.pi * x)
        shape = [1] * grid.dim
        shape[ax] = grid.cells
        vals += axis_vals.reshape(shape)
    return Field(grid, vals)


def require_positive_field(f):
    """Raise DomainError unless f > 0 everywhere; returns min f."""
    lo = f.min()
    if lo <= 0.0:
        raise DomainError("field must be positive (min %g)" % lo)
    return lo
