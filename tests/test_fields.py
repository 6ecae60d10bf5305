import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from entroflow.errors import ConstructionError, DomainError
from entroflow.fields import (
    MIN_CELLS,
    Field,
    Grid,
    TestFunctionSpec,
    build_test_function,
    central_diff,
    gradient_of_vector,
    integrate,
    neumann_hessian,
    require_positive_field,
    second_diff,
)


def test_grid_validation():
    with pytest.raises(ConstructionError):
        Grid(dim=4, cells=16)
    with pytest.raises(ConstructionError):
        Grid(dim=1, cells=4)
    g = Grid(dim=2, cells=16)
    assert g.h == pytest.approx(1.0 / 16)
    assert g.shape == (16, 16)


def test_field_validation():
    g = Grid(1, 8)
    with pytest.raises(ConstructionError):
        Field(g, np.zeros(9))
    with pytest.raises(ConstructionError):
        Field(g, np.full(8, np.nan))


def test_integrate_constant_exact():
    for dim in (1, 2, 3):
        g = Grid(dim, 8)
        assert integrate(np.full(g.shape, 3.5), g.h) == pytest.approx(3.5, abs=1e-14)


def test_integrate_refuses_nonfinite_values():
    # the one finiteness check of an integral is on its sum, taken without
    # a warning: a non-finite entry, infinities of both signs (whose sum is
    # NaN), or finite entries whose sum overflows
    bad_arrays = []
    for bad in (np.nan, np.inf, -np.inf):
        for dim in (1, 2):
            vals = np.ones((8,) * dim)
            vals.flat[3] = bad
            bad_arrays.append(vals)
    both = np.ones(8)
    both[[2, 5]] = np.inf, -np.inf
    bad_arrays += [both, np.full(8, 1e308), np.full((8, 8), 1e308)]
    for vals in bad_arrays:
        with pytest.raises(ConstructionError, match="must be finite"):
            integrate(vals, 1.0 / 8)
    # with rows, each bad 1D array as one row among good ones
    for row in (vals for vals in bad_arrays if vals.ndim == 1):
        snapshots = np.ones((4, 8))
        snapshots[2] = row
        with pytest.raises(ConstructionError, match="must be finite"):
            integrate(snapshots, 1.0 / 8, rows=True)


def test_integrate_quadratic():
    g = Grid(1, 64)
    x = g.axis_centers()
    f = Field(g, x * x)
    assert abs(integrate(f.values, g.h) - 1.0 / 3.0) < g.h**2 / 10.0


def test_gradient_second_order_convergence():
    errs = []
    for cells in (32, 64):
        g = Grid(1, cells)
        f = Field(g, np.cos(np.pi * g.axis_centers()))
        exact = -np.pi * np.sin(np.pi * g.axis_centers())
        errs.append(np.max(np.abs(central_diff(f.values, 0, g.h) - exact)))
    assert errs[0] / errs[1] >= 3.5


def test_hessian_second_order_convergence():
    errs = []
    for cells in (32, 64):
        g = Grid(2, cells)
        x, y = np.meshgrid(g.axis_centers(), g.axis_centers(), indexing="ij")
        f = Field(g, np.cos(np.pi * x) + np.cos(2.0 * np.pi * y) * np.cos(np.pi * x))
        H = neumann_hessian(f)
        exact_xy = -np.pi * np.sin(np.pi * x) * (-2.0 * np.pi * np.sin(2.0 * np.pi * y))
        exact_xx = -np.pi**2 * np.cos(np.pi * x) * (1.0 + np.cos(2.0 * np.pi * y))
        err = max(
            np.max(np.abs(H[0][1].values - exact_xy)),
            np.max(np.abs(H[0][0].values - exact_xx)),
        )
        errs.append(err)
    assert errs[0] / errs[1] >= 3.5


def test_hessian_symmetric():
    g = Grid(2, 16)
    x, y = np.meshgrid(g.axis_centers(), g.axis_centers(), indexing="ij")
    f = Field(g, np.cos(np.pi * x) * np.cos(3.0 * np.pi * y))
    H = neumann_hessian(f)
    scale = np.max(np.abs(H[0][1].values))
    assert np.allclose(H[0][1].values, H[1][0].values, atol=1e-12 * scale, rtol=0.0)


def test_summation_by_parts_exact_1d(rng):
    # even-mirror derivative paired with odd-mirror derivative telescopes
    # to zero exactly; this is the discrete integration-by-parts identity
    g = Grid(1, 32)
    f = rng.uniform(0.5, 2.0, g.shape)
    w = rng.uniform(-1.0, 1.0, g.shape)
    lhs = np.sum(f * central_diff(w, 0, g.h, odd=True))
    rhs = np.sum(central_diff(f, 0, g.h) * w)
    assert abs(lhs + rhs) <= 1e-11 * max(1.0, abs(lhs))


def test_summation_by_parts_exact_2d(rng):
    g = Grid(2, 16)
    f = rng.uniform(0.5, 2.0, g.shape)
    for axis in (0, 1):
        w = rng.uniform(-1.0, 1.0, g.shape)
        lhs = np.sum(f * central_diff(w, axis, g.h, odd=True))
        rhs = np.sum(central_diff(f, axis, g.h) * w)
        assert abs(lhs + rhs) <= 1e-11 * max(1.0, abs(lhs))


def test_second_diff_constant_zero():
    g = Grid(1, 16)
    vals = np.full(16, 2.7)
    assert np.all(second_diff(vals, 0, g.h) == 0.0)


def test_gradient_of_vector_shapes():
    g = Grid(3, 8)
    f = Field(g, np.full(g.shape, 1.0))
    grad = [Field(g, central_diff(f.values, ax, g.h)) for ax in range(g.dim)]
    M = gradient_of_vector(grad)
    assert len(M) == 3 and len(M[0]) == 3
    assert all(np.all(entry.values == 0.0) for row in M for entry in row)
    assert all(np.all(g.values == 0.0) for g in grad)


def _padded(values, axis, sign):
    lo = sign * np.take(values, [0], axis=axis)
    hi = sign * np.take(values, [-1], axis=axis)
    p = np.concatenate([lo, values, hi], axis=axis)
    return np.take(p, range(2, p.shape[axis]), axis), np.take(
        p, range(p.shape[axis] - 2), axis
    )


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _layouts(values):
    """values as a C-contiguous array, a transposed view and a strided slice."""
    spread = np.full(tuple(2 * c for c in values.shape), np.nan)
    spread[(slice(None, None, 2),) * values.ndim] = values
    return (values.copy(), np.ascontiguousarray(values.T).T,
            spread[(slice(None, None, 2),) * values.ndim])


def _outs(shape):
    """Fresh NaN-filled out arrays: C-contiguous, transposed and a slice."""
    wide = np.full(shape[:-1] + (shape[-1] + 3,), np.nan)
    return np.full(shape, np.nan), np.full(shape[::-1], np.nan).T, wide[..., 1:-2]


@pytest.mark.parametrize("cells", [MIN_CELLS, 11])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_stencils_match_padded_ghost_reference(rng, dim, cells):
    # The stencils write the ghost faces in place; the reference
    # differences a ghost-padded copy.  Bit patterns must agree, signed
    # zeros included, with and without a caller-given output buffer, for
    # contiguous and non-contiguous inputs and outputs alike: along the
    # last axis, central_diff takes contiguous arrays as one flat run.
    h = 1.0 / cells
    vals = rng.standard_normal((cells,) * dim) * 10.0 ** rng.integers(
        -6, 6, (cells,) * dim
    )
    vals.flat[::5] = 0.0
    vals.flat[1::7] = -0.0
    for layout in _layouts(vals):
        for axis in range(dim):
            for odd in (False, True):
                upper, lower = _padded(vals, axis, -1.0 if odd else 1.0)
                ref = (upper - lower) / (2.0 * h)
                assert _same_bits(central_diff(layout, axis, h, odd=odd), ref)
                for out in _outs(vals.shape):
                    assert central_diff(layout, axis, h, odd=odd, out=out) is out
                    assert _same_bits(out, ref)
            upper, lower = _padded(vals, axis, 1.0)
            ref = (upper - 2.0 * vals + lower) / (h * h)
            assert _same_bits(second_diff(layout, axis, h), ref)
            for out in _outs(vals.shape):
                assert second_diff(layout, axis, h, out=out) is out
                assert _same_bits(out, ref)


def test_spec_margin_enforced():
    with pytest.raises(ConstructionError):
        TestFunctionSpec(offset=1.0, cosine_coeffs=((0.5, 0.5),))
    spec = TestFunctionSpec(offset=1.0, cosine_coeffs=((0.5, 0.4),))
    assert spec.offset == 1.0


def test_spec_dim_mismatch():
    g = Grid(2, 16)
    with pytest.raises(ConstructionError):
        build_test_function(g, TestFunctionSpec(2.0, ((0.5,),)))


@given(
    st.floats(0.5, 5.0),
    st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4),
)
def test_built_function_positive_and_mass_correct(c0, raw):
    total = sum(abs(a) for a in raw)
    if c0 - total < TestFunctionSpec.MARGIN:
        scale = (c0 - TestFunctionSpec.MARGIN) / max(total, 1e-9) * 0.99
        raw = [a * scale for a in raw]
    spec = TestFunctionSpec(offset=c0, cosine_coeffs=(tuple(raw),))
    g = Grid(1, 32)
    f = build_test_function(g, spec)
    assert f.min() > 0.0
    # cosine modes integrate to zero on symmetric cell centers
    assert integrate(f.values, g.h) == pytest.approx(c0, abs=1e-12 * max(1.0, c0))


def test_require_positive_field():
    g = Grid(1, 8)
    with pytest.raises(DomainError):
        require_positive_field(Field(g, np.full(g.shape, 0.0)))
    require_positive_field(Field(g, np.full(g.shape, 0.1)))
