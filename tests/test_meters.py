import numpy as np
import pytest

from entroflow import fields, keller_segel, p_laplace
from entroflow.coeff_models import KSModel, Linear, PowerLaw, ShiftedPowerLaw
from entroflow.diffusion import FlowConfig, Trajectory, initial_cosine, run
from entroflow.errors import ConstructionError, UsageError
from entroflow.fields import Field, Grid, central_diff, integrate
from entroflow.meters import (
    MeterRecord,
    identity_residuals,
    measure,
    measure_trajectory,
    monotone_tolerance,
    monotonicity_report,
)


def _one(u, model):
    """The meters of the one snapshot ``u``, each as a float."""
    m = measure(u.values[None], model, u.grid.h)
    return MeterRecord(*(float(a[0]) for a in vars(m).values()))


def test_overflowing_integrand_is_a_construction_error():
    # one cell at 1e200 overflows an integrand of every measuring pass;
    # fields.integrate refuses it as Field refuses non-finite values
    g = Grid(1, 16)
    u = np.ones((2, 16))
    u[1, 5] = 1e200
    passes = [
        lambda: measure(u, Linear(), g.h),
        lambda: p_laplace.measure_trajectory(Trajectory([0.0, 1.0], 0.0, u),
                                             p_laplace.PLaplaceModel(3.0)),
        lambda: keller_segel.measure_monitors(
            Trajectory([0.0, 1.0], 0.0, u, np.ones_like(u), np.zeros(2)),
            KSModel(2.0, 1.0)),
    ]
    for measuring in passes:
        with np.errstate(all="ignore"), pytest.raises(
                ConstructionError, match="must be finite"):
            measuring()


def test_constant_field_meters():
    g = Grid(1, 32)
    u = Field(g, np.full(g.shape, 2.0))
    m = _one(u, PowerLaw(2.0))
    # H(2) = (4-1) - 2(2-1) = 1 for the m=2 power law
    assert m.entropy == pytest.approx(1.0, abs=1e-13)
    assert m.fisher_sigma == 0.0
    assert m.fisher_st == 0.0
    assert m.dissipation == 0.0


def test_two_fisher_routes_agree_at_second_order():
    # int |d_x Sigma(u)|^2 and int u |d_x Lambda(u)|^2 discretize the same
    # continuum functional with different stencil compositions; they agree
    # up to O(h^2) and the gap shrinks at second order
    gaps = []
    for cells in (32, 64):
        g = Grid(1, cells)
        u = Field(g, 1.0 + 0.5 * np.cos(np.pi * g.axis_centers()))
        m = _one(u, PowerLaw(2.0))
        gaps.append(abs(m.fisher_sigma - m.fisher_st))
    assert gaps[0] / gaps[1] >= 3.5


def test_fisher_matches_analytic_linear():
    # for a = 1, int |d_x Sigma|^2 = int u'^2 / u; compare against the
    # closed integral of u = 1 + 0.5 cos(pi x) (computed by quadrature
    # offline and frozen): 1.3222762644432742
    g = Grid(1, 256)
    u = Field(g, 1.0 + 0.5 * np.cos(np.pi * g.axis_centers()))
    m = _one(u, Linear())
    assert m.fisher_sigma == pytest.approx(1.3222762644432742, abs=5e-4)
    assert m.fisher_st == pytest.approx(1.3222762644432742, abs=5e-4)


def test_identity_residuals_small_and_balanced():
    g = Grid(1, 64)
    model = Linear()
    traj = run(initial_cosine(g), FlowConfig(model, g, 0.01, record_every=20))
    res = identity_residuals(traj)
    assert len(res.r_entropy) == len(traj.times) - 1
    assert np.max(np.abs(res.r_entropy)) < 1e-2
    assert np.max(np.abs(res.r_fisher)) < 1e-1


def test_identity_residuals_preconditions():
    g = Grid(1, 32)
    model = Linear()
    u0 = initial_cosine(g)
    # only first and last snapshot recorded
    traj = Trajectory([0.0, 0.001], 0.001, np.stack((u0, u0)))
    measure_trajectory(traj, model)
    with pytest.raises(UsageError):
        identity_residuals(traj)


def test_monotonicity_report():
    rep = monotonicity_report([3.0, 2.0, 1.5, 1.4], h=0.01, dt=1e-5)
    assert rep.passed and rep.worst_violation <= 0.0
    rep_bad = monotonicity_report([1.0, 2.0], h=0.01, dt=1e-5)
    assert not rep_bad.passed
    # violations below the h^2 + dt budget are tolerated
    scale = monotone_tolerance(0.1, 1e-3)
    rep_ok = monotonicity_report([1.0, 1.0 + 0.5 * scale], h=0.1, dt=1e-3)
    assert rep_ok.passed
    # a bias widens the budget: the rise a bias-free report refuses passes
    rise = [1.0, 1.0 + 1.5 * scale]
    assert not monotonicity_report(rise, h=0.1, dt=1e-3).passed
    rep_bias = monotonicity_report(rise, h=0.1, dt=1e-3, bias=0.01)
    assert rep_bias.passed
    assert rep_bias.tolerance_scale == monotone_tolerance(0.1, 1e-3, 0.01)



def _meters_alone(u, model, h):
    """The four functionals of the one snapshot ``u``, by the formula
    applied to that snapshot alone."""
    a = np.asarray(model.a(u), dtype=float)
    lam, H, sig = (np.asarray(v, dtype=float) for v in model.lam_entropy_sigma(u))
    dsig = central_diff(sig, 0, h)
    dinner = central_diff(dsig / np.sqrt(u), 0, h, odd=True)
    return (integrate(H, h), integrate(dsig**2, h),
            integrate(u * central_diff(lam, 0, h) ** 2, h),
            integrate(u * a * dinner**2, h))


@pytest.mark.parametrize("rows_per_block", [2, None])
@pytest.mark.parametrize("model", [PowerLaw(2.0), ShiftedPowerLaw(2.0)])
def test_one_pass_equals_each_snapshot_alone(model, rows_per_block, monkeypatch):
    # 48 cells: the quadrature-backed model's state blocks straddle rows
    if rows_per_block:
        monkeypatch.setattr(fields, "_BLOCK_CELLS", rows_per_block * 48)
    g = Grid(1, 48)
    traj = run(initial_cosine(g), FlowConfig(model, g, 0.002, record_every=5))
    m = traj.meters
    assert len(traj.times) >= 5
    for k, row in enumerate(traj.u):
        got = (m.entropy[k], m.fisher_sigma[k], m.fisher_st[k], m.dissipation[k])
        assert got == _meters_alone(row, model, g.h)
