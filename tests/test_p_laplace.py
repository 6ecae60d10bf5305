import math

import numpy as np
import pytest

from entroflow import fields, p_laplace
from entroflow.coeff_models import Linear
from entroflow.diffusion import (FlowConfig, Trajectory, initial_cosine,
                                 run as run_heat)
from entroflow.errors import ConfigError, PositivityLossError, UsageError
from entroflow.fields import Grid, central_diff, integrate, second_diff
from entroflow.p_laplace import (
    PLaplaceModel,
    monotonicity_report,
    p_star,
    pl_stable_dt,
    pl_step,
    rate_residuals,
    run,
)


def test_config_validation():
    for p, delta, message in ((1.5, 1e-6, "p = 3/2"), (0.5, 1e-6, "p must be > 1"),
                              (1.0, 1e-6, "p must be > 1"),  # p* = 1 - 1/0
                              (2.0, -1.0, "delta"), (3.0, 0.0, "delta")):
        with pytest.raises(ConfigError, match=message):
            PLaplaceModel(p, delta)
    model = PLaplaceModel(2.0)
    assert model.delta == p_laplace.DEFAULT_DELTA and p_star(model.p) == 0.5


@pytest.mark.parametrize("u0_grid", [Grid(1, 16), Grid(2, 16)])
def test_run_refuses_an_initial_state_off_the_configs_grid(u0_grid):
    # neither run on the initial state's own grid nor a numpy error
    u0 = np.full(u0_grid.shape, 1.0)
    with pytest.raises(ConfigError, match="not on the config's grid"):
        run(u0, FlowConfig(PLaplaceModel(2.5), Grid(1, 128), t_end=0.01))


def test_p_star_values():
    assert p_star(2.0) == 0.5
    assert p_star(3.0) == pytest.approx(0.75)
    with pytest.raises(UsageError):
        p_star(1.5)


def test_constant_state():
    g = Grid(1, 32)
    u = np.full(g.shape, 2.0)
    cfg = FlowConfig(PLaplaceModel(3.0), g, t_end=0.01)
    out = pl_step(u, cfg.model, g.h, 1e-6)
    assert np.array_equal(out, u)
    traj = run(u, cfg)
    assert np.all(traj.meters.I == 0.0)
    rep = monotonicity_report(traj, cfg.model)
    assert rep.passed and rep.worst_violation == 0.0


def test_p2_reduces_to_heat_scheme():
    # exponent (p-2)/2 = 0 regardless of delta: flux identical to a=1
    g = Grid(1, 64)
    u0 = initial_cosine(g)
    cfg = FlowConfig(PLaplaceModel(2.0, delta=0.3), g, t_end=0.01, record_every=50)
    traj_pl = run(u0, cfg)
    traj_heat = run_heat(u0, FlowConfig(Linear(), g, 0.01, record_every=50))
    assert traj_pl.dt == traj_heat.dt
    assert np.array_equal(traj_pl.u, traj_heat.u)


def test_p2_quarter_fisher_path():
    g = Grid(1, 128)
    u0 = initial_cosine(g)
    traj = run(u0, FlowConfig(PLaplaceModel(2.0), g, t_end=0.05, record_every=100))
    htraj = run_heat(u0, FlowConfig(Linear(), g, 0.05, record_every=100))
    assert np.all(np.abs(traj.meters.I - 0.25 * htraj.meters.fisher_sigma) <= 1e-10)


def test_mass_conserved_exactly():
    g = Grid(1, 64)
    traj = run(initial_cosine(g),
               FlowConfig(PLaplaceModel(3.0), g, t_end=0.01, record_every=50))
    m0 = float(np.sum(traj.u[0]))
    for row in traj.u:
        assert float(np.sum(row)) == pytest.approx(m0, abs=1e-12 * m0)


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0])
def test_monotone_for_p_geq_2(p):
    g = Grid(1, 128)
    cfg = FlowConfig(PLaplaceModel(p), g, t_end=0.02, record_every=100)
    traj = run(initial_cosine(g), cfg)
    rep = monotonicity_report(traj, cfg.model)
    assert rep.passed is True


def test_observation_only_below_2():
    g = Grid(1, 32)
    cfg = FlowConfig(PLaplaceModel(1.2), g, t_end=1e-4, record_every=5)
    traj = run(initial_cosine(g), cfg)
    rep = monotonicity_report(traj, cfg.model)
    assert rep.passed is None  # no verdict outside the proven range
    assert np.all(traj.meters.I >= 0.0)


def test_no_rate_source_below_three_halves():
    # p* < 0 for p < 3/2: the record holds I alone, never a complex rate
    g = Grid(1, 32)
    cfg = FlowConfig(PLaplaceModel(1.2), g, t_end=1e-4, record_every=1)
    traj = run(initial_cosine(g), cfg)
    assert len(traj.meters.I) == len(traj.times) >= 3
    assert np.isrealobj(traj.meters.I) and np.all(traj.meters.I > 0.0)
    assert traj.meters.rate_source is None
    with pytest.raises(UsageError):
        rate_residuals(traj)


def test_delta_robustness():
    g = Grid(1, 64)
    finals = []
    for delta in (1e-4, 5e-5):
        cfg = FlowConfig(PLaplaceModel(2.5, delta=delta), g, t_end=0.01,
                         record_every=100)
        traj = run(initial_cosine(g), cfg)
        finals.append(traj.meters.I[-1])
    assert abs(finals[0] - finals[1]) < 10.0 * 1e-4 ** min(1.5, 1.0)


def test_rate_residual_convergence():
    def resmax(cells):
        g = Grid(1, cells)
        cfg = FlowConfig(PLaplaceModel(3.0), g, t_end=0.01,
                         record_every=max(1, cells * cells // 800))
        traj = run(initial_cosine(g), cfg)
        return max(abs(r) for r in rate_residuals(traj))

    a, b = resmax(64), resmax(128)
    assert a / b >= 3.0


@pytest.mark.parametrize("p", [2.5, 3.0])
def test_report_and_residuals_read_the_meters(p, assert_same_record):
    # the run returns its trajectory measured: its meters equal a fresh
    # measuring pass of its states bit for bit, and so do both reports
    g = Grid(1, 32)
    cfg = FlowConfig(PLaplaceModel(p), g, t_end=0.002, record_every=10)
    traj = run(initial_cosine(g), cfg)
    assert len(traj.meters.I) == len(traj.times) >= 3
    fresh = Trajectory(traj.times, traj.dt, traj.u.copy())
    assert_same_record(p_laplace.measure_trajectory(fresh, cfg.model), traj.meters)
    assert np.array_equal(rate_residuals(traj), rate_residuals(fresh))
    assert monotonicity_report(traj, cfg.model) == monotonicity_report(fresh, cfg.model)


def test_self_convergence_p3():
    t_end = 0.005
    sols = {}
    for cells in (32, 64, 256):
        g = Grid(1, cells)
        traj = run(initial_cosine(g),
                   FlowConfig(PLaplaceModel(3.0), g, t_end=t_end, record_every=10))
        sols[cells] = traj.u[-1]
    ref = sols[256]
    err32 = np.abs(sols[32] - ref.reshape(-1, 8).mean(axis=1))
    err64 = np.abs(sols[64] - ref.reshape(-1, 4).mean(axis=1))
    # the largest error is the wall cell's: where u_x = 0 the flux |u_x| u_x
    # makes u - u(0) ~ x^(3/2), which caps its order at 3/2, reached from
    # below (1.47 here, 1.40 against 512 cells)
    assert math.log2(err32.max() / err64.max()) >= 1.45
    # away from the walls the scheme is second order (2.07 in the mean)
    assert math.log2(err32.mean() / err64.mean()) >= 1.8


def test_I_against_fine_grid():
    vals = {}
    for cells in (128, 1280):
        g = Grid(1, cells)
        x = g.axis_centers()
        one = Trajectory([0.0], 0.0, (2.0 + np.cos(2.0 * np.pi * x))[None])
        vals[cells] = p_laplace.measure_trajectory(one, PLaplaceModel(3.0)).I[0]
    assert abs(vals[128] - vals[1280]) / vals[1280] < 2e-3


def test_positivity_guard():
    g = Grid(1, 32)
    with pytest.raises(PositivityLossError):
        run(np.full(g.shape, 1e-9),
            FlowConfig(PLaplaceModel(2.0), g, t_end=0.001))
    nan_state = initial_cosine(g)
    nan_state[5] = np.nan
    with pytest.raises(PositivityLossError):
        pl_step(nan_state, PLaplaceModel(3.0), g.h, 1e-6)


def test_tolerance_budgets_delta():
    g = Grid(1, 32)
    u = initial_cosine(g)
    traj = Trajectory([0.0, 1e-4], 1e-4, np.stack((u, u)))
    for p, bias in ((3.0, 1e-6), (1.8, 1e-6**0.8)):
        model = PLaplaceModel(p)
        p_laplace.measure_trajectory(traj, model)
        rep = monotonicity_report(traj, model)
        assert rep.tolerance_scale == pytest.approx(
            10.0 * (g.h**2 + 1e-4 + bias), rel=1e-12)


def test_stable_dt_uses_face_gradients():
    g = Grid(1, 64)
    u = initial_cosine(g)
    model = PLaplaceModel(3.0)
    du = np.diff(u) / g.h
    coeff = (du**2 + model.delta**2) ** 0.5
    bound = pl_stable_dt(u, model, g.h)
    assert bound == pytest.approx(g.h**2 / (2.0 * coeff.max()))
    # the cell gradients give another bound
    assert bound != pytest.approx(g.h**2 / (2.0 * np.abs(np.gradient(u, g.h)).max()))


# Buffer safety and the oracle of the run's time error, as in
# test_diffusion.


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0])
def test_run_equals_unbuffered_stencil_loop(p, stencil_loop_gaps):
    # up to the stencil loop's time error, which falls 4x per grid doubling
    model = PLaplaceModel(p)

    def make(g):
        u0 = initial_cosine(g)
        traj = run(u0, FlowConfig(model, g, t_end=0.01, record_every=7))
        return traj, (u0,), lambda s, dt: (pl_step(s[0], model, g.h, dt),)

    gaps = stencil_loop_gaps(make, (16, 32, 64))
    assert gaps[0] < 1e-3
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 3.2 < coarse / fine < 4.5


def test_run_buffers_stay_private(spy_buffers):
    g = Grid(1, 16)
    u0 = initial_cosine(g)
    before = u0.copy()
    cfg = FlowConfig(PLaplaceModel(3.0), g, t_end=0.01, record_every=5)
    live = spy_buffers(p_laplace)
    traj = run(u0, cfg)
    assert np.array_equal(u0, before)
    assert len(live) >= 2  # the guard's flux, and the rate's
    assert not np.shares_memory(traj.u, u0)
    assert not any(np.shares_memory(traj.u, b) for b in live.values())


def test_interleaved_runs_match_runs_alone(run_interleaved):
    def runner(cells):
        g = Grid(1, cells)
        cfg = FlowConfig(PLaplaceModel(3.0), g, t_end=0.005, record_every=4)
        return lambda: run(initial_cosine(g), cfg)

    runs = [runner(c) for c in (16, 32, 16)]
    alone = [r() for r in runs]
    for got, want in zip(run_interleaved(p_laplace, "_fluxes", *runs), alone):
        assert got.dt == want.dt
        assert got.integrator == want.integrator
        assert got.u.tobytes() == want.u.tobytes()


def _meter_alone(u, p, delta, h):
    """(I, rate_source) of the one snapshot ``u``, by the formula applied
    to that snapshot alone; the rate source is None for p < 3/2."""
    ps = p_star(p)
    w = u**ps
    dw = central_diff(w, 0, h)
    I = integrate(np.abs(dw) ** p, h)
    if ps < 0.0:
        return I, None
    dw_sq = dw * dw + delta * delta
    dflux = central_diff(dw_sq ** ((p - 2.0) / 2.0) * dw, 0, h, odd=True)
    t1 = -p * ps ** (2.0 - p) * integrate(
        u ** (0.5 - 0.5 / (p - 1.0)) * dflux**2, h)
    t2 = 0.5 * p * p * ps ** (1.0 - p) * integrate(
        u ** (-0.5) * dw_sq ** (p - 2.0) * dw * dw * second_diff(w, 0, h), h)
    t3 = -0.25 * p * ps ** (-p) * integrate(
        dw_sq**p * u ** (-1.5 + 0.5 / (p - 1.0)), h)
    return I, -(t1 + t2 + t3)


@pytest.mark.parametrize("rows_per_block", [2, None])
@pytest.mark.parametrize("p, t_end, every", [(1.2, 1e-4, 1), (2.5, 0.002, 5),
                                             (3.0, 0.002, 5)])
def test_one_pass_equals_each_snapshot_alone(p, t_end, every, rows_per_block,
                                             monkeypatch):
    if rows_per_block:
        monkeypatch.setattr(fields, "_BLOCK_CELLS", rows_per_block * 32)
    g = Grid(1, 32)
    cfg = FlowConfig(PLaplaceModel(p), g, t_end=t_end, record_every=every)
    traj = run(initial_cosine(g), cfg)
    m = traj.meters
    assert len(traj.times) >= 3
    for k, row in enumerate(traj.u):
        I, rate = _meter_alone(row, p, cfg.model.delta, g.h)
        assert m.I[k] == I
        assert (m.rate_source is None) if rate is None else m.rate_source[k] == rate
