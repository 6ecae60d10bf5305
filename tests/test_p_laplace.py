import math

import numpy as np
import pytest

from entroflow import p_laplace
from entroflow.coeff_models import Linear
from entroflow.diffusion import FlowConfig, Trajectory, initial_cosine, run as run_heat
from entroflow.errors import ConfigError, PositivityLossError, UsageError
from entroflow.fields import Field, Grid, constant_field
from entroflow.p_laplace import (
    PLaplaceConfig,
    monotonicity_report,
    p_star,
    pl_stable_dt,
    pl_step,
    rate_residuals,
    run,
)


def test_config_validation():
    g = Grid(1, 32)
    with pytest.raises(ConfigError):
        PLaplaceConfig(p=1.5, grid=g, t_end=0.01)
    with pytest.raises(ConfigError):
        PLaplaceConfig(p=0.5, grid=g, t_end=0.01)
    with pytest.raises(ConfigError):
        PLaplaceConfig(p=1.0, grid=g, t_end=0.01)  # p* = 1 - 1/0
    with pytest.raises(ConfigError):
        PLaplaceConfig(p=2.0, grid=g, t_end=0.01, delta=-1.0)
    with pytest.raises(ConfigError):
        PLaplaceConfig(p=3.0, grid=g, t_end=0.01, delta=0.0)
    cfg = PLaplaceConfig(p=2.0, grid=g, t_end=0.01)
    assert cfg.p_star == 0.5


def test_p_star_values():
    assert p_star(2.0) == 0.5
    assert p_star(3.0) == pytest.approx(0.75)
    with pytest.raises(UsageError):
        p_star(1.5)


def test_constant_state():
    g = Grid(1, 32)
    u = constant_field(g, 2.0)
    cfg = PLaplaceConfig(p=3.0, grid=g, t_end=0.01)
    out = pl_step(u.values, cfg, g.h, 1e-6)
    assert np.array_equal(out, u.values)
    traj = run(u, cfg)
    assert all(m.I == 0.0 for m in traj.meters)
    rep = monotonicity_report(traj, cfg)
    assert rep.passed and rep.worst_violation == 0.0


def test_p2_reduces_to_heat_scheme():
    # exponent (p-2)/2 = 0 regardless of delta: flux identical to a=1
    g = Grid(1, 64)
    u0 = initial_cosine(g)
    cfg = PLaplaceConfig(p=2.0, grid=g, t_end=0.01, delta=0.3, record_every=50)
    traj_pl = run(u0, cfg)
    traj_heat = run_heat(u0, FlowConfig(Linear(), g, 0.01, record_every=50))
    assert traj_pl.dt == traj_heat.dt
    for a, b in zip(traj_pl.states, traj_heat.states):
        assert np.array_equal(a.values, b.values)


def test_p2_quarter_fisher_path():
    g = Grid(1, 128)
    u0 = initial_cosine(g)
    traj = run(u0, PLaplaceConfig(p=2.0, grid=g, t_end=0.05, record_every=100))
    htraj = run_heat(u0, FlowConfig(Linear(), g, 0.05, record_every=100))
    for m, hm in zip(traj.meters, htraj.meters):
        assert abs(m.I - 0.25 * hm.fisher_sigma) <= 1e-10


def test_mass_conserved_exactly():
    g = Grid(1, 64)
    traj = run(initial_cosine(g), PLaplaceConfig(p=3.0, grid=g, t_end=0.01,
                                                 record_every=50))
    m0 = float(np.sum(traj.states[0].values))
    for f in traj.states:
        assert float(np.sum(f.values)) == pytest.approx(m0, abs=1e-12 * m0)


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0])
def test_monotone_for_p_geq_2(p):
    g = Grid(1, 128)
    cfg = PLaplaceConfig(p=p, grid=g, t_end=0.02, record_every=100)
    traj = run(initial_cosine(g), cfg)
    rep = monotonicity_report(traj, cfg)
    assert rep.passed is True


def test_observation_only_below_2():
    g = Grid(1, 32)
    cfg = PLaplaceConfig(p=1.2, grid=g, t_end=1e-4, record_every=5)
    traj = run(initial_cosine(g), cfg)
    rep = monotonicity_report(traj, cfg)
    assert rep.passed is None  # no verdict outside the proven range
    assert all(m.I >= 0.0 for m in traj.meters)


def test_no_rate_source_below_three_halves():
    # p* < 0 for p < 3/2: the record holds I alone, never a complex rate
    g = Grid(1, 32)
    cfg = PLaplaceConfig(p=1.2, grid=g, t_end=1e-4, record_every=1)
    traj = run(initial_cosine(g), cfg)
    assert len(traj.meters) == len(traj.times) >= 3
    for m in traj.meters:
        assert isinstance(m.I, float) and m.I > 0.0
        assert m.rate_source is None
    with pytest.raises(UsageError):
        rate_residuals(traj)


def test_delta_robustness():
    g = Grid(1, 64)
    finals = []
    for delta in (1e-4, 5e-5):
        cfg = PLaplaceConfig(p=2.5, grid=g, t_end=0.01, delta=delta,
                             record_every=100)
        traj = run(initial_cosine(g), cfg)
        finals.append(traj.meters[-1].I)
    assert abs(finals[0] - finals[1]) < 10.0 * 1e-4 ** min(1.5, 1.0)


def test_rate_residual_convergence():
    def resmax(cells):
        g = Grid(1, cells)
        cfg = PLaplaceConfig(p=3.0, grid=g, t_end=0.01,
                             record_every=max(1, cells * cells // 800))
        traj = run(initial_cosine(g), cfg)
        return max(abs(r) for r in rate_residuals(traj))

    a, b = resmax(64), resmax(128)
    assert a / b >= 3.0


@pytest.mark.parametrize("p", [2.5, 3.0])
def test_report_and_residuals_read_the_meters(p):
    # the run returns its trajectory measured: its meters equal a fresh
    # measuring pass of its states bit for bit, and so do both reports
    g = Grid(1, 32)
    cfg = PLaplaceConfig(p=p, grid=g, t_end=0.002, record_every=10)
    traj = run(initial_cosine(g), cfg)
    assert len(traj.meters) == len(traj.times) >= 3
    fresh = Trajectory(traj.times, traj.states, traj.dt)
    assert p_laplace.measure_trajectory(fresh, p, cfg.delta) == traj.meters
    assert rate_residuals(traj) == rate_residuals(fresh)
    assert monotonicity_report(traj, cfg) == monotonicity_report(fresh, cfg)


def test_self_convergence_p3():
    t_end = 0.005
    sols = {}
    for cells in (32, 64, 256):
        g = Grid(1, cells)
        traj = run(initial_cosine(g),
                   PLaplaceConfig(p=3.0, grid=g, t_end=t_end, record_every=10))
        sols[cells] = traj.states[-1].values
    ref = sols[256]
    e32 = np.max(np.abs(sols[32] - ref.reshape(-1, 8).mean(axis=1)))
    e64 = np.max(np.abs(sols[64] - ref.reshape(-1, 4).mean(axis=1)))
    assert math.log2(e32 / e64) >= 1.5


def test_I_against_fine_grid():
    vals = {}
    for cells in (128, 1280):
        g = Grid(1, cells)
        x = g.axis_centers()
        u = Field(g, 2.0 + np.cos(2.0 * np.pi * x))
        one = Trajectory([0.0], [u], 0.0)
        vals[cells] = p_laplace.measure_trajectory(one, 3.0)[0].I
    assert abs(vals[128] - vals[1280]) / vals[1280] < 2e-3


def test_positivity_guard():
    g = Grid(1, 32)
    with pytest.raises(PositivityLossError):
        run(constant_field(g, 1e-9), PLaplaceConfig(p=2.0, grid=g, t_end=0.001))
    nan_state = initial_cosine(g).values
    nan_state[5] = np.nan
    with pytest.raises(PositivityLossError):
        pl_step(nan_state, PLaplaceConfig(p=3.0, grid=g, t_end=0.001), g.h, 1e-6)


def test_tolerance_budgets_delta():
    g = Grid(1, 32)
    u = initial_cosine(g)
    traj = Trajectory([0.0, 1e-4], [u, u], 1e-4)
    for p, bias in ((3.0, 1e-6), (1.8, 1e-6**0.8)):
        p_laplace.measure_trajectory(traj, p)
        rep = monotonicity_report(traj, PLaplaceConfig(p=p, grid=g, t_end=1e-4))
        assert rep.tolerance_scale == pytest.approx(
            10.0 * (g.h**2 + 1e-4 + bias), rel=1e-12)


def test_stable_dt_uses_face_gradients():
    g = Grid(1, 64)
    u = initial_cosine(g)
    cfg = PLaplaceConfig(p=3.0, grid=g, t_end=0.01)
    dt = pl_stable_dt(u.values, cfg, g.h)
    du = np.diff(u.values) / g.h
    coeff = (du**2 + cfg.delta**2) ** 0.5
    assert dt == pytest.approx(cfg.safety * g.h**2 / (2.0 * coeff.max()))


# Buffer safety: a run steps in its own buffers (see the run contract in
# entroflow.diffusion); these pin it against a loop over the public
# stencil and guard called without buffers.


def _unbuffered_run(u0, cfg):
    """(dt, recorded arrays) of the loop ``run`` makes, without buffers."""
    h, block = u0.grid.h, cfg.record_every
    u = u0.values
    dt0 = pl_stable_dt(u, cfg, h)
    n_steps = max(block, block * math.ceil(cfg.t_end / (dt0 * block)))
    dt = cfg.t_end / n_steps
    snaps = [u.copy()]
    for k in range(1, n_steps + 1):
        assert dt <= pl_stable_dt(u, cfg, h, 1.0)
        u = pl_step(u, cfg, h, dt)
        if k % block == 0:
            snaps.append(u)
    return dt, snaps


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0])
def test_run_equals_unbuffered_stencil_loop(p):
    g = Grid(1, 32)
    u0 = initial_cosine(g)
    cfg = PLaplaceConfig(p=p, grid=g, t_end=0.005, record_every=7)
    traj = run(u0, cfg)
    dt, snaps = _unbuffered_run(u0, cfg)
    assert traj.dt == dt
    assert len(traj.states) == len(snaps)
    for f, ref in zip(traj.states, snaps):
        assert np.array_equal(f.values, ref)


def test_run_buffers_stay_private(spy_buffers):
    g = Grid(1, 16)
    u0 = initial_cosine(g)
    before = u0.values.copy()
    cfg = PLaplaceConfig(p=3.0, grid=g, t_end=0.01, record_every=5)
    live = spy_buffers(p_laplace, "pl_step")
    traj = run(u0, cfg)
    assert np.array_equal(u0.values, before)
    snaps = [f.values for f in traj.states]
    assert len(live) >= 4  # two face arrays and both state slots
    for i, a in enumerate(snaps):
        assert not np.shares_memory(a, u0.values)
        assert not any(np.shares_memory(a, b) for b in snaps[i + 1:])
        assert not any(np.shares_memory(a, b) for b in live.values())


def test_interleaved_runs_match_runs_alone(run_interleaved):
    def runner(cells):
        g = Grid(1, cells)
        cfg = PLaplaceConfig(p=3.0, grid=g, t_end=0.005, record_every=4)
        return lambda: run(initial_cosine(g), cfg)

    runs = [runner(c) for c in (16, 32, 16)]
    alone = [r() for r in runs]
    for got, want in zip(run_interleaved(p_laplace, "pl_step", *runs), alone):
        assert got.dt == want.dt
        assert [f.values.tobytes() for f in got.states] == [
            f.values.tobytes() for f in want.states
        ]
