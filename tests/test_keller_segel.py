import math
from types import SimpleNamespace

import numpy as np
import pytest

from entroflow import fields, keller_segel
from entroflow.coeff_models import KSModel
from entroflow.diffusion import FlowConfig, Trajectory
from entroflow.errors import ConfigError, PositivityLossError, StabilityError, UsageError
from entroflow.fields import Grid, central_diff, integrate, second_diff
from entroflow.keller_segel import (
    classical_lyapunov,
    cosine_initial_state,
    entro_prod_residual,
    ks_stable_dt,
    ks_step,
    lp_inequality_residuals,
    lyapunov_identity_residual,
    measure_monitors,
    require_strict_hypotheses,
    run_ks,
    s1_functional_identity,
    v_time_derivative,
)

P21 = KSModel(2.0, 1.0)
P10 = KSModel(1.0, 0.0)


def _cosine_run(model, grid, t_end, mass, **settings):
    """run_ks from the cosine datum of ``mass`` on ``grid``."""
    return run_ks(*cosine_initial_state(grid, mass),
                  FlowConfig(model, grid, t_end, **settings))


def _uniform_state(grid, u_val, v_val):
    return np.full(grid.shape, u_val), np.full(grid.shape, v_val)


def _one_snapshot(state):
    u, v = state
    return Trajectory([0.0], 0.0, u[None], v[None], np.zeros(1))


def _monitor(state, model):
    """The record ``measure_monitors`` makes of a one-snapshot trajectory,
    each field's one entry as a float."""
    m = measure_monitors(_one_snapshot(state), model)
    return SimpleNamespace(**{k: None if a is None else float(a[0])
                              for k, a in vars(m).items()})


def test_strict_hypotheses():
    require_strict_hypotheses(KSModel(2.0, 1.0))
    with pytest.raises(ConfigError, match="q in"):
        require_strict_hypotheses(KSModel(2.5, 1.5))  # q outside (1/2, 1]
    with pytest.raises(ConfigError, match="critical line"):
        require_strict_hypotheses(KSModel(2.0, 0.9))  # off the critical line


def test_dissipation_anchor():
    # u = 1, v = 0 at (2, 1): the bracket reduces to u/2 and
    # D = int S D (1/2)^2 = (1/2)(1/4)(1/4) = 1/32; F vanishes
    g = Grid(1, 64)
    st = _uniform_state(g, 1.0, 0.0)
    m = _monitor(st, P21)
    assert m.lyap_F == 0.0
    assert m.dissipation_D == pytest.approx(1.0 / 32.0, abs=1e-14)


def test_classical_lyapunov_anchor():
    # u = v = 1: G(1) = 0, -int uv = -1, (1/2)||v||_H1^2 = 1/2
    g = Grid(1, 64)
    u, v = _uniform_state(g, 1.0, 1.0)
    lyap = classical_lyapunov(u[None], v[None], P21, g.h)
    assert lyap.shape == (1,)
    assert lyap[0] == pytest.approx(-0.5, abs=1e-14)
    vt = v_time_derivative(u, v, g.h)
    assert np.all(vt == 0.0)


def test_equilibrium_is_steady():
    g = Grid(1, 32)
    st = _uniform_state(g, 2.0, 2.0)
    u, v, vt = ks_step(*st, P21, g.h, 1e-5)
    assert np.array_equal(u, st[0])
    assert np.array_equal(v, st[1])
    assert np.all(vt == 0.0)
    m = _monitor(st, P21)
    assert m.vt_sq == 0.0 and m.drift_sq == 0.0


def test_mass_conserved_exactly():
    g = Grid(1, 64)
    traj = _cosine_run(P21, g, t_end=0.005, mass=2.0, record_every=20)
    m0 = float(np.sum(traj.u[0]))
    for row in traj.u:
        assert float(np.sum(row)) == pytest.approx(m0, abs=1e-12 * m0)


def test_v_stays_nonnegative():
    g = Grid(1, 48)
    traj = _cosine_run(P21, g, t_end=0.01, mass=3.0, record_every=50)
    assert traj.v.min() >= 0.0
    assert traj.u.min() > 0.0


def test_cosine_initial_state():
    g = Grid(1, 64)
    u, v = cosine_initial_state(g, mass=5.0, amplitude=0.3)
    assert np.mean(u) == pytest.approx(5.0, abs=1e-12)
    assert np.all(v == 5.0)
    assert np.all(cosine_initial_state(g)[1] == 1.0)
    for mass in (0.0, -1.0, np.nan):
        with pytest.raises(ConfigError, match="mass must be positive"):
            cosine_initial_state(g, mass)


def test_run_refuses_an_initial_state_off_the_configs_grid():
    # u0 and v0 each, neither a run on another grid nor a numpy error
    g = Grid(1, 32)
    u0, v0 = cosine_initial_state(g, mass=2.0)
    cfg = FlowConfig(P21, g, t_end=0.001)
    for u, v in ((u0[:16], v0), (u0, v0[:16]), (u0, np.ones((32, 32)))):
        with pytest.raises(ConfigError, match="not on the config's grid"):
            run_ks(u, v, cfg)


def test_stable_dt_guards():
    g = Grid(1, 64)
    st = _uniform_state(g, 1.0, 1.0)
    # max D = 1/4 < 1, so the diffusive bound uses the floor coefficient 1,
    # and v is flat, so the advective bound h / 1e-14 does not bind
    assert ks_stable_dt(*st, P21, g.h) == g.h**2 / 2.0


def test_ceiling_abort_carries_trajectory(monkeypatch):
    g = Grid(1, 32)
    monkeypatch.setattr(keller_segel, "DEFAULT_CEILING", 1.5)
    with pytest.raises(StabilityError, match="ceiling") as info:
        _cosine_run(P21, g, t_end=0.01, mass=2.0, record_every=10)
    assert info.value.trajectory is not None
    assert len(info.value.trajectory.times) >= 1
    assert info.value.last_time >= info.value.trajectory.times[-1]


def test_guard_recheck_aborts_mid_run():
    # no guard re-checks an integrated run, which aborts where the state
    # does: at (p, q) = (1, 0) and mass 50, the semi-discrete density
    # aggregates and its trough drops to the positivity floor mid-run
    g = Grid(1, 16)
    with pytest.raises(PositivityLossError, match="floor") as info:
        _cosine_run(P10, g, t_end=0.1, mass=50.0, safety=1.0, record_every=1)
    assert 0.05 < info.value.last_time < 0.1
    times = info.value.trajectory.times
    assert times[-1] <= info.value.last_time < times[-1] + info.value.trajectory.dt


def test_nan_state_is_a_positivity_abort():
    g = Grid(1, 32)
    u, v = cosine_initial_state(g, mass=2.0)
    u[5] = np.nan
    with pytest.raises(PositivityLossError):
        ks_step(u, v, P21, g.h, 1e-5)


@pytest.mark.parametrize("which", ["lyap", "ep"])
def test_identity_residual_convergence_21(which):
    def resmax(cells):
        g = Grid(1, cells)
        traj = _cosine_run(P21, g, t_end=0.02, mass=2.0,
                           record_every=max(1, cells * cells // 600))
        fn = lyapunov_identity_residual if which == "lyap" else entro_prod_residual
        return max(abs(r) for r in fn(traj))

    a, b = resmax(48), resmax(96)
    assert math.log2(a / b) >= 1.8


def test_s1_identity_convergence_10():
    def resmax(cells):
        g = Grid(1, cells)
        traj = _cosine_run(P10, g, t_end=0.02, mass=2.0,
                           record_every=max(1, cells * cells // 600))
        lem, rem = s1_functional_identity(traj)
        return max(abs(r) for r in lem), max(abs(r) for r in rem)

    a, b = resmax(48), resmax(96)
    assert math.log2(a[0] / b[0]) >= 1.8
    assert math.log2(a[1] / b[1]) >= 1.8


def test_s1_requires_q_zero():
    g = Grid(1, 48)
    traj = _cosine_run(P21, g, t_end=0.002, mass=1.0, record_every=10)
    with pytest.raises(UsageError):
        s1_functional_identity(traj)


def test_lp_inequality_on_short_run():
    g = Grid(1, 64)
    traj = _cosine_run(P21, g, t_end=0.01, mass=4.0, record_every=50)
    slack = lp_inequality_residuals(traj, P21)
    h = g.h
    tol = 10.0 * (h * h + traj.record_dt) * traj.meters.lp_norm.max()
    assert slack.max() <= tol


@pytest.mark.parametrize("params", [P21, P10, KSModel(2.0, 0.5)])
def test_residuals_from_meters_equal_fresh_measurement(params, assert_same_record):
    # the run returns its trajectory measured: its meters equal a fresh
    # measuring pass of its states bit for bit, and so does every residual
    traj = _cosine_run(params, Grid(1, 32), t_end=0.004, mass=2.0, record_every=10)
    assert len(traj.meters.mass) == len(traj.times) >= 3
    assert (traj.meters.s1_A is None) is not params.linear_sensitivity
    fresh = Trajectory(traj.times, traj.dt, traj.u.copy(), traj.v.copy(),
                       traj.vt_accum.copy())
    assert_same_record(measure_monitors(fresh, params), traj.meters)
    fns = [lyapunov_identity_residual, entro_prod_residual,
           lambda t: lp_inequality_residuals(t, params)]
    if params.linear_sensitivity:
        fns.append(s1_functional_identity)
    for fn in fns:
        assert np.array_equal(fn(traj), fn(fresh))


def test_s1_energy_is_the_first_term_of_lyap_F():
    # at q = 0, S(u) = u bit for bit, so the lemma's A is lyap_F's first
    # term: F + int Psi(u)
    g = Grid(1, 32)
    u, v = cosine_initial_state(g, mass=2.0)
    m = _monitor((u, v), P10)
    assert np.array_equal(P10.S(u), u)
    psi = integrate(P10.psi(u), g.h)
    assert m.s1_A - psi == m.lyap_F


def test_monitors_are_continuous_in_p_at_one():
    # ((1+u)^(1-p) - 2^(1-p))/(1-p) written out cancels at p = 1 + 1e-13
    # and moves lyap_F by 1e-4: the monitors' closed forms must not
    u, v = cosine_initial_state(Grid(1, 32), mass=2.0)
    at_one = _monitor((u, v), KSModel(1.0, 0.0))
    off_one = _monitor((u, v), KSModel(1.0 + 1e-13, 0.0))
    assert off_one.lyap_F == pytest.approx(at_one.lyap_F, rel=1e-12)
    assert off_one.s1_F == pytest.approx(at_one.s1_F, rel=1e-12)


def test_monitor_columns_finite():
    g = Grid(1, 48)
    traj = _cosine_run(P21, g, t_end=0.005, mass=2.0, record_every=20)
    m = traj.meters
    for val in (m.mass, m.lyap_classical, m.lyap_F, m.dissipation_D,
                m.ep_estimate, m.lp_norm, m.log_bound, m.vt_accum,
                m.v_l2, m.v_l4, m.dv_l2, m.dv_l4):
        assert val.shape == traj.times.shape
        assert np.all(np.isfinite(val))
    assert m.vt_accum[0] == 0.0
    assert np.all(np.diff(m.vt_accum) >= 0.0)


def test_monitor_strict_enforced():
    g = Grid(1, 48)
    with pytest.raises(ConfigError):
        require_strict_hypotheses(P10)
    traj = _cosine_run(P10, g, t_end=0.002, mass=1.0, record_every=10)
    assert math.isfinite(traj.meters.lyap_F[0])


def test_state_validation():
    # u and v must share a grid, and a snapshot is a row of a 1D grid
    with pytest.raises(UsageError):
        Trajectory([0.0], 0.0, np.ones((1, 16)), np.ones((1, 32)))
    with pytest.raises(UsageError):
        Trajectory([0.0], 0.0, np.ones((1, 16, 16)), np.ones((1, 16, 16)))


# Buffer safety and the oracle of the run's time error, as in
# test_diffusion.


@pytest.mark.parametrize("params", [P21, P10])
def test_run_equals_unbuffered_stencil_loop(params, stencil_loop_gaps):
    # up to the stencil loop's time error, which falls 4x per grid doubling
    def make(g):
        u0, v0 = cosine_initial_state(g, mass=4.0)
        traj = run_ks(u0, v0, FlowConfig(params, g, t_end=0.01, record_every=7))
        return traj, (u0, v0), lambda s, dt: ks_step(*s, params, g.h, dt)[:2]

    gaps = stencil_loop_gaps(make, (16, 32, 64))
    assert gaps[0] < 1e-3
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 3.2 < coarse / fine < 4.5


def test_run_buffers_stay_private(spy_buffers):
    g = Grid(1, 16)
    u0, v0 = cosine_initial_state(g, mass=4.0)
    before = (u0.copy(), v0.copy())
    live = spy_buffers(keller_segel)
    traj = run_ks(u0, v0, FlowConfig(P21, g, t_end=0.005, record_every=5))
    assert np.array_equal(u0, before[0]) and np.array_equal(v0, before[1])
    assert len(live) >= 2  # the guard's flux, and the rate's
    assert not np.shares_memory(traj.u, traj.v)
    for a in (traj.u, traj.v):
        assert not any(np.shares_memory(a, b) for b in (u0, v0, *live.values()))


def test_interleaved_runs_match_runs_alone(run_interleaved):
    def runner(cells):
        return lambda: _cosine_run(P21, Grid(1, cells), t_end=0.002, mass=4.0,
                                   record_every=4)

    runs = [runner(c) for c in (16, 32, 16)]
    alone = [r() for r in runs]
    for got, want in zip(run_interleaved(keller_segel, "_fluxes", *runs), alone):
        assert got.dt == want.dt
        assert got.integrator == want.integrator
        for name in ("times", "u", "v", "vt_accum"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def _monitor_alone(u, v, model, h):
    """The KSMonitor fields of the one snapshot (u, v), but ``time`` and
    ``vt_accum``, by the formula applied to that snapshot alone."""
    p = model.p
    D, S = model.D(u), model.S(u)
    du, dv = central_diff(u, 0, h), central_diff(v, 0, h)
    vt = v_time_derivative(u, v, h)
    flux = model.ratio(u) * du
    drift = flux - dv
    dflux = central_diff(flux, 0, h, odd=True)
    vxx = second_diff(v, 0, h)
    bracket = dflux - vxx + 0.5 * (v + vt)
    energy = 0.5 * integrate(D * D / S * du * du, h)

    def lp(vals, r):
        return integrate(np.abs(vals) ** r, h) ** (1.0 / r)

    out = dict(
        mass=integrate(u, h),
        lyap_classical=(integrate(model.G(u), h) - integrate(u * v, h)
                        + 0.5 * integrate(v * v + dv * dv, h)),
        lyap_F=energy - integrate(model.psi(u), h),
        dissipation_D=integrate(S * D * bracket**2, h),
        ep_estimate=integrate(du**2 / (u * (1.0 + u) ** (p + 1.0)), h),
        lp_norm=integrate(u**p, h),
        log_bound=float(np.max(np.abs(np.log1p(u)))),
        v_l2=lp(v, 2.0), v_l4=lp(v, 4.0), dv_l2=lp(dv, 2.0), dv_l4=lp(dv, 4.0),
        vt_sq=integrate(vt * vt, h),
        drift_sq=integrate(S * drift**2, h),
        ep_quarter=integrate(S * D * (v + vt) ** 2 / 4.0, h),
        ep_curvature=integrate(
            drift * D * D * model.S_second(u) / (2.0 * S) * du**3, h),
        lp_grad=integrate(u ** (p - 2.0) * (1.0 + u) ** (-p) * du**2, h),
        u_sq=integrate(u * u, h),
        s1_A=None, s1_B=None, s1_C=None, s1_F=None,
    )
    if model.linear_sensitivity:
        d_primitive = (np.log((1.0 + u) / 2.0) if p == 1.0
                       else ((1.0 + u) ** (1.0 - p) - 2.0 ** (1.0 - p)) / (1.0 - p))
        out.update(s1_A=energy, s1_B=integrate(S * D * dflux**2, h),
                   s1_C=integrate(S * D * vxx * dflux, h),
                   s1_F=energy - integrate(u * d_primitive, h))
    return out


@pytest.mark.parametrize("rows_per_block", [2, None])
@pytest.mark.parametrize("params", [P21, P10, KSModel(2.0, 0.5)])
def test_one_pass_equals_each_snapshot_alone(params, rows_per_block, monkeypatch):
    if rows_per_block:
        monkeypatch.setattr(fields, "_BLOCK_CELLS", rows_per_block * 32)
    traj = _cosine_run(params, Grid(1, 32), t_end=0.004, mass=2.0, record_every=5)
    m = traj.meters
    assert len(traj.times) >= 5
    names = set(vars(m)) - {"time", "vt_accum"}
    assert np.array_equal(m.time, traj.times)
    assert np.array_equal(m.vt_accum, traj.vt_accum)
    for k in range(len(traj.times)):
        alone = _monitor_alone(traj.u[k], traj.v[k], params, traj.h)
        assert set(alone) == names
        for name, value in alone.items():
            got = getattr(m, name)
            assert (got is None) if value is None else got[k] == value, name


def test_ceiling_abort_keeps_the_rows_before_the_failing_step(monkeypatch):
    # the density grows past the ceiling mid-run: the abort carries the
    # start of the step that crosses it and, unmeasured, exactly the rows
    # that the run without the ceiling records before it
    g = Grid(1, 32)
    monkeypatch.setattr(keller_segel, "DEFAULT_CEILING", 31.0)
    u0, v0 = cosine_initial_state(g, mass=20.0)
    cfg = FlowConfig(P10, g, t_end=0.05, record_every=10)
    with pytest.raises(StabilityError, match="ceiling") as info:
        run_ks(u0, v0, cfg)
    last, traj = info.value.last_time, info.value.trajectory
    assert 0.0 < last < cfg.t_end
    assert traj.meters is None and len(traj.times) > 3
    assert traj.times[-1] <= last < traj.times[-1] + cfg.record_every * traj.dt
    assert traj.u.max() <= 31.0
    monkeypatch.setattr(keller_segel, "DEFAULT_CEILING", 1e6)
    whole = run_ks(u0, v0, cfg)
    assert whole.u.max() > 31.0
    for name in ("times", "u", "v", "vt_accum"):
        got, want = getattr(traj, name), getattr(whole, name)
        assert np.array_equal(got, want[:len(got)]), name
