import math

import numpy as np
import pytest

from entroflow import keller_segel
from entroflow.coeff_models import KSModel
from entroflow.diffusion import Trajectory
from entroflow.errors import ConfigError, PositivityLossError, StabilityError, UsageError
from entroflow.fields import Field, Grid, integrate
from entroflow.keller_segel import (
    KSConfig,
    KSState,
    classical_lyapunov,
    cosine_initial_state,
    entro_prod_residual,
    ks_stable_dt,
    ks_step,
    lp_inequality_residuals,
    lyapunov_identity_residual,
    measure_monitors,
    run_ks,
    s1_functional_identity,
    v_time_derivative,
)

P21 = KSModel(2.0, 1.0)
P10 = KSModel(1.0, 0.0)


def _uniform_state(grid, u_val, v_val):
    return KSState(
        Field(grid, np.full(grid.shape, u_val)),
        Field(grid, np.full(grid.shape, v_val)),
    )


def _monitor(state, model):
    """The record ``measure_monitors`` makes of a one-snapshot trajectory."""
    return measure_monitors(Trajectory([0.0], [state], 0.0), model)[0]


def test_strict_hypotheses():
    def strict(p, q):
        return KSConfig(KSModel(p, q), Grid(1, 16), t_end=0.1, strict=True)

    assert strict(2.0, 1.0).strict
    with pytest.raises(ConfigError, match="q in"):
        strict(2.5, 1.5)  # q outside (1/2, 1]
    with pytest.raises(ConfigError, match="critical line"):
        strict(2.0, 0.9)  # off the critical line


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
    st = _uniform_state(g, 1.0, 1.0)
    assert classical_lyapunov(st, P21) == pytest.approx(-0.5, abs=1e-14)
    vt = v_time_derivative(st.u.values, st.v.values, g.h)
    assert np.all(vt == 0.0)


def test_equilibrium_is_steady():
    g = Grid(1, 32)
    st = _uniform_state(g, 2.0, 2.0)
    u, v, vt = ks_step(st.u.values, st.v.values, P21, g.h, 1e-5)
    assert np.array_equal(u, st.u.values)
    assert np.array_equal(v, st.v.values)
    assert np.all(vt == 0.0)
    m = _monitor(st, P21)
    assert m.vt_sq == 0.0 and m.drift_sq == 0.0


def test_mass_conserved_exactly():
    g = Grid(1, 64)
    cfg = KSConfig(P21, g, t_end=0.005, mass=2.0, record_every=20)
    traj = run_ks(cfg)
    m0 = float(np.sum(traj.states[0].u.values))
    for st in traj.states:
        assert float(np.sum(st.u.values)) == pytest.approx(m0, abs=1e-12 * m0)


def test_v_stays_nonnegative():
    g = Grid(1, 48)
    traj = run_ks(KSConfig(P21, g, t_end=0.01, mass=3.0, record_every=50))
    for st in traj.states:
        assert st.v.min() >= 0.0
        assert st.u.min() > 0.0


def test_cosine_initial_state():
    g = Grid(1, 64)
    st = cosine_initial_state(g, mass=5.0, amplitude=0.3)
    assert np.mean(st.u.values) == pytest.approx(5.0, abs=1e-12)
    assert np.all(st.v.values == 5.0)


def test_stable_dt_guards():
    g = Grid(1, 64)
    st = _uniform_state(g, 1.0, 1.0)
    # max D = 1/4 < 1, so the diffusive guard uses the floor coefficient 1
    assert ks_stable_dt(st.u.values, st.v.values, P21, g.h, 0.4) == (
        pytest.approx(0.4 * g.h**2 / 2.0)
    )


def test_ceiling_abort_carries_trajectory():
    g = Grid(1, 32)
    cfg = KSConfig(P21, g, t_end=0.01, mass=2.0, ceiling=1.5, record_every=10)
    with pytest.raises(StabilityError, match="ceiling") as info:
        run_ks(cfg)
    assert info.value.trajectory is not None
    assert len(info.value.trajectory.times) >= 1
    assert info.value.last_time >= info.value.trajectory.times[-1]


def test_guard_recheck_aborts_mid_run():
    # v starts flat, so the fixed dt comes from the diffusive guard alone;
    # the advective bound S(u)|v_x| tightens as v_x grows until the
    # stencil's check of the fixed dt at safety 1 fires
    g = Grid(1, 16)
    cfg = KSConfig(P10, g, t_end=0.05, mass=50.0, safety=1.0, record_every=1)
    with pytest.raises(StabilityError, match="stability bound") as info:
        run_ks(cfg)
    assert 0.0 < info.value.last_time < cfg.t_end
    assert info.value.trajectory.times[-1] == info.value.last_time


def test_nan_state_is_a_positivity_abort():
    g = Grid(1, 32)
    st = cosine_initial_state(g, mass=2.0)
    u = st.u.values.copy()
    u[5] = np.nan
    with pytest.raises(PositivityLossError):
        ks_step(u, st.v.values, P21, g.h, 1e-5)


@pytest.mark.parametrize("which", ["lyap", "ep"])
def test_identity_residual_convergence_21(which):
    def resmax(cells):
        g = Grid(1, cells)
        cfg = KSConfig(P21, g, t_end=0.02, mass=2.0,
                       record_every=max(1, cells * cells // 600))
        traj = run_ks(cfg)
        fn = lyapunov_identity_residual if which == "lyap" else entro_prod_residual
        return max(abs(r) for r in fn(traj))

    a, b = resmax(48), resmax(96)
    assert math.log2(a / b) >= 1.8


def test_s1_identity_convergence_10():
    def resmax(cells):
        g = Grid(1, cells)
        cfg = KSConfig(P10, g, t_end=0.02, mass=2.0,
                       record_every=max(1, cells * cells // 600))
        traj = run_ks(cfg)
        lem, rem = s1_functional_identity(traj)
        return max(abs(r) for r in lem), max(abs(r) for r in rem)

    a, b = resmax(48), resmax(96)
    assert math.log2(a[0] / b[0]) >= 1.8
    assert math.log2(a[1] / b[1]) >= 1.8


def test_s1_requires_q_zero():
    g = Grid(1, 48)
    traj = run_ks(KSConfig(P21, g, t_end=0.002, mass=1.0, record_every=10))
    with pytest.raises(UsageError):
        s1_functional_identity(traj)


def test_lp_inequality_on_short_run():
    g = Grid(1, 64)
    traj = run_ks(KSConfig(P21, g, t_end=0.01, mass=4.0, record_every=50))
    slack = lp_inequality_residuals(traj, P21)
    h = g.h
    mons = traj.meters
    tol = 10.0 * (h * h + traj.record_dt) * max(m.lp_norm for m in mons)
    assert max(slack) <= tol


@pytest.mark.parametrize("params", [P21, P10, KSModel(2.0, 0.5)])
def test_residuals_from_meters_equal_fresh_measurement(params):
    # the run returns its trajectory measured: its meters equal a fresh
    # measuring pass of its states bit for bit, and so does every residual
    traj = run_ks(KSConfig(params, Grid(1, 32), t_end=0.004, mass=2.0,
                           record_every=10))
    assert len(traj.meters) == len(traj.times) >= 3
    assert (traj.meters[0].s1_A is None) is not params.linear_sensitivity
    fresh = Trajectory(traj.times, traj.states, traj.dt)
    assert measure_monitors(fresh, params) == traj.meters
    fns = [lyapunov_identity_residual, entro_prod_residual,
           lambda t: lp_inequality_residuals(t, params)]
    if params.linear_sensitivity:
        fns.append(s1_functional_identity)
    for fn in fns:
        assert fn(traj) == fn(fresh)


def test_s1_energy_is_the_first_term_of_lyap_F():
    # at q = 0, S(u) = u bit for bit, so the lemma's A is lyap_F's first
    # term: F + int Psi(u)
    m = _monitor(cosine_initial_state(Grid(1, 32), mass=2.0), P10)
    state = cosine_initial_state(Grid(1, 32), mass=2.0)
    assert np.array_equal(P10.S(state.u.values), state.u.values)
    psi = integrate(P10.psi(state.u.values), state.u.grid.h)
    assert m.s1_A - psi == m.lyap_F


def test_monitor_columns_finite():
    g = Grid(1, 48)
    traj = run_ks(KSConfig(P21, g, t_end=0.005, mass=2.0, record_every=20))
    mons = traj.meters
    assert len(mons) == len(traj.times)
    for m in mons:
        for val in (m.mass, m.lyap_classical, m.lyap_F, m.dissipation_D,
                    m.ep_estimate, m.lp_norm, m.log_bound, m.vt_accum,
                    m.v_l2, m.v_l4, m.dv_l2, m.dv_l4):
            assert np.isfinite(val)
    assert mons[0].vt_accum == 0.0
    assert all(a.vt_accum <= b.vt_accum for a, b in zip(mons, mons[1:]))


def test_monitor_strict_enforced():
    g = Grid(1, 48)
    with pytest.raises(ConfigError):
        KSConfig(P10, g, t_end=0.002, mass=1.0, record_every=10, strict=True)
    traj = run_ks(KSConfig(P10, g, t_end=0.002, mass=1.0,
                           record_every=10))
    assert math.isfinite(traj.meters[0].lyap_F)


def test_state_validation():
    g = Grid(1, 16)
    with pytest.raises(UsageError):
        KSState(Field(g, np.ones(16)), Field(Grid(1, 32), np.ones(32)))
    with pytest.raises(UsageError):
        KSState(
            Field(Grid(2, 16), np.ones((16, 16))),
            Field(Grid(2, 16), np.ones((16, 16))),
        )


# Buffer safety: a run steps in its own buffers (see the run contract in
# entroflow.diffusion); these pin it against a loop over the public
# stencil and guard called without buffers.


def _unbuffered_run(cfg):
    """(dt, recorded (u, v, vt_accum)) of the loop ``run_ks`` makes,
    without buffers."""
    st = cosine_initial_state(cfg.grid, cfg.mass, cfg.amplitude)
    model, h, block = cfg.model, cfg.grid.h, cfg.record_every
    u, v, acc = st.u.values, st.v.values, 0.0
    dt0 = ks_stable_dt(u, v, model, h, cfg.safety)
    n_steps = max(block, block * math.ceil(cfg.t_end / (dt0 * block)))
    dt = cfg.t_end / n_steps
    snaps = [(u.copy(), v.copy(), acc)]
    for k in range(1, n_steps + 1):
        assert dt <= ks_stable_dt(u, v, model, h, 1.0)
        u, v, vt = ks_step(u, v, model, h, dt)
        acc = acc + dt * (float((vt * vt).sum()) * h)
        if k % block == 0:
            snaps.append((u, v, acc))
    return dt, snaps


@pytest.mark.parametrize("params", [P21, P10])
def test_run_equals_unbuffered_stencil_loop(params):
    cfg = KSConfig(params, Grid(1, 32), t_end=0.003, mass=4.0, record_every=7)
    traj = run_ks(cfg)
    dt, snaps = _unbuffered_run(cfg)
    assert traj.dt == dt
    assert len(traj.states) == len(snaps)
    for st, (u, v, acc) in zip(traj.states, snaps):
        assert np.array_equal(st.u.values, u)
        assert np.array_equal(st.v.values, v)
        assert st.vt_accum == acc


def test_run_buffers_stay_private(spy_buffers):
    cfg = KSConfig(P21, Grid(1, 16), t_end=0.005, mass=4.0, record_every=5)
    live = spy_buffers(keller_segel, "ks_step")
    traj = run_ks(cfg)
    snaps = [a for st in traj.states for a in (st.u.values, st.v.values)]
    assert len(live) >= 8  # three face arrays, two cell arrays, four slots
    for i, a in enumerate(snaps):
        assert not any(np.shares_memory(a, b) for b in snaps[i + 1:])
        assert not any(np.shares_memory(a, b) for b in live.values())


def test_interleaved_runs_match_runs_alone(run_interleaved):
    def runner(cells):
        cfg = KSConfig(P21, Grid(1, cells), t_end=0.002, mass=4.0,
                       record_every=4)
        return lambda: run_ks(cfg)

    runs = [runner(c) for c in (16, 32, 16)]
    alone = [r() for r in runs]
    for got, want in zip(run_interleaved(keller_segel, "ks_step", *runs), alone):
        assert got.dt == want.dt
        assert [(st.u.values.tobytes(), st.v.values.tobytes(), st.vt_accum)
                for st in got.states] == [
            (st.u.values.tobytes(), st.v.values.tobytes(), st.vt_accum)
            for st in want.states
        ]
