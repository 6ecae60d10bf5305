import math

import numpy as np
import pytest

from entroflow import diffusion, keller_segel, p_laplace
from entroflow.coeff_models import KSModel, Linear, PowerLaw
from entroflow.diffusion import (
    FlowConfig,
    Trajectory,
    conservative_step,
    initial_cosine,
    march,
    run,
    stable_dt,
    step,
)
from entroflow.errors import (
    ConfigError,
    EntroflowError,
    PositivityLossError,
    RunAbort,
    StabilityError,
    UsageError,
)
from entroflow.fields import Grid, integrate
from entroflow.keller_segel import (
    cosine_initial_state,
    entro_prod_residual,
    lp_inequality_residuals,
    lyapunov_identity_residual,
    s1_functional_identity,
)
from entroflow.meters import MeterRecord, identity_residuals, measure_trajectory
from entroflow.p_laplace import (
    PLaplaceModel,
    monotonicity_report as pl_monotonicity_report,
    rate_residuals,
)


def test_config_validation():
    g = Grid(1, 16)
    with pytest.raises(ConfigError):
        FlowConfig(Linear(), g, t_end=-1.0)
    with pytest.raises(ConfigError):
        FlowConfig(Linear(), g, t_end=0.1, safety=1.5)
    with pytest.raises(ConfigError):
        FlowConfig(Linear(), Grid(2, 16), t_end=0.1)


@pytest.mark.parametrize("u0_grid", [Grid(1, 16), Grid(2, 16)])
def test_run_refuses_an_initial_state_off_the_configs_grid(u0_grid):
    # neither run on the initial state's own grid nor a numpy error
    u0 = np.full(u0_grid.shape, 1.0)
    with pytest.raises(ConfigError, match="not on the config's grid"):
        run(u0, FlowConfig(Linear(), Grid(1, 128), t_end=0.01))


def test_stable_dt_anchor():
    # a(3) = 6 for the m=2 power law, so dt = safety h^2 / 12
    g = Grid(1, 64)
    u = np.full(g.shape, 3.0)
    assert stable_dt(u, PowerLaw(2.0), g.h, 0.4) == pytest.approx(
        0.4 * g.h**2 / 12.0
    )
    assert stable_dt(u, Linear(), g.h, 1.0) == pytest.approx(g.h**2 / 2.0)


def test_constant_state_fixed_point():
    g = Grid(1, 32)
    u = np.full(g.shape, 2.0)
    out = step(u, PowerLaw(2.0), g.h, 1e-5)
    assert np.array_equal(out, u)


def test_mass_conserved_exactly():
    g = Grid(1, 64)
    u0 = initial_cosine(g, mean=1.5)
    traj = run(u0, FlowConfig(PowerLaw(2.0), g, t_end=0.01, record_every=50))
    m0 = float(np.sum(traj.u[0]))
    for row in traj.u:
        assert float(np.sum(row)) == pytest.approx(m0, abs=1e-12 * m0)


def test_spectral_decay_linear():
    g = Grid(1, 128)
    u0 = initial_cosine(g)
    traj = run(u0, FlowConfig(Linear(), g, t_end=0.1, record_every=1000))
    x = g.axis_centers()
    exact = 1.0 + 0.5 * np.cos(np.pi * x) * np.exp(-np.pi**2 * 0.1)
    assert np.max(np.abs(traj.u[-1] - exact)) < 1e-3


def test_comparison_principle():
    # the explicit scheme is monotone under the stability bound
    g = Grid(1, 48)
    lo = initial_cosine(g, mean=1.0, amplitude=0.3)
    hi = lo + 0.2
    cfg = FlowConfig(Linear(), g, t_end=0.02, record_every=100)
    tl = run(lo, cfg)
    th = run(hi, cfg)
    assert np.all(tl.u <= th.u + 1e-12)


def _restrict(fine_vals, factor):
    return fine_vals.reshape(-1, factor).mean(axis=1)


@pytest.mark.parametrize("model", [Linear(), PowerLaw(2.0)])
def test_self_convergence_order(model):
    t_end = 0.01
    sols = {}
    for cells in (32, 64, 256):
        g = Grid(1, cells)
        traj = run(initial_cosine(g), FlowConfig(model, g, t_end, record_every=10))
        sols[cells] = traj.u[-1]
    ref = sols[256]
    e32 = np.max(np.abs(sols[32] - _restrict(ref, 8)))
    e64 = np.max(np.abs(sols[64] - _restrict(ref, 4)))
    order = np.log2(e32 / e64)
    assert order >= 1.8


def test_instability_oracle():
    """dt below the bound stays bounded for 100 steps; 1.5x above, the step
    refuses, and the update it guards, given no bound, loses positivity."""
    g = Grid(1, 32)
    u0 = initial_cosine(g)
    dt_crit = g.h**2 / 2.0

    u = u0
    for _ in range(100):
        u = step(u, Linear(), g.h, 0.9 * dt_crit)
    assert u.max() < 2.0

    before = u0.copy()
    with pytest.raises(StabilityError, match="stability bound"):
        step(u0, Linear(), g.h, 1.5 * dt_crit)
    assert np.array_equal(u0, before)

    # the same update with the unit face coefficient and an infinite bound
    u = u0.copy()
    with pytest.raises(PositivityLossError):
        for _ in range(100):
            u = conservative_step(u, np.diff(u) / g.h, np.inf, 1.5 * dt_crit,
                                  g.h, np.empty_like(u))


def test_run_rechecks_stability():
    # a(u) grows along the run for m=3 if the max grows; here the max decays,
    # so instead drive the recheck by starting from a state whose max a(u)
    # increases: seed the fixed dt from a small-amplitude state, then swap in
    # the spikier one via a manual config with safety 1.0 on the edge.
    g = Grid(1, 32)
    u0 = initial_cosine(g, mean=1.0, amplitude=0.5)
    cfg = FlowConfig(PowerLaw(3.0), g, t_end=0.005, safety=1.0, record_every=10)
    # safety exactly 1.0 is still non-expanding for this datum; should finish
    traj = run(u0, cfg)
    assert traj.times[-1] == pytest.approx(0.005)


def test_positivity_guard():
    g = Grid(1, 32)
    low = np.full(g.shape, 1e-9)
    with pytest.raises(PositivityLossError) as info:
        run(low, FlowConfig(Linear(), g, t_end=0.001))
    assert isinstance(info.value, RunAbort)
    assert info.value.last_time == 0.0
    # a non-finite state is a positivity abort, not a construction error
    nan_state = initial_cosine(g)
    nan_state[5] = np.nan
    with pytest.raises(PositivityLossError):
        step(nan_state, Linear(), g.h, 1e-5)


@pytest.mark.parametrize("flow", ["linear", "power_law_2", "p_laplace_3"])
def test_an_infinite_cell_in_a_raw_initial_state_is_refused(flow):
    # u0 is a raw array: the floor check passes an infinite cell, and the
    # guard or the first step refuses it
    g = Grid(1, 32)
    u0 = initial_cosine(g)
    u0[5] = np.inf
    go = {
        "linear": lambda: run(u0, FlowConfig(Linear(), g, t_end=0.001)),
        "power_law_2": lambda: run(u0, FlowConfig(PowerLaw(2.0), g, t_end=0.001)),
        "p_laplace_3": lambda: p_laplace.run(
            u0, FlowConfig(PLaplaceModel(3.0), g, t_end=0.001)),
    }[flow]
    with np.errstate(invalid="ignore", over="ignore"), \
            pytest.raises(EntroflowError):
        go()


def test_stability_error_carries_partial_trajectory():
    g = Grid(1, 32)
    u0 = initial_cosine(g)
    cfg = FlowConfig(Linear(), g, t_end=0.01, safety=1.0)
    steps = []

    def advance(state, dt):
        # from the second step on, the coefficient reaches ~3 and the
        # stencil refuses the fixed dt, set by a = 1
        new = step(state[0], PowerLaw(2.0) if steps else Linear(), g.h, dt)
        steps.append(dt)
        return (new,)

    def guard(state, safety):
        return stable_dt(state[0], Linear(), g.h, safety)

    with pytest.raises(StabilityError, match="stability bound") as info:
        march((u0.copy(),), cfg, guard, advance)
    (dt,) = steps
    assert info.value.last_time == dt
    traj = info.value.trajectory
    assert traj.times.tolist() == [0.0, dt]
    assert len(traj.u) == 2 and traj.meters is None
    assert np.array_equal(traj.u[0], u0)
    assert traj.dt == dt


def test_snapshot_contract():
    g = Grid(1, 32)
    traj = run(initial_cosine(g), FlowConfig(Linear(), g, t_end=0.01, record_every=7))
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.01, rel=1e-12)
    # the time of row k is that of step 7 k, exactly
    assert np.array_equal(traj.times, np.arange(len(traj.times)) * 7 * traj.dt)
    n_steps = round(0.01 / traj.dt)
    assert n_steps % 7 == 0


def test_initial_cosine_mass_exact():
    g = Grid(1, 64)
    u = initial_cosine(g, mean=2.0, amplitude=0.4, mode=3)
    assert integrate(u, g.h) == pytest.approx(2.0, abs=1e-13)


def test_trajectory_validation():
    rows = np.ones((2, 32))
    with pytest.raises(UsageError):
        Trajectory([0.0, 0.0], 0.1, rows)
    with pytest.raises(UsageError):
        Trajectory([0.0], 0.1, rows)
    with pytest.raises(UsageError):
        Trajectory([0.0, 0.1], 0.1, np.ones(32))


def test_run_returns_its_trajectory_measured(assert_same_record):
    g = Grid(1, 32)
    traj = run(initial_cosine(g), FlowConfig(PowerLaw(2.0), g, 0.002,
                                             record_every=10))
    assert len(traj.times) >= 3
    fresh = Trajectory(traj.times, traj.dt, traj.u.copy())
    assert_same_record(measure_trajectory(fresh, PowerLaw(2.0)), traj.meters)


def test_residuals_refuse_a_trajectory_without_the_runs_meters():
    # nothing measures on demand: every residual and verdict reads the
    # meters a run attached, and refuses a hand-built trajectory
    g = Grid(1, 32)
    times = [0.0, 1e-3, 2e-3]
    flat = Trajectory(times, 1e-3, np.tile(initial_cosine(g), (3, 1)))
    u, v = cosine_initial_state(g, mass=2.0)
    ks = Trajectory(times, 1e-3, np.tile(u, (3, 1)), np.tile(v, (3, 1)),
                    np.zeros(3))
    calls = [
        lambda: identity_residuals(flat),
        lambda: rate_residuals(flat),
        lambda: pl_monotonicity_report(flat, PLaplaceModel(3.0)),
        lambda: lyapunov_identity_residual(ks),
        lambda: entro_prod_residual(ks),
        lambda: lp_inequality_residuals(ks, KSModel(2.0, 1.0)),
        lambda: s1_functional_identity(ks),
    ]
    for call in calls:
        with pytest.raises(UsageError, match="meters"):
            call()
    # meters that miss a snapshot are refused as well
    whole = measure_trajectory(flat, Linear())
    flat.meters = MeterRecord(*(a[:-1] for a in vars(whole).values()))
    with pytest.raises(UsageError, match="meters"):
        identity_residuals(flat)


# Buffer safety: a run steps in its own buffers (see the run contract in
# entroflow.diffusion); these pin it against a loop over the public
# stencil and guard called without buffers.


def _unbuffered_run(u0, cfg):
    """(dt, recorded arrays) of the loop ``run`` makes, without buffers."""
    h, block, u = cfg.grid.h, cfg.record_every, u0
    dt0 = stable_dt(u, cfg.model, h, cfg.safety)
    n_steps = max(block, block * math.ceil(cfg.t_end / (dt0 * block)))
    dt = cfg.t_end / n_steps
    snaps = [u.copy()]
    for k in range(1, n_steps + 1):
        assert dt <= stable_dt(u, cfg.model, h, 1.0)
        u = step(u, cfg.model, h, dt)
        if k % block == 0:
            snaps.append(u)
    return dt, snaps


@pytest.mark.parametrize("model", [Linear(), PowerLaw(2.0)])
def test_run_equals_unbuffered_stencil_loop(model):
    g = Grid(1, 32)
    u0 = initial_cosine(g)
    cfg = FlowConfig(model, g, t_end=0.01, record_every=7)
    traj = run(u0, cfg)
    dt, snaps = _unbuffered_run(u0, cfg)
    assert traj.dt == dt
    assert len(traj.u) == len(snaps)
    for row, ref in zip(traj.u, snaps):
        assert np.array_equal(row, ref)


def test_run_buffers_stay_private(spy_buffers):
    g = Grid(1, 16)
    u0 = initial_cosine(g)
    before = u0.copy()
    cfg = FlowConfig(PowerLaw(2.0), g, t_end=0.01, record_every=5)
    live = spy_buffers(diffusion, "step")
    traj = run(u0, cfg)
    assert np.array_equal(u0, before)
    assert len(live) >= 4  # two face arrays and both state slots
    assert not np.shares_memory(traj.u, u0)
    assert not any(np.shares_memory(traj.u, b) for b in live.values())


def test_interleaved_runs_match_runs_alone(run_interleaved):
    def runner(cells):
        g = Grid(1, cells)
        cfg = FlowConfig(PowerLaw(2.0), g, t_end=0.005, record_every=4)
        return lambda: run(initial_cosine(g), cfg)

    runs = [runner(c) for c in (16, 32, 16)]
    alone = [r() for r in runs]
    for got, want in zip(run_interleaved(diffusion, "step", *runs), alone):
        assert got.dt == want.dt
        assert got.u.tobytes() == want.u.tobytes()


# The dt check (see the run contract): each stencil checks dt against the
# bound its guard computes on the face coefficients it steps with.


def _bound_case(flow):
    """(bound, stencil(dt), inputs, cell bound) on 32 cells: the face bound
    at safety 1, the stencil at that state, the arrays it reads, and the
    bound the same formula gives at cell values, which differs."""
    g = Grid(1, 32)
    h, x = g.h, g.axis_centers()
    u = initial_cosine(g)
    if flow == "diffusion":
        model = PowerLaw(2.0)
        return (stable_dt(u, model, h, 1.0), lambda dt: step(u, model, h, dt),
                (u,), h * h / (2.0 * model.a(u).max()))
    if flow == "p_laplace":
        model = PLaplaceModel(3.0)
        du = np.gradient(u, h)  # cell gradients
        cell = h * h / (2.0 * np.sqrt(du**2 + model.delta**2).max())
        return (p_laplace.pl_stable_dt(u, model, h, 1.0),
                lambda dt: p_laplace.pl_step(u, model, h, dt), (u,), cell)
    # a steep v, so that the advective bound binds
    u = cosine_initial_state(g, mass=2.0)[0]
    v = 80.0 * (1.0 + 0.5 * np.cos(np.pi * x))
    model = KSModel(2.0, 1.0)
    bound = keller_segel.ks_stable_dt(u, v, model, h, 1.0)
    assert bound < h * h / 2.0
    cell = h / np.max(np.abs(model.S(u) * np.gradient(v, h)))
    return (bound, lambda dt: keller_segel.ks_step(u, v, model, h, dt),
            (u, v), cell)


@pytest.mark.parametrize("flow", ["diffusion", "p_laplace", "keller_segel"])
def test_stencil_checks_dt_against_its_face_bound(flow):
    bound, stencil, inputs, cell = _bound_case(flow)
    assert bound != cell
    before = [a.copy() for a in inputs]
    stencil(bound)
    with pytest.raises(StabilityError, match="stability bound"):
        stencil(bound * (1.0 + 1e-9))
    for a, b in zip(inputs, before):
        assert np.array_equal(a, b)


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_guard_runs_once_per_run(monkeypatch):
    g = Grid(1, 32)
    u0 = initial_cosine(g)
    runs = [
        (diffusion, "stable_dt", "step",
         lambda: run(u0, FlowConfig(PowerLaw(2.0), g, 0.002, record_every=5))),
        (p_laplace, "pl_stable_dt", "pl_step",
         lambda: p_laplace.run(u0, FlowConfig(PLaplaceModel(3.0), g, 0.002,
                                              record_every=5))),
        (keller_segel, "ks_stable_dt", "ks_step",
         lambda: keller_segel.run_ks(*cosine_initial_state(g, mass=2.0),
                                     FlowConfig(KSModel(2.0, 1.0), g, 0.002,
                                                record_every=5))),
    ]
    for module, guard, stencil, go in runs:
        guards = _count_calls(monkeypatch, module, guard)
        steps = _count_calls(monkeypatch, module, stencil)
        traj = go()
        assert len(guards) == 1
        assert len(steps) == round(traj.times[-1] / traj.dt) > 1
    # the p-Laplace face coefficient: once for dt, then once per step
    coeffs = _count_calls(monkeypatch, p_laplace, "_face_diffusivity")
    traj = runs[1][3]()
    assert len(coeffs) == round(traj.times[-1] / traj.dt) + 1


def test_positivity_abort_keeps_the_rows_before_the_failing_step():
    # the update at 1.5 times the stable step, given no bound, loses
    # positivity after some steps: the abort carries the time before the
    # failing step and, unmeasured, exactly the snapshots recorded before it
    g = Grid(1, 32)
    u0 = initial_cosine(g)
    cfg = FlowConfig(Linear(), g, t_end=0.1, record_every=3)
    steps = []

    def advance(state, dt):
        u = state[0]
        new = conservative_step(u, np.diff(u) / g.h, np.inf, 0.75 * g.h**2, g.h,
                                np.empty_like(u))
        steps.append(new)
        return (new,)

    def guard(state, safety):
        return stable_dt(state[0], Linear(), g.h, safety)

    with pytest.raises(PositivityLossError) as info:
        march((u0,), cfg, guard, advance)
    traj, block, failing = info.value.trajectory, cfg.record_every, len(steps) + 1
    dt = traj.dt
    assert failing > 3 * block and failing * dt < cfg.t_end
    assert info.value.last_time == (failing - 1) * dt
    assert traj.meters is None
    kept = range(block, failing, block)
    assert traj.times.tolist() == [k * dt for k in range(0, failing, block)]
    assert np.array_equal(traj.u, np.stack([u0] + [steps[k - 1] for k in kept]))
