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
    ModelError,
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
    # a(3) = 6 for the m=2 power law, so the bound is h^2 / 12, and a run
    # steps at safety times it
    g = Grid(1, 64)
    u = np.full(g.shape, 3.0)
    assert stable_dt(u, PowerLaw(2.0), g.h) == pytest.approx(g.h**2 / 12.0)
    assert stable_dt(u, Linear(), g.h) == pytest.approx(g.h**2 / 2.0)
    traj = run(u, FlowConfig(PowerLaw(2.0), g, t_end=1e-3, safety=0.4))
    assert traj.dt == pytest.approx(0.4 * g.h**2 / 12.0, rel=0.01)
    assert traj.dt <= 0.4 * stable_dt(u, PowerLaw(2.0), g.h)
    # a coefficient that underflows to 0 on every face bounds no step
    assert stable_dt(np.full(16, 1e-7), PowerLaw(50.0), 1.0 / 16) == math.inf


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
            u = conservative_step(u, np.diff(u) / g.h, np.inf, 1.5 * dt_crit, g.h)


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
    # the rate of u' = u is refused (NaN) past u = 2, which the solution
    # reaches at t = ln 2: the integrator's step collapses below the float
    # spacing short of it, and the failure carries the time of the last
    # accepted step and, unmeasured, the rows recorded up to it
    g = Grid(1, 32)
    u0 = initial_cosine(g, amplitude=0.0)
    cfg = FlowConfig(Linear(), g, t_end=1.0, record_every=1)
    measured = []

    def rate(y, faces):
        return y.copy() if y.max() <= 2.0 else np.full_like(y, np.nan)

    with pytest.raises(StabilityError, match="integrator failed") as info:
        march((u0,), cfg, lambda s: 0.125, rate, measured.append)
    last, traj = info.value.last_time, info.value.trajectory
    assert math.log(2.0) - 1e-6 < last < math.log(2.0)
    assert measured == [] and traj.meters is None
    assert traj.dt == 0.05
    assert np.array_equal(traj.times, np.arange(len(traj.times)) * traj.dt)
    assert traj.times[-1] <= last < traj.times[-1] + traj.dt
    assert np.allclose(traj.u, np.exp(traj.times)[:, None] * u0, rtol=1e-9, atol=0.0)
    assert traj.integrator["rejected_steps"] > 0



@pytest.mark.parametrize("limit", [2.0, 1.0])
def test_a_rate_that_refuses_a_state_fails_the_step(limit):
    # the rate of u' = u raises a ModelError past u = limit, as a model does
    # outside its domain; the integrator evaluates it on Newton iterates and
    # trial states, at limit 1 already as it starts, and the refusal ends the
    # run as a failed step with the rows recorded before it
    g = Grid(1, 32)
    u0 = initial_cosine(g, amplitude=0.0)
    cfg = FlowConfig(Linear(), g, t_end=1.0, record_every=1)

    def rate(y, faces):
        if y.max() > limit:
            raise ModelError("past the limit")
        return y.copy()

    with pytest.raises(StabilityError,
                       match="integrator failed: ModelError: past the limit") as info:
        march((u0,), cfg, lambda s: 0.125, rate, lambda traj: None)
    last, traj = info.value.last_time, info.value.trajectory
    assert 0.0 <= last < math.log(limit) + 0.1
    assert (last == 0.0) == (limit == 1.0)
    assert traj.times[-1] <= last < traj.times[-1] + traj.dt
    assert np.allclose(traj.u, np.exp(traj.times)[:, None] * u0, rtol=1e-9, atol=0.0)
    assert traj.integrator["rhs_evaluations"] > 0


def test_an_integration_past_its_budget_aborts(monkeypatch):
    # u' = -u to t = 17 takes ~900 steps: a budget of 100 rate evaluations
    # ends it after the first dozen, with the rows recorded before it
    monkeypatch.setattr(diffusion, "MAX_RHS_EVALUATIONS", 100)
    g = Grid(1, 16)
    u0 = initial_cosine(g, amplitude=0.0)
    cfg = FlowConfig(Linear(), g, t_end=17.0, record_every=1)
    with pytest.raises(StabilityError, match="budget of 100 rate evaluations") as info:
        march((u0,), cfg, lambda s: 0.125, lambda y, faces: -y, lambda traj: None)
    last, traj = info.value.last_time, info.value.trajectory
    assert 0.0 < last < 17.0
    assert traj.times[-1] <= last < traj.times[-1] + traj.dt
    assert 100 <= traj.integrator["rhs_evaluations"] < 120
    assert np.allclose(traj.u, np.exp(-traj.times)[:, None] * u0, rtol=1e-9, atol=0.0)


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


# Buffer safety: a run lends its own face arrays to every evaluation of
# its rate (see the run contract in entroflow.diffusion).  The oracle of a
# run's time error is the explicit stencil, looped at the run's dt: its
# own error is O(dt), and dt is proportional to h^2.


@pytest.mark.parametrize("model", [Linear(), PowerLaw(2.0)])
def test_run_equals_unbuffered_stencil_loop(model, stencil_loop_gaps):
    # up to the stencil loop's time error, which falls 4x per grid doubling
    def make(g):
        u0 = initial_cosine(g)
        traj = run(u0, FlowConfig(model, g, t_end=0.01, record_every=7))
        return traj, (u0,), lambda s, dt: (step(s[0], model, g.h, dt),)

    gaps = stencil_loop_gaps(make, (16, 32, 64))
    assert gaps[0] < 1e-3
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 3.2 < coarse / fine < 4.5


def test_run_buffers_stay_private(spy_buffers):
    g = Grid(1, 16)
    u0 = initial_cosine(g)
    before = u0.copy()
    cfg = FlowConfig(PowerLaw(2.0), g, t_end=0.01, record_every=5)
    live = spy_buffers(diffusion)
    traj = run(u0, cfg)
    assert np.array_equal(u0, before)
    assert len(live) >= 3  # the run's three face arrays, and the guard's
    assert not np.shares_memory(traj.u, u0)
    assert not any(np.shares_memory(traj.u, b) for b in live.values())


def test_interleaved_runs_match_runs_alone(run_interleaved):
    def runner(cells):
        g = Grid(1, cells)
        cfg = FlowConfig(PowerLaw(2.0), g, t_end=0.005, record_every=4)
        return lambda: run(initial_cosine(g), cfg)

    runs = [runner(c) for c in (16, 32, 16)]
    alone = [r() for r in runs]
    for got, want in zip(run_interleaved(diffusion, "_fluxes", *runs), alone):
        assert got.dt == want.dt
        assert got.integrator == want.integrator
        assert got.u.tobytes() == want.u.tobytes()


# The dt check (see the run contract): each stencil checks dt against the
# bound its guard computes on the face coefficients it steps with.


def _bound_case(flow):
    """(bound, stencil(dt), inputs, cell bound) on 32 cells: the guard's
    face bound, the stencil at that state, the arrays it reads, and the
    bound the same formula gives at cell values, which differs."""
    g = Grid(1, 32)
    h, x = g.h, g.axis_centers()
    u = initial_cosine(g)
    if flow == "diffusion":
        model = PowerLaw(2.0)
        return (stable_dt(u, model, h), lambda dt: step(u, model, h, dt),
                (u,), h * h / (2.0 * model.a(u).max()))
    if flow == "p_laplace":
        model = PLaplaceModel(3.0)
        du = np.gradient(u, h)  # cell gradients
        cell = h * h / (2.0 * np.sqrt(du**2 + model.delta**2).max())
        return (p_laplace.pl_stable_dt(u, model, h),
                lambda dt: p_laplace.pl_step(u, model, h, dt), (u,), cell)
    # a steep v, so that the advective bound binds
    u = cosine_initial_state(g, mass=2.0)[0]
    v = 80.0 * (1.0 + 0.5 * np.cos(np.pi * x))
    model = KSModel(2.0, 1.0)
    bound = keller_segel.ks_stable_dt(u, v, model, h)
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
        # each flow's one flux function: once for the record grid, then
        # once per evaluation of the rate; no run steps with the stencil
        fluxes = _count_calls(monkeypatch, module, "_fluxes")
        traj = go()
        assert len(guards) == 1
        assert len(steps) == 0
        assert len(fluxes) == traj.integrator["rhs_evaluations"] + 1 > 2


def test_positivity_abort_keeps_the_rows_before_the_failing_step(monkeypatch):
    # u' = -u takes the density to the positivity floor at t ~ 17.7: the
    # abort carries the start of the step that reaches it and, unmeasured,
    # exactly the rows that the run without a floor records before it
    g = Grid(1, 32)
    u0 = initial_cosine(g)
    cfg = FlowConfig(Linear(), g, t_end=30.0, record_every=3)
    measured = []

    def decay(y, faces):
        return -y

    with pytest.raises(PositivityLossError) as info:
        march((u0,), cfg, lambda s: 1.0, decay, measured.append)
    last, traj = info.value.last_time, info.value.trajectory
    assert 15.0 < last < math.log(u0.min() / diffusion.DEFAULT_FLOOR)
    assert traj.meters is None and measured == []
    assert traj.times[-1] <= last < traj.times[-1] + 3 * traj.dt
    monkeypatch.setattr(diffusion, "DEFAULT_FLOOR", 0.0)
    whole = march((u0,), cfg, lambda s: 1.0, decay, lambda t: None)
    assert whole.times[-1] == pytest.approx(30.0)
    assert np.array_equal(traj.times, whole.times[:len(traj.times)])
    assert np.array_equal(traj.u, whole.u[:len(traj.times)])


def _flow_rate(flow, cells):
    """(rate, coupling, state) of a flow on ``cells`` cells as ``march``
    integrates it, the state a cosine profile (u, then v for chemotaxis)."""
    h = 1.0 / cells
    u = 1.0 + 0.5 * np.cos(np.pi * (np.arange(cells) + 0.5) * h)
    if flow == "keller_segel":
        model = KSModel(2.0, 1.0)
        return (lambda y, faces: keller_segel._rate(y, model, h, faces),
                (("T", "T"), ("I", "T")), np.concatenate((2.0 * u, 3.0 - u)))
    module, model = {"linear": (diffusion, Linear()),
                     "p_laplace": (p_laplace, PLaplaceModel(3.0))}[flow]
    return (lambda y, faces: diffusion.net_rate(module._fluxes(y, model, h, faces)[0], h,
                                                np.empty_like(y)),
            (("T",),), u)


@pytest.mark.parametrize("flow, cells", [("linear", 8), ("p_laplace", 7),
                                         ("keller_segel", 7)])
def test_grouped_jacobian_matches_dense_differences(flow, cells):
    rate, coupling, y = _flow_rate(flow, cells)
    fun = diffusion._Counted(rate, cells)
    jac = diffusion._jacobian(fun, coupling, cells)
    fun(0.0, y)  # as the integrator calls it, right before the Jacobian
    before = fun.evaluations
    J = jac(0.0, y)
    # one counted rate evaluation per group, 3 per field, reusing f(y)
    assert fun.evaluations - before == 3 * len(coupling)
    before = fun.evaluations
    jac(0.0, y.copy())  # another array: f(y) is evaluated once more
    assert fun.evaluations - before == 3 * len(coupling) + 1

    # the pattern is the coupling's blocks: "T" tridiagonal, "I" diagonal
    T = np.eye(cells) + np.eye(cells, k=1) + np.eye(cells, k=-1)
    pattern = np.block([[T if b == "T" else np.eye(cells) for b in row]
                        for row in coupling]) != 0
    got = np.zeros_like(pattern)
    got[J.indices, np.repeat(np.arange(len(y)), np.diff(J.indptr))] = True
    assert np.array_equal(got, pattern)

    if flow == "linear":  # the Neumann Laplacian
        expected = (T - 3.0 * np.eye(cells)) * cells**2
        expected[0, 0] = expected[-1, -1] = -cells**2
    else:  # column-by-column central differences of the same rate
        faces, expected = diffusion.face_arrays(cells), np.empty((len(y), len(y)))
        for k in range(len(y)):
            e = np.zeros_like(y)
            e[k] = 1e-5 * max(abs(y[k]), 1.0)
            expected[:, k] = (rate(y + e, faces) - rate(y - e, faces)) / (2.0 * e[k])
    np.testing.assert_allclose(J.toarray(), expected, rtol=1e-6,
                               atol=1e-6 * np.abs(expected).max())
