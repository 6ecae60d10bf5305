import math

import numpy as np
import pytest

from entroflow import diffusion, keller_segel, p_laplace
from entroflow.coeff_models import KSModel, Linear, PowerLaw, ShiftedPowerLaw
from entroflow.diffusion import (
    DEFAULT_FLOOR,
    FlowConfig,
    Trajectory,
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
    """dt below the bound stays bounded for 100 steps; 1.5x above it, the
    stencil, which checks nothing, loses positivity within 100 steps."""
    g = Grid(1, 32)
    u0 = initial_cosine(g)
    dt_crit = g.h**2 / 2.0

    u = u0
    for _ in range(100):
        u = step(u, Linear(), g.h, 0.9 * dt_crit)
    assert u.max() < 2.0

    u, lows = u0, []
    for _ in range(100):
        u = step(u, Linear(), g.h, 1.5 * dt_crit)
        lows.append(u.min())
    assert min(lows) < DEFAULT_FLOOR


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


@pytest.mark.parametrize("flow", ["diffusion", "p_laplace", "keller_segel"])
def test_a_nan_cell_in_an_initial_state_is_a_positivity_abort(flow):
    # a non-finite density is a positivity abort, not a construction error:
    # march's floor check refuses it before the guard or the rate reads it
    g = Grid(1, 32)
    u0, v0 = cosine_initial_state(g, mass=2.0)
    u0[5] = np.nan
    go = {
        "diffusion": lambda: run(u0, FlowConfig(PowerLaw(2.0), g, t_end=0.001)),
        "p_laplace": lambda: p_laplace.run(
            u0, FlowConfig(PLaplaceModel(3.0), g, t_end=0.001)),
        "keller_segel": lambda: keller_segel.run_ks(
            u0, v0, FlowConfig(KSModel(2.0, 1.0), g, t_end=0.001)),
    }[flow]
    with pytest.raises(PositivityLossError, match="initial state below floor") as info:
        go()
    assert info.value.last_time == 0.0


@pytest.mark.parametrize("flow", ["linear", "power_law_2", "p_laplace_3"])
def test_an_infinite_cell_in_a_raw_initial_state_is_refused(flow):
    # u0 is a raw array: the floor check passes an infinite cell, and the
    # guard or march's check of the initial state refuses it
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

    def rate(y):
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

    def rate(y):
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
        march((u0,), cfg, lambda s: 0.125, lambda y: -y, lambda traj: None)
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


# Buffer safety: a rate returns a new array, and a snapshot row is a copy
# (see the run contract in entroflow.diffusion), so a run changes neither
# its initial state nor any flux it formed.  The oracle of a run's time
# error is the explicit stencil, looped at the run's dt: its own error is
# O(dt), and dt is proportional to h^2.


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
    assert len(live) >= 2  # one flux per rate evaluation
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


# The guard (see the run contract): each forms its bound on the face
# coefficients its flux steps with.


def _bound_case(flow):
    """(bound, stencil(dt), inputs, cell bound) on 32 cells: the guard's
    face bound, the stencil at that state, the arrays they read, and the
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
def test_guard_bounds_dt_on_the_face_coefficients(flow):
    bound, stencil, inputs, cell = _bound_case(flow)
    assert bound != cell
    before = [a.copy() for a in inputs]
    new = stencil(bound)
    if len(inputs) == 1:
        # at the bound a scalar flow's step is a convex combination of
        # neighbouring cells, so no new minimum appears
        assert new.min() >= inputs[0].min() * (1.0 - 1e-12)
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
        # each flow's one flux function: once per evaluation of the rate,
        # on a state or a batch of them, and never for the guard's bound;
        # no run steps with the stencil
        states = []
        fluxes = module._fluxes

        def counted(u, *args):
            states.append(u[..., 0].size)
            return fluxes(u, *args)

        monkeypatch.setattr(module, "_fluxes", counted)
        traj = go()
        assert len(guards) == 1
        assert len(steps) == 0
        assert states[0] == 1 and 3 in states  # the initial rate, a Newton batch
        assert sum(states) == traj.integrator["rhs_evaluations"] > 2


def test_positivity_abort_keeps_the_rows_before_the_failing_step(monkeypatch):
    # u' = -u takes the density to the positivity floor at t ~ 17.7: the
    # abort carries the start of the step that reaches it and, unmeasured,
    # exactly the rows that the run without a floor records before it
    g = Grid(1, 32)
    u0 = initial_cosine(g)
    cfg = FlowConfig(Linear(), g, t_end=30.0, record_every=3)
    measured = []

    def decay(y):
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
    """(rate, band, state) of a flow on ``cells`` cells as ``march``
    integrates it, the state a tuple of cosine profiles (u, then v for
    chemotaxis), whose rate acts on their interleaving."""
    h = 1.0 / cells
    u = 1.0 + 0.5 * np.cos(np.pi * (np.arange(cells) + 0.5) * h)
    if flow == "keller_segel":
        model = KSModel(2.0, 1.0)
        return lambda y: keller_segel._rate(y, model, h), (2, 3), (2.0 * u, 3.0 - u)
    module, model = {"linear": (diffusion, Linear()),
                     "power_law_2": (diffusion, PowerLaw(2.0)),
                     "p_laplace": (p_laplace, PLaplaceModel(3.0))}[flow]
    return lambda y: diffusion.net_rate(module._fluxes(y, model, h), h), (1, 1), (u,)


def _band_to_dense(band, kl, ku):
    """The matrix of LAPACK band storage: entry (i, j) at row ku + i - j."""
    n = band.shape[1]
    dense = np.zeros((n, n))
    for d in range(-kl, ku + 1):  # the d-th superdiagonal, j - i = d
        dense += np.diag(band[ku - d, max(d, 0):n + min(d, 0)], d)
    return dense


def _started(flow, cells):
    """(rate, band, state, y, solver): the integrator started on the flow's
    state, interleaved as y, to t = 0.01."""
    rate, band, state = _flow_rate(flow, cells)
    y = np.stack(state, axis=-1).ravel()
    solver = diffusion.Radau(rate, band)
    solver.start(y, 0.01)
    return rate, band, state, y, solver


@pytest.mark.parametrize("flow, cells", [("linear", 8), ("p_laplace", 7),
                                         ("keller_segel", 7)])
def test_grouped_jacobian_matches_dense_differences(flow, cells):
    rate, (kl, ku), _, y, solver = _started(flow, cells)
    # the rate at y, a trial step, and the Jacobian's kl + ku + 1 states
    assert solver.evaluations == 2 + kl + ku + 1
    before = solver.evaluations
    band = solver.jacobian(y, rate(y))
    # one evaluated state per column class, 3 per field
    assert solver.evaluations - before == kl + ku + 1 == 3 * len(y) // cells
    assert np.array_equal(band, solver.J)
    J = _band_to_dense(band, kl, ku)

    # the pattern: a field's rate reads its own field at a cell and its
    # neighbours; u's rate reads v there too, and v's rate u at the cell
    T = np.eye(cells) + np.eye(cells, k=1) + np.eye(cells, k=-1)
    blocks = [[T, T], [np.eye(cells), T]] if flow == "keller_segel" else [[T]]
    fields = len(blocks)
    pattern = np.zeros_like(J, dtype=bool)
    for i, row in enumerate(blocks):
        for j, block in enumerate(row):
            pattern[i::fields, j::fields] = block != 0
    assert np.array_equal(J != 0, pattern)

    if flow == "linear":  # the Neumann Laplacian
        expected = (T - 3.0 * np.eye(cells)) * cells**2
        expected[0, 0] = expected[-1, -1] = -cells**2
    else:  # column-by-column central differences of the same rate
        expected = np.empty((len(y), len(y)))
        for k in range(len(y)):
            e = np.zeros_like(y)
            e[k] = 1e-5 * max(abs(y[k]), 1.0)
            expected[:, k] = (rate(y + e) - rate(y - e)) / (2.0 * e[k])
    np.testing.assert_allclose(J, expected, rtol=1e-6,
                               atol=1e-6 * np.abs(expected).max())


@pytest.mark.parametrize("flow", ["power_law_2", "p_laplace", "keller_segel"])
def test_a_batched_rate_is_the_rate_of_each_row(flow, rng):
    # the integrator evaluates the rate on batches of states: row k of a
    # batch is bit for bit the rate of row k alone
    rate, _, state = _flow_rate(flow, 32)
    y = np.stack(state, axis=-1).ravel()
    batch = y * (1.0 + 0.1 * rng.standard_normal((6, len(y))))
    rates = rate(batch)
    assert rates.shape == batch.shape
    for k, row in enumerate(batch):
        assert np.array_equal(rates[k], rate(row))
    assert np.array_equal(rate(batch[:3]), rates[:3])


@pytest.mark.parametrize("flow, cells, t_end", [("linear", 16, 0.05),
                                                ("power_law_2", 24, 0.02),
                                                ("p_laplace", 16, 0.02),
                                                ("keller_segel", 32, 0.05)])
def test_integrator_takes_scipys_radau_steps(flow, cells, t_end, monkeypatch):
    # scipy.integrate.Radau, the method's reference, on the same rate at
    # the same tolerances, with a dense Jacobian of the same differences:
    # the same accepted and rejected steps and LU factorizations, and the
    # same rows up to the rounding of the linear algebra
    from scipy.integrate import solve_ivp
    from scipy.integrate._ivp import radau as scipy_radau

    rate, band, state, y0, helper = _started(flow, cells)
    cfg = FlowConfig(Linear(), Grid(1, cells), t_end=t_end)
    traj = march(state, cfg, lambda s: t_end / 8, rate, lambda traj: None, band=band)

    attempts, solve = set(), scipy_radau.solve_collocation_system

    def attempt(fun, t, y, h, *args):  # a retry on a new Jacobian is no new attempt
        attempts.add((t, h))
        return solve(fun, t, y, h, *args)

    monkeypatch.setattr(scipy_radau, "solve_collocation_system", attempt)
    ref = solve_ivp(lambda t, y: rate(y), (0.0, traj.times[-1]), y0, method="Radau",
                    t_eval=traj.times, rtol=diffusion.RTOL, atol=diffusion.ATOL,
                    dense_output=True,
                    jac=lambda t, y: _band_to_dense(helper.jacobian(y, rate(y)), *band))
    accepted = len(ref.sol.ts) - 1
    assert traj.integrator["accepted_steps"] == accepted > 10
    assert traj.integrator["rejected_steps"] == len(attempts) - accepted
    assert traj.integrator["lu_factorizations"] == ref.nlu
    fields = len(state)
    rows = np.stack([getattr(traj, f) for f in ("u", "v")[:fields]], axis=-1)
    ours = rows.reshape(len(traj.times), -1)
    assert np.max(np.abs(ours - ref.y.T)) <= 1e-9 * np.max(np.abs(ref.y))


@pytest.mark.parametrize("cells", [16, 64, 128])
def test_linear_heat_rows_are_the_exact_semi_discrete_decay(cells):
    # on the cell-centred Neumann grid cos(pi x_i) is an eigenvector of the
    # discrete Laplacian, of eigenvalue -(4 / h^2) sin^2(pi h / 2): the rows
    # carry the integrator's time error alone, which RTOL bounds
    g = Grid(1, cells)
    traj = run(initial_cosine(g), FlowConfig(Linear(), g, t_end=0.1, record_every=200))
    lam = 4.0 / g.h**2 * math.sin(0.5 * math.pi * g.h) ** 2
    decay = np.exp(-lam * traj.times[:, None])
    exact = 1.0 + 0.5 * np.cos(np.pi * g.axis_centers()) * decay
    assert np.max(np.abs(traj.u - exact)) <= 1e-9


@pytest.mark.parametrize("flow", ["linear", "p_laplace", "keller_segel"])
def test_a_constant_state_stays_put(flow):
    # its rate is 0, and so is the integrator's error estimate, which the
    # step-size rule reads as room for the largest step increase
    g, u = Grid(1, 16), np.full(16, 2.0)
    go = {"linear": lambda: run(u, FlowConfig(Linear(), g, t_end=0.5)),
          "p_laplace": lambda: p_laplace.run(u, FlowConfig(PLaplaceModel(3.0), g, 0.5)),
          "keller_segel": lambda: keller_segel.run_ks(
              u, u, FlowConfig(KSModel(2.0, 1.0), g, t_end=0.5))}[flow]
    traj = go()
    assert np.array_equal(traj.u, np.tile(u, (len(traj.times), 1)))
    assert traj.integrator["rejected_steps"] == 0
    assert 0 < traj.integrator["accepted_steps"] <= 8


# The manufactured-solution oracle (Roache, J. Fluids Eng. 124 (2002)):
# u* = 1 + e^-t cos(pi x) / 2 solves u_t = (F(u, u_x))_x + f for the source
# f = u*_t - (F(u*, u*_x))_x in closed form, so the semi-discrete rate plus
# f, integrated far below the grid's error, tracks u* at the cell centres
# to the spatial order of the face flux.  Each flow's flux F is given by
# its partial derivatives in u and in u_x.
_DELTA_SQ = PLaplaceModel(3.0).delta ** 2
_MANUFACTURED = {
    "power_law_2": (diffusion, PowerLaw(2.0), lambda u, s: 2.0 * s,
                    lambda u, s: 2.0 * u),
    "shifted_power_law_2": (diffusion, ShiftedPowerLaw(2.0), lambda u, s: 2.0 * s,
                            lambda u, s: 2.0 * (1.0 + u)),
    # F = u_x (u_x^2 + delta^2)^(1/2)
    "p_laplace_3": (p_laplace, PLaplaceModel(3.0), lambda u, s: 0.0,
                    lambda u, s: ((2.0 * s * s + _DELTA_SQ)
                                  / np.sqrt(s * s + _DELTA_SQ))),
}


@pytest.mark.parametrize("flow", sorted(_MANUFACTURED))
def test_the_flux_converges_at_second_order_on_a_manufactured_solution(flow):
    from scipy.integrate import solve_ivp

    module, model, dF_du, dF_dux = _MANUFACTURED[flow]
    errors = []
    for cells in (32, 64, 128):
        h = 1.0 / cells
        x = (np.arange(cells) + 0.5) * h

        def exact(t):  # u*, u*_x and u*_xx at the cell centres
            e = 0.5 * math.exp(-t)
            return (1.0 + e * np.cos(np.pi * x), -np.pi * e * np.sin(np.pi * x),
                    -np.pi**2 * e * np.cos(np.pi * x))

        def rate(t, y):
            u, ux, uxx = exact(t)
            source = (1.0 - u) - dF_du(u, ux) * ux - dF_dux(u, ux) * uxx
            return diffusion.net_rate(module._fluxes(y, model, h), h) + source

        sol = solve_ivp(rate, (0.0, 0.1), exact(0.0)[0], method="Radau",
                        rtol=1e-10, atol=1e-12)
        assert sol.success
        errors.append(np.max(np.abs(sol.y[:, -1] - exact(0.1)[0])))
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert orders.min() >= 1.9
