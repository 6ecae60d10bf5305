"""1D quasilinear chemotaxis system with nonlinear diffusion and sensitivity.

    u_t = (D(u) u_x - S(u) v_x)_x,   v_t = v_xx - v + u,   zero flux,

with D(u) = (1+u)^(-p) and S(u) = u (1+u)^(-q).  The module time-steps the
system conservatively and instruments it with the classical Lyapunov
functional, the Fisher-type functional/dissipation pair, the S(u)=u
special-case identities, and the a-priori estimate monitors that together
constitute desk-scale evidence for global existence at (p,q)=(2,1).

In every functional, v_t is evaluated from the equation (v_xx - v + u),
never by time differencing: this keeps the dissipation terms pointwise
consistent with the identities being checked.
"""

from dataclasses import dataclass

import numpy as np

from .coeff_models import KSModel
from .diffusion import (DEFAULT_FLOOR, DEFAULT_SAFETY, RunBuffers,
                        check_run_contract, flux_update, march)
from .errors import ConfigError, PositivityLossError, UsageError
from .fields import Field, Grid, central_diff, integrate, second_diff

DEFAULT_CEILING = 1e6
_V_NEG_TOL = -1e-14


@dataclass(frozen=True)
class KSParams:
    p: float
    q: float

    def model(self):
        return KSModel(self.p, self.q)

    def check_strict(self):
        """Hypotheses of the entropy-production estimates: p-q=1, q in (1/2,1]."""
        if abs(self.p - self.q - 1.0) > 1e-12:
            raise ConfigError(
                "strict mode requires the critical line p - q = 1, got "
                "p=%g, q=%g" % (self.p, self.q)
            )
        if not (0.5 < self.q <= 1.0):
            raise ConfigError(
                "strict mode requires q in (1/2, 1], got q=%g" % self.q
            )


@dataclass
class KSState:
    """A validated (u, v) pair; along a run, ``vt_accum`` is the cumulative
    int_0^t int |v_t|^2 up to this snapshot."""

    u: Field
    v: Field
    vt_accum: float = 0.0

    def __post_init__(self):
        if self.u.grid != self.v.grid:
            raise UsageError("u and v must share a grid")
        if self.u.grid.dim != 1:
            raise UsageError("the chemotaxis solver is one-dimensional")


@dataclass
class KSConfig:
    params: KSParams
    grid: Grid
    t_end: float
    mass: float = 1.0
    amplitude: float = 0.5
    safety: float = DEFAULT_SAFETY
    positivity_floor: float = DEFAULT_FLOOR
    ceiling: float = DEFAULT_CEILING
    record_every: int = 1
    strict: bool = False

    def __post_init__(self):
        if not self.mass > 0.0:
            raise ConfigError("mass must be positive")
        check_run_contract(self)
        if self.strict:
            self.params.check_strict()


@dataclass
class KSMonitor:
    """One row of the a-priori estimate monitors."""

    time: float
    mass: float
    lyap_classical: float
    lyap_F: float
    dissipation_D: float
    ep_estimate: float
    lp_norm: float
    log_bound: float
    vt_accum: float
    v_l2: float
    v_l4: float
    dv_l2: float
    dv_l4: float


# ---------------------------------------------------------------------------
# Stepping


def v_time_derivative(u, v, h, out=None):
    """v_xx - v + u with the mirror second difference, into ``out`` when
    given."""
    vt = second_diff(v, 0, h, out=out)
    np.subtract(vt, v, out=vt)
    return np.add(vt, u, out=vt)


def ks_stable_dt(u, v, model, h, safety=DEFAULT_SAFETY, buf=None):
    """Diffusive guard for both equations plus an advective guard.

    ``buf`` lends it two cell arrays; without it the guard allocates its
    own.
    """
    if buf is None:
        buf = RunBuffers(u.size, cells=2)
    coeff, dv = buf.cells[:2]
    diff_coeff = max(float(np.maximum.reduce(model.D(u, out=coeff))), 1.0)
    dt_diff = safety * h * h / (2.0 * diff_coeff)
    central_diff(v, 0, h, out=dv)
    np.multiply(model.S(u, out=coeff), dv, out=coeff)
    adv = float(np.maximum.reduce(np.abs(coeff, out=coeff)))
    dt_adv = safety * h / (adv + 1e-14)
    return min(dt_diff, dt_adv)


def ks_step(u, v, model, h, dt, floor=DEFAULT_FLOOR, buf=None):
    """One conservative explicit step; aborts on positivity loss.

    The u flux at each interior face combines a diffusive and an advective
    part, both with coefficients at the arithmetic-mean face state; the
    boundary fluxes vanish, so the discrete u-mass telescopes exactly.
    Returns the new (u, v) and v_t of the old state, which drove the
    v-update.  ``buf`` lends it three face arrays, one cell array (for
    v_t) and the state slots the new u and v are written into; without it
    the step allocates its own.
    """
    if buf is None:
        buf = RunBuffers(u.size, faces=3, cells=1, fields=2)
    mid, flux, drift = buf.faces[:3]
    np.add(u[1:], u[:-1], out=mid)
    np.multiply(mid, 0.5, out=mid)
    np.subtract(u[1:], u[:-1], out=drift)
    np.multiply(model.D(mid, out=flux), drift, out=flux)
    np.divide(flux, h, out=flux)
    model.S(mid, out=drift)
    np.subtract(v[1:], v[:-1], out=mid)
    np.multiply(drift, mid, out=drift)
    np.divide(drift, h, out=drift)
    np.subtract(flux, drift, out=flux)
    u_new = flux_update(u, flux, dt, h, buf.next_state(0, u))
    if not (np.minimum.reduce(u_new) >= floor):
        raise PositivityLossError("cell density lost positivity")
    vt = v_time_derivative(u, v, h, out=buf.cells[0])
    v_new = np.multiply(vt, dt, out=buf.next_state(1, v))
    np.add(v, v_new, out=v_new)
    if not (np.minimum.reduce(v_new) >= _V_NEG_TOL):
        raise PositivityLossError("chemoattractant went negative")
    return u_new, np.maximum(v_new, 0.0, out=v_new), vt


def cosine_initial_state(grid, mass, amplitude=0.5):
    """Preset u0 = M (1 + amplitude cos(pi x)) / normalizer, v0 = M."""
    x = grid.axis_centers()
    u_vals = 1.0 + amplitude * np.cos(np.pi * x)
    u_vals *= mass / np.mean(u_vals)
    return KSState(Field(grid, u_vals), Field(grid, np.full(grid.shape, mass)))


def run_ks(config):
    """Guarded run from the cosine initial state to t_end.

    The run contract is that of ``diffusion.march``: aborts raise
    PositivityLossError / StabilityError (the numerical blow-up
    indicators, the density ceiling included) carrying the trajectory
    built so far.  Each recorded KSState carries the accumulated
    int_0^t int |v_t|^2.
    """
    state = cosine_initial_state(config.grid, config.mass, config.amplitude)
    model = config.params.model()
    grid = config.grid
    h, floor = grid.h, config.positivity_floor
    # the guard's two cell arrays are free again once it has returned:
    # the step takes the first for v_t, and the second holds v_t^2
    buf = RunBuffers(grid.cells, faces=3, cells=2, fields=2)
    vt_sq = buf.cells[1]

    def advance(s, dt):
        u, v, acc = s
        u, v, vt = ks_step(u, v, model, h, dt, floor, buf)
        # dt times int |v_t|^2 by the midpoint rule of fields.integrate
        np.multiply(vt, vt, out=vt_sq)
        return u, v, acc + dt * (float(np.add.reduce(vt_sq)) * h)

    return march(
        (state.u.values, state.v.values, 0.0), config,
        guard=lambda s, safety: ks_stable_dt(s[0], s[1], model, h, safety, buf),
        advance=advance,
        record=lambda s: KSState(Field(grid, s[0].copy()),
                                 Field(grid, s[1].copy()), s[2]),
        ceiling=config.ceiling,
    )


# ---------------------------------------------------------------------------
# Functionals


def classical_lyapunov(state, params):
    """int G(u) - int u v + (1/2) ||v||_H1^2."""
    model = params.model()
    grid = state.u.grid
    u = state.u.values
    v = state.v.values
    g_term = integrate(Field(grid, np.asarray(model.G(u), dtype=float)))
    uv = integrate(Field(grid, u * v))
    dv = central_diff(v, 0, grid.h)
    h1 = integrate(Field(grid, v * v + dv * dv))
    return g_term - uv + 0.5 * h1


def lyapunov_dissipation(state, params):
    """(int |v_t|^2, int S(u) |D/S u_x - v_x|^2)."""
    model = params.model()
    grid = state.u.grid
    h = grid.h
    u = state.u.values
    vt = v_time_derivative(u, state.v.values, h)
    vt_sq = integrate(Field(grid, vt * vt))
    du = central_diff(u, 0, h)
    dv = central_diff(state.v.values, 0, h)
    drift = np.asarray(model.ratio(u)) * du - dv
    s_term = integrate(Field(grid, np.asarray(model.S(u)) * drift**2))
    return vt_sq, s_term


def functional_F_and_D(state, params):
    """The Fisher-type pair: F = (1/2) int D^2/S |u_x|^2 - int Psi(u) and
    the nonnegative dissipation D built on the drift D/S u_x - v_x."""
    model = params.model()
    grid = state.u.grid
    h = grid.h
    u = state.u.values
    v = state.v.values
    D = np.asarray(model.D(u), dtype=float)
    S = np.asarray(model.S(u), dtype=float)
    du = central_diff(u, 0, h)
    grad_term = 0.5 * integrate(Field(grid, D * D / S * du * du))
    psi_term = integrate(Field(grid, np.asarray(model.psi(u), dtype=float)))
    F = grad_term - psi_term

    vt = v_time_derivative(u, v, h)
    flux_field = np.asarray(model.ratio(u)) * du  # gradient-like: odd mirror
    bracket = (
        central_diff(flux_field, 0, h, odd=True)
        - second_diff(v, 0, h)
        + 0.5 * (v + vt)
    )
    Dfun = integrate(Field(grid, S * D * bracket**2))
    return F, Dfun


def _entro_prod_sources(state, params):
    """Right-hand side of the entropy-production identity."""
    model = params.model()
    grid = state.u.grid
    h = grid.h
    u = state.u.values
    v = state.v.values
    D = np.asarray(model.D(u), dtype=float)
    S = np.asarray(model.S(u), dtype=float)
    vt = v_time_derivative(u, v, h)
    quarter = integrate(Field(grid, S * D * (v + vt) ** 2 / 4.0))
    du = central_diff(u, 0, h)
    dv = central_diff(v, 0, h)
    drift = np.asarray(model.ratio(u)) * du - dv
    s2 = np.asarray(model.S_second(u), dtype=float)
    curvature = integrate(
        Field(grid, drift * D * D * s2 / (2.0 * S) * du**3)
    )
    return quarter, curvature


def lyapunov_identity_residual(traj, params, lyap=None):
    """Residual of d/dt L + int |v_t|^2 + int S |D/S u_x - v_x|^2 = 0.

    ``lyap`` holds L per snapshot when the caller has it already (the
    ``lyap_classical`` monitors); otherwise it is computed here.
    """
    if lyap is None:
        lyap = [classical_lyapunov(s, params) for s in traj.states]
    return traj.interval_residuals(
        lyap, [sum(lyapunov_dissipation(s, params)) for s in traj.states],
    )


def entro_prod_residual(traj, params):
    """Residual of d/dt F + D = quarter-term + curvature-term."""
    F, Dfun = zip(*(functional_F_and_D(s, params) for s in traj.states))
    rhs = [_entro_prod_sources(s, params) for s in traj.states]
    return traj.interval_residuals(
        F, [d - quarter - curv for d, (quarter, curv) in zip(Dfun, rhs)]
    )


# ---------------------------------------------------------------------------
# S(u) = u special case, (p, q) = (p, 0)


def _check_s1(params):
    if abs(params.q) > 1e-12:
        raise UsageError("the S(u)=u identities require q = 0")


def _s1_pieces(state, params):
    model = params.model()
    grid = state.u.grid
    h = grid.h
    u = state.u.values
    v = state.v.values
    D = np.asarray(model.D(u), dtype=float)
    du = central_diff(u, 0, h)
    A = 0.5 * integrate(Field(grid, D * D / u * du * du))
    flux_field = D / u * du
    dflux = central_diff(flux_field, 0, h, odd=True)
    B = integrate(Field(grid, u * D * dflux**2))
    vxx = second_diff(v, 0, h)
    C = integrate(Field(grid, u * D * vxx * dflux))
    vt = v_time_derivative(u, v, h)
    bracket = dflux - vxx + 0.5 * (v + vt)
    G = integrate(Field(grid, u * D * bracket**2))
    quarter = integrate(Field(grid, u * D * (v + vt) ** 2 / 4.0))
    # int_1^u D(s) ds in closed form for D = (1+s)^(-p)
    p = params.p
    if abs(p - 1.0) <= 1e-12:
        d_primitive = np.log((1.0 + u) / 2.0)
    else:
        d_primitive = ((1.0 + u) ** (1.0 - p) - 2.0 ** (1.0 - p)) / (1.0 - p)
    F_s1 = A - integrate(Field(grid, u * d_primitive))
    return A, B, C, F_s1, G, quarter


def s1_functional_identity(traj, params):
    """Residuals of the two S(u)=u identities.

    Returns (lemma_series, remark_series): the first checks
    d/dt A + B = C with A the weighted gradient energy, the second checks
    d/dt F + G = quarter-term.
    """
    _check_s1(params)
    A, B, C, F, G, quarter = zip(*(_s1_pieces(s, params) for s in traj.states))
    lemma = traj.interval_residuals(A, [b - c for b, c in zip(B, C)])
    remark = traj.interval_residuals(F, [g - q for g, q in zip(G, quarter)])
    return lemma, remark


def s1_nonneg_dissipation(state, params):
    """The square-integrand G of the remark identity (bit-exactly >= 0)."""
    _check_s1(params)
    return _s1_pieces(state, params)[4]


# ---------------------------------------------------------------------------
# A-priori estimate monitors


def _lp(vals, grid, r):
    return integrate(Field(grid, np.abs(vals) ** r)) ** (1.0 / r)


def measure_monitors(traj, params):
    """KSMonitor series along a trajectory, the Fisher-type pair included
    for every (p, q); the (p, q) hypotheses of the estimates are checked
    by ``KSConfig(strict=True)``.
    """
    out = []
    for t, state in zip(traj.times, traj.states):
        grid = state.u.grid
        h = grid.h
        u = state.u.values
        v = state.v.values
        du = central_diff(u, 0, h)
        dv = central_diff(v, 0, h)
        F, Dfun = functional_F_and_D(state, params)
        out.append(
            KSMonitor(
                time=t,
                mass=integrate(state.u),
                lyap_classical=classical_lyapunov(state, params),
                lyap_F=F,
                dissipation_D=Dfun,
                ep_estimate=integrate(
                    Field(grid, du**2 / (u * (1.0 + u) ** (params.p + 1.0)))
                ),
                lp_norm=integrate(Field(grid, u**params.p)),
                log_bound=float(np.max(np.abs(np.log1p(u)))),
                vt_accum=state.vt_accum,
                v_l2=_lp(v, grid, 2.0),
                v_l4=_lp(v, grid, 4.0),
                dv_l2=_lp(dv, grid, 2.0),
                dv_l4=_lp(dv, grid, 4.0),
            )
        )
    return out


def lp_inequality_residuals(traj, params):
    """Per-interval slack of the discrete L^p differential inequality.

    Nonpositive entries mean the inequality holds on that interval; the
    tolerance for a verdict is left to the caller.
    """
    p = params.p
    if len(traj.times) < 2:
        raise UsageError("need at least 2 snapshots")
    dt = traj.record_dt

    def pieces(state):
        grid = state.u.grid
        u = state.u.values
        du = central_diff(u, 0, grid.h)
        vt = v_time_derivative(u, state.v.values, grid.h)
        lp = integrate(Field(grid, u**p))
        grad = integrate(Field(grid, u ** (p - 2.0) * (1.0 + u) ** (-p) * du**2))
        usq = integrate(Field(grid, u * u))
        vtsq = integrate(Field(grid, vt * vt))
        return lp, grad, usq, vtsq

    vals = [pieces(s) for s in traj.states]
    c = p * (p - 1.0)
    out = []
    for k in range(len(vals) - 1):
        lp0, g0, us0, vt0 = vals[k]
        lp1, g1, us1, vt1 = vals[k + 1]
        lhs = (lp1 - lp0) / dt + c * 0.5 * (g0 + g1)
        rhs = 1.5 * c * 0.5 * (us0 + us1) + 0.5 * c * 0.5 * (vt0 + vt1)
        out.append(lhs - rhs)
    return out
