"""1D quasilinear chemotaxis system with nonlinear diffusion and sensitivity.

    u_t = (D(u) u_x - S(u) v_x)_x,   v_t = v_xx - v + u,   zero flux,

with D(u) = (1+u)^(-p) and S(u) = u (1+u)^(-q).  The module time-steps the
system conservatively and instruments it with the classical Lyapunov
functional, the Fisher-type functional/dissipation pair, the S(u)=u
special-case identities, and the a-priori estimate monitors that together
constitute desk-scale evidence for global existence at (p,q)=(2,1).

``measure_monitors`` evaluates all snapshots in one pass over the (S, N)
arrays of u and v, into a KSMonitor record of length-S arrays attached as
``Trajectory.meters``: the monitors and the sources of the Lyapunov,
entropy-production, L^p and (at q = 0) S(u)=u residuals.
``run_ks`` attaches it before it returns, and every residual only reads it.

``run_ks(u0, v0, config)`` steps the arrays (u0, v0), such as
``cosine_initial_state``'s, under a ``diffusion.FlowConfig`` of a KSModel.

In every functional, v_t is evaluated from the equation (v_xx - v + u),
never by time differencing: this keeps the dissipation terms pointwise
consistent with the identities being checked.
"""

from dataclasses import dataclass

import numpy as np

from .coeff_models import power_quotient
from .diffusion import RunBuffers, conservative_step, initial_cosine, march
from .errors import ConfigError, PositivityLossError, StabilityError, UsageError
from .fields import by_row_blocks, central_diff, integrate, second_diff

DEFAULT_CEILING = 1e6
_V_NEG_TOL = -1e-14


def require_strict_hypotheses(model):
    """ConfigError unless the estimates' hypotheses p - q = 1, q in (1/2, 1] hold."""
    if not model.critical:
        raise ConfigError("strict mode requires the critical line p - q = 1, "
                          "got p=%g, q=%g" % (model.p, model.q))
    if not 0.5 < model.q <= 1.0:
        raise ConfigError("strict mode requires q in (1/2, 1], got q=%g" % model.q)


@dataclass
class KSMonitor:
    """The record of a trajectory, one length-S array per field, entry k
    from snapshot k: the a-priori estimate monitors, which are the CSV
    columns, then the residual sources no column shows; the S(u)=u pieces
    are None unless q = 0."""

    time: np.ndarray
    mass: np.ndarray
    lyap_classical: np.ndarray
    lyap_F: np.ndarray
    dissipation_D: np.ndarray
    ep_estimate: np.ndarray
    lp_norm: np.ndarray
    log_bound: np.ndarray
    vt_accum: np.ndarray
    v_l2: np.ndarray
    v_l4: np.ndarray
    dv_l2: np.ndarray
    dv_l4: np.ndarray
    vt_sq: np.ndarray         # int |v_t|^2
    drift_sq: np.ndarray      # int S |D/S u_x - v_x|^2
    ep_quarter: np.ndarray    # int S D (v + v_t)^2 / 4
    ep_curvature: np.ndarray  # int (D/S u_x - v_x) D^2 S'' / (2 S) u_x^3
    lp_grad: np.ndarray       # int u^(p-2) (1+u)^(-p) |u_x|^2
    u_sq: np.ndarray          # int u^2
    s1_A: np.ndarray = None   # the lemma's A = int D^2/u |u_x|^2 / 2
    s1_B: np.ndarray = None   # the lemma's B = int u D |d_x(D/u u_x)|^2
    s1_C: np.ndarray = None   # the lemma's C = int u D v_xx d_x(D/u u_x)
    s1_F: np.ndarray = None   # the remark's F = A - int u int_1^u D


# ---------------------------------------------------------------------------
# Stepping


def v_time_derivative(u, v, h, out=None):
    """v_xx - v + u with the mirror second difference along the last axis,
    into ``out`` when given."""
    vt = second_diff(v, v.ndim - 1, h, out=out)
    np.subtract(vt, v, out=vt)
    return np.add(vt, u, out=vt)


def _fluxes(u, v, model, h, buf):
    """The interior face fluxes of u, D (u_{i+1} - u_i) / h minus the drift
    S (v_{i+1} - v_i) / h with D and S at the face states (means of adjacent
    cells), into the second and third face arrays of ``buf``, and the bound
    min(h^2 / (2 max(max D, 1)), h / max |drift|)."""
    mid, flux, drift = buf.faces[:3]
    np.add(u[1:], u[:-1], out=mid)
    np.multiply(mid, 0.5, out=mid)
    diff_coeff = max(float(np.maximum.reduce(model.D(mid, out=flux))), 1.0)
    model.S(mid, out=drift)
    np.subtract(v[1:], v[:-1], out=mid)
    np.multiply(drift, mid, out=drift)
    np.divide(drift, h, out=drift)
    adv = max(float(np.maximum.reduce(drift)), -float(np.minimum.reduce(drift)))
    np.multiply(flux, np.subtract(u[1:], u[:-1], out=mid), out=flux)
    np.divide(flux, h, out=flux)
    np.subtract(flux, drift, out=flux)
    return flux, min(h * h / (2.0 * diff_coeff), h / (adv + 1e-14))


def ks_stable_dt(u, v, model, h):
    """The smaller of a diffusive (both equations) and an advective bound, on
    the face coefficients of ``ks_step``, which checks dt against it."""
    return _fluxes(u, v, model, h, RunBuffers(u.size))[1]


def ks_step(u, v, model, h, dt, buf=None):
    """One conservative explicit step of ``_fluxes`` for u and of
    ``v_time_derivative`` for v; aborts as the run contract says.

    Returns the new (u, v) and v_t of the old state, which drove the
    v-update.  ``buf`` lends it three face arrays, one cell array (for
    v_t) and the state slots the new u and v are written into; without it
    the step allocates its own.
    """
    if buf is None:
        buf = RunBuffers(u.size)
    u_new = conservative_step(u, *_fluxes(u, v, model, h, buf), dt, h,
                              buf.next_state(0, u))
    vt = v_time_derivative(u, v, h, out=buf.cells[0])
    v_new = np.multiply(vt, dt, out=buf.next_state(1, v))
    np.add(v, v_new, out=v_new)
    if not (np.minimum.reduce(v_new) >= _V_NEG_TOL):
        raise PositivityLossError("chemoattractant went negative")
    return u_new, np.maximum(v_new, 0.0, out=v_new), vt


def cosine_initial_state(grid, mass=1.0, amplitude=0.5):
    """Preset (u0, v0): u0 = M (1 + amplitude cos(pi x)) / normalizer and
    v0 = M, as arrays; ConfigError unless the mass M is positive."""
    if not mass > 0.0:
        raise ConfigError("mass must be positive")
    return (initial_cosine(grid, mean=mass, amplitude=amplitude),
            grid.full(float(mass)))


def run_ks(u0, v0, config):
    """Guarded run from the arrays (``u0``, ``v0``) to t_end.

    The run contract is that of ``diffusion.march``: aborts raise
    PositivityLossError / StabilityError (the numerical blow-up
    indicators) carrying the trajectory built so far; after each step,
    a density above ``DEFAULT_CEILING`` is a StabilityError.  The
    trajectory's ``vt_accum`` holds the accumulated int_0^t int |v_t|^2
    at each snapshot.  It is returned measured by ``measure_monitors``.
    """
    model, h = config.model, config.grid.h

    def advance(s, dt, buf):
        u, v, acc = s
        u, v, vt = ks_step(u, v, model, h, dt, buf)
        if np.maximum.reduce(u) > DEFAULT_CEILING:
            raise StabilityError("density exceeded the blow-up suspicion ceiling")
        # dt times int |v_t|^2 by fields.integrate's midpoint rule, written
        # out: this runs every step, and the call costs as much as the sum;
        # the step takes the first cell array for v_t, the second holds v_t^2
        vt_sq = np.multiply(vt, vt, out=buf.cells[1])
        return u, v, acc + dt * (float(np.add.reduce(vt_sq)) * h)

    state = (np.asarray(u0, dtype=float), np.asarray(v0, dtype=float), 0.0)
    return march(state, config, advance=advance,
                 guard=lambda s: ks_stable_dt(s[0], s[1], model, h),
                 measure=lambda traj: measure_monitors(traj, model))


# ---------------------------------------------------------------------------
# Functionals


def classical_lyapunov(u, v, model, h):
    """int G(u) - int u v + (1/2) ||v||_H1^2 of each row of the (S, N)
    snapshot arrays u and v."""
    g_term = integrate(np.asarray(model.G(u), dtype=float), h, rows=True)
    uv = integrate(u * v, h, rows=True)
    dv = central_diff(v, 1, h)
    h1 = integrate(v * v + dv * dv, h, rows=True)
    return g_term - uv + 0.5 * h1


def _lp(vals, h, r):
    # Python's pow for each root, as for one snapshot: numpy's rounds otherwise
    return np.array([x ** (1.0 / r)
                     for x in integrate(np.abs(vals) ** r, h, rows=True).tolist()])


def measure_monitors(traj, model):
    """The one evaluation of a trajectory: one pass over its (S, N)
    snapshot arrays into a KSMonitor, attached as ``traj.meters`` and returned.

    The pass forms D(u), S(u), u_x, v_x, v_t and (D/S)(u) u_x once.
    The Fisher-type pair is included for every (p, q); the (p, q)
    hypotheses of the estimates are checked by ``require_strict_hypotheses``.
    At q = 0, where S(u) = u bit for bit, the record also holds the S(u)=u
    pieces A, B, C and F, and A is exactly the first term of ``lyap_F``.
    """
    traj.meters = by_row_blocks(lambda *rows: _monitors(model, traj.h, *rows),
                                traj.u, traj.v, traj.times, traj.vt_accum)
    return traj.meters


def _monitors(model, h, u, v, times, vt_accum):
    p = model.p
    D = np.asarray(model.D(u), dtype=float)
    S = np.asarray(model.S(u), dtype=float)
    du = central_diff(u, 1, h)
    dv = central_diff(v, 1, h)
    vt = v_time_derivative(u, v, h)
    flux_field = np.asarray(model.ratio(u)) * du  # gradient-like: odd mirror
    drift = flux_field - dv
    dflux = central_diff(flux_field, 1, h, odd=True)
    vxx = second_diff(v, 1, h)
    bracket = dflux - vxx + 0.5 * (v + vt)
    s2 = np.asarray(model.S_second(u), dtype=float)
    energy = 0.5 * integrate(D * D / S * du * du, h, rows=True)
    pieces = {}
    if model.linear_sensitivity:
        # int_1^u D = int_2^(1+u) w^(-p) dw = 2^(1-p) E(1-p, (1+u)/2)
        d_primitive = 2.0 ** (1.0 - p) * power_quotient(1.0 - p, 0.5 * (1.0 + u))
        pieces = dict(s1_A=energy, s1_B=integrate(S * D * dflux**2, h, rows=True),
                      s1_C=integrate(S * D * vxx * dflux, h, rows=True),
                      s1_F=energy - integrate(u * d_primitive, h, rows=True))
    return KSMonitor(
        time=times,
        mass=integrate(u, h, rows=True),
        lyap_classical=classical_lyapunov(u, v, model, h),
        lyap_F=(energy
                - integrate(np.asarray(model.psi(u), dtype=float), h, rows=True)),
        dissipation_D=integrate(S * D * bracket**2, h, rows=True),
        ep_estimate=integrate(du**2 / (u * (1.0 + u) ** (p + 1.0)), h, rows=True),
        lp_norm=integrate(u**p, h, rows=True),
        log_bound=np.max(np.abs(np.log1p(u)), axis=1),
        vt_accum=vt_accum,
        v_l2=_lp(v, h, 2.0), v_l4=_lp(v, h, 4.0),
        dv_l2=_lp(dv, h, 2.0), dv_l4=_lp(dv, h, 4.0),
        vt_sq=integrate(vt * vt, h, rows=True),
        drift_sq=integrate(S * drift**2, h, rows=True),
        ep_quarter=integrate(S * D * (v + vt) ** 2 / 4.0, h, rows=True),
        ep_curvature=integrate(drift * D * D * s2 / (2.0 * S) * du**3, h, rows=True),
        lp_grad=integrate(u ** (p - 2.0) * (1.0 + u) ** (-p) * du**2, h, rows=True),
        u_sq=integrate(u * u, h, rows=True),
        **pieces,
    )


def lyapunov_identity_residual(traj):
    """Residual of d/dt L + int |v_t|^2 + int S |D/S u_x - v_x|^2 = 0."""
    return traj.interval_residuals(lambda m: m.lyap_classical,
                                   lambda m: m.vt_sq + m.drift_sq)


def entro_prod_residual(traj):
    """Residual of d/dt F + D = quarter-term + curvature-term."""
    return traj.interval_residuals(
        lambda m: m.lyap_F,
        lambda m: m.dissipation_D - m.ep_quarter - m.ep_curvature,
    )


def lp_inequality_residuals(traj, model):
    """Per-interval slack of the discrete L^p differential inequality.

    Nonpositive entries mean the inequality holds on that interval; the
    tolerance for a verdict is left to the caller.
    """
    if len(traj.times) < 2:
        raise UsageError("need at least 2 snapshots")
    m, c = traj.measured(), model.p * (model.p - 1.0)
    lhs = ((m.lp_norm[1:] - m.lp_norm[:-1]) / traj.record_dt
           + c * 0.5 * (m.lp_grad[:-1] + m.lp_grad[1:]))
    rhs = (1.5 * c * 0.5 * (m.u_sq[:-1] + m.u_sq[1:])
           + 0.5 * c * 0.5 * (m.vt_sq[:-1] + m.vt_sq[1:]))
    return lhs - rhs


# ---------------------------------------------------------------------------
# S(u) = u special case, (p, q) = (p, 0)


def s1_functional_identity(traj):
    """Residuals of the two S(u)=u identities.

    Returns (lemma_series, remark_series): the first checks
    d/dt A + B = C with A the weighted gradient energy, the second checks
    d/dt F + G = quarter-term, G and the quarter-term being the record's
    ``dissipation_D`` and ``ep_quarter`` at S(u) = u.
    """
    if traj.measured().s1_A is None:
        raise UsageError("the S(u)=u identities require q = 0")
    lemma = traj.interval_residuals(lambda m: m.s1_A, lambda m: m.s1_B - m.s1_C)
    remark = traj.interval_residuals(
        lambda m: m.s1_F, lambda m: m.dissipation_D - m.ep_quarter
    )
    return lemma, remark
