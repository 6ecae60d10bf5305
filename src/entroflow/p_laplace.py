"""Regularized 1D p-Laplace flow u_t = (|u_x|^{p-2} u_x)_x with zero flux.

The monitored quantity is I[u] = int |d_x(u^{p*})|^p with the exponent
p* = 1 - 1/(2(p-1)); for p = 2 this is exactly one quarter of the
classical Fisher information of the linear heat flow.  I is non-increasing
for p >= 2; runs with p in (1, 2) are allowed but report observations
without a verdict, and p = 3/2 is rejected outright because p* degenerates
there.

The flux is regularized as (|u_x|^2 + delta^2)^{(p-2)/2} u_x, which makes
the explicit scheme well-posed where the gradient vanishes; the
monotonicity tolerance budgets explicitly for the delta-sized bias this
introduces.

``measure_trajectory`` evaluates each snapshot once, into a PLMeter record
(I[u] and the source of its exact rate) attached as ``Trajectory.meters``;
the monotonicity verdict and the rate residuals both read it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, PositivityLossError, UsageError
from .diffusion import (DEFAULT_FLOOR, DEFAULT_SAFETY, RunBuffers,
                        check_run_contract, flux_update, march)
from .fields import Field, Grid, central_diff, integrate, second_diff
from .meters import nonincreasing_report

DEFAULT_DELTA = 1e-6


@dataclass
class PLaplaceConfig:
    p: float
    grid: Grid
    t_end: float
    delta: float = DEFAULT_DELTA
    safety: float = DEFAULT_SAFETY
    positivity_floor: float = DEFAULT_FLOOR
    record_every: int = 1

    def __post_init__(self):
        if self.p < 1.0:
            raise ConfigError("p must be >= 1")
        if abs(self.p - 1.5) < 1e-12:
            raise ConfigError("p = 3/2 is excluded (the exponent p* vanishes)")
        if not (self.delta > 0.0):
            raise ConfigError("delta must be positive")
        check_run_contract(self)

    @property
    def p_star(self):
        return p_star(self.p)


def p_star(p):
    if abs(p - 1.5) < 1e-12:
        raise UsageError("p* is undefined at p = 3/2")
    return 1.0 - 1.0 / (2.0 * (p - 1.0))


def _face_diffusivity(u, p, delta, h, buf):
    """Face gradients u_x and the coefficient (u_x^2 + delta^2)^((p-2)/2),
    written into the first two face arrays of ``buf``."""
    du, coeff = buf.faces[:2]
    np.subtract(u[1:], u[:-1], out=du)
    np.divide(du, h, out=du)
    np.multiply(du, du, out=coeff)
    np.add(coeff, delta**2, out=coeff)
    coeff **= (p - 2.0) / 2.0
    return du, coeff


def pl_stable_dt(u, config, h, safety=None, buf=None):
    """safety * h^2 / (2 max face coefficient); ``buf`` lends it two face
    arrays, and without it the guard allocates its own."""
    if safety is None:
        safety = config.safety
    if buf is None:
        buf = RunBuffers(u.size, faces=2)
    _, coeff = _face_diffusivity(u, config.p, config.delta, h, buf)
    return safety * h * h / (2.0 * float(np.maximum.reduce(coeff)))


def pl_step(u, config, h, dt, buf=None):
    """One conservative explicit step of the regularized flow.

    ``buf`` lends it two face arrays and the state slot the new state is
    written into; without it the step allocates its own.
    """
    if buf is None:
        buf = RunBuffers(u.size, faces=2)
    du, flux = _face_diffusivity(u, config.p, config.delta, h, buf)
    np.multiply(flux, du, out=flux)
    new = flux_update(u, flux, dt, h, buf.next_state(0, u))
    if not (np.minimum.reduce(new) >= config.positivity_floor):
        raise PositivityLossError("state dropped below the positivity floor")
    return new


def run(u0, config):
    """Guarded run; the run contract is that of ``diffusion.march``."""
    h = u0.grid.h
    buf = RunBuffers(u0.grid.cells, faces=2)
    return march(
        (u0.values,), config,
        guard=lambda s, safety: pl_stable_dt(s[0], config, h, safety, buf),
        advance=lambda s, dt: (pl_step(s[0], config, h, dt, buf),),
        record=lambda s: Field(u0.grid, s[0].copy()),
    )


# ---------------------------------------------------------------------------
# The Lyapunov functional and its exact rate


@dataclass(frozen=True)
class PLMeter:
    """The record of one snapshot."""

    I: float            # I[u] = int |d_x(u^{p*})|^p
    rate_source: float  # minus dI/dt: minus the sum of the three rate terms


def lyap_I(u, p):
    """I[u] = int |d_x(u^{p*})|^p by the mirror stencil and midpoint rule."""
    return _lyap_parts(u, p)[0]


def _lyap_parts(u, p):
    """I[u], p*, w = u^{p*} and w_x on a positive field."""
    if u.min() <= 0.0:
        raise UsageError("u must be positive")
    ps = p_star(p)
    w = u.values**ps
    dw = central_diff(w, 0, u.grid.h)
    return integrate(Field(u.grid, np.abs(dw) ** p)), ps, w, dw


def measure_trajectory(traj, p, delta=0.0):
    """The one evaluation of a trajectory: a PLMeter per snapshot, attached
    as ``traj.meters`` and returned.

    For smooth positive u, dI/dt is the sum of three integrals in
    w = u^{p*}: a negative square involving d_x(|w_x|^{p-2} w_x), a signed
    cubic-gradient curvature term, and a negative term in |w_x|^{2p};
    delta regularizes the |w_x|^{p-2} weights exactly as the flux does.
    """
    meters = []
    for u in traj.states:
        I, ps, w, dw = _lyap_parts(u, p)
        grid, h, vals = u.grid, u.grid.h, u.values
        dw_sq = dw * dw + delta * delta
        flux_like = dw_sq ** ((p - 2.0) / 2.0) * dw  # gradient-like: odd mirror
        dflux = central_diff(flux_like, 0, h, odd=True)
        t1 = -p * ps ** (2.0 - p) * integrate(
            Field(grid, vals ** (0.5 - 0.5 / (p - 1.0)) * dflux**2)
        )
        d2w = second_diff(w, 0, h)
        t2 = 0.5 * p * p * ps ** (1.0 - p) * integrate(
            Field(grid, vals ** (-0.5) * dw_sq ** (p - 2.0) * dw * dw * d2w)
        )
        t3 = -0.25 * p * ps ** (-p) * integrate(
            Field(grid, dw_sq**p * vals ** (-1.5 + 0.5 / (p - 1.0)))
        )
        meters.append(PLMeter(I, -(t1 + t2 + t3)))
    traj.meters = meters
    return meters


def rate_residuals(traj, p, delta=0.0):
    """Per-interval dI/dt minus the midpoint mean of the three rate terms."""
    meters = traj.meters or measure_trajectory(traj, p, delta)
    return traj.interval_residuals(
        [m.I for m in meters], [m.rate_source for m in meters]
    )


# ---------------------------------------------------------------------------
# Monotonicity verdict


@dataclass
class PLMonoReport:
    passed: object  # True/False for p >= 2, None for observation-only runs
    worst_violation: float
    tolerance_scale: float
    I_values: list


def mono_tolerance(h, dt, p, delta):
    return 10.0 * (h * h + dt + delta ** min(p - 1.0, 1.0))


def monotonicity_report(traj, config):
    """Per-interval Delta I <= tol * |I|; verdict only issued for p >= 2."""
    p = config.p
    h = traj.states[0].grid.h
    dt = traj.record_dt if len(traj.times) > 1 else traj.dt
    meters = traj.meters or measure_trajectory(traj, p, config.delta)
    I_vals = [m.I for m in meters]
    rep = nonincreasing_report(I_vals, mono_tolerance(h, dt, p, config.delta))
    verdict = (rep.passed if p >= 2.0 else None)
    return PLMonoReport(verdict, rep.worst_violation, rep.tolerance_scale, I_vals)
