"""Regularized 1D p-Laplace flow u_t = (|u_x|^{p-2} u_x)_x with zero flux.

The monitored quantity is I[u] = int |d_x(u^{p*})|^p with the exponent
p* = 1 - 1/(2(p-1)); for p = 2 this is exactly one quarter of the
classical Fisher information of the linear heat flow.  I is non-increasing
for p >= 2; runs with p in (1, 2) are allowed but report observations
without a verdict, and p <= 1 and p = 3/2 are rejected outright because p*
is undefined or degenerates there.

The flux is regularized as (|u_x|^2 + delta^2)^{(p-2)/2} u_x, which keeps
its coefficient finite and positive where the gradient vanishes; the
monotonicity tolerance budgets explicitly for the delta-sized bias this
introduces.  p and delta are the flow's ``PLaplaceModel``: the rate, guard,
meter and verdict take it as diffusion's take a coefficient model.

``measure_trajectory`` evaluates all snapshots in one pass over the (S, N)
snapshot array, into a PLMeter record (I[u] and the source of its exact
rate, one length-S array each) that ``run`` attaches as
``Trajectory.meters``; the monotonicity verdict and the rate residuals only
read it.  For 1 < p < 3/2, p* < 0 makes the rate's powers of p* complex, so
the record holds I alone: such a run has no rate residual.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UsageError
from .diffusion import march, net_rate
from .fields import (by_row_blocks, central_diff, integrate,
                     require_positive_field, second_diff)
from .meters import monotonicity_report as _monotonicity_report

DEFAULT_DELTA = 1e-6


@dataclass(frozen=True)
class PLaplaceModel:
    """The flow's exponent p and the regularization delta of its flux."""

    p: float
    delta: float = DEFAULT_DELTA

    def __post_init__(self):
        if not self.p > 1.0:
            raise ConfigError("p must be > 1 (p* is undefined at p = 1)")
        if abs(self.p - 1.5) < 1e-12:
            raise ConfigError("p = 3/2 is excluded (the exponent p* vanishes)")
        # the flux adds delta^2, which must not overflow
        if not (self.delta > 0.0 and self.delta * self.delta < math.inf):
            raise ConfigError("delta must be positive, with a finite square")


def p_star(p):
    if abs(p - 1.5) < 1e-12:
        raise UsageError("p* is undefined at p = 3/2")
    return 1.0 - 1.0 / (2.0 * (p - 1.0))


def _face_terms(u, model, h):
    """The face gradients u_x and the coefficients (u_x^2 + delta^2)^((p-2)/2)."""
    du = (u[..., 1:] - u[..., :-1]) / h
    return du, (du * du + model.delta**2) ** ((model.p - 2.0) / 2.0)


def _fluxes(u, model, h):
    """The interior face fluxes (u_x^2 + delta^2)^((p-2)/2) u_x."""
    du, coeff = _face_terms(u, model, h)
    return coeff * du


def pl_stable_dt(u, model, h):
    """h^2 / (2 max coefficient) of ``_face_terms``.  For p < 2 a squared face
    gradient that overflows gives a coefficient of 0, and 0 on every face
    bounds no step, inf; a bound of 0 (p > 2) or inf is left to ``march``."""
    c_max = float(_face_terms(u, model, h)[1].max())
    return h * h / (2.0 * c_max) if c_max > 0.0 else math.inf


def pl_step(u, model, h, dt):
    """One explicit Euler step, u + dt ``net_rate(_fluxes)``, a new array that
    nothing checks: no run steps with it, the oracle of a run's time error."""
    return net_rate(_fluxes(u, model, h), h) * dt + u


def run(u0, config):
    """The run from the density array ``u0``; the run contract, checks of
    ``u0`` included, is that of ``diffusion.march``, and the trajectory is
    returned measured by ``measure_trajectory``."""
    model, h = config.model, config.grid.h
    return march((np.asarray(u0, dtype=float),), config,
                 guard=lambda s: pl_stable_dt(s[0], model, h),
                 rate=lambda y: net_rate(_fluxes(y, model, h), h),
                 measure=lambda traj: measure_trajectory(traj, model))


# ---------------------------------------------------------------------------
# The Lyapunov functional and its exact rate


@dataclass(frozen=True)
class PLMeter:
    """The record of a trajectory, one length-S array per field."""

    I: np.ndarray            # I[u] = int |d_x(u^{p*})|^p
    rate_source: np.ndarray  # minus dI/dt: minus the sum of the three rate
                             # terms; None for p < 3/2, where p* < 0


def measure_trajectory(traj, model):
    """The one evaluation of a trajectory: one pass over its (S, N)
    snapshot array into a PLMeter, attached as ``traj.meters`` and returned.

    For smooth positive u, dI/dt is the sum of three integrals in
    w = u^{p*}: a negative square involving d_x(|w_x|^{p-2} w_x), a signed
    cubic-gradient curvature term, and a negative term in |w_x|^{2p};
    delta regularizes the |w_x|^{p-2} weights exactly as the flux does.
    Their coefficients are powers p*^(2-p), p*^(1-p) and p*^(-p), real
    only for p* > 0, so for p < 3/2 no rate source is recorded.
    """
    p, delta, h, ps = model.p, model.delta, traj.h, p_star(model.p)
    require_positive_field(traj.u)
    traj.meters = by_row_blocks(lambda u: _pl_meter(u, p, ps, delta, h), traj.u)
    return traj.meters


def _pl_meter(u, p, ps, delta, h):
    w = u**ps
    dw = central_diff(w, 1, h)
    I = integrate(np.abs(dw) ** p, h, rows=True)
    if ps < 0.0:
        return PLMeter(I, None)
    dw_sq = dw * dw + delta * delta
    flux_like = dw_sq ** ((p - 2.0) / 2.0) * dw  # gradient-like: odd mirror
    dflux = central_diff(flux_like, 1, h, odd=True)
    t1 = -p * ps ** (2.0 - p) * integrate(
        u ** (0.5 - 0.5 / (p - 1.0)) * dflux**2, h, rows=True)
    d2w = second_diff(w, 1, h)
    t2 = 0.5 * p * p * ps ** (1.0 - p) * integrate(
        u ** (-0.5) * dw_sq ** (p - 2.0) * dw * dw * d2w, h, rows=True)
    t3 = -0.25 * p * ps ** (-p) * integrate(
        dw_sq**p * u ** (-1.5 + 0.5 / (p - 1.0)), h, rows=True)
    return PLMeter(I, -(t1 + t2 + t3))


def rate_residuals(traj):
    """Per-interval dI/dt minus the midpoint mean of the three rate terms;
    UsageError for p < 3/2, whose record holds no rate source."""
    if traj.measured().rate_source is None:
        raise UsageError("no rate source is recorded for p < 3/2")
    return traj.interval_residuals(lambda m: m.I, lambda m: m.rate_source)


# ---------------------------------------------------------------------------
# Monotonicity verdict


def monotonicity_report(traj, model):
    """Per-interval Delta I <= tol * |I|, the tolerance budgeting for the
    bias of the regularized flux; the verdict ``passed`` is issued only for
    p >= 2 and is None for the observation-only runs."""
    dt = traj.record_dt if len(traj.times) > 1 else traj.dt
    rep = _monotonicity_report(traj.measured().I, traj.h, dt,
                               bias=model.delta ** min(model.p - 1.0, 1.0))
    if model.p < 2.0:
        rep.passed = None
    return rep
