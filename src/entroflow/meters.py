"""Entropy / Fisher-information functionals and identity residuals.

Along the flow u_t = (a(u) u_x)_x the entropy integral dissipates the
Fisher functional, and the Fisher functional dissipates the square of the
derivative of u^{-1/2} d_x Sigma(u).  Both statements are exact for
classical solutions; here they are verified as residuals that must vanish
at second order under simultaneous grid/time refinement.
"""

from dataclasses import dataclass

import numpy as np

from .fields import central_diff, integrate, require_positive_field


@dataclass(frozen=True)
class MeterRecord:
    """The four functionals evaluated on one snapshot."""

    entropy: float          # int H(u)
    fisher_sigma: float     # int |d_x Sigma(u)|^2
    fisher_st: float        # int u |d_x Lambda(u)|^2
    dissipation: float      # int u a(u) |d_x(u^{-1/2} d_x Sigma(u))|^2


@dataclass
class ResidualSeries:
    """Per-interval residuals of the two flow identities."""

    r_entropy: list
    r_fisher: list
    h: float
    dt: float


@dataclass
class MonotonicityReport:
    passed: object  # True/False, or None for an observation-only run
    worst_violation: float
    tolerance_scale: float


def measure(u, model):
    """Evaluate all four functionals on a positive field."""
    require_positive_field(u)
    h = u.grid.h
    vals = u.values
    a_vals = np.asarray(model.a(vals), dtype=float)
    lam, H, sig = (np.asarray(v, dtype=float) for v in model.lam_entropy_sigma(vals))

    entropy = integrate(H, h)

    dsig = central_diff(sig, 0, h)
    fisher_sigma = integrate(dsig**2, h)

    dlam = central_diff(lam, 0, h)
    fisher_st = integrate(vals * dlam**2, h)

    # inner field u^{-1/2} d_x Sigma(u) is gradient-like: odd mirror
    inner = dsig / np.sqrt(vals)
    dinner = central_diff(inner, 0, h, odd=True)
    dissipation = integrate(vals * a_vals * dinner**2, h)

    return MeterRecord(entropy, fisher_sigma, fisher_st, dissipation)


def measure_trajectory(traj, model):
    """Attach a MeterRecord per snapshot; returns the list."""
    traj.meters = [measure(u, model) for u in traj.states]
    return traj.meters


def identity_residuals(traj):
    """Centered-in-time residuals of the entropy and Fisher identities,
    from the meters the run attached.

    Per recording interval,
        R1 = d(int H)/dt + mean fisher_sigma,
        R2 = (1/2) d(fisher_sigma)/dt + mean dissipation,
    with the time difference centered at the interval midpoint, so both
    residuals are O(dt_record^2) + O(h^2) + O(dt).
    """
    r1 = traj.interval_residuals(lambda m: m.entropy, lambda m: m.fisher_sigma)
    # halving is exact, so the halved series differences bit-identically
    r2 = traj.interval_residuals(lambda m: 0.5 * m.fisher_sigma,
                                 lambda m: m.dissipation)
    return ResidualSeries(r1, r2, h=traj.states[0].grid.h, dt=traj.record_dt)


def monotone_tolerance(h, dt, bias=0.0):
    """Scale of the acceptable per-interval monotonicity violation; ``bias``
    budgets for a known bias of the scheme, such as a regularization."""
    return 10.0 * (h * h + dt + bias)


def monotonicity_report(series, h, dt):
    """Check a functional series is non-increasing within tolerance.

    Each increment must satisfy delta <= 10 (h^2 + dt) |value|; the
    violation must vanish under refinement, which the tests encode.
    """
    return nonincreasing_report(series, monotone_tolerance(h, dt))


def nonincreasing_report(series, scale):
    """Each increment must satisfy delta <= scale * |value| (either end)."""
    worst = 0.0
    ok = True
    for lo, hi in zip(series, series[1:]):
        tol = scale * max(abs(lo), abs(hi), 1e-30)
        excess = (hi - lo) - tol
        worst = max(worst, excess)
        if excess > 0.0:
            ok = False
    return MonotonicityReport(ok, worst, scale)

