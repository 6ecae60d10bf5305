"""Entropy / Fisher-information functionals and identity residuals.

Along the flow u_t = (a(u) u_x)_x the entropy integral dissipates the
Fisher functional, and the Fisher functional dissipates the square of the
derivative of u^{-1/2} d_x Sigma(u).  Both statements are exact for
classical solutions; here they are verified as residuals that must vanish
at second order under simultaneous grid/time refinement.
``measure`` makes one pass over a run's (S, N) snapshot array, into length-S
arrays equal, bit for bit, to the formula applied to each snapshot alone.
"""

from dataclasses import dataclass

import numpy as np

from .fields import by_row_blocks, central_diff, integrate, require_positive_field


@dataclass(frozen=True)
class MeterRecord:
    """The four functionals, one length-S array each, entry k from
    snapshot k."""

    entropy: np.ndarray       # int H(u)
    fisher_sigma: np.ndarray  # int |d_x Sigma(u)|^2
    fisher_st: np.ndarray     # int u |d_x Lambda(u)|^2
    dissipation: np.ndarray   # int u a(u) |d_x(u^{-1/2} d_x Sigma(u))|^2


@dataclass
class ResidualSeries:
    """Per-interval residuals of the two flow identities."""

    r_entropy: np.ndarray
    r_fisher: np.ndarray


@dataclass
class MonotonicityReport:
    passed: object  # True/False, or None for an observation-only run
    worst_violation: float
    tolerance_scale: float


def measure(u, model, h):
    """The four functionals of each row of the positive (S, N) array ``u``
    of snapshots on cells of width h, in one pass over its row blocks."""
    require_positive_field(u)
    return by_row_blocks(lambda rows: _measure_rows(rows, model, h), u)


def _measure_rows(u, model, h):
    a_vals = np.asarray(model.a(u), dtype=float)
    lam, H, sig = (np.asarray(v, dtype=float) for v in model.lam_entropy_sigma(u))

    entropy = integrate(H, h, rows=True)

    dsig = central_diff(sig, 1, h)
    fisher_sigma = integrate(dsig**2, h, rows=True)

    dlam = central_diff(lam, 1, h)
    fisher_st = integrate(u * dlam**2, h, rows=True)

    # inner field u^{-1/2} d_x Sigma(u) is gradient-like: odd mirror
    inner = dsig / np.sqrt(u)
    dinner = central_diff(inner, 1, h, odd=True)
    dissipation = integrate(u * a_vals * dinner**2, h, rows=True)

    return MeterRecord(entropy, fisher_sigma, fisher_st, dissipation)


def measure_trajectory(traj, model):
    """Attach the MeterRecord of the trajectory's snapshots; returns it."""
    traj.meters = measure(traj.u, model, traj.h)
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
    return ResidualSeries(r1, r2)


def monotone_tolerance(h, dt, bias=0.0):
    """Scale of the acceptable per-interval monotonicity violation; ``bias``
    budgets for a known bias of the scheme, such as a regularization."""
    return 10.0 * (h * h + dt + bias)


def monotonicity_report(series, h, dt, bias=0.0):
    """Check each increment of a functional series is at most
    ``monotone_tolerance(h, dt, bias)`` times |value| at either end."""
    scale = monotone_tolerance(h, dt, bias)
    series = np.asarray(series, dtype=float)
    lo, hi = series[:-1], series[1:]
    tol = scale * np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1e-30)
    excess = (hi - lo) - tol
    return MonotonicityReport(not np.any(excess > 0.0),
                              float(np.fmax.reduce(excess, initial=0.0)), scale)
