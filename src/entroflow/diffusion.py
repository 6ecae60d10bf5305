"""Conservative method-of-lines flow u_t = (a(u) u_x)_x on (0,1), and
the one integrator that every flow of the package runs on.

Conservative flux form with zero boundary fluxes makes the semi-discrete
rates sum to zero, so the discrete mass is conserved to rounding;
positivity is enforced by aborting the run rather than clamping, since
clamping would silently break every identity this package exists to
verify.

The run contract, shared by ``run(u0, config)``, ``p_laplace.run(u0,
config)`` and ``keller_segel.run_ks(u0, v0, config)`` through ``march``:

- a run takes its initial state as arrays and one ``FlowConfig``: the flow's
  model (a coefficient model, ``PLaplaceModel`` or ``KSModel``), the grid,
  t_end, safety and record_every, which its constructor checks;
- a flow writes its face flux once, in a private ``_fluxes`` returning the
  interior face flux alone.  Its rate, the semi-discrete time derivative,
  is ``net_rate`` of that flux (for chemotaxis, with ``v_time_derivative``
  for v), on states along a leading axis, row k of a batch bit for bit the
  rate of row k alone; its guard (``stable_dt``, ``pl_stable_dt``,
  ``ks_stable_dt``) forms the explicit scheme's stability bound on the face
  coefficients the flux shares; and its explicit Euler stencil (``step``,
  ``pl_step``, ``ks_step``), which checks nothing and no run steps with,
  is the oracle of a run's time error;
- the loop owns the integration: ``Radau``, the Radau IIA of
  ``scipy.integrate.Radau`` (Hairer & Wanner, Solving ODEs II, Sec.
  IV.8), an implicit fifth-order method that stiffness does not hold to a
  step bound, integrates the rate from 0 to the last record time at the
  fixed tolerances ``RTOL`` and ``ATOL`` in scipy's steps; nothing
  configures it.  It evaluates the rate once per Newton iteration, on the
  three collocation states, and once per Jacobian of grouped forward
  differences, which goes straight into LAPACK band storage, and factors
  its Newton matrices by LAPACK's banded LU;
- the loop owns the record grid: dt is fixed once as the configured
  safety times the guard's bound on the initial state, then shrunk so that
  t_end is a whole number of ``record_every``-step blocks, and row k is
  the state at k * record_every * dt.  The guard runs once per run, and
  nothing else reads the safety; dt sets where the rows are, not the
  integrator's steps;
- the loop owns the grid: it integrates on ``config.grid``, and an initial
  state with a field on another grid is a ConfigError;
- the loop owns overflow: the guard and the integration run with numpy's
  overflow, invalid and divide warnings off, so an overflow ends in the
  checks that follow it (a non-finite face coefficient, a stable step of 0
  or inf, the checks of the states, which a NaN fails) and never as a
  warning;
- the loop owns the aborts: an initial density at or below the positivity
  floor (a NaN included) raises with ``last_time`` 0.  After each accepted step
  the loop checks the step's end and the rows inside it: a density at or
  below ``DEFAULT_FLOOR`` (a NaN included) is a PositivityLossError, a
  density above the flow's ceiling (chemotaxis only) or a value that is
  not finite a StabilityError, and so is an integrator that cannot take a
  step (its step falls below the float spacing, a Newton matrix is
  singular, LAPACK's ``info > 0``, or the rate raises an EntroflowError on
  one of its iterates or trial states, as it starts too) and an
  integration that has spent its budget of ``MAX_RHS_EVALUATIONS`` rate
  evaluations, one per state.  Each raises with ``last_time``, the start
  of the step, and the trajectory of the rows recorded up to it;
- the loop owns the snapshots: before the integration it allocates one
  (S, N) array per state field (and one of S for the chemotaxis
  ``vt_accum``), or raises ConfigError for a count no float holds (a
  stable step of 0 included), for S N above ``MAX_SNAPSHOT_VALUES`` and
  for a stable step of inf, which bounds nothing.  The rows inside a step
  come from its dense output, and ``vt_accum`` gains the step's integral
  of int |v_t|^2 by 4-point Gauss-Legendre on it; the last row is the end
  of the last step;
- a rate, a guard and a stencil are plain array expressions: each
  returns new arrays and writes into none it is given, and a snapshot row
  is a copy of the integrator's state;
- the loop owns the cost record: ``Trajectory.integrator`` counts the
  accepted and rejected steps (each attempt cut short), the states the
  rate was evaluated on and the LU factorizations, an abort's included;
- the loop owns the measuring: it returns a completed run's trajectory
  measured by the flow's one measuring pass over the snapshot arrays, one
  record of length-S arrays in ``Trajectory.meters``, which residuals,
  verdicts and the CLI only read; nothing measures on demand, and an
  abort's trajectory is unmeasured.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, EntroflowError, ModelError, PositivityLossError,
                     RunAbort, StabilityError, UsageError)
from .fields import Grid
from .meters import measure_trajectory

DEFAULT_SAFETY = 0.4
DEFAULT_FLOOR = 1e-8
# the integrator's relative and absolute tolerance, per state component
RTOL = 1e-10
ATOL = 1e-12
# the integration's budget of rate evaluations, one per state, Jacobian
# states included: ~8 per accepted step, so room for ~2,500 steps, 12
# times the 1,625 of the presets' largest run; spent, a StabilityError
MAX_RHS_EVALUATIONS = 20_000
# the most snapshot values a run records per field, S rows of N cells: 4
# times Tier-1's largest record grid (985 x 256), 25 times the presets'
MAX_SNAPSHOT_VALUES = 2**20
# 4-point Gauss-Legendre on [-1, 1], exact for the square of a cubic; in
# closed form, since numpy.polynomial is not imported with numpy
_OUTER, _INNER = (math.sqrt((3.0 + s * 2.0 * math.sqrt(1.2)) / 7.0) for s in (1, -1))
_GAUSS_NODES = np.array([-_OUTER, -_INNER, _INNER, _OUTER])
_GAUSS_WEIGHTS = (18.0 + np.array([-1.0, 1.0, 1.0, -1.0]) * math.sqrt(30.0)) / 36.0


@dataclass
class FlowConfig:
    model: object
    grid: Grid
    t_end: float
    safety: float = DEFAULT_SAFETY
    record_every: int = 1

    def __post_init__(self):
        """ConfigError unless ``march`` can make the run, on a 1D grid."""
        if not self.t_end > 0.0:
            raise ConfigError("t_end must be positive")
        if not (0.0 < self.safety <= 1.0):
            raise ConfigError("safety must lie in (0, 1]")
        if self.grid.dim != 1:
            raise ConfigError("flows are one-dimensional")
        if self.record_every < 1:
            raise ConfigError("record_every must be >= 1")
        if self.grid.cells > MAX_SNAPSHOT_VALUES // 2:  # a run records 2 rows or more
            raise ConfigError("cannot hold 2 snapshots of %d cells, over %d values per "
                              "field" % (self.grid.cells, MAX_SNAPSHOT_VALUES))


@dataclass
class Trajectory:
    """The S snapshots of a run as arrays, with their meters.

    Row k of the (S, N) ``u`` (and, for the chemotaxis system, of ``v``
    and entry k of ``vt_accum``) is the state at ``times[k]``.  Immutable
    by convention once returned from a run.  ``meters`` is the record of
    the flow's one measuring pass, one length-S array per functional,
    which ``march`` makes before it returns; every residual and verdict
    reads it and measures nothing.  ``dt`` is the step of the record grid,
    and ``integrator`` the run's cost record (see the run contract).
    """

    times: np.ndarray
    dt: float
    u: np.ndarray
    v: np.ndarray = None
    vt_accum: np.ndarray = None
    meters: object = None
    integrator: dict = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.u.ndim != 2 or len(self.u) != len(self.times):
            raise UsageError("snapshot count must match time count")
        if self.v is not None and self.v.shape != self.u.shape:
            raise UsageError("u and v must share a grid")
        if np.any(self.times[1:] <= self.times[:-1]):
            raise UsageError("times must be strictly increasing")

    @property
    def h(self):  # the cell width
        return 1.0 / self.u.shape[1]

    def measured(self):
        """The meters; UsageError unless they cover every snapshot."""
        first = None if self.meters is None else next(iter(vars(self.meters).values()))
        if first is None or len(first) != len(self.times):
            raise UsageError("the meters do not cover every snapshot")
        return self.meters

    @property
    def record_dt(self):
        return float(self.times[1] - self.times[0])

    def interval_residuals(self, value, source):
        """Per recording interval, the residual of d(value)/dt + source = 0
        from the meters: the difference quotient of ``value(meters)`` plus
        the midpoint mean of ``source(meters)`` at its two ends; UsageError
        unless there are at least 3 uniformly spaced snapshots.
        """
        meters, dts = self.measured(), np.diff(self.times)
        if len(dts) < 2 or not np.all(np.abs(dts - dts[0]) <= 1e-9 * dts[0]):
            raise UsageError("need at least 3 uniformly spaced snapshots")
        v, s = value(meters), source(meters)
        return (v[1:] - v[:-1]) / self.record_dt + 0.5 * (s[:-1] + s[1:])


def _record_grid(state, config, guard):
    """(dt, S): the step ``config.safety`` times ``guard(state)``, shrunk
    so that t_end is a whole number of ``record_every``-step blocks, and
    the count of block ends, 0 included, which the rows are recorded at."""
    dt0 = config.safety * guard(state)
    if dt0 == math.inf:
        raise ConfigError("the guard bounds no step on the initial state "
                          "(a stable step of inf)")
    block = config.record_every
    blocks = config.t_end / (dt0 * block) if dt0 > 0.0 else math.inf
    # the step count must be finite and, for dt below, a float
    if not math.isfinite(blocks) or block * math.ceil(blocks) > sys.float_info.max:
        raise ConfigError("t_end = %g is not a finite number of steps of %g"
                          % (config.t_end, dt0))
    n_steps = block * max(1, math.ceil(blocks))
    return config.t_end / n_steps, n_steps // block + 1


def _check_admissible(ys, fields, ceiling):
    """Raise for the first way in which a row of ``ys``, states of ``fields``
    interleaved fields, the density first, leaves the admissible set: a
    PositivityLossError for a density at or below ``DEFAULT_FLOOR`` (a NaN
    included), a StabilityError for one above ``ceiling`` or a non-finite value."""
    u = ys[:, ::fields]
    if not (u.min() > DEFAULT_FLOOR):
        raise PositivityLossError("the density dropped to the positivity floor")
    if u.max() > ceiling:
        raise StabilityError("density exceeded the blow-up suspicion ceiling")
    if not np.isfinite(ys).all():
        raise StabilityError("the state is not finite")


def _integrals(integrand, dense, start, ends):
    """The integrals of ``integrand`` along the dense output ``dense`` of a
    step from ``start`` to each of ``ends``, by Gauss-Legendre: exact for
    the square of a linear function of the state, ``dense`` being a cubic
    in time.  ``integrand`` maps (K, len(y)) states to K values."""
    half = 0.5 * (ends - start)
    nodes = start + half[:, None] * (_GAUSS_NODES + 1.0)
    values = integrand(dense(nodes.ravel()))
    return half * (values.reshape(nodes.shape) @ _GAUSS_WEIGHTS)


# Radau IIA as scipy.integrate.Radau has it (scipy 1.17, BSD-3-Clause): nodes
# C, error weights E, the eigenvalues MU_REAL and MU_COMPLEX of the inverse of
# its matrix, which T diagonalizes, TI = T^-1, dense-output coefficients P
S6 = 6 ** 0.5
C = np.array([(4 - S6) / 10, (4 + S6) / 10, 1])
E = np.array([-13 - 7 * S6, -13 + 7 * S6, -1]) / 3
MU_REAL = 3 + 3 ** (2 / 3) - 3 ** (1 / 3)
MU_COMPLEX = (3 + 0.5 * (3 ** (1 / 3) - 3 ** (2 / 3))
              - 0.5j * (3 ** (5 / 6) + 3 ** (7 / 6)))
T = np.array([[0.09443876248897524, -0.14125529502095421, 0.03002919410514742],
              [0.25021312296533332, 0.20412935229379994, -0.38294211275726192],
              [1, 1, 0]])
TI = np.array([[4.17871859155190428, 0.32768282076106237, 0.52337644549944951],
               [-4.17871859155190428, -0.32768282076106237, 0.47662355450055044],
               [0.50287263494578682, -2.57192694985560522, 0.59603920482822492]])
TI_REAL, TI_COMPLEX = TI[0], TI[1] + 1j * TI[2]
P = np.array([[13/3 + 7*S6/3, -23/3 - 22*S6/3, 10/3 + 5 * S6],
              [13/3 - 7*S6/3, -23/3 + 22*S6/3, 10/3 - 5 * S6],
              [1/3, -8/3, 10/3]])
NEWTON_MAXITER, MIN_FACTOR, MAX_FACTOR = 6, 0.2, 10
_NEWTON_TOL = max(10 * sys.float_info.epsilon / RTOL, min(0.03, RTOL ** 0.5))


def _norm(x):
    """The root-mean-square norm, as numpy.linalg.norm(x) / sqrt(x.size)."""
    x = x.ravel()
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old):
    """The step's factor from this and the last error norm; inf at 0."""
    if error_norm == 0:
        return math.inf
    multiplier = 1 if error_norm_old is None or h_abs_old is None else (
        h_abs / h_abs_old * (error_norm_old / error_norm) ** 0.25)
    return min(1, multiplier) * error_norm ** -0.25


class Radau:
    """y' = rate(y) from t = 0 at ``RTOL`` and ``ATOL``, the Jacobian having
    ``band`` = (kl, ku) sub- and superdiagonals: ``start(y0, t_bound)``, then
    ``step()`` per accepted step, to ``t`` and ``y``, with ``dense(ts)`` the
    states inside it; a step that cannot be taken is a StabilityError.  Its
    cost: ``accepted`` and ``rejected`` steps (each attempt cut for its error
    or for a Newton iteration that did not converge), ``evaluations`` (one
    per state) and ``factorizations`` (real and complex)."""

    def __init__(self, rate, band):
        self.rate, (self.kl, self.ku) = rate, band
        self.accepted = self.rejected = self.evaluations = self.factorizations = 0

    def fun(self, ys):
        """The rate of ``ys``, counted; its EntroflowError fails the step."""
        self.evaluations += len(ys) if ys.ndim > 1 else 1
        try:
            return self.rate(ys)
        except EntroflowError as exc:
            raise StabilityError("the integrator failed: %s: %s"
                                 % (type(exc).__name__, exc)) from exc

    def start(self, y0, t_bound):
        """The rate at y0, the first step (Hairer, Norsett & Wanner, Solving
        ODEs I, Sec. II.4, for an error of order 3) and the Jacobian."""
        # here: importing scipy.linalg doubles the CLI's start-up
        from scipy.linalg.lapack import dgbtrf, dgbtrs, zgbtrf, zgbtrs
        self.lapack = {False: (dgbtrf, dgbtrs), True: (zgbtrf, zgbtrs)}
        n, width = len(y0), self.kl + self.ku + 1
        cols, offsets = np.arange(n), np.arange(width)[:, None]
        self.groups = cols % width == offsets
        rows = cols + offsets - self.ku  # of each band entry (offset, column)
        self.in_band = (rows >= 0) & (rows < n)
        self.band_index = (cols % width) * n + np.clip(rows, 0, n - 1)
        self.t, self.y, self.t_bound = 0.0, y0, t_bound
        self.Q = self.h_abs_old = self.error_norm_old = None
        self.f = f0 = self.fun(y0)
        scale = ATOL + np.abs(y0) * RTOL
        d0, d1 = _norm(y0 / scale), _norm(f0 / scale)
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_bound)
        d2 = _norm((self.fun(y0 + h0 * f0) - f0) / scale) / h0
        h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
              else (0.01 / max(d1, d2)) ** (1 / 4))
        self.h_abs = min(100 * h0, h1, t_bound)
        self.J, self.current_jac, self.lu = self.jacobian(y0, f0), True, None

    def jacobian(self, y, f):
        """The rate's Jacobian at y, whose rate is f, in band storage: entry
        (i, j) at row ku + i - j of column j.  Each column is perturbed by
        sqrt(eps) max(|y|, ATOL) made exact, signed as f, and the difference
        quotient of a row within the band of the column is its entry."""
        root_eps = math.sqrt(sys.float_info.epsilon)
        shifted = y + root_eps * np.copysign(np.maximum(np.abs(y), ATOL), f)
        step = shifted - y  # exact in floating point
        diffs = self.fun(np.where(self.groups, shifted, y)) - f
        return np.where(self.in_band, diffs.ravel()[self.band_index], 0.0) / step

    def _factor(self, mu):
        """A solver of (mu I - J) x = b, from the LU factors of the band."""
        (trf, trs), kl, ku = self.lapack[isinstance(mu, complex)], self.kl, self.ku
        ab = np.zeros((kl + len(self.J), len(self.y)), dtype=type(mu))
        ab[kl:] = -self.J
        ab[kl + ku] += mu
        self.factorizations += 1
        lu, piv, info = trf(ab, kl, ku, overwrite_ab=True)
        if info > 0:
            raise StabilityError("the integrator failed: a Newton matrix is singular")
        return lambda b: trs(lu, kl, ku, b, piv)[0]  # no cycle through self

    def dense(self, ts):
        """The states at the times ``ts`` of the last step, from its cubic."""
        x = (ts - self.t_old) / (self.t - self.t_old)
        powers = np.cumprod(np.repeat(x[:, None], 3, axis=1), axis=1)
        return powers.dot(self.Q.T) + self.y_old

    def _newton(self, y, h, Z0, scale):
        """Simplified Newton on the collocation system: (converged,
        iterations, Z, rate of convergence)."""
        M_real, M_complex, tol = MU_REAL / h, MU_COMPLEX / h, _NEWTON_TOL
        W, Z = TI.dot(Z0), Z0
        dW, dW_norm_old, rate = np.empty_like(W), None, None
        solve_real, solve_complex = self.lu
        for k in range(NEWTON_MAXITER):
            F = self.fun(y + Z)
            if not np.isfinite(F).all():
                break
            dW[0] = solve_real(F.T.dot(TI_REAL) - M_real * W[0])
            f_complex = F.T.dot(TI_COMPLEX) - M_complex * (W[1] + 1j * W[2])
            dW_complex = solve_complex(f_complex)
            dW[1], dW[2] = dW_complex.real, dW_complex.imag
            dW_norm = _norm(dW / scale)
            if dW_norm_old is not None:
                rate = dW_norm / dW_norm_old
            if (rate is not None and (rate >= 1 or rate ** (NEWTON_MAXITER - k)
                                      / (1 - rate) * dW_norm > tol)):
                break
            W += dW
            Z = T.dot(W)
            if dW_norm == 0 or rate is not None and rate / (1 - rate) * dW_norm < tol:
                return True, k + 1, Z, rate
            dW_norm_old = dW_norm
        return False, k + 1, Z, rate

    def step(self):
        t, y, f = self.t, self.y, self.f
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs, h_abs_old, error_norm_old = self.h_abs, self.h_abs_old, self.error_norm_old
        if h_abs < min_step:
            h_abs, h_abs_old, error_norm_old = min_step, None, None
        rejected = False
        while True:
            if h_abs < min_step:
                raise StabilityError("the integrator failed: the step fell below "
                                     "the spacing between floats")
            t_new = min(t + h_abs, self.t_bound)
            h = t_new - t
            h_abs = abs(h)
            Z0 = np.zeros((3, len(y))) if self.Q is None else self.dense(t + h * C) - y
            scale = ATOL + np.abs(y) * RTOL
            while True:
                if self.lu is None:
                    self.lu = self._factor(MU_REAL / h), self._factor(MU_COMPLEX / h)
                converged, n_iter, Z, rate = self._newton(y, h, Z0, scale)
                if converged or self.current_jac:
                    break
                self.J, self.current_jac, self.lu = self.jacobian(y, f), True, None
            if not converged:
                h_abs *= 0.5
                self.lu, self.rejected = None, self.rejected + 1
                continue
            y_new = y + Z[-1]
            ZE = Z.T.dot(E) / h
            error = self.lu[0](f + ZE)
            scale = ATOL + np.maximum(np.abs(y), np.abs(y_new)) * RTOL
            error_norm = _norm(error / scale)
            safety = 0.9 * (2 * NEWTON_MAXITER + 1) / (2 * NEWTON_MAXITER + n_iter)
            if rejected and error_norm > 1:
                error = self.lu[0](self.fun(y + error) + ZE)
                error_norm = _norm(error / scale)
            if error_norm <= 1:
                break
            factor = _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old)
            h_abs *= max(MIN_FACTOR, safety * factor)
            self.lu, self.rejected, rejected = None, self.rejected + 1, True

        self.accepted += 1
        recompute_jac = n_iter > 2 and rate > 1e-3
        factor = _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old)
        factor = min(MAX_FACTOR, safety * factor)
        if not recompute_jac and factor < 1.2:
            factor = 1
        else:
            self.lu = None
        f_new = self.fun(y_new)
        if recompute_jac:
            self.J = self.jacobian(y_new, f_new)
        self.current_jac = recompute_jac
        self.h_abs_old, self.error_norm_old = self.h_abs, error_norm
        self.h_abs = h_abs * factor
        self.t_old, self.y_old, self.t, self.y, self.f = t, y, t_new, y_new, f_new
        self.Q = Z.T.dot(P)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def march(state, config, guard, rate, measure, band=(1, 1), ceiling=math.inf,
          accumulate=None):
    """The integration of every flow; returns a Trajectory.

    ``state`` is a tuple of the initial arrays, the density first, which
    become the trajectory's ``u`` (then ``v``), and ``rate(ys)`` the
    flow's semi-discrete time derivative of the states ``ys`` on a leading
    axis, each the state's fields interleaved cell by cell, a new array.
    ``band`` = (kl, ku) bounds the rate's Jacobian: the rate of entry i
    reads entries i - kl to i + ku.  ``ceiling`` bounds the density, and
    ``accumulate(ys)``, given, maps the (K, len(y)) states ``ys`` to the K
    values whose time integral becomes ``vt_accum``.  ``guard(state)``,
    called once, returns the bound the record grid is drawn from, and
    ``measure(traj)`` attaches a completed run's meters.  ``config``
    supplies the grid, t_end, safety and record_every; each array of the
    state must lie on the grid, and the density above ``DEFAULT_FLOOR``.
    """
    for x in state:
        if x.shape != config.grid.shape:
            raise ConfigError("initial state of shape %s is not on the config's grid %s"
                              % (x.shape, config.grid.shape))
    if not (state[0].min() > DEFAULT_FLOOR):
        raise PositivityLossError("initial state below floor", last_time=0.0)
    dt, count = _record_grid(state, config, guard)
    n, fields = config.grid.cells, len(state)
    if count * n > MAX_SNAPSHOT_VALUES:
        raise ConfigError("cannot hold %.3g snapshots of %d cells, over %d values per "
                          "field: raise record_every" % (count, n, MAX_SNAPSHOT_VALUES))
    rows = [np.empty((count, n)) for _ in state]
    # float steps: a block of 2^63 steps or more overflows an integer
    # arange, and k * block below 2^53 is exact either way
    times = np.arange(count, dtype=float) * config.record_every * dt
    if accumulate is not None:
        rows.append(np.zeros(count))

    for row, x in zip(rows, state):
        row[0] = x
    solver = Radau(rate, band)

    def recorded(j):
        cost = {"accepted_steps": solver.accepted, "rejected_steps": solver.rejected,
                "rhs_evaluations": solver.evaluations,
                "lu_factorizations": solver.factorizations}
        return Trajectory(times[:j], dt, *(r[:j] for r in rows), integrator=cost)

    j, start, total = 1, 0.0, 0.0  # the next row, solver.t and the integral to it
    try:
        y0 = np.stack(state, axis=-1).ravel()
        _check_admissible(y0[None], fields, ceiling)
        solver.start(y0, times[-1])  # the rate refuses trial states here too
        while start < times[-1]:
            if solver.evaluations >= MAX_RHS_EVALUATIONS:
                raise StabilityError("the integration spent its budget of %d rate "
                                     "evaluations" % MAX_RHS_EVALUATIONS)
            solver.step()
            # the states at the rows inside the step, from its dense output,
            # and at its end; the last row is the end of the last step
            t = solver.t
            k = int(np.searchsorted(times, t))
            end = k + (k < count and times[k] == t)
            ys = np.vstack((solver.dense(times[j:k]), solver.y))
            _check_admissible(ys, fields, ceiling)
            for i, row in enumerate(rows[:fields]):
                row[j:end] = ys[:end - j, i::fields]
            if accumulate is not None:
                acc = total + _integrals(accumulate, solver.dense, start,
                                         np.append(times[j:k], t))
                rows[-1][j:end] = acc[:end - j]
                total = acc[-1]
            j, start = end, t
    except RunAbort as err:  # it carries the start of its step and the rows before it
        err.last_time, err.trajectory = start, recorded(j)
        raise
    traj = recorded(count)
    measure(traj)
    return traj


def net_rate(flux, h):
    """The divergence of the interior face fluxes over the cells, the
    fluxes through both walls being zero, a new array: each cell gains the
    flux of its right face and loses that of its left one, over h, so the
    rates sum to zero and the discrete mass is conserved."""
    padded = np.zeros(flux.shape[:-1] + (flux.shape[-1] + 2,))
    padded[..., 1:-1] = flux
    return (padded[..., 1:] - padded[..., :-1]) / h


def _face_a(u, model):
    """a at the face states, the means of adjacent cells; ModelError unless finite."""
    a_mid = np.asarray(model.a(0.5 * (u[..., 1:] + u[..., :-1])), dtype=float)
    # a NaN reaches both extremes, and an infinity one of them
    if not (math.isfinite(a_mid.max()) and math.isfinite(a_mid.min())):
        raise ModelError("coefficient evaluated non-finite on the state")
    return a_mid


def _fluxes(u, model, h):
    """The interior face fluxes a (u_{i+1} - u_i) / h, a of ``_face_a``."""
    return _face_a(u, model) * (u[..., 1:] - u[..., :-1]) / h


def stable_dt(u, model, h):
    """The guard: h^2 / (2 max a), a of ``_face_a``, the bound of the explicit
    scheme's positivity condition dt (a_{i-1/2} + a_{i+1/2}) <= h^2; a
    coefficient 0 on every face (underflowed) bounds no step, inf."""
    a_max = float(_face_a(u, model).max())
    return h * h / (2.0 * a_max) if a_max > 0.0 else math.inf


def step(u, model, h, dt):
    """One explicit Euler step, u + dt ``net_rate(_fluxes)``, a new array that
    nothing checks: no run steps with it, the oracle of a run's time error."""
    return net_rate(_fluxes(u, model, h), h) * dt + u


def run(u0, config):
    """The run from the array ``u0`` to t_end, checked and integrated by
    ``march`` (a non-finite value ends in its floor check or in the guard);
    returned measured by ``meters.measure_trajectory``."""
    model, h = config.model, config.grid.h
    return march((np.asarray(u0, dtype=float),), config,
                 guard=lambda s: stable_dt(s[0], model, h),
                 rate=lambda y: net_rate(_fluxes(y, model, h), h),
                 measure=lambda traj: measure_trajectory(traj, model))


def initial_cosine(grid, mean=1.0, amplitude=0.5, mode=1):
    """The preset initial datum: mean * (1 + amplitude cos(mode pi x)) at
    the cell centers, as an array, mass-exact.

    The discrete midpoint sum of cos(k pi x) over symmetric cell centers
    vanishes, so the discrete mass equals ``mean`` exactly.  A datum the
    scaling leaves not finite (it overflows, or the profile's mean rounds
    to 0) is a ConfigError, and the scaling runs with numpy's overflow,
    invalid and divide warnings off.
    """
    vals = grid.full(1.0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vals += amplitude * np.cos(mode * np.pi * grid.axis_centers())
        vals *= mean / (np.mean(vals))
    if not np.isfinite(vals).all():
        raise ConfigError("the initial datum of mean %g and amplitude %g is not "
                          "finite" % (mean, amplitude))
    return vals
