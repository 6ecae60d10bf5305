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
- a flow writes its face flux once, in a private ``_fluxes`` returning
  the interior face flux and the explicit scheme's stability bound on the
  face coefficients it was formed with.  Its rate, the semi-discrete time
  derivative, is ``net_rate`` of that flux (for chemotaxis, with
  ``v_time_derivative`` for v); its guard (``stable_dt``,
  ``pl_stable_dt``, ``ks_stable_dt``) returns the bound; and its explicit
  Euler stencil (``step``, ``pl_step``, ``ks_step``), which no run steps
  with, is the oracle of a run's time error;
- the loop owns the integration: scipy's Radau IIA, an implicit
  fifth-order method that stiffness does not hold to a step bound,
  integrates the rate from 0 to the last record time at the fixed
  tolerances ``RTOL`` and ``ATOL``, with a Jacobian of grouped forward
  differences on the flow's pattern: 3 rate evaluations per field, against
  the rate at the state, which the solver has just evaluated there and the
  Jacobian reuses; it chooses its own steps, and nothing configures it;
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
- the loop owns the aborts: an initial density at or below the
  positivity floor raises with ``last_time`` 0.  After each accepted step
  the loop checks the step's end and the rows inside it: a density at or
  below ``DEFAULT_FLOOR`` (a NaN included) is a PositivityLossError, a
  density above the flow's ceiling (chemotaxis only) or a value that is
  not finite a StabilityError, and so is an integrator that cannot take a
  step (its step falls below the float spacing, its Newton matrix is
  singular, or the rate raises an EntroflowError on one of its iterates or
  trial states, as it starts too) and an integration that has spent its
  budget of ``MAX_RHS_EVALUATIONS`` rate evaluations.  Each raises with
  ``last_time``, the start of the step, and the trajectory of the rows
  recorded up to it;
- the loop owns the snapshots: before the integration it allocates one
  (S, N) array per state field (and one of S for the chemotaxis
  ``vt_accum``), or raises ConfigError for a count no float holds (a
  stable step of 0 included), for S N above ``MAX_SNAPSHOT_VALUES`` and
  for a stable step of inf, which bounds nothing.  The rows inside a step
  come from its dense output, and ``vt_accum`` gains the step's integral
  of int |v_t|^2 by 4-point Gauss-Legendre on it; the last row is the end
  of the last step;
- the loop owns the buffers: a run allocates its face arrays once
  (``face_arrays``), shares them with no other run, and lends them to
  every evaluation of its rate, which returns a new array.  A guard and a
  stencil allocate their own;
- the loop owns the cost record: ``Trajectory.integrator`` counts the
  accepted and rejected steps, the rate evaluations and the LU
  factorizations, an abort's trajectory included;
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
                     StabilityError, UsageError)
from .fields import Grid
from .meters import measure_trajectory

DEFAULT_SAFETY = 0.4
DEFAULT_FLOOR = 1e-8
# the integrator's relative and absolute tolerance, per state component
RTOL = 1e-10
ATOL = 1e-12
# the integration's budget of rate evaluations, Jacobian columns included:
# ~8 per accepted step, so room for ~2,500 steps, 12 times the 1,614 of
# the presets' largest run; a run that spends it is a StabilityError
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


class _Counted:
    """A rate function as the integrator calls it, ``fun(t, y)``, counting
    its calls and the collocation nodes of each step's attempts, and
    keeping the last state it was called on with its rate, which
    ``rate_at`` reuses.

    A Radau IIA attempt of size H from t evaluates the rate at its three
    nodes t + c H (c_3 = 1) in each Newton iteration, and the solver's
    other calls (its Jacobian columns and error estimates) are made at t
    or at the end t + H of an accepted attempt; so the distinct times past
    t, in thirds, are the step's attempts, all but the accepted one
    rejected."""

    def __init__(self, rate, n):
        self.rate, self.faces = rate, face_arrays(n)
        self.calls, self.times, self.rejected = 0, [], 0
        self.last = (None, None)

    def __call__(self, t, y):
        self.times.append(t)
        f = self.rate(y, self.faces)
        self.last = (y, f)
        return f

    def rate_at(self, t, y):
        """The rate at y: that of the last call if it was made on this very
        array, which the integrator does not change, else a new call."""
        last_y, f = self.last
        return f if last_y is y else self(t, y)

    @property
    def evaluations(self):
        return self.calls + len(self.times)

    def attempts_since(self, start):
        attempts = len({t for t in self.times if t > start}) // 3
        self.calls += len(self.times)
        self.times = []
        return attempts


def _jacobian(fun, coupling, n):
    """The integrator's Jacobian ``jac(t, y)`` of the counted rate ``fun``
    of a system of len(coupling) fields on ``n`` cells, a csc matrix.

    Block (i, j) of its pattern is "T" (tridiagonal) or "I" (diagonal) as
    the rate of field i reads field j at a cell's neighbours or at the cell
    alone, so the columns of one field 3 cells apart touch disjoint rows.
    Column (field j, cell c) is thus perturbed in group 3 j + c mod 3, and
    ``jac`` takes grouped forward differences (Curtis, Powell & Reid, J.
    Inst. Math. Appl. 13, 1974): one rate evaluation per group, 3 per
    field, against f(y) from ``fun.rate_at``, by the step sqrt(eps)
    max(|y|, ATOL) made exact, signed as f(y) (as scipy's ``num_jac``
    signs it).  Each difference quotient goes straight into the pattern,
    fixed once per run."""
    from scipy.sparse import csc_matrix

    rows, cols, cells = [], [], np.arange(n)
    for i, blocks in enumerate(coupling):
        for j, block in enumerate(blocks):
            for d in (-1, 0, 1) if block == "T" else (0,):
                c = cells[max(0, -d):n - max(0, d)]  # the cells whose row c + d exists
                rows.append(i * n + c + d)
                cols.append(j * n + c)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    order = np.lexsort((rows, cols))
    rows, cols = rows[order], cols[order]
    fields = len(coupling)
    indptr = np.zeros(fields * n + 1, dtype=rows.dtype)
    np.cumsum(np.bincount(cols, minlength=fields * n), out=indptr[1:])
    column_group = (3 * np.arange(fields)[:, None] + cells % 3).ravel()
    in_group = column_group == np.arange(3 * fields)[:, None]
    group = column_group[cols]  # of each entry of the pattern
    root_eps = math.sqrt(np.finfo(float).eps)

    def jac(t, y):
        f = fun.rate_at(t, y)
        shifted = y + root_eps * np.copysign(np.maximum(np.abs(y), ATOL), f)
        s = shifted - y  # the step, exact in floating point
        diffs = np.array([fun(t, ys) for ys in np.where(in_group, shifted, y)])
        diffs -= f
        return csc_matrix((diffs[group, rows] / s[cols], rows, indptr),
                          shape=(fields * n, fields * n))

    return jac


def _inadmissible(ys, n, ceiling):
    """The RunAbort for the first way in which a row of ``ys``, states
    whose first ``n`` entries are the density, leaves the admissible set,
    or None: a density at or below ``DEFAULT_FLOOR`` (a NaN included),
    above ``ceiling``, or a value that is not finite."""
    u = ys[:, :n]
    if not (u.min() > DEFAULT_FLOOR):
        return PositivityLossError("the density dropped to the positivity floor")
    if u.max() > ceiling:
        return StabilityError("density exceeded the blow-up suspicion ceiling")
    if not np.isfinite(ys).all():
        return StabilityError("the state is not finite")
    return None


def _failed(reason):
    """The StabilityError of a step the integrator cannot take: ``reason``
    is its message, or the error the rate or the solver raised."""
    if isinstance(reason, Exception):
        reason = "%s: %s" % (type(reason).__name__, reason)
    return StabilityError("the integrator failed: %s" % reason)


def _integrals(integrand, sol, start, ends):
    """The integrals of ``integrand`` along the dense output ``sol`` of a
    step from ``start`` to each of ``ends``, by Gauss-Legendre: exact for
    the square of a linear function of the state, ``sol`` being a cubic in
    time.  ``integrand`` maps (K, len(y)) states to K values."""
    half = 0.5 * (ends - start)
    nodes = start + half[:, None] * (_GAUSS_NODES + 1.0)
    values = integrand(np.ascontiguousarray(sol(nodes.ravel()).T))
    return half * (values.reshape(nodes.shape) @ _GAUSS_WEIGHTS)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def march(state, config, guard, rate, measure, coupling=(("T",),),
          ceiling=math.inf, accumulate=None):
    """The integration of every flow; returns a Trajectory.

    ``state`` is a tuple of the initial arrays, the density first, which
    become the trajectory's ``u`` (then ``v``), and ``rate(y, faces)`` the
    flow's semi-discrete time derivative of their concatenation y, a new
    array, lent the run's face arrays.  ``coupling`` says which fields
    each field's rate reads (see ``_jacobian``), ``ceiling`` bounds the
    density, and ``accumulate(ys)``, given, maps the (K, len(y)) states
    ``ys`` to the K values whose time integral becomes ``vt_accum``.
    ``guard(state)``, called once, returns the bound the record grid is
    drawn from, and ``measure(traj)`` attaches a completed run's meters.
    ``config`` supplies the grid, t_end, safety and record_every; each
    array of the state must lie on the grid, and the density above
    ``DEFAULT_FLOOR``.
    """
    for x in state:
        if x.shape != config.grid.shape:
            raise ConfigError("initial state of shape %s is not on the config's grid %s"
                              % (x.shape, config.grid.shape))
    if not (state[0].min() > DEFAULT_FLOOR):
        raise PositivityLossError("initial state below floor", last_time=0.0)
    dt, count = _record_grid(state, config, guard)
    n = config.grid.cells
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
    fun, solver = _Counted(rate, n), None
    accepted, total = 0, 0.0  # total: the accumulated integral to solver.t

    def recorded(j):
        cost = {"accepted_steps": accepted, "rejected_steps": fun.rejected,
                "rhs_evaluations": fun.evaluations,
                "lu_factorizations": 0 if solver is None else solver.nlu}
        return Trajectory(times[:j], dt, *(r[:j] for r in rows), integrator=cost)

    def abort(err, j, last_time):
        err.last_time, err.trajectory = last_time, recorded(j)
        return err

    y0 = np.concatenate(state)
    err = _inadmissible(y0[None], n, ceiling)
    if err is not None:
        raise abort(err, 1, 0.0)
    from scipy.integrate import Radau  # here: importing it doubles the CLI's start-up

    j = 1  # the next row to record
    try:
        try:  # the solver evaluates the rate on trial states as it starts
            solver = Radau(fun, 0.0, y0, times[-1], rtol=RTOL, atol=ATOL,
                           jac=_jacobian(fun, coupling, n))
        except EntroflowError as exc:
            raise abort(_failed(exc), j, 0.0)
        while solver.status == "running":
            start = solver.t
            if fun.evaluations >= MAX_RHS_EVALUATIONS:
                raise abort(StabilityError("the integration spent its budget of %d "
                                           "rate evaluations" % MAX_RHS_EVALUATIONS),
                            j, start)
            try:
                message = solver.step()
                failed = solver.status == "failed"
            # SuperLU's RuntimeError for a singular Newton matrix, and the
            # rate's refusal of a Newton iterate or a trial state
            except (RuntimeError, EntroflowError) as exc:
                message, failed = exc, True
            fun.rejected += fun.attempts_since(start) - (not failed)
            if failed:
                raise abort(_failed(message), j, start)
            accepted += 1
            # the states at the rows inside the step, from its dense output,
            # and at its end; the last row is the end of the last step
            t, sol = solver.t, solver.dense_output()
            k = int(np.searchsorted(times, t))
            end = k + (k < count and times[k] == t)
            ys = np.vstack((sol(times[j:k]).T, solver.y))
            err = _inadmissible(ys, n, ceiling)
            if err is not None:
                raise abort(err, j, start)
            for i, row in enumerate(rows[:len(state)]):
                row[j:end] = ys[:end - j, i * n:(i + 1) * n]
            if accumulate is not None:
                acc = total + _integrals(accumulate, sol, start, np.append(times[j:k], t))
                rows[-1][j:end] = acc[:end - j]
                total = acc[-1]
            j = end
        traj = recorded(count)
    finally:
        # the solver refers to itself through its closures, so its LU
        # factors would wait for a full garbage collection: free them now
        if solver is not None:
            solver.__dict__.clear()
    measure(traj)
    return traj


def face_arrays(n):
    """The three scratch arrays of n - 1 face entries a run lends every
    evaluation of its rate, and a stencil or guard makes for itself."""
    return [np.empty(n - 1) for _ in range(3)]


def net_rate(flux, h, out):
    """The divergence of the interior face fluxes over the cells, the
    fluxes through both walls being zero, written into ``out``: each cell
    gains the flux of its right face and loses that of its left one, over
    h, so the rates sum to zero and the discrete mass is conserved."""
    out[0] = flux[0]
    np.subtract(flux[1:], flux[:-1], out=out[1:-1])
    out[-1] = -flux[-1]
    return np.divide(out, h, out=out)


def conservative_step(u, flux, bound, dt, h):
    """The tail of every stencil: u + dt ``net_rate(flux)``, a new array.

    StabilityError unless dt <= bound, the stencil's stability bound,
    which its guard returns; PositivityLossError unless the new state lies
    at or above ``DEFAULT_FLOOR`` everywhere, so a NaN aborts too.
    """
    if dt > bound:
        raise StabilityError("fixed step exceeds the stability bound")
    new = net_rate(flux, h, np.empty_like(u))
    new *= dt
    new += u
    if not (np.minimum.reduce(new) >= DEFAULT_FLOOR):
        raise PositivityLossError("state dropped below the positivity floor")
    return new


def _fluxes(u, model, h, faces):
    """The interior face fluxes a(m) (u_{i+1} - u_i) / h, m the face state
    (the mean of adjacent cells, put in the first of ``faces``; the fluxes
    go in the second), and the bound h^2 / (2 max a) of the explicit
    scheme's positivity condition dt (a_{i-1/2} + a_{i+1/2}) <= h^2; a
    coefficient that is 0 on every face (underflowed) bounds no step, inf."""
    mid = np.add(u[1:], u[:-1], out=faces[0])
    np.multiply(mid, 0.5, out=mid)
    a_mid = np.asarray(model.a(mid), dtype=float)
    a_max = np.maximum.reduce(a_mid)
    # a NaN reaches both extremes, and an infinity one of them
    if not (math.isfinite(a_max) and math.isfinite(np.minimum.reduce(a_mid))):
        raise ModelError("coefficient evaluated non-finite on the state")
    flux = np.subtract(u[1:], u[:-1], out=faces[1])
    np.multiply(a_mid, flux, out=flux)
    np.divide(flux, h, out=flux)
    return flux, h * h / (2.0 * float(a_max)) if a_max > 0.0 else math.inf


def stable_dt(u, model, h):
    """The stability guard: the bound of ``_fluxes``, which ``step`` checks."""
    return _fluxes(u, model, h, face_arrays(u.size))[1]


def step(u, model, h, dt):
    """One conservative explicit Euler step of ``_fluxes``, a new array;
    aborts as ``conservative_step`` says.  No run steps with it: it is the
    oracle of a run's time error."""
    return conservative_step(u, *_fluxes(u, model, h, face_arrays(u.size)), dt, h)


def run(u0, config):
    """The run from the array ``u0`` to t_end, checked and integrated by
    ``march`` (a non-finite value ends in its floor check or in the guard);
    returned measured by ``meters.measure_trajectory``."""
    model, h = config.model, config.grid.h
    return march((np.asarray(u0, dtype=float),), config,
                 guard=lambda s: stable_dt(s[0], model, h),
                 rate=lambda y, faces: net_rate(_fluxes(y, model, h, faces)[0], h,
                                                np.empty_like(y)),
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
