"""Explicit conservative time-stepping for u_t = (a(u) u_x)_x on (0,1),
and the one guarded time loop that every flow of the package runs on.

Conservative flux form with zero boundary fluxes keeps the discrete mass
bit-exact; positivity is enforced by aborting the run rather than
clamping, since clamping would silently break every identity this
package exists to verify.

The run contract, shared by ``run(u0, config)``, ``p_laplace.run(u0,
config)`` and ``keller_segel.run_ks(u0, v0, config)`` through ``march``:

- a run takes its initial state as arrays and one ``FlowConfig``: the flow's
  model (a coefficient model, ``PLaplaceModel`` or ``KSModel``), the grid,
  t_end, safety and record_every, which its constructor checks;
- a flow writes its face flux once, in a private ``_fluxes`` returning
  the interior face flux and the stability bound on the face coefficients
  it was formed with: its guard (``stable_dt``, ``pl_stable_dt``,
  ``ks_stable_dt``) returns that bound, and its stencil (``step``,
  ``pl_step``, ``ks_step``), both on raw ndarrays, hands both to
  ``conservative_step``, which raises StabilityError, before it writes,
  when dt exceeds the bound, and PositivityLossError when the new state
  leaves the admissible set, non-finite values included;
- the loop owns dt: it is fixed once as the configured safety times the
  guard's bound on the initial state, then shrunk so that t_end is a whole
  number of ``record_every``-step blocks; the guard runs once per run, and
  nothing else reads the safety;
- the loop owns the grid: it steps on ``config.grid``, and an initial
  state with a field on another grid is a ConfigError;
- the loop owns overflow: the guard and every step run with numpy's
  overflow and invalid warnings off, so an overflow ends in the checks
  that follow it (a non-finite face coefficient, a stable step of 0 or
  inf, the floor check, which a NaN fails) and never as a warning;
- the loop owns the aborts: an initial density at or below the
  positivity floor and every RunAbort of a step (a stencil's, or the
  chemotaxis run's density ceiling) raise with ``last_time``, the time of
  the last valid state, and the trajectory recorded so far;
- the loop owns the snapshots: before the first step it allocates one
  (S, N) array per state field (one of S per scalar), or raises
  ConfigError for a count no float or array holds (a stable step of 0
  included) and for a stable step of inf, which bounds nothing; row k is
  the state after step n = k * record_every, at n * dt, and an abort's
  trajectory is the rows recorded before the failing step;
- the loop owns the buffers: it allocates a run's face- and cell-sized
  arrays once (``RunBuffers``, one layout for every flow), shares them
  with no other run, and lends them to every step, whose stencil writes
  into the ones it uses.  A stencil writes the next state into the state
  slot its input does not occupy, so a state it returns is overwritten
  two steps later and any other array it returns by the next step; a
  snapshot row is a copy.  A guard, and a stencil called without
  buffers, allocates its own.  Nothing configures the buffers;
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

from .errors import (ConfigError, ModelError, PositivityLossError, RunAbort,
                     StabilityError, UsageError)
from .fields import Grid
from .meters import measure_trajectory

DEFAULT_SAFETY = 0.4
DEFAULT_FLOOR = 1e-8


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
    reads it and measures nothing.
    """

    times: np.ndarray
    dt: float
    u: np.ndarray
    v: np.ndarray = None
    vt_accum: np.ndarray = None
    meters: object = None

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


@np.errstate(over="ignore", invalid="ignore")
def march(state, config, guard, advance, measure):
    """The guarded explicit loop of every flow; returns a Trajectory.

    ``state`` is a tuple of raw values, the density array first, which
    become the trajectory's ``u`` (then ``v`` and ``vt_accum``).
    ``guard(state)``, called once, returns the stencil's stability bound,
    of which the step is ``config.safety`` times, ``advance(state, dt,
    buf)``, lent the run's ``RunBuffers``, the next state or a RunAbort,
    and ``measure(traj)`` attaches a completed run's meters.
    ``config`` supplies the grid, t_end, safety and record_every; each
    array of the state must lie on the grid, and the density above
    ``DEFAULT_FLOOR``.
    """
    for x in state:  # each array field, u first
        if np.ndim(x) and x.shape != config.grid.shape:
            raise ConfigError("initial state of shape %s is not on the config's grid %s"
                              % (x.shape, config.grid.shape))
    if not (state[0].min() > DEFAULT_FLOOR):
        raise PositivityLossError("initial state below floor", last_time=0.0)
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
    dt = config.t_end / n_steps
    try:
        rows = [np.empty((n_steps // block + 1,) + np.shape(x)) for x in state]
    except (MemoryError, ValueError):
        raise ConfigError("cannot hold %.3g snapshots of %d cells"
                          % (blocks + 1.0, state[0].size)) from None

    def record(j, state):
        for row, x in zip(rows, state):
            row[j] = x

    def recorded(count):  # row j is the state after step j * block, at its time
        # float steps: a block of 2^63 steps or more overflows an integer
        # arange, and k * block below 2^53 is exact either way
        return Trajectory(np.arange(count, dtype=float) * block * dt, dt,
                          *(r[:count] for r in rows))

    buf = RunBuffers(config.grid.cells)
    record(0, state)
    for k in range(1, n_steps + 1):
        try:
            state = advance(state, dt, buf)
        except RunAbort as err:
            err.last_time = (k - 1) * dt
            err.trajectory = recorded((k - 1) // block + 1)
            raise
        if k % block == 0:
            record(k // block, state)
    traj = recorded(len(rows[0]))
    measure(traj)
    return traj


class RunBuffers:
    """The arrays one run on ``n`` cells allocates once (see the run
    contract): three scratch arrays of n - 1 face entries, two of n cell
    entries, and two state slots for each of two state fields, which a
    stencil writes the next state into alternately.  Every flow gets this
    one layout; only its stencil knows which of the arrays it uses."""

    def __init__(self, n):
        self.faces = [np.empty(n - 1) for _ in range(3)]
        self.cells = [np.empty(n) for _ in range(2)]
        self._slots = [(np.empty(n), np.empty(n)) for _ in range(2)]

    def next_state(self, field, current):
        """The slot of state field ``field`` that ``current`` does not occupy."""
        first, second = self._slots[field]
        return second if current is first else first


def conservative_step(u, flux, bound, dt, h, out):
    """The tail of every stencil: u + (dt/h) times the divergence of the
    interior face fluxes, the fluxes through both walls being zero,
    written into ``out``; aborts as the run contract says.

    StabilityError, before anything is written, unless dt <= bound, the
    stencil's stability bound, which its guard returns.  Each cell gains
    the flux of its right face and loses that of its left one, so the
    update telescopes and the discrete mass is conserved to rounding.
    PositivityLossError unless the new state lies at or above
    ``DEFAULT_FLOOR`` everywhere, so a NaN aborts too.
    """
    if dt > bound:
        raise StabilityError("fixed step exceeds the stability bound")
    out[0] = flux[0]
    np.subtract(flux[1:], flux[:-1], out=out[1:-1])
    out[-1] = -flux[-1]
    np.multiply(out, dt / h, out=out)
    new = np.add(u, out, out=out)
    if not (np.minimum.reduce(new) >= DEFAULT_FLOOR):
        raise PositivityLossError("state dropped below the positivity floor")
    return new


def _fluxes(u, model, h, buf):
    """The interior face fluxes a(m) (u_{i+1} - u_i) / h, m the face state
    (the mean of adjacent cells, put in the first face array of ``buf``;
    the fluxes go in the second), and the bound h^2 / (2 max a) of the
    scheme's positivity condition dt (a_{i-1/2} + a_{i+1/2}) <= h^2; a
    coefficient that is 0 on every face (underflowed) bounds no step, inf."""
    mid = np.add(u[1:], u[:-1], out=buf.faces[0])
    np.multiply(mid, 0.5, out=mid)
    a_mid = np.asarray(model.a(mid), dtype=float)
    a_max = np.maximum.reduce(a_mid)
    # a NaN reaches both extremes, and an infinity one of them
    if not (math.isfinite(a_max) and math.isfinite(np.minimum.reduce(a_mid))):
        raise ModelError("coefficient evaluated non-finite on the state")
    flux = np.subtract(u[1:], u[:-1], out=buf.faces[1])
    np.multiply(a_mid, flux, out=flux)
    np.divide(flux, h, out=flux)
    return flux, h * h / (2.0 * float(a_max)) if a_max > 0.0 else math.inf


def stable_dt(u, model, h):
    """The stability guard: the bound of ``_fluxes``, which ``step`` checks."""
    return _fluxes(u, model, h, RunBuffers(u.size))[1]


def step(u, model, h, dt, buf=None):
    """One conservative explicit Euler step of ``_fluxes``; aborts as the
    run contract says.  ``buf`` lends it two face arrays and the state slot
    the new state is written into; without it the step allocates its own.
    """
    if buf is None:
        buf = RunBuffers(u.size)
    return conservative_step(u, *_fluxes(u, model, h, buf), dt, h,
                             buf.next_state(0, u))


def run(u0, config):
    """Guarded explicit run from the array ``u0`` to t_end, checked by
    ``march`` (a non-finite value ends in its floor check, the guard or the
    first step); returned measured by ``meters.measure_trajectory``."""
    model, h = config.model, config.grid.h
    return march((np.asarray(u0, dtype=float),), config,
                 guard=lambda s: stable_dt(s[0], model, h),
                 advance=lambda s, dt, buf: (step(s[0], model, h, dt, buf),),
                 measure=lambda traj: measure_trajectory(traj, model))


def initial_cosine(grid, mean=1.0, amplitude=0.5, mode=1):
    """The preset initial datum: mean * (1 + amplitude cos(mode pi x)) at
    the cell centers, as an array, mass-exact.

    The discrete midpoint sum of cos(k pi x) over symmetric cell centers
    vanishes, so the discrete mass equals ``mean`` exactly.
    """
    vals = grid.full(1.0)
    vals += amplitude * np.cos(mode * np.pi * grid.axis_centers())
    vals *= mean / (np.mean(vals))
    return vals
