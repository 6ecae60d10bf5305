"""Explicit conservative time-stepping for u_t = (a(u) u_x)_x on (0,1),
and the one guarded time loop that every flow of the package runs on.

Conservative flux form with zero boundary fluxes keeps the discrete mass
bit-exact; positivity is enforced by aborting the run rather than
clamping, since clamping would silently break every identity this
package exists to verify.

The run contract, shared by ``run``, ``p_laplace.run`` and
``keller_segel.run_ks`` through ``march``:

- a flow supplies only its stencil (``step``, ``pl_step``, ``ks_step``)
  and its stability guard (``stable_dt``, ``pl_stable_dt``,
  ``ks_stable_dt``), both on raw ndarrays and sharing one bound on the
  face coefficients the stencil steps with; every stencil ends in
  ``conservative_step``, which raises StabilityError, before it writes,
  when dt exceeds that bound at safety 1, and PositivityLossError when
  the new state leaves the admissible set, non-finite values included;
- the loop owns dt: it is fixed once from the guard at the configured
  safety on the initial state, then shrunk so that t_end is a whole
  number of ``record_every``-step blocks; the guard runs once per run;
- the loop owns the aborts: an initial density at or below the
  positivity floor and every RunAbort of a step (a stencil's, or the
  chemotaxis run's density ceiling) raise with ``last_time``, the time of
  the last valid state, and the trajectory recorded so far;
- the loop owns the snapshots: only the recorded states, at t = 0 and
  after every ``record_every`` steps, are wrapped in validated fields;
- the run owns its buffers: it allocates its face- and cell-sized
  arrays once (``RunBuffers``), shares them with no other run, and its
  stencil writes into them every step.  A stencil writes the
  next state into the state slot its input does not occupy, so a state
  it returns is overwritten two steps later and any other array it
  returns by the next step; ``record`` therefore copies what it keeps,
  since ``Field`` does not.  A guard, and a stencil called without
  buffers, allocates its own.  Nothing configures the buffers;
- the run owns the measuring: it returns its trajectory measured by the
  flow's one measuring pass, one record per snapshot in
  ``Trajectory.meters``, which residuals, verdicts and the CLI only read;
  nothing measures on demand, and an abort's trajectory is unmeasured.
"""

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (ConfigError, ModelError, PositivityLossError, RunAbort,
                     StabilityError, UsageError)
from .fields import Field, Grid
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
        check_run_contract(self)


@dataclass
class Trajectory:
    """Time-ordered snapshots of a run, with per-snapshot meters.

    ``states`` holds a Field per snapshot for the scalar flows and a
    KSState for the chemotaxis system.  Immutable by convention once
    returned from a run.  ``meters`` holds one record per snapshot from
    the flow's one measuring pass, with the run's own model (or
    parameters), which the run makes before it returns; every residual
    and verdict reads it and measures nothing.
    """

    times: list
    states: list
    dt: float
    meters: list = dc_field(default_factory=list)

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise UsageError("snapshot count must match time count")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise UsageError("times must be strictly increasing")

    def measured(self):
        """The meters; UsageError unless they cover every snapshot."""
        if len(self.meters) != len(self.times):
            raise UsageError("the meters do not cover every snapshot")
        return self.meters

    @property
    def record_dt(self):
        return self.times[1] - self.times[0]

    def uniform_spacing(self, rtol=1e-9):
        dts = np.diff(self.times)
        return bool(np.all(np.abs(dts - dts[0]) <= rtol * dts[0]))

    def require_uniform(self, min_snapshots):
        """UsageError unless there are enough uniformly spaced snapshots."""
        if len(self.times) < min_snapshots:
            raise UsageError("need at least %d snapshots" % min_snapshots)
        if not self.uniform_spacing():
            raise UsageError("snapshot spacing must be uniform")

    def interval_residuals(self, value, source):
        """Per recording interval, the residual of d(value)/dt + source = 0
        from the meters: the difference quotient of ``value(record)`` plus
        the midpoint mean of ``source(record)`` at its two ends.
        """
        meters = self.measured()
        self.require_uniform(3)
        dt = self.record_dt
        values, sources = [value(m) for m in meters], [source(m) for m in meters]
        return [
            (v1 - v0) / dt + 0.5 * (s0 + s1)
            for v0, v1, s0, s1 in zip(values, values[1:], sources, sources[1:])
        ]


def check_run_contract(config):
    """ConfigError unless ``config`` holds a run ``march`` can make: its
    t_end, safety and record_every, on a 1D grid."""
    if not config.t_end > 0.0:
        raise ConfigError("t_end must be positive")
    if not (0.0 < config.safety <= 1.0):
        raise ConfigError("safety must lie in (0, 1]")
    if config.grid.dim != 1:
        raise ConfigError("flows are one-dimensional")
    if config.record_every < 1:
        raise ConfigError("record_every must be >= 1")


def march(state, config, guard, advance, record):
    """The guarded explicit loop of every flow; returns a Trajectory.

    ``state`` is a tuple of raw values whose first entry is the density
    array.  ``guard(state, safety)``, called once, returns the largest
    stable step, ``advance(state, dt)`` the next state or a RunAbort, and
    ``record(state)`` the validated snapshot.  ``config`` supplies t_end,
    safety and record_every; the initial density must lie above
    ``DEFAULT_FLOOR``.
    """
    if not (state[0].min() > DEFAULT_FLOOR):
        raise PositivityLossError("initial state below floor", last_time=0.0)
    dt0 = guard(state, config.safety)
    block = config.record_every
    n_steps = max(block, block * math.ceil(config.t_end / (dt0 * block)))
    dt = config.t_end / n_steps

    times, snaps, t = [0.0], [record(state)], 0.0
    for k in range(1, n_steps + 1):
        try:
            state = advance(state, dt)
        except RunAbort as err:
            err.last_time = t
            err.trajectory = Trajectory(times, snaps, dt)
            raise
        t = k * dt
        if k % block == 0:
            times.append(t)
            snaps.append(record(state))
    return Trajectory(times, snaps, dt)


class RunBuffers:
    """The arrays one run on ``n`` cells allocates once (see the run
    contract): ``faces`` scratch arrays of n - 1 entries, ``cells``
    scratch arrays of n entries, and two state slots per field of the
    state, which a stencil writes the next state into alternately."""

    def __init__(self, n, faces=0, cells=0, fields=1):
        self.faces = [np.empty(n - 1) for _ in range(faces)]
        self.cells = [np.empty(n) for _ in range(cells)]
        self._slots = [(np.empty(n), np.empty(n)) for _ in range(fields)]

    def next_state(self, field, current):
        """The slot of state field ``field`` that ``current`` does not occupy."""
        first, second = self._slots[field]
        return second if current is first else first


def conservative_step(u, flux, bound, dt, h, out):
    """The tail of every stencil: u + (dt/h) times the divergence of the
    interior face fluxes, the fluxes through both walls being zero,
    written into ``out``; aborts as the run contract says.

    StabilityError, before anything is written, unless dt <= bound, the
    stencil's stability bound at safety 1.  Each cell gains the flux of
    its right face and loses that of its left one, so the update
    telescopes and the discrete mass is conserved to rounding.
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


def _face_bound(u, model, h, safety, buf):
    """a at the face states (the means of adjacent cells, put in the first
    face array of ``buf``) and safety * h^2 / (2 max a), which at safety 1
    is the scheme's positivity condition dt (a_{i-1/2} + a_{i+1/2}) <= h^2."""
    mid = np.add(u[1:], u[:-1], out=buf.faces[0])
    np.multiply(mid, 0.5, out=mid)
    a_mid = np.asarray(model.a(mid), dtype=float)
    a_max = np.maximum.reduce(a_mid)
    # a NaN reaches both extremes, and an infinity one of them
    if not (math.isfinite(a_max) and math.isfinite(np.minimum.reduce(a_mid))):
        raise ModelError("coefficient evaluated non-finite on the state")
    return a_mid, safety * h * h / (2.0 * float(a_max))


def stable_dt(u, model, h, safety=DEFAULT_SAFETY):
    """The explicit-scheme stability guard: the bound of ``step``'s faces."""
    return _face_bound(u, model, h, safety, RunBuffers(u.size, faces=1))[1]


def step(u, model, h, dt, buf=None):
    """One conservative explicit Euler step; aborts as the run contract says.

    The flux at each interior face is a at the arithmetic-mean face state
    times the face difference.  ``buf`` lends it two face arrays and the
    state slot the new state is written into; without it the step
    allocates its own.
    """
    if buf is None:
        buf = RunBuffers(u.size, faces=2)
    a_mid, bound = _face_bound(u, model, h, 1.0, buf)
    flux = np.subtract(u[1:], u[:-1], out=buf.faces[1])
    np.multiply(a_mid, flux, out=flux)
    np.divide(flux, h, out=flux)
    return conservative_step(u, flux, bound, dt, h, buf.next_state(0, u))


def run(u0, config):
    """Guarded explicit run to t_end with uniformly spaced snapshots,
    returned measured by ``meters.measure_trajectory``."""
    model, h = config.model, u0.grid.h
    buf = RunBuffers(u0.grid.cells, faces=2)
    traj = march(
        (u0.values,), config,
        guard=lambda s, safety: stable_dt(s[0], model, h, safety),
        advance=lambda s, dt: (step(s[0], model, h, dt, buf),),
        record=lambda s: Field(u0.grid, s[0].copy()),
    )
    measure_trajectory(traj, model)
    return traj


def initial_cosine(grid, mean=1.0, amplitude=0.5, mode=1):
    """Preset initial datum mean * (1 + amplitude cos(mode pi x)), mass-exact.

    The discrete midpoint sum of cos(k pi x) over symmetric cell centers
    vanishes, so the discrete mass equals ``mean`` exactly.
    """
    x = grid.axis_centers()
    vals = 1.0 + amplitude * np.cos(mode * np.pi * x)
    vals *= mean / (np.mean(vals))
    return Field(grid, vals)
