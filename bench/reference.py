"""Fixed reference kernels, timed between operations, that track the
host's current speed.

The host this benchmark was tuned on runs the same code at speeds up to
about 1.7x apart, changing from one second to the next and from one
minute to the next, with the process's CPU time following its wall time
(README.md).  No statistic of the program's own times can tell a slow
phase of the host from slower code.  A reference kernel does the same
work at every call, written here and calling nothing in entroflow, so
its time measures the host alone; ``run.py`` scales the program's times
by it.

How much a slow phase slows code depends on the code: interpreted
Python, numpy on small arrays and numpy on large arrays slow by
different factors.  Each workload therefore has its own kernel, shaped
like the code that dominates it: an explicit finite-volume step loop on
a small 1D array (``flows``), a recursive adaptive Simpson rule in pure
Python (``quadrature``) and mirror-ghost stencils on a 64^3 array
(``ineq_sweep``).  Set-up, which runs in fresh processes, is scaled by a
fresh interpreter that imports numpy.
"""

import math
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

_CELLS = 256
_X = (np.arange(_CELLS) + 0.5) / _CELLS
_CUBE = 1.0 + 0.25 * np.cos(np.pi * _X[::4])[:, None, None] \
    * np.cos(np.pi * _X[::4])[None, :, None] * np.cos(np.pi * _X[::4])[None, None, :]


@dataclass
class _State:
    u: np.ndarray
    t: float

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        if not np.all(np.isfinite(self.u)):
            raise ValueError("non-finite state")


def _step_loop(steps=300):
    """Explicit steps of u_t = ((1 + u) u_x)_x with zero-flux ends."""
    h = 1.0 / _CELLS
    dt = 0.2 * h * h / 2.5
    state = _State(1.0 + 0.5 * np.cos(np.pi * _X), 0.0)
    for _ in range(steps):
        u = state.u
        mid = 0.5 * (u[1:] + u[:-1])
        flux = (1.0 + mid) * np.diff(u) / h
        div = np.zeros_like(u)
        div[:-1] += flux
        div[1:] -= flux
        u_new = u + (dt / h) * div
        if u_new.min() <= 0.0:
            raise ValueError("positivity lost")
        state = _State(u_new, state.t + dt)
    return float(state.u.sum() * h)


def _simpson(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol or depth <= 0:
        return left + right + delta / 15.0
    return (_simpson(f, a, fa, m, fm, lm, flm, left, 0.5 * tol, depth - 1)
            + _simpson(f, m, fm, b, fb, rm, frm, right, 0.5 * tol, depth - 1))


def _quadrature(states=tuple(0.25 + 0.1 * k for k in range(40))):
    """Adaptive Simpson integrals of log(1 + t) / sqrt(t) from 1 to s."""
    def f(t):
        return math.log(1.0 + t) / math.sqrt(t)

    total = 0.0
    for s in states:
        m = 0.5 * (1.0 + s)
        fa, fm, fb = f(1.0), f(m), f(s)
        whole = (s - 1.0) / 6.0 * (fa + 4.0 * fm + fb)
        total += _simpson(f, 1.0, fa, s, fb, m, fm, whole, 1e-12, 40)
    return total


def _stencils(passes=1):
    """Mirror-ghost gradients and second differences of a 64^3 array."""
    acc = 0.0
    for _ in range(passes):
        g = np.pad(_CUBE, 1, mode="symmetric")
        for axis in range(3):
            hi = [slice(1, -1)] * 3
            lo = [slice(1, -1)] * 3
            hi[axis] = slice(2, None)
            lo[axis] = slice(None, -2)
            grad = 0.5 * (g[tuple(hi)] - g[tuple(lo)])
            lap = g[tuple(hi)] - 2.0 * _CUBE + g[tuple(lo)]
            acc += float((grad * grad).sum() + lap.sum())
    return acc


KERNELS = {"flows": _step_loop, "quadrature": _quadrature,
           "ineq_sweep": _stencils}

# Operation time between two kernel samples in a round: the kernel adds
# 1-4% to a round's wall time, outside the operations' clocks.
INTERVAL_S = 0.2

# The scale of the reported times: each kernel's median time on this
# host when the benchmark was set up (2 vCPUs, README.md), in the worker
# for the workloads and, for "setup", the faster of the two
# ``interpreter_seconds`` around each set-up probe.  A time scaled by
# its kernel reads in seconds of a host running at that speed.  These
# are fixed constants: changing one rescales every later result.
NOMINAL_S = {"flows": 0.007, "quadrature": 0.008, "ineq_sweep": 0.011,
             "setup": 0.16}


def kernel_seconds(workload):
    """Wall time of one call of the workload's kernel."""
    fn = KERNELS[workload]
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def interpreter_seconds(env):
    """Wall time of a fresh interpreter that imports numpy and exits: the
    kind of work set-up does, without entroflow.  Scaling set-up by it
    gave a run-to-run spread of setup_s a quarter of that of the in-process
    kernels (README.md)."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True)
    return time.perf_counter() - t0


class Reference:
    """Times a workload's kernel before an operation once ``INTERVAL_S``
    seconds of operations have passed since the last sample, so that the
    samples spread evenly over the run's operation time."""

    def __init__(self, workload):
        self.workload = workload
        self.samples = []
        self._since = INTERVAL_S

    def sample(self):
        self.samples.append(kernel_seconds(self.workload))
        self._since = 0.0

    def before_op(self):
        if self._since >= INTERVAL_S:
            self.sample()

    def after_op(self, seconds):
        self._since += seconds
