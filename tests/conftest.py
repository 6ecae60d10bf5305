import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from entroflow.fields import Grid

settings.register_profile(
    "ci", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)


@pytest.fixture
def spy_buffers(monkeypatch):
    """``spy_buffers(module)`` wraps the flux function ``module._fluxes``
    for the test and returns a dict that collects, by id, every flux array
    a call returned."""

    def install(module):
        seen = {}
        original = module._fluxes

        def spy(*args):
            out = original(*args)
            seen[id(out)] = out
            return out

        monkeypatch.setattr(module, "_fluxes", spy)
        return seen

    return install


@pytest.fixture
def stencil_loop_gaps():
    """``stencil_loop_gaps(make, cells)`` returns, per cell count, the
    largest gap between a run and the explicit stencil looped at the run's
    dt from the same state, at the run's record times, over the largest
    state value.  ``make(grid)`` returns the run's trajectory, its initial
    state as a tuple of arrays and ``advance(state, dt)``, the next state."""

    def gaps(make, cells):
        out = []
        for n in cells:
            traj, state, advance = make(Grid(1, n))
            block = round(traj.record_dt / traj.dt)
            rows = (traj.u, traj.v)[:len(state)]
            gap = 0.0
            for k in range(1, len(traj.times)):
                for _ in range(block):
                    state = advance(state, traj.dt)
                gap = max(gap, *(np.max(np.abs(x - r[k])) / np.max(np.abs(r))
                                 for x, r in zip(state, rows)))
            out.append(gap)
        return out

    return gaps


@pytest.fixture
def run_interleaved(monkeypatch):
    """``run_interleaved(module, name, outer, *inner)`` calls ``outer()``
    and, between its first and second call of the flux function
    ``module.name`` (its run under way), every one of ``inner``; returns
    all the results, the outer run's first."""

    def go(module, name, outer, *inner):
        original, calls, results = getattr(module, name), [], []

        def stencil(*args):
            calls.append(1)
            if len(calls) == 2:
                results.extend(run() for run in inner)
            return original(*args)

        monkeypatch.setattr(module, name, stencil)
        first = outer()
        monkeypatch.setattr(module, name, original)
        assert len(results) == len(inner)
        return [first] + results

    return go


@pytest.fixture
def assert_same_record():
    """``assert_same_record(got, want)`` asserts that two meter records of
    one type hold the same arrays, field by field, bit for bit (a field
    that is None in one is None in the other)."""

    def check(got, want):
        assert type(got) is type(want)
        for name, value in vars(want).items():
            other = getattr(got, name)
            assert (other is None) == (value is None), name
            if value is not None:
                assert np.array_equal(other, value), name

    return check
