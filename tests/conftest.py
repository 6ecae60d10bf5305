import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)


@pytest.fixture
def spy_buffers(monkeypatch):
    """``spy_buffers(module, name)`` wraps the stencil ``module.name`` for
    the test and returns a dict that collects, by id, every array a call
    was lent through its last argument (a RunBuffers) or returned."""

    def install(module, name):
        seen = {}
        original = getattr(module, name)

        def spy(*args):
            out = original(*args)
            buf = args[-1]
            returned = out if isinstance(out, tuple) else (out,)
            for arr in (*buf.faces, *buf.cells, *returned):
                seen[id(arr)] = arr
            return out

        monkeypatch.setattr(module, name, spy)
        return seen

    return install


@pytest.fixture
def run_interleaved(monkeypatch):
    """``run_interleaved(module, name, outer, *inner)`` calls ``outer()``
    and, between its first and second call of the stencil ``module.name``
    (its buffers live), every one of ``inner``; returns all the results,
    the outer run's first."""

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
