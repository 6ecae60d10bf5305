"""The benchmark's span tracer still fits the program.

``bench/spans.py`` wraps entroflow functions and methods by name, and some
wrappers read the shape of their arguments.  A rename would break only the
traced benchmark run, so this installs the tracer, makes a tiny KS, heat,
quadrature-backed diffusion and p-Laplace experiment and the scalar
primitive calls under it, and checks that every patch comes off and that
each stencil ran through its spanned name.
"""

import importlib.util
import os

from entroflow import coeff_models
from entroflow.cli import EXIT_PASS, run_experiment

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_spans():
    path = os.path.join(ROOT, "bench", "spans.py")
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(target, attr):
    return target[attr] if isinstance(target, dict) else vars(target)[attr]


def test_span_tracer_wraps_and_restores_every_attribute(tmp_path):
    spans = _load_spans()
    tracer = spans.Tracer()
    spans.install(tracer)
    patches = list(tracer._patches)
    try:
        assert patches
        for target, attr, old in patches:
            assert _current(target, attr) is not old
        ks = {"kind": "ks", "name": "ks_traced", "model": {"p": 2.0, "q": 1.0},
              "grid": {"dim": 1, "cells": 32},
              "run": {"t_end": 0.002, "mass": 2.0, "record_every": 5}}
        heat = {"kind": "diffusion", "name": "heat_traced",
                "model": {"family": "linear"}, "grid": {"dim": 1, "cells": 32},
                "run": {"t_end": 0.002, "record_every": 10}}
        shifted = {"kind": "diffusion", "name": "shifted_traced",
                   "model": {"family": "shifted_power_law", "m": 2.0},
                   "grid": {"dim": 1, "cells": 32},
                   "run": {"t_end": 0.001, "record_every": 10}}
        plaplace = {"kind": "plaplace", "name": "plaplace_traced",
                    "model": {"p": 3.0}, "grid": {"dim": 1, "cells": 32},
                    "run": {"t_end": 0.001, "record_every": 2}}
        for cfg in (ks, heat, shifted, plaplace):
            assert run_experiment(cfg, str(tmp_path)) == EXIT_PASS
        model = coeff_models.ShiftedPowerLaw(2.0)
        coeff_models.eval_primitives(model, 2.5)
        model.primitives_by_quadrature(2.5)
    finally:
        tracer.uninstall()
    for target, attr, old in patches:
        assert _current(target, attr) is old
    assert tracer._patches == []
    # the argument-reading wrappers saw the shapes they expect
    assert tracer.count("cli.ks_fine_run") == 1
    assert tracer.count("cli.ks_coarse_run") == 1
    assert tracer.items("keller_segel.measure_monitors") > 0
    assert tracer.count("meters.measure[closed]") > 0
    assert tracer.count("meters.measure[quad]") > 0
    assert tracer.count("coeff_models.eval_primitives") == 1
    assert tracer.count("coeff_models.primitives_by_quadrature") == 1
    assert tracer.count("quadrature.adaptive_simpson") == 1
    # a per-step metric reads 0 if a stencil is reached by another name
    for name in spans._STEP_SPANS:
        assert tracer.count(name) > 0, name
    # the measuring passes integrate through the spanned function
    assert tracer.count("fields.integrate") > 0
