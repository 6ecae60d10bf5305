import copy
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entroflow import errors
from entroflow.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICS,
    EXIT_PASS,
    MAX_GRID_VALUES,
    IneqConfig,
    main,
    parse_config,
    run_experiment,
)
from entroflow.coeff_models import Linear
from entroflow.diffusion import MAX_SNAPSHOT_VALUES, FlowConfig
from entroflow.errors import ConfigError
from entroflow.fields import Grid
from entroflow.presets import PRESETS, preset_config
from entroflow.reporting import write_json


@pytest.fixture
def outdir(tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setenv("ENTROFLOW_OUT", str(out))
    return out


def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_presets_listing(capsys):
    assert main(["presets"]) == EXIT_PASS
    out = capsys.readouterr().out
    for name in ("heat_sanity", "ks_critical_21", "bernis_n2", "plaplace_mono"):
        assert name in out


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_config_edits_leave_the_catalog_alone(name):
    first = copy.deepcopy(preset_config(name))
    cfg = preset_config(name)
    cfg["run"]["t_end"] = 5.0
    cfg["grid"]["cells"] = 9
    cfg["model"]["family"] = "edited"
    assert preset_config(name) == first


def test_run_heat_preset(outdir):
    assert main(["run", "heat_sanity"]) == EXIT_PASS
    summary = json.loads((outdir / "heat_sanity" / "summary.json").read_text())
    assert summary["termination"] == "completed"
    assert summary["fisher_monotone"] is True
    assert summary["entropy_monotone"] is True
    csv_text = (outdir / "heat_sanity" / "meters.csv").read_text()
    assert csv_text.startswith(
        "t,entropy,fisher_sigma,fisher_st,dissipation,r_entropy,r_fisher"
    )


def test_rerun_byte_identical(outdir, tmp_path):
    assert main(["run", "heat_sanity"]) == EXIT_PASS
    first = (outdir / "heat_sanity" / "meters.csv").read_bytes()
    alt = tmp_path / "alt"
    assert main(["run", "heat_sanity", "--out", str(alt)]) == EXIT_PASS
    second = (alt / "heat_sanity" / "meters.csv").read_bytes()
    assert first == second


def test_ineq_rerun_byte_identical(tmp_path):
    # a 3D run between two 2D runs swaps the scratch arrays' grid shape
    def ineq(name, dim, cells):
        cfg = {"name": name, "kind": "ineq", "model": {"family": "power_law", "m": 2.0},
               "grid": {"dim": dim, "cells": cells},
               "run": {"trials": 6, "seed": 17, "check": "both"}}
        return _write(tmp_path, cfg, name + ".json")

    runs = {}
    for out, dim, cells in (("a", 2, 24), ("c", 3, 10), ("b", 2, 24)):
        path = ineq("ineq_rerun_%d" % dim, dim, cells)
        assert main(["run", path, "--out", str(tmp_path / out)]) == EXIT_PASS
        run_dir = tmp_path / out / ("ineq_rerun_%d" % dim)
        runs[out] = [(run_dir / f).read_bytes() for f in ("trials.csv", "summary.json")]
    assert runs["a"] == runs["b"]


def test_strict_q_out_of_range_is_config_error(outdir, tmp_path):
    cfg = {
        "name": "bad",
        "kind": "ks",
        "model": {"p": 2.5, "q": 1.5, "strict": True},
        "grid": {"dim": 1, "cells": 64},
        "run": {"t_end": 0.001, "mass": 1.0},
    }
    path = _write(tmp_path, cfg)
    assert main(["run", path]) == EXIT_CONFIG
    assert main(["validate", path]) == EXIT_CONFIG
    with pytest.raises(ConfigError, match=r"\(1/2, 1\]"):
        parse_config(cfg)


def test_validate_good_config(tmp_path, capsys):
    cfg = {
        "name": "ok",
        "kind": "diffusion",
        "model": {"family": "linear"},
        "grid": {"dim": 1, "cells": 32},
        "run": {"t_end": 0.001},
    }
    assert main(["validate", _write(tmp_path, cfg)]) == EXIT_PASS
    assert "ok" in capsys.readouterr().out


def test_validate_catches_missing_seed():
    cfg = {
        "name": "x",
        "kind": "ineq",
        "model": {"family": "linear"},
        "grid": {"dim": 1, "cells": 64},
        "run": {"trials": 5},
    }
    with pytest.raises(ConfigError, match="seed"):
        parse_config(cfg)


def test_missing_config_file(outdir):
    assert main(["run", "/nonexistent/nope.json"]) == EXIT_CONFIG
    assert main(["validate", "/nonexistent/nope.json"]) == EXIT_CONFIG


def test_config_nested_too_deep_is_config_error(outdir, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    for command in ("validate", "run"):
        assert main([command, str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and "cannot read" in captured.err
    assert not outdir.exists()


def test_unknown_kind():
    with pytest.raises(ConfigError, match="kind"):
        parse_config({"name": "x", "kind": "magic"})


def test_ineq_subcommand(outdir):
    code = main(["run", "bernis_n1", "--set", "run.check=both", "--set", "run.trials=10",
                 "--set", "run.seed=3", "--set", "grid.cells=64"])
    assert code == EXIT_PASS
    run_dir = outdir / "bernis_n1"
    header = (run_dir / "trials.csv").read_text().splitlines()[0]
    assert header == "trial,c0,bernis_ratio,fisher_ratio,lam"
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["all_passed"] is True
    assert summary["max_bernis_ratio"] <= 4.0 * (1.0 + summary["tol"])


def test_ineq_cmkm_subcommand(outdir):
    code = main(["run", "bernis_n2", "--set", "run.check=cmkm", "--set", "run.trials=5",
                 "--set", "run.seed=3", "--set", "grid.cells=32"])
    assert code == EXIT_PASS
    summary = json.loads((outdir / "bernis_n2" / "summary.json").read_text())
    assert summary["max_cmkm_ratio"] > 0.0


def test_plaplace_subcommand(outdir):
    code = main(["run", "plaplace_mono", "--set", "model.p=3", "--set", "model.delta=1e-6",
                 "--set", "grid.cells=64", "--set", "run.t_end=0.005",
                 "--set", "run.record_every=50"])
    assert code == EXIT_PASS
    run_dir = outdir / "plaplace_mono"
    header = (run_dir / "pl_monitors.csv").read_text().splitlines()[0]
    assert header == "t,I,dI_dt,residual_prop61"
    summary = json.loads((run_dir / "pl_summary.json").read_text())
    assert summary["monotone"] is True


def _reject_constant(token):
    raise ValueError("non-standard JSON constant %s" % token)


def test_ks_subcommand(outdir):
    code = main(["run", "ks_critical_21", "--set", "model.p=2", "--set", "model.q=1",
                 "--set", "model.strict=true", "--set", "run.mass=2",
                 "--set", "grid.cells=64", "--set", "run.t_end=0.01",
                 "--set", "run.record_every=20"])
    assert code == EXIT_PASS
    run_dir = outdir / "ks_critical_21"
    header = (run_dir / "ks_monitors.csv").read_text().splitlines()[0]
    assert header.startswith("t,mass,lyap_classical,lyap_F,dissipation_D")
    summary = json.loads((run_dir / "ks_summary.json").read_text())
    assert summary["termination"] == "completed"
    assert summary["lp_inequality"]["passed"] is True
    assert summary["residual_convergence"]["table"][0]["cells"] == 32

    # off the critical line the Fisher-type pair is reported as numbers
    code = main(["run", "ks_s1_10", "--set", "model.p=2", "--set", "model.q=0.5",
                 "--set", "model.strict=false", "--set", "run.mass=1",
                 "--set", "grid.cells=16", "--set", "run.t_end=0.0234",
                 "--set", "run.record_every=10"])
    assert code == EXIT_PASS
    text = (outdir / "ks_s1_10" / "ks_summary.json").read_text()
    summary = json.loads(text, parse_constant=_reject_constant)
    for col in ("lyap_F", "dissipation_D"):
        assert math.isfinite(summary["max_monitors"][col])


def test_ks_s1_preset_reports_convergent_special_case_identities(outdir):
    assert main(["run", "ks_s1_10"]) == EXIT_PASS
    summary = json.loads((outdir / "ks_s1_10" / "ks_summary.json").read_text())
    coarse, fine = summary["residual_convergence"]["table"]
    assert (coarse["cells"], fine["cells"]) == (64, 128)
    for key in ("max_s1_lemma_residual", "max_s1_remark_residual"):
        assert coarse[key] / fine[key] > 1.0


def _count_calls(monkeypatch, owner, name, counts, skip=lambda: False):
    """Count calls of ``owner.name`` into ``counts[name]``, except while
    ``skip()`` holds."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        if not skip():
            counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def _capture_results(monkeypatch, owner, name, into):
    original = getattr(owner, name)

    def capture(*args, **kwargs):
        into.append(original(*args, **kwargs))
        return into[-1]

    monkeypatch.setattr(owner, name, capture)


@pytest.mark.parametrize("p, q", [(2.0, 1.0), (1.0, 0.0)])
def test_ks_run_evaluates_each_snapshot_once(p, q, monkeypatch, tmp_path):
    # the fine and the paired coarse run are measured once each: outside
    # the rate, the v_t integrand and the guard, v_t, D/S and S are formed
    # once per trajectory, on all of its snapshots at a time
    from entroflow import cli, keller_segel
    from entroflow.coeff_models import KSModel

    counts = {"measure_monitors": 0, "v_time_derivative": 0, "ratio": 0, "S": 0}
    stepping = [0]
    measured = []

    def in_step(fn):
        def wrapped(*args, **kwargs):
            stepping[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                stepping[0] -= 1
        return wrapped

    for name in ("_rate", "_vt_sq", "ks_stable_dt"):
        monkeypatch.setattr(keller_segel, name, in_step(getattr(keller_segel, name)))
    _count_calls(monkeypatch, keller_segel, "v_time_derivative", counts,
                 lambda: stepping[0] > 0)
    for name in ("ratio", "S"):
        _count_calls(monkeypatch, KSModel, name, counts, lambda: stepping[0] > 0)
    _capture_results(monkeypatch, keller_segel, "measure_monitors", measured)
    _count_calls(monkeypatch, keller_segel, "measure_monitors", counts)
    trajs = []
    _capture_results(monkeypatch, cli, "_ks_run_once", trajs)

    cfg = {"kind": "ks", "name": "ks_counts",
           "model": {"p": p, "q": q},
           "grid": {"dim": 1, "cells": 32},
           "run": {"t_end": 0.004, "mass": 2.0, "record_every": 5}}
    assert run_experiment(cfg, str(tmp_path)) == EXIT_PASS
    assert len(trajs) == 2 and all(len(t.times) >= 3 for t in trajs)
    assert counts == {name: 2 for name in counts}
    # each pass recorded every snapshot of its own trajectory
    assert [m.mass.shape for m in measured] == [t.times.shape for t in trajs]
    assert all(m is t.meters for m, t in zip(measured, trajs))


def test_plaplace_run_evaluates_each_snapshot_once(monkeypatch, tmp_path):
    # one measuring pass per run, which forms p* once and measures all of
    # the trajectory's snapshots at a time
    from entroflow import cli

    counts = {"p_star": 0, "measure_trajectory": 0}
    for name in counts:
        _count_calls(monkeypatch, cli.pl_mod, name, counts)
    trajs = []
    _capture_results(monkeypatch, cli.pl_mod, "run", trajs)
    cfg = {"kind": "plaplace", "name": "pl_counts", "model": {"p": 3.0},
           "grid": {"dim": 1, "cells": 32},
           "run": {"t_end": 0.002, "record_every": 10}}
    assert run_experiment(cfg, str(tmp_path)) == EXIT_PASS
    assert len(trajs) == 1 and len(trajs[0].times) >= 3
    assert trajs[0].meters.I.shape == trajs[0].times.shape
    assert counts == {"p_star": 1, "measure_trajectory": 1}


def test_plaplace_p1_is_config_error(outdir, tmp_path, capsys):
    # p* = 1 - 1/(2(p-1)) is undefined at p = 1
    argv = ["run", "plaplace_mono", "--set", "model.p=1", "--set", "grid.cells=32",
            "--set", "run.t_end=1e-4", "--set", "run.record_every=1"]
    assert main(argv) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    cfg = {"name": "p1", "kind": "plaplace", "model": {"p": 1.0},
           "grid": {"dim": 1, "cells": 32},
           "run": {"t_end": 1e-4, "record_every": 1}}
    assert main(["validate", _write(tmp_path, cfg)]) == EXIT_CONFIG


@pytest.mark.parametrize("row", ["nan,2.0", "2.5,inf"], ids=["nan-knot", "inf-value"])
def test_non_finite_table_entry_is_config_error(row, outdir, tmp_path):
    # float() parses nan and inf, and no ordering or sign check is ever
    # true of a NaN: the table is refused before it reaches the interpolator
    table = tmp_path / "table.csv"
    table.write_text("\n".join(["s,a", "1,2", "2,3", row, "3,4", "4,5"]) + "\n")
    cfg = {"kind": "diffusion", "name": "nan_table",
           "model": {"family": "custom", "table": str(table)},
           "grid": {"dim": 1, "cells": 32},
           "run": {"t_end": 0.002, "record_every": 10}}
    path = _write(tmp_path, cfg)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for command in ("run", "validate"):
        proc = subprocess.run([sys.executable, "-m", "entroflow.cli", command, path],
                              capture_output=True, text=True, env=env, cwd=tmp_path)
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "config error" in proc.stderr
        assert "Traceback" not in proc.stderr + proc.stdout
    assert not outdir.exists()


def test_plaplace_below_three_halves_writes_no_rate_residual(outdir):
    # p* < 0 for p < 3/2: every I row is written, the rate cells are empty
    code = main(["run", "plaplace_mono", "--set", "model.p=1.2", "--set", "grid.cells=32",
                 "--set", "run.t_end=1e-4", "--set", "run.record_every=1"])
    assert code == EXIT_PASS
    lines = (outdir / "plaplace_mono" / "pl_monitors.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) >= 3
    for t, I, dI_dt, residual in rows:
        assert float(I) > 0.0 and residual == ""
    assert all(math.isfinite(float(row[2])) for row in rows[1:])


def test_ks_below_twice_the_grid_minimum_skips_coarse_run(outdir):
    code = main(["run", "ks_critical_21", "--set", "model.strict=false",
                 "--set", "run.mass=1", "--set", "grid.cells=12",
                 "--set", "run.t_end=0.001", "--set", "run.record_every=5"])
    assert code == EXIT_PASS
    summary = json.loads((outdir / "ks_critical_21" / "ks_summary.json").read_text())
    assert summary["residual_convergence"]["table"][0] == {
        "cells": 6, "max_lyap_residual": None}
    assert summary["residual_convergence"]["ratio"] is None


def test_coarse_ks_abort_stays_in_its_table_row(outdir, tmp_path):
    # the experiment's own 16-cell run completes; the paired 8-cell run
    # aggregates sooner, and its trough reaches the positivity floor at
    # t ~ 0.41, which nulls its residual and names the abort in its row only
    cfg = {"name": "ks_coarse_abort", "kind": "ks", "model": {"p": 2, "q": 0.5},
           "grid": {"cells": 16},
           "run": {"t_end": 0.42, "mass": 36, "record_every": 20}}
    assert main(["run", _write(tmp_path, cfg)]) == EXIT_PASS
    summary = json.loads((outdir / "ks_coarse_abort" / "ks_summary.json").read_text())
    assert summary["termination"] == "completed" and "last_time" not in summary
    coarse, fine = summary["residual_convergence"]["table"]
    assert coarse["cells"] == 8 and coarse["max_lyap_residual"] is None
    assert coarse["termination"] == "PositivityLossError"
    assert 0.0 < coarse["last_time"] < 0.42
    assert coarse["integrator"]["accepted_steps"] > 0
    assert fine["max_lyap_residual"] is not None and "termination" not in fine
    assert fine["integrator"] == summary["integrator"]
    assert summary["residual_convergence"]["ratio"] is None


def test_abort_still_writes_summary(outdir, tmp_path):
    # initial data below the positivity floor: the run aborts with exit 3
    # but the summary is still written with the abort reason and time
    for kind, model, summary_file in (
        ("diffusion", {"family": "linear"}, "summary.json"),
        ("plaplace", {"p": 3.0}, "pl_summary.json"),
    ):
        cfg = {
            "name": "abort_" + kind,
            "kind": kind,
            "model": model,
            "grid": {"dim": 1, "cells": 32},
            "run": {"t_end": 0.001, "mean": 1e-9, "amplitude": 0.5},
        }
        assert main(["run", _write(tmp_path, cfg)]) == EXIT_NUMERICS
        summary = json.loads((outdir / cfg["name"] / summary_file).read_text())
        assert summary["termination"] == "PositivityLossError"
        assert summary["last_time"] == 0.0


@pytest.mark.parametrize("t_end, message", [(1e308, "finite number of steps"),
                                            (1e300, "cannot hold")])
@pytest.mark.parametrize("kind, model, summary_file", [
    ("diffusion", {"family": "linear"}, "summary.json"),
    ("plaplace", {"p": 3.0}, "pl_summary.json"),
    ("ks", {"p": 2.0, "q": 1.0}, "ks_summary.json"),
])
def test_unholdable_t_end_exits_3_with_a_summary(kind, model, summary_file, t_end,
                                                 message, outdir, tmp_path):
    # 1e308 is an infinite count of steps, and 1e300 a count of snapshots
    # no array can hold: both are refused before the first step
    cfg = {"name": "huge_" + kind, "kind": kind, "model": model,
           "grid": {"dim": 1, "cells": 16},
           "run": {"t_end": t_end, "record_every": 1}}
    assert main(["run", _write(tmp_path, cfg)]) == EXIT_NUMERICS
    summary = json.loads((outdir / cfg["name"] / summary_file).read_text())
    assert summary["termination"] == "ConfigError"
    assert message in summary["message"]
    assert summary["last_time"] is None


# Configs the parse accepts and the run refuses before its first step or
# trial: a stable step of 0 (at mean 1e306 the p-Laplace face coefficient
# overflows to inf) or of inf (for p < 2 it underflows to 0 on every face),
# a step count past the largest float, grids of an inequality check numpy
# refuses before allocating, and a coefficient that overflows on the
# initial state (the power laws' a at m = 3, or the KS diffusivity
# (1+u)^2, a stable step of 0); and a run whose first step aborts with a
# block of 2^63 steps, whose recorded times overflowed an integer arange.
# Each row ends in the time of the last valid state: None when no step was
# taken.  The ids of the first three rows are the ones they had while a KS
# row (a grid numpy refuses, now refused in the parse) stood second, kept
# so that each row keeps its test id.
_UNRUNNABLE = [
    pytest.param("plaplace", {"p": 3.0}, {"cells": 128}, {"t_end": 0.01, "mean": 1e306},
                 "pl_summary.json", "ConfigError", "finite number of steps of 0", None,
                 id="plaplace-model0-grid0-run0-pl_summary.json-finite number of steps of 0"),
    pytest.param("plaplace", {"p": 1.2}, {"cells": 8}, {"t_end": 0.01, "mean": 1e306},
                 "pl_summary.json", "ConfigError", "a stable step of inf", None,
                 id="plaplace-p1.2-stable-step-of-inf"),
    pytest.param("diffusion", {"family": "linear"}, {"cells": 16},
                 {"t_end": 1e6, "safety": 1e-300, "record_every": 1000},
                 "summary.json", "ConfigError", "finite number of steps", None,
                 id="diffusion-step-count-past-float-range"),
    pytest.param("ks", {"p": 1.0, "q": 0.0}, {"cells": 16},
                 {"t_end": 1e6, "safety": 1e-300, "record_every": 1000},
                 "ks_summary.json", "ConfigError", "finite number of steps", None,
                 id="ks-step-count-past-float-range"),
    pytest.param("ks", {"p": 1.0, "q": 0.0}, {"cells": 16},
                 {"t_end": 0.005, "mass": 1e300, "record_every": 2**63},
                 "ks_summary.json", "StabilityError", "ceiling", 0.0,
                 id="ks-record-every-2**63-aborts"),
    pytest.param("diffusion", {"family": "power_law", "m": 3.0}, {"cells": 16},
                 {"t_end": 0.001, "mean": 1e200}, "summary.json", "ModelError",
                 "coefficient evaluated non-finite", None,
                 id="diffusion-power-law-coefficient-overflows"),
    pytest.param("diffusion", {"family": "shifted_power_law", "m": 3.0},
                 {"cells": 16},
                 {"t_end": 0.001, "mean": 1e200}, "summary.json", "ModelError",
                 "coefficient evaluated non-finite", None,
                 id="diffusion-shifted-power-law-coefficient-overflows"),
    pytest.param("ks", {"p": -2.0, "q": 1.0}, {"cells": 16},
                 {"t_end": 0.001, "mass": 1e200}, "ks_summary.json", "ConfigError",
                 "finite number of steps of 0", None,
                 id="ks-diffusivity-overflows"),
    pytest.param("diffusion", {"family": "power_law", "m": 50}, {"cells": 16},
                 {"t_end": 1e-3, "mean": 1e-7}, "summary.json", "ConfigError",
                 "a stable step of inf", None,
                 id="diffusion-power-law-coefficient-underflows"),
    pytest.param("ks", {"p": 2, "q": 400}, {"cells": 16},
                 {"t_end": 1e-4, "mass": 1e3}, "ks_summary.json", "ConstructionError",
                 "field values must be finite", None,
                 id="ks-monitors-overflow-at-q400"),
    pytest.param("ks", {"p": 400, "q": 399}, {"cells": 16},
                 {"t_end": 1e-4, "mass": 1e3}, "ks_summary.json", "ConstructionError",
                 "field values must be finite", None,
                 id="ks-monitors-overflow-at-p400"),
    # the face differences overflow, so the rate is not finite on the
    # initial state and the integrator halves its first step to nothing
    pytest.param("diffusion", {"family": "linear"}, {"cells": 16},
                 {"t_end": 0.01, "mean": 1e307}, "summary.json", "StabilityError",
                 "the integrator failed", 0.0,
                 id="diffusion-integrator-fails-on-overflowing-fluxes"),
    # delta^2 underflows to 0, so the flux is not Lipschitz where a face
    # gradient vanishes: the steps shrink near t = 0.1669 until the run has
    # spent its budget of rate evaluations (~1.5 s)
    pytest.param("plaplace", {"p": 1.2, "delta": 1e-200}, {"cells": 16},
                 {"t_end": 1.0, "record_every": 5}, "pl_summary.json",
                 "StabilityError", "budget of 20000 rate evaluations",
                 pytest.approx(0.1669, rel=1e-3),
                 id="plaplace-delta-underflow-spends-the-budget"),
    # 512k rows of 16 cells, past MAX_SNAPSHOT_VALUES: refused before the
    # first step, where it was a run of seconds that a larger record_every
    # makes cheap
    pytest.param("diffusion", {"family": "linear"}, {"cells": 16},
                 {"t_end": 400, "record_every": 1}, "summary.json", "ConfigError",
                 "cannot hold", None,
                 id="diffusion-snapshots-past-the-budget"),
]


_INTEGRATOR_KEYS = ("accepted_steps", "rejected_steps", "rhs_evaluations",
                    "lu_factorizations")


@pytest.mark.parametrize(
    "kind, model, grid, run, summary_file, termination, message, last_time",
    _UNRUNNABLE)
def test_unrunnable_config_exits_3_with_a_summary(kind, model, grid, run, summary_file,
                                                  termination, message, last_time,
                                                  outdir, tmp_path):
    cfg = {"name": "unrunnable", "kind": kind, "model": model, "grid": grid,
           "run": run}
    assert main(["run", _write(tmp_path, cfg)]) == EXIT_NUMERICS
    summary = json.loads((outdir / "unrunnable" / summary_file).read_text())
    assert summary["termination"] == termination
    assert message in summary["message"]
    assert summary["last_time"] == last_time
    # an abort once the state is admitted reports the integrator's cost
    if last_time is not None:
        assert set(summary["integrator"]) == set(_INTEGRATOR_KEYS)


# Grids whose arrays a run cannot afford, refused by the config's parse
# before any array is made: a flow records 2 rows of its cells or more,
# and an inequality check's grid holds cells^dim values
@pytest.mark.parametrize("preset, sets", [
    pytest.param("heat_sanity", ["grid.cells=%d" % (MAX_SNAPSHOT_VALUES // 2 + 1)],
                 id="diffusion-2-rows-past-the-snapshot-budget"),
    pytest.param("plaplace_mono", ["grid.cells=%d" % (MAX_SNAPSHOT_VALUES // 2 + 1)],
                 id="plaplace-2-rows-past-the-snapshot-budget"),
    pytest.param("ks_critical_21", ["grid.cells=100000000"], id="ks-10**8-cells"),
    pytest.param("bernis_n1", ["grid.cells=%d" % (MAX_GRID_VALUES + 1)],
                 id="ineq-1d-grid-past-the-budget"),
    pytest.param("fisher_ineq_n2", ["grid.cells=1449"],  # 1449^2 > 2^21
                 id="ineq-2d-grid-past-the-budget"),
    pytest.param("bernis_n1", ["grid.dim=3", "grid.cells=10000000"],
                 id="ineq-3d-10**21"),
    pytest.param("bernis_n2", ["grid.dim=3", "grid.cells=10000000", "run.check=cmkm"],
                 id="ineq-cmkm-3d-10**21"),
])
def test_unaffordable_grids_are_refused_before_allocation(preset, sets, monkeypatch,
                                                          outdir, capsys):
    def no_grid(self, value):
        raise AssertionError("allocated a grid of %d^%d cells" % (self.cells, self.dim))

    monkeypatch.setattr(Grid, "full", no_grid)
    argv = ["run", preset] + [arg for edit in sets for arg in ("--set", edit)]
    assert main(argv) == EXIT_CONFIG
    assert "config error: cannot hold" in capsys.readouterr().err
    assert not outdir.exists()


def test_the_grid_budgets_admit_their_limits():
    # constructing a config allocates nothing
    model = Linear()
    IneqConfig(model, Grid(3, 128), trials=1, seed=0)  # MAX_GRID_VALUES
    FlowConfig(model, Grid(1, MAX_SNAPSHOT_VALUES // 2), t_end=1.0)
    with pytest.raises(ConfigError, match="cannot hold a grid of 129\\^3"):
        IneqConfig(model, Grid(3, 129), trials=1, seed=0)
    with pytest.raises(ConfigError, match="cannot hold 2 snapshots"):
        FlowConfig(model, Grid(1, MAX_SNAPSHOT_VALUES // 2 + 1), t_end=1.0)


def test_out_of_memory_grid_exits_3_with_a_summary(monkeypatch, outdir, tmp_path):
    # numpy's MemoryError for a grid it tries and fails to allocate
    def no_memory(*args, **kwargs):
        raise MemoryError("no memory for the test")

    cfg = {"name": "no_memory", "kind": "ineq", "model": {"family": "linear"},
           "grid": {"dim": 3, "cells": 16}, "run": {"trials": 1, "seed": 1}}
    monkeypatch.setattr(np, "full", no_memory)
    assert main(["run", _write(tmp_path, cfg)]) == EXIT_NUMERICS
    summary = json.loads((outdir / "no_memory" / "summary.json").read_text())
    assert summary["termination"] == "ConfigError"
    assert "cannot hold a grid of 16^3 cells" in summary["message"]


@pytest.mark.parametrize("model, built", [
    ({"family": "linear"}, "Linear()"),
    ({"family": "power_law", "m": 3.0}, "PowerLaw(m=3)"),
    ({"family": "shifted_power_law", "m": 2.0}, "ShiftedPowerLaw(m=2)"),
    ({"family": "custom", "table": "high.csv"}, "TabulatedModel(4 knots on [2, 5])"),
])
def test_parse_config_builds_each_family(model, built, tmp_path):
    (tmp_path / "high.csv").write_text("s,a\n2,1\n3,1\n4,1\n5,1\n")
    if "table" in model:
        model = dict(model, table=str(tmp_path / model["table"]))
    for kind, run in (("diffusion", {"t_end": 0.01}),
                      ("ineq", {"trials": 1, "seed": 1})):
        cfg = {"name": "x", "kind": kind, "model": model, "grid": {"cells": 16},
               "run": run}
        assert repr(parse_config(cfg).config.model) == built


def test_plaplace_zero_delta_is_config_error(outdir, tmp_path):
    cfg = {
        "name": "flat",
        "kind": "plaplace",
        "model": {"p": 3.0, "delta": 0.0},
        "grid": {"dim": 1, "cells": 16},
        "run": {"t_end": 0.001, "amplitude": 0.0},
    }
    path = _write(tmp_path, cfg)
    assert main(["validate", path]) == EXIT_CONFIG
    assert main(["run", path]) == EXIT_CONFIG


def test_config_name_defaults_to_filename(outdir, tmp_path):
    cfg = {
        "kind": "diffusion",
        "model": {"family": "linear"},
        "grid": {"dim": 1, "cells": 32},
        "run": {"t_end": 0.001, "record_every": 5},
    }
    path = _write(tmp_path, cfg, name="myrun.json")
    assert main(["run", path]) == EXIT_PASS
    assert (outdir / "myrun" / "summary.json").exists()


_DELETE = object()


def _small_preset(name):
    cfg = copy.deepcopy(preset_config(name))
    cfg["grid"]["cells"] = 16
    for key, value in (("t_end", 1e-3), ("trials", 2), ("record_every", 1)):
        if key in cfg["run"]:
            cfg["run"][key] = value
    return cfg


# (preset, edits of its small form, exit code of `run`); edits of None put
# the config in a list, and a table path is a file name in the test's
# directory, where high.csv tabulates a(s) = 1 on [2, 5]
_PROBES = [
    ("heat_sanity", {"run.t_end": "0.01"}, EXIT_CONFIG),
    ("heat_sanity", {"grid.cells": "abc"}, EXIT_CONFIG),
    ("heat_sanity", {"grid.cells": 16.7}, EXIT_CONFIG),
    ("bernis_n1", {"run.trials": "2"}, EXIT_CONFIG),
    ("heat_sanity", {"run.record_every": 0}, EXIT_CONFIG),
    ("ks_critical_21", {"run.record_every": 0}, EXIT_CONFIG),
    ("plaplace_mono", {"run.record_every": 0}, EXIT_CONFIG),
    ("ks_critical_21", {"run.safety": 0}, EXIT_CONFIG),
    ("heat_sanity", {"run.safety": 2}, EXIT_CONFIG),
    ("ks_critical_21", {"model.p": _DELETE}, EXIT_CONFIG),
    ("heat_sanity", {"model.family": "power_law"}, EXIT_CONFIG),
    ("heat_sanity", {"grid.dim": 2}, EXIT_CONFIG),
    ("ks_critical_21", {"grid.dim": 2}, EXIT_CONFIG),
    ("bernis_n1", {"run.check": "foo"}, EXIT_CONFIG),
    ("heat_sanity", {"run.tend": 0.01}, EXIT_CONFIG),
    ("heat_sanity", None, EXIT_CONFIG),
    ("heat_sanity", {"model.family": "custom", "model.table": "none.csv"},
     EXIT_CONFIG),
    ("heat_sanity", {"run.record_every": 5}, EXIT_NUMERICS),
    ("plaplace_mono", {"run.record_every": 5}, EXIT_NUMERICS),
    ("heat_sanity", {"model.family": "custom", "model.table": "high.csv"},
     EXIT_NUMERICS),
    ("heat_sanity", {"model.family": "mystery"}, EXIT_CONFIG),
    ("bernis_n1", {"model.family": "custom"}, EXIT_CONFIG),
    # initial data on a grid numpy refuses: refused in the parse
    ("heat_sanity", {"grid.cells": 10**19}, EXIT_CONFIG),
    ("plaplace_mono", {"grid.cells": 10**19}, EXIT_CONFIG),
    ("ks_critical_21", {"grid.cells": 10**19}, EXIT_CONFIG),
    ("ks_critical_21", {"run.mass": 0}, EXIT_CONFIG),
    # p = 0 on the critical line: Psi has no pole there
    ("ks_critical_21", {"model.p": 0.0, "model.q": -1.0, "model.strict": False},
     EXIT_PASS),
    # some squared face gradients overflow, and their coefficients of 0 step
    ("plaplace_mono", {"model.p": 1.2, "grid.cells": 64, "run.mean": 1e154},
     EXIT_PASS),
    # the flux adds delta^2, which overflows a float
    ("plaplace_mono", {"model.delta": 1e300}, EXIT_CONFIG),
    # coefficients that overflow on the construction probe
    ("heat_sanity", {"model.family": "power_law", "model.m": 60}, EXIT_CONFIG),
    ("bernis_n1", {"model.family": "shifted_power_law", "model.m": 200},
     EXIT_CONFIG),
    # delta^2 underflows to 0, and on a flat state every face coefficient
    # is 0^(-0.4): a stable step of 0, without a divide-by-zero warning
    ("plaplace_mono", {"model.p": 1.2, "model.delta": 1e-200, "run.amplitude": 0,
                       "run.t_end": 0.01, "run.record_every": 5}, EXIT_NUMERICS),
    # initial data whose scaling overflows, or divides by a profile mean
    # that rounds to 0: refused in the parse, without a warning
    ("plaplace_mono", {"run.amplitude": 1e154, "run.mean": 1e306}, EXIT_CONFIG),
    ("heat_sanity", {"run.amplitude": 1e300, "run.mean": 1e306}, EXIT_CONFIG),
    ("heat_sanity", {"grid.cells": 8, "run.amplitude": 1e154}, EXIT_CONFIG),
    # trials past MAX_TRIALS, which would run for hours: refused in the parse
    ("bernis_n1", {"run.trials": 2**63}, EXIT_CONFIG),
    ("bernis_n1", {"run.trials": 1e154}, EXIT_CONFIG),
]
# the rows whose config error names the key at fault, and that key
_NAMED_KEYS = [({"model.family": "power_law"}, "model.m"),
               ({"model.family": "mystery"}, "model.family"),
               ({"model.family": "custom"}, "model.table")]


def _probe_config(preset, edits, tmp_path):
    cfg = _small_preset(preset)
    for path, value in (edits or {}).items():
        section, key = path.split(".")
        if value is _DELETE:
            del cfg[section][key]
        else:
            cfg[section][key] = str(tmp_path / value) if key == "table" else value
    return cfg if edits is not None else [cfg]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("preset, edits, code", _PROBES)
def test_validate_and_run_agree(preset, edits, code, outdir, tmp_path, capsys):
    (tmp_path / "high.csv").write_text("s,a\n2,1\n3,1\n4,1\n5,1\n")
    path = _write(tmp_path, _probe_config(preset, edits, tmp_path))
    assert main(["validate", path]) == (code if code == EXIT_CONFIG else EXIT_PASS)
    assert main(["run", path]) == code
    if code == EXIT_CONFIG:
        assert not outdir.exists()
        err = capsys.readouterr().err
        for named_edits, key in _NAMED_KEYS:
            if edits == named_edits:
                assert err.count("config error: %s " % key) == 2
        return
    (summary_file,) = (outdir / preset).glob("*summary.json")
    summary = json.loads(summary_file.read_text())
    if code == EXIT_PASS:
        assert summary["termination"] == "completed"
        return
    assert summary["termination"] != "completed"
    assert summary["message"]
    assert "last_time" in summary


def test_bad_flags_exit_as_config_errors():
    # the flag subcommands are gone: `ks` is an invalid choice
    for argv in (["ks", "--p", "2", "--q", "1"],
                 ["run", "heat_sanity", "--p", "x"],
                 ["validate", "heat_sanity", "--out", "elsewhere"],
                 ["run"],
                 ["nonsense"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == EXIT_CONFIG
    with pytest.raises(SystemExit) as info:
        main(["run", "-h"])
    assert info.value.code == EXIT_PASS


def test_set_writes_what_the_edited_config_file_writes(tmp_path):
    edited = preset_config("heat_sanity")
    edited["run"]["t_end"], edited["name"] = 0.01, "x"
    path = _write(tmp_path, edited, "x.json")
    assert main(["run", "heat_sanity", "--set", "run.t_end=0.01", "--set", "name=x",
                 "--out", str(tmp_path / "set")]) == EXIT_PASS
    assert main(["run", path, "--out", str(tmp_path / "file")]) == EXIT_PASS
    files = sorted(os.listdir(tmp_path / "set" / "x"))
    assert files == ["meters.csv", "summary.json"]
    assert files == sorted(os.listdir(tmp_path / "file" / "x"))
    for name in files:
        assert ((tmp_path / "set" / "x" / name).read_bytes()
                == (tmp_path / "file" / "x" / name).read_bytes())

    # a value that is not JSON is a string, and a missing object is made
    del edited["model"]
    path = _write(tmp_path, edited, "no_model.json")
    assert main(["validate", path, "--set", "model.family=power_law",
                 "--set", "model.m=2"]) == EXIT_PASS


@pytest.mark.parametrize("setting, message", [
    ("run.t_end", "KEY=VALUE"),
    ("=0.01", "KEY=VALUE"),
    ("run..t_end=0.01", "KEY=VALUE"),
    ("run.t_end.x=0.01", "not an object"),
    ("name.x=1", "not an object"),
    ("run.tend=0.01", "unknown key run.tend"),
], ids=["no-equals", "empty-key", "empty-segment", "through-a-number",
        "through-a-string", "unknown-key"])
def test_bad_set_exits_1_with_nothing_written(setting, message, outdir, capsys):
    for command in ("run", "validate"):
        assert main([command, "heat_sanity", "--set", setting]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
    assert not outdir.exists()


def test_write_json_rejects_arbitrary_objects(tmp_path):
    class Thing:
        def __init__(self):
            self.value = 1.0

    with pytest.raises(TypeError):
        write_json(str(tmp_path / "thing.json"), {"thing": Thing()})


_JUNK = (_DELETE, None, True, "1", -1, 0, 1e-3, 0.5, 2, math.nan, math.inf,
         [], {}, 1e-300, 1e-200, 1e154, 1e300, 1e306, -math.inf, 1 + 1e-13, 2**63,
         60, 200, 400, 129, MAX_SNAPSHOT_VALUES // 2 + 1, MAX_GRID_VALUES + 1)
_FUZZ_PATHS = [("kind",), ("name",), ("model",), ("grid",), ("run",)] + [
    (section, key)
    for section, keys in (
        ("model", ("family", "m", "p", "q", "strict", "delta", "table")),
        ("grid", ("dim", "cells")),
        ("run", ("t_end", "safety", "record_every", "mean", "amplitude",
                 "mode", "mass", "trials", "seed", "check", "tend")),
    )
    for key in keys
]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    st.sampled_from(sorted(PRESETS)),
    st.lists(st.tuples(st.sampled_from(_FUZZ_PATHS), st.sampled_from(_JUNK)),
             min_size=1, max_size=3),
)
def test_no_config_escapes_run_experiment(name, mutations):
    cfg = _small_preset(name)
    for path, value in mutations:
        target = cfg
        for key in path[:-1]:
            target = target.get(key) if isinstance(target, dict) else None
        if not isinstance(target, dict):
            continue
        if value is _DELETE:
            target.pop(path[-1], None)
        else:
            target[path[-1]] = copy.deepcopy(value)
    with tempfile.TemporaryDirectory() as root:
        code = run_experiment(cfg, root)
        assert code in (0, 1, 2, 3)
        summaries = [os.path.join(top, f) for top, _, files in os.walk(root)
                     for f in files if f.endswith("summary.json")]
        assert bool(summaries) == (code != EXIT_CONFIG)
        if code == EXIT_NUMERICS:  # the summary names the error that ended the run
            with open(summaries[0]) as fh:
                termination = json.load(fh)["termination"]
            assert issubclass(getattr(errors, termination), errors.EntroflowError)


# Each flow preset's dt and step count, from its guard on the initial state
# (the KS presets at their grid and the paired coarse grid); every output
# of a preset rests on these.
_PRESET_STEPS = {"heat_sanity": (8200,), "pme_m2": (12300,),
                 "plaplace_mono": (6500,), "ks_critical_21": (328000, 82000),
                 "ks_s1_10": (4200, 1200)}


@pytest.mark.parametrize("name", sorted(_PRESET_STEPS))
def test_preset_step_counts(name):
    from entroflow.diffusion import stable_dt
    from entroflow.keller_segel import ks_stable_dt
    from entroflow.p_laplace import pl_stable_dt

    preset = preset_config(name)
    exp = parse_config(preset)
    cfg = exp.config
    if exp.kind == "diffusion":
        dts = [cfg.safety * stable_dt(*exp.state0, cfg.model, cfg.grid.h)]
    elif exp.kind == "plaplace":
        dts = [cfg.safety * pl_stable_dt(*exp.state0, cfg.model, cfg.grid.h)]
    else:  # the preset, then the preset parsed at half its cells
        half = dict(preset, grid=dict(preset["grid"], cells=cfg.grid.cells // 2))
        dts = [e.config.safety * ks_stable_dt(*e.state0, e.config.model,
                                              e.config.grid.h)
               for e in (exp, parse_config(half))]
    block = cfg.record_every
    counts = tuple(block * math.ceil(cfg.t_end / (dt0 * block)) for dt0 in dts)
    assert counts == _PRESET_STEPS[name]
    for n, dt0 in zip(counts, dts):
        assert cfg.t_end / n <= dt0


def test_importing_the_cli_leaves_the_integrator_unimported():
    # scipy.linalg's LAPACK is imported by the first run, not by the CLI:
    # an inequality check, which runs none, does not pay for it
    code = ("import sys, entroflow.cli; "
            "print('scipy.integrate' in sys.modules or 'scipy.linalg' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("name, summary_file", [("heat_sanity", "summary.json"),
                                                ("plaplace_mono", "pl_summary.json"),
                                                ("ks_s1_10", "ks_summary.json")])
def test_summaries_record_the_integrators_cost(name, summary_file, outdir):
    cfg = _small_preset(name)
    cfg["grid"]["cells"], cfg["run"]["t_end"] = 32, 0.005
    assert run_experiment(cfg) == EXIT_PASS
    summary = json.loads((outdir / name / summary_file).read_text())
    cost = summary["integrator"]
    assert set(cost) == set(_INTEGRATOR_KEYS)
    assert cost["accepted_steps"] > 0 and cost["rejected_steps"] >= 0
    assert cost["rhs_evaluations"] > 3 * cost["accepted_steps"]
    assert cost["lu_factorizations"] >= 2
    if name.startswith("ks"):
        for row in summary["residual_convergence"]["table"]:
            assert set(row["integrator"]) == set(_INTEGRATOR_KEYS)
