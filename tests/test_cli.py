import json
import math

import pytest

from entroflow.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICS,
    EXIT_PASS,
    main,
    validate_config,
)


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
    problems = validate_config(cfg)
    assert any("(1/2, 1]" in p for p in problems)


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
    problems = validate_config(cfg)
    assert any("seed" in p for p in problems)


def test_missing_config_file(outdir):
    assert main(["run", "/nonexistent/nope.json"]) == EXIT_CONFIG
    assert main(["validate", "/nonexistent/nope.json"]) == EXIT_CONFIG


def test_unknown_kind():
    problems = validate_config({"name": "x", "kind": "magic"})
    assert problems


def test_ineq_subcommand(outdir):
    code = main(["ineq", "--check", "both", "--n", "1", "--trials", "10",
                 "--seed", "3", "--cells", "64"])
    assert code == EXIT_PASS
    run_dir = outdir / "ineq_n1_both"
    header = (run_dir / "trials.csv").read_text().splitlines()[0]
    assert header == "trial,c0,bernis_ratio,fisher_ratio,lam"
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["all_passed"] is True
    assert summary["max_bernis_ratio"] <= 4.0 * (1.0 + summary["tol"])


def test_ineq_cmkm_subcommand(outdir):
    code = main(["ineq", "--check", "cmkm", "--n", "2", "--trials", "5",
                 "--seed", "3", "--cells", "32"])
    assert code == EXIT_PASS
    summary = json.loads((outdir / "ineq_n2_cmkm" / "summary.json").read_text())
    assert summary["max_cmkm_ratio"] > 0.0


def test_plaplace_subcommand(outdir):
    code = main(["plaplace", "--p", "3", "--delta", "1e-6", "--cells", "64",
                 "--t-end", "0.005", "--record-every", "50"])
    assert code == EXIT_PASS
    run_dir = outdir / "plaplace_p3"
    header = (run_dir / "pl_monitors.csv").read_text().splitlines()[0]
    assert header == "t,I,dI_dt,residual_prop61"
    summary = json.loads((run_dir / "pl_summary.json").read_text())
    assert summary["monotone"] is True


def _reject_constant(token):
    raise ValueError("non-standard JSON constant %s" % token)


def test_ks_subcommand(outdir):
    code = main(["ks", "--p", "2", "--q", "1", "--mass", "2", "--cells", "64",
                 "--t-end", "0.01", "--record-every", "20", "--strict"])
    assert code == EXIT_PASS
    run_dir = outdir / "ks_p2_q1"
    header = (run_dir / "ks_monitors.csv").read_text().splitlines()[0]
    assert header.startswith("t,mass,lyap_classical,lyap_F,dissipation_D")
    summary = json.loads((run_dir / "ks_summary.json").read_text())
    assert summary["termination"] == "completed"
    assert summary["lp_inequality"]["passed"] is True
    assert summary["residual_convergence"]["table"][0]["cells"] == 32

    # off the critical line the Fisher-type pair is reported as numbers
    code = main(["ks", "--p", "2", "--q", "0.5", "--cells", "16",
                 "--t-end", "0.0234", "--record-every", "10"])
    assert code == EXIT_PASS
    text = (outdir / "ks_p2_q0.5" / "ks_summary.json").read_text()
    summary = json.loads(text, parse_constant=_reject_constant)
    for col in ("lyap_F", "dissipation_D"):
        assert math.isfinite(summary["max_monitors"][col])


def test_ks_below_twice_the_grid_minimum_skips_coarse_run(outdir):
    code = main(["ks", "--p", "2", "--q", "1", "--cells", "12",
                 "--t-end", "0.001", "--record-every", "5"])
    assert code == EXIT_PASS
    summary = json.loads((outdir / "ks_p2_q1" / "ks_summary.json").read_text())
    assert summary["residual_convergence"]["table"][0] == {
        "cells": 6, "max_lyap_residual": None}
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
