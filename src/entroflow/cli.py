"""Config-driven experiment runner.

Subcommands: ``run`` executes a JSON experiment config (or a named
preset), ``validate`` dry-checks one, ``presets`` lists the catalog, and
``ineq``/``ks``/``plaplace`` are flag-driven shortcuts that build the
corresponding config on the fly.

Exit codes: 0 = all checked properties passed, 1 = config error,
2 = a property check failed (a finding), 3 = numerics aborted
(positivity or stability loss).  A JSON summary is written whenever
execution started, including aborted runs.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import p_laplace as pl_mod
from .coeff_models import model_from_spec
from .diffusion import FlowConfig, initial_cosine, run as run_flow
from .errors import (
    ConfigError,
    EntroflowError,
    PositivityLossError,
    StabilityError,
)
from .fields import MIN_CELLS, Grid, build_test_function
from .inequalities import cmkm_ratio, sample_spec, worst_ratio_search
from .keller_segel import (
    KSConfig,
    KSParams,
    lp_inequality_residuals,
    lyapunov_identity_residual,
    measure_monitors,
    run_ks,
)
from .meters import identity_residuals, measure_trajectory, monotonicity_report
from .presets import PRESETS, catalog_text, preset_config
from .reporting import experiment_dir, write_csv, write_json

EXIT_PASS = 0
EXIT_CONFIG = 1
EXIT_PROPERTY = 2
EXIT_NUMERICS = 3

_KINDS = ("diffusion", "ineq", "ks", "plaplace")


# ---------------------------------------------------------------------------
# Validation


def validate_config(cfg):
    """List of violated invariants; empty means runnable."""
    problems = []
    kind = cfg.get("kind")
    if kind not in _KINDS:
        problems.append("kind must be one of %s, got %r" % (list(_KINDS), kind))
        return problems
    if "name" not in cfg:
        problems.append("config needs a 'name' for the output directory")
    grid = cfg.get("grid", {})
    run = cfg.get("run", {})
    model = cfg.get("model", {})
    try:
        Grid(dim=int(grid.get("dim", 1)), cells=int(grid.get("cells", 0)))
    except EntroflowError as err:
        problems.append("grid: %s" % err)

    if kind == "diffusion":
        try:
            model_from_spec(model)
        except EntroflowError as err:
            problems.append("model: %s" % err)
        if run.get("t_end", 0.0) <= 0.0:
            problems.append("run.t_end must be positive")
    elif kind == "ineq":
        try:
            model_from_spec(model)
        except EntroflowError as err:
            problems.append("model: %s" % err)
        if "seed" not in run:
            problems.append("run.seed is mandatory for sampled experiments")
        if run.get("trials", 0) < 1:
            problems.append("run.trials must be >= 1")
    elif kind == "ks":
        try:
            params = KSParams(float(model.get("p", 0.0)), float(model.get("q", 0.0)))
            if model.get("strict"):
                params.check_strict()
        except (EntroflowError, TypeError, ValueError) as err:
            problems.append("model: %s" % err)
        if run.get("t_end", 0.0) <= 0.0:
            problems.append("run.t_end must be positive")
        if run.get("mass", 1.0) <= 0.0:
            problems.append("run.mass must be positive")
    elif kind == "plaplace":
        try:
            pl_mod.PLaplaceConfig(
                p=float(model.get("p", 0.0)),
                grid=Grid(dim=1, cells=int(grid.get("cells", 8))),
                t_end=float(run.get("t_end", 0.0)),
                delta=float(model.get("delta", pl_mod.DEFAULT_DELTA)),
            )
        except (EntroflowError, TypeError, ValueError) as err:
            problems.append("config: %s" % err)
    return problems


# ---------------------------------------------------------------------------
# Runners: each writes its CSV artifacts and returns an exit code with the
# summary fields; run_experiment writes the summary, for aborts as well


def _echo(cfg):
    return {k: v for k, v in cfg.items()}


def _run_diffusion(cfg, outdir):
    model = model_from_spec(cfg["model"])
    grid = Grid(dim=1, cells=int(cfg["grid"]["cells"]))
    run = cfg["run"]
    flow_cfg = FlowConfig(
        model=model,
        grid=grid,
        t_end=float(run["t_end"]),
        safety=float(run.get("safety", 0.4)),
        record_every=int(run.get("record_every", 1)),
    )
    u0 = initial_cosine(
        grid,
        mean=float(run.get("mean", 1.0)),
        amplitude=float(run.get("amplitude", 0.5)),
        mode=int(run.get("mode", 1)),
    )
    traj = run_flow(u0, flow_cfg)
    measure_trajectory(traj, model)
    res = identity_residuals(traj, model)
    h, dt = traj.states[0].grid.h, traj.record_dt
    ent = [m.entropy for m in traj.meters]
    fis = [m.fisher_sigma for m in traj.meters]
    mono_e = monotonicity_report(ent, h, dt)
    mono_f = monotonicity_report(fis, h, dt)

    rows = []
    for k, (t, m) in enumerate(zip(traj.times, traj.meters)):
        r1 = res.r_entropy[k] if k < len(res.r_entropy) else ""
        r2 = res.r_fisher[k] if k < len(res.r_fisher) else ""
        rows.append((t, m.entropy, m.fisher_sigma, m.fisher_st, m.dissipation, r1, r2))
    write_csv(
        os.path.join(outdir, "meters.csv"),
        ["t", "entropy", "fisher_sigma", "fisher_st", "dissipation",
         "r_entropy", "r_fisher"],
        rows,
    )
    masses = [float(np.sum(f.values)) * h for f in traj.states]
    results = {
        "dt": traj.dt,
        "snapshots": len(traj.times),
        "mass_drift": max(abs(m - masses[0]) for m in masses),
        "entropy_monotone": mono_e.passed,
        "fisher_monotone": mono_f.passed,
        "max_r_entropy": max(abs(r) for r in res.r_entropy),
        "max_r_fisher": max(abs(r) for r in res.r_fisher),
    }
    code = EXIT_PASS if (mono_e.passed and mono_f.passed) else EXIT_PROPERTY
    return code, results


def _spec_as_dict(spec):
    return {"offset": spec.offset, "cosine_coeffs": [list(c) for c in spec.cosine_coeffs]}


def _run_ineq(cfg, outdir):
    model = model_from_spec(cfg["model"])
    run = cfg["run"]
    n = int(cfg["grid"].get("dim", 1))
    cells = int(cfg["grid"].get("cells", 64))
    trials = int(run["trials"])
    seed = int(run["seed"])
    check = run.get("check", "both")

    if check == "cmkm":
        rng = np.random.default_rng(seed)
        grid = Grid(dim=n, cells=cells)
        rows, worst = [], -math.inf
        for trial in range(trials):
            spec = sample_spec(rng, n)
            ratio = cmkm_ratio(build_test_function(grid, spec))
            worst = max(worst, ratio)
            rows.append((trial, spec.offset, ratio))
        write_csv(os.path.join(outdir, "trials.csv"),
                  ["trial", "c0", "cmkm_ratio"], rows)
        return EXIT_PASS, {"max_cmkm_ratio": worst}

    search = worst_ratio_search(n, model, trials, seed, cells=cells)
    write_csv(
        os.path.join(outdir, "trials.csv"),
        ["trial", "c0", "bernis_ratio", "fisher_ratio", "lam"],
        search.rows,
    )
    results = {
        "n": n,
        "cells": cells,
        "tol": search.tol,
        "max_bernis_ratio": search.max_bernis,
        "max_fisher_ratio": search.max_fisher,
        "argmax_bernis": _spec_as_dict(search.argmax_bernis),
        "argmax_fisher": _spec_as_dict(search.argmax_fisher),
        "all_passed": search.all_passed,
    }
    return (EXIT_PASS if search.all_passed else EXIT_PROPERTY), results


_KS_COLUMNS = [
    "t", "mass", "lyap_classical", "lyap_F", "dissipation_D", "ep_estimate",
    "lp_norm", "log_bound", "vt_accum", "v_l2", "v_l4", "dv_l2", "dv_l4",
]


def _ks_run_once(params, cells, run):
    grid = Grid(dim=1, cells=cells)
    ks_cfg = KSConfig(
        params=params,
        grid=grid,
        t_end=float(run["t_end"]),
        mass=float(run.get("mass", 1.0)),
        amplitude=float(run.get("amplitude", 0.5)),
        safety=float(run.get("safety", 0.4)),
        record_every=int(run.get("record_every", 1)),
    )
    return run_ks(ks_cfg)


def _run_ks(cfg, outdir):
    model = cfg["model"]
    params = KSParams(float(model["p"]), float(model["q"]))
    if model.get("strict"):
        params.check_strict()
    run = cfg["run"]
    cells = int(cfg["grid"]["cells"])
    traj = _ks_run_once(params, cells, run)
    monitors = measure_monitors(traj, params, strict=False)
    rows = [
        (m.time, m.mass, m.lyap_classical, m.lyap_F, m.dissipation_D,
         m.ep_estimate, m.lp_norm, m.log_bound, m.vt_accum,
         m.v_l2, m.v_l4, m.dv_l2, m.dv_l4)
        for m in monitors
    ]
    write_csv(os.path.join(outdir, "ks_monitors.csv"), _KS_COLUMNS, rows)

    # residual convergence table from a paired coarse run; a residual is
    # null when the coarse grid would fall below the grid minimum or a
    # run records too few snapshots for interval residuals
    table = []
    for c in (cells // 2, cells):
        worst = None
        if c >= MIN_CELLS:
            t = traj if c == cells else _ks_run_once(params, c, run)
            try:
                worst = max(abs(r) for r in lyapunov_identity_residual(t, params))
            except EntroflowError:
                pass
        table.append({"cells": c, "max_lyap_residual": worst})
    if table[0]["max_lyap_residual"] and table[1]["max_lyap_residual"]:
        table_ratio = table[0]["max_lyap_residual"] / table[1]["max_lyap_residual"]
    else:
        table_ratio = None

    masses = [m.mass for m in monitors]
    results = {
        "dt": traj.dt,
        "snapshots": len(traj.times),
        "mass_drift_rel": max(abs(m - masses[0]) for m in masses)
        / abs(masses[0]),
        "max_monitors": {
            col: max(getattr(m, col) for m in monitors)
            for col in _KS_COLUMNS[1:]
        },
        "residual_convergence": {"table": table, "ratio": table_ratio},
    }

    code = EXIT_PASS
    if params.model().critical:
        slack = lp_inequality_residuals(traj, params)
        h = 1.0 / cells
        scale = max(abs(m.lp_norm) for m in monitors)
        tol = 10.0 * (h * h + traj.record_dt) * max(scale, 1.0)
        results["lp_inequality"] = {
            "worst_slack": max(slack),
            "tol": tol,
            "passed": max(slack) <= tol,
        }
        if not results["lp_inequality"]["passed"]:
            code = EXIT_PROPERTY
    return code, results


def _run_plaplace(cfg, outdir):
    model = cfg["model"]
    run = cfg["run"]
    pl_cfg = pl_mod.PLaplaceConfig(
        p=float(model["p"]),
        grid=Grid(dim=1, cells=int(cfg["grid"]["cells"])),
        t_end=float(run["t_end"]),
        delta=float(model.get("delta", pl_mod.DEFAULT_DELTA)),
        safety=float(run.get("safety", 0.4)),
        record_every=int(run.get("record_every", 1)),
    )
    u0 = initial_cosine(
        pl_cfg.grid,
        mean=float(run.get("mean", 1.0)),
        amplitude=float(run.get("amplitude", 0.5)),
    )
    traj = pl_mod.run(u0, pl_cfg)
    report = pl_mod.monotonicity_report(traj, pl_cfg)
    residuals = pl_mod.rate_residuals(traj, pl_cfg.p, pl_cfg.delta)
    dt = traj.record_dt
    rows = []
    for k, (t, I) in enumerate(zip(traj.times, report.I_values)):
        if k == 0:
            rows.append((t, I, "", ""))
        else:
            dI = (report.I_values[k] - report.I_values[k - 1]) / dt
            rows.append((t, I, dI, residuals[k - 1]))
    write_csv(
        os.path.join(outdir, "pl_monitors.csv"),
        ["t", "I", "dI_dt", "residual_prop61"],
        rows,
    )
    results = {
        "dt": traj.dt,
        "monotone": report.passed,
        "worst_violation": report.worst_violation,
        "tolerance_scale": report.tolerance_scale,
        "I_initial": report.I_values[0],
        "I_final": report.I_values[-1],
    }
    return (EXIT_PROPERTY if report.passed is False else EXIT_PASS), results


_RUNNERS = {
    "diffusion": _run_diffusion,
    "ineq": _run_ineq,
    "ks": _run_ks,
    "plaplace": _run_plaplace,
}

_SUMMARY_FILES = {
    "diffusion": "summary.json",
    "ineq": "summary.json",
    "ks": "ks_summary.json",
    "plaplace": "pl_summary.json",
}


def run_experiment(cfg, out_root=None):
    problems = validate_config(cfg)
    if problems:
        for p in problems:
            print("config error: %s" % p, file=sys.stderr)
        return EXIT_CONFIG
    outdir = experiment_dir(cfg["name"], out_root)
    summary = {"config": _echo(cfg), "termination": "completed"}
    try:
        code, results = _RUNNERS[cfg["kind"]](cfg, outdir)
    except ConfigError as err:
        print("config error: %s" % err, file=sys.stderr)
        return EXIT_CONFIG
    except (PositivityLossError, StabilityError) as err:
        code = EXIT_NUMERICS
        results = {
            "termination": type(err).__name__,
            "message": str(err),
            "last_time": err.last_time,
        }
    summary.update(results)
    write_json(os.path.join(outdir, _SUMMARY_FILES[cfg["kind"]]), summary)
    print("%s: exit %d (artifacts in %s)" % (cfg["name"], code, outdir))
    return code


# ---------------------------------------------------------------------------
# Argument parsing


def _load_config(path):
    with open(path) as fh:
        cfg = json.load(fh)
    if "name" not in cfg:
        cfg["name"] = os.path.splitext(os.path.basename(path))[0]
    return cfg


def build_parser():
    parser = argparse.ArgumentParser(
        prog="entroflow",
        description="entropy/Fisher-information laboratory for 1D flows",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a JSON config or preset")
    p_run.add_argument("config", help="path to config.json, or a preset name")
    p_run.add_argument("--out", default=None, help="output root directory")

    p_val = sub.add_parser("validate", help="dry-run config validation")
    p_val.add_argument("config")

    sub.add_parser("presets", help="list the preset catalog")

    p_ineq = sub.add_parser("ineq", help="inequality sampling check")
    p_ineq.add_argument("--check", choices=["bernis", "fisher", "cmkm", "both"],
                        default="both")
    p_ineq.add_argument("--n", type=int, choices=[1, 2, 3], default=1)
    p_ineq.add_argument("--model", default="linear",
                        help="linear | power_law (with --m)")
    p_ineq.add_argument("--m", type=float, default=2.0)
    p_ineq.add_argument("--trials", type=int, default=100)
    p_ineq.add_argument("--seed", type=int, required=True)
    p_ineq.add_argument("--cells", type=int, default=64)
    p_ineq.add_argument("--out", default=None)

    p_ks = sub.add_parser("ks", help="chemotaxis run with monitors")
    p_ks.add_argument("--p", type=float, required=True)
    p_ks.add_argument("--q", type=float, required=True)
    p_ks.add_argument("--mass", type=float, default=1.0)
    p_ks.add_argument("--cells", type=int, default=128)
    p_ks.add_argument("--t-end", type=float, default=0.1)
    p_ks.add_argument("--record-every", type=int, default=100)
    p_ks.add_argument("--strict", action="store_true",
                      help="enforce the critical-line hypotheses p-q=1, q in (1/2,1]")
    p_ks.add_argument("--out", default=None)

    p_pl = sub.add_parser("plaplace", help="p-Laplace run with I[u] monitor")
    p_pl.add_argument("--p", type=float, required=True)
    p_pl.add_argument("--delta", type=float, default=pl_mod.DEFAULT_DELTA)
    p_pl.add_argument("--cells", type=int, default=128)
    p_pl.add_argument("--t-end", type=float, default=0.05)
    p_pl.add_argument("--record-every", type=int, default=100)
    p_pl.add_argument("--out", default=None)
    return parser


def _cfg_from_args(args):
    if args.command == "ineq":
        model = {"family": args.model}
        if args.model == "power_law":
            model["m"] = args.m
        return {
            "name": "ineq_n%d_%s" % (args.n, args.check),
            "kind": "ineq",
            "model": model,
            "grid": {"dim": args.n, "cells": args.cells},
            "run": {"trials": args.trials, "seed": args.seed, "check": args.check},
        }
    if args.command == "ks":
        return {
            "name": "ks_p%g_q%g" % (args.p, args.q),
            "kind": "ks",
            "model": {"p": args.p, "q": args.q, "strict": args.strict},
            "grid": {"dim": 1, "cells": args.cells},
            "run": {"t_end": args.t_end, "mass": args.mass,
                    "record_every": args.record_every},
        }
    if args.command == "plaplace":
        return {
            "name": "plaplace_p%g" % args.p,
            "kind": "plaplace",
            "model": {"p": args.p, "delta": args.delta},
            "grid": {"dim": 1, "cells": args.cells},
            "run": {"t_end": args.t_end, "record_every": args.record_every},
        }
    raise AssertionError(args.command)


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "presets":
        print(catalog_text())
        return EXIT_PASS
    if args.command == "validate":
        try:
            cfg = _load_config(args.config)
        except (OSError, json.JSONDecodeError) as err:
            print("config error: %s" % err, file=sys.stderr)
            return EXIT_CONFIG
        problems = validate_config(cfg)
        if problems:
            for p in problems:
                print("violated: %s" % p)
            return EXIT_CONFIG
        print("ok")
        return EXIT_PASS
    if args.command == "run":
        if args.config in PRESETS:
            cfg = preset_config(args.config)
        else:
            try:
                cfg = _load_config(args.config)
            except (OSError, json.JSONDecodeError) as err:
                print("config error: %s" % err, file=sys.stderr)
                return EXIT_CONFIG
        return run_experiment(cfg, args.out)
    return run_experiment(_cfg_from_args(args), args.out)


if __name__ == "__main__":
    sys.exit(main())
