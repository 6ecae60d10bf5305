"""Config-driven experiment runner.

Subcommands: ``run`` executes a named preset or a JSON experiment
config, ``validate`` only parses one, and ``presets`` lists the catalog.
Both ``run`` and ``validate`` take ``--set KEY=VALUE`` edits of the config
before its parse: KEY is a dotted path (``run.trials``, ``model.p``,
``name``), whose missing objects are made, and VALUE is read as JSON, or
taken as a string when it is not JSON.

Exit codes: 0 = all checked properties passed, 1 = config error (the
config does not parse, or a bad flag or ``--set``), 2 = a property check
failed (a finding), 3 = the run aborted (positivity or stability loss, or
any other package error after the parse).  A JSON summary is written whenever
execution started, including aborted runs.
"""

import argparse
import json
import math
import os
import sys
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import p_laplace as pl_mod
from .coeff_models import FAMILIES, KSModel
from .diffusion import FlowConfig, initial_cosine, run as run_flow
from .errors import ConfigError, EntroflowError, RunAbort
from .fields import MIN_CELLS, Grid, build_test_function, integrate
from .inequalities import cmkm_ratio, sample_spec, worst_ratio_search
from .keller_segel import (
    cosine_initial_state,
    lp_inequality_residuals,
    lyapunov_identity_residual,
    require_strict_hypotheses,
    run_ks,
    s1_functional_identity,
)
from .meters import identity_residuals, monotone_tolerance, monotonicity_report
from .presets import PRESETS, catalog_text, preset_config
from .reporting import experiment_dir, write_csv, write_json

EXIT_PASS = 0
EXIT_CONFIG = 1
EXIT_PROPERTY = 2
EXIT_NUMERICS = 3
# the most trials an inequality check runs: 500 times the presets' 200, at
# ~0.2 ms and one kept row per trial on 64 cells in 1D
MAX_TRIALS = 100_000
# the most values of an inequality grid: 128^3, 8 times the largest in use
MAX_GRID_VALUES = 2**21


# ---------------------------------------------------------------------------
# The config parse: every path reads a config dict through parse_config


@dataclass(frozen=True)
class IneqConfig:
    """Settings of a sampled inequality check."""

    model: object
    grid: Grid
    trials: int
    seed: int
    check: str = "both"

    def __post_init__(self):
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ConfigError("trials must lie in [1, %d]" % MAX_TRIALS)
        if self.grid.cells ** self.grid.dim > MAX_GRID_VALUES:
            raise ConfigError("cannot hold a grid of %d^%d cells, over %d values"
                              % (self.grid.cells, self.grid.dim, MAX_GRID_VALUES))
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.check not in ("both", "cmkm"):
            raise ConfigError("check must be 'both' or 'cmkm', got %r" % self.check)


# A parsed config: the run's objects, range-checked by their constructors, and
# state0, a flow's initial arrays (u0,) or (u0, v0), checked by march, or None.
Experiment = namedtuple("Experiment", "kind name config state0")

_REQUIRED = object()
_JSON_TYPES = {str: "a string", bool: "a boolean", dict: "an object"}


class _Section:
    """One JSON object of a config.  ``take`` reads a key once, typed;
    ``done`` rejects a key that nothing read."""

    def __init__(self, name, data):
        if not isinstance(data, dict):
            raise ConfigError("%s must be an object" % name)
        self.name, self.data, self.unread = name, data, set(data)

    def take(self, key, typ, default=_REQUIRED):
        """The value of ``key`` as ``typ`` (str, bool, dict, int or float),
        or ``default`` when the key is absent."""
        where = "%s.%s" % (self.name, key)
        if key not in self.data:
            if default is _REQUIRED:
                raise ConfigError("%s is required" % where)
            return default
        self.unread.discard(key)
        value = self.data[key]
        if typ in _JSON_TYPES:
            if not isinstance(value, typ):
                raise ConfigError("%s must be %s, got %r"
                                  % (where, _JSON_TYPES[typ], value))
            return value
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not abs(value) <= sys.float_info.max):
            raise ConfigError("%s must be a finite number, got %r" % (where, value))
        if typ is int and value != int(value):
            raise ConfigError("%s must be an integer, got %r" % (where, value))
        return typ(value)

    def options(self, **types):
        """The present ones of the keys as keyword arguments, each read as
        its type, so that an absent key keeps the constructor's default."""
        return {key: self.take(key, typ) for key, typ in types.items()
                if key in self.data}

    def done(self):
        if self.unread:
            key = min(self.unread, key=str)
            raise ConfigError("unknown key %s.%s" % (self.name, key))


def parse_config(cfg):
    """The one reader of an experiment config dict: an Experiment, or an
    EntroflowError that names the first problem.  Each key is read once,
    typed, and passed to the constructor that owns its range checks and
    default; only ``grid.dim`` defaults here, to 1."""
    top = _Section("config", cfg)
    kind, name = top.take("kind", str), top.take("name", str)
    if kind not in _RUNNERS:
        raise ConfigError("kind must be one of %s, got %r" % (sorted(_RUNNERS), kind))
    model, grid, run = (
        _Section(key, top.take(key, dict, {})) for key in ("model", "grid", "run")
    )
    top.done()
    grid_ = Grid(dim=grid.take("dim", int, 1), cells=grid.take("cells", int))
    state0 = None
    if kind in ("diffusion", "ineq"):
        family = model.take("family", str)
        if family not in FAMILIES:
            raise ConfigError("model.family must be one of %s, got %r"
                              % (sorted(FAMILIES), family))
        build, arg = FAMILIES[family]
        flow_model = build() if arg is None else build(model.take(*arg))
    elif kind == "ks":
        flow_model = KSModel(model.take("p", float), model.take("q", float))
    else:
        flow_model = pl_mod.PLaplaceModel(model.take("p", float),
                                          **model.options(delta=float))
    if kind == "ineq":
        config = IneqConfig(flow_model, grid_, run.take("trials", int),
                            run.take("seed", int), **run.options(check=str))
    else:
        config = FlowConfig(flow_model, grid_, run.take("t_end", float),
                            **run.options(safety=float, record_every=int))
    if kind == "ks":
        if model.take("strict", bool, False):
            require_strict_hypotheses(flow_model)
        state0 = cosine_initial_state(grid_, **run.options(mass=float, amplitude=float))
    elif kind == "diffusion":
        state0 = (initial_cosine(
            grid_, **run.options(mean=float, amplitude=float, mode=int)),)
    elif kind == "plaplace":
        state0 = (initial_cosine(grid_, **run.options(mean=float, amplitude=float)),)
    for section in (model, grid, run):
        section.done()
    return Experiment(kind, name, config, state0)


# ---------------------------------------------------------------------------
# Runners: each takes the config dict, its parse and the output directory,
# writes its CSV artifacts and returns an exit code with the summary fields,
# which run_experiment writes.  A run returns its trajectory measured, so a
# runner only reads traj.meters.


def _columns(*columns):
    """CSV rows from columns: length-S arrays, or lists."""
    return zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))


def _max_abs(values):
    return float(np.max(np.abs(values)))


def _run_diffusion(cfg, exp, outdir):
    traj = run_flow(*exp.state0, exp.config)
    res = identity_residuals(traj)
    m, h, dt = traj.meters, traj.h, traj.record_dt
    mono_e = monotonicity_report(m.entropy, h, dt)
    mono_f = monotonicity_report(m.fisher_sigma, h, dt)
    write_csv(
        os.path.join(outdir, "meters.csv"),
        ["t", "entropy", "fisher_sigma", "fisher_st", "dissipation",
         "r_entropy", "r_fisher"],
        _columns(traj.times, m.entropy, m.fisher_sigma, m.fisher_st, m.dissipation,
                 res.r_entropy.tolist() + [""], res.r_fisher.tolist() + [""]),
    )
    masses = integrate(traj.u, h, rows=True)
    results = {
        "dt": traj.dt,
        "snapshots": len(traj.times),
        "integrator": traj.integrator,
        "mass_drift": _max_abs(masses - masses[0]),
        "entropy_monotone": mono_e.passed,
        "fisher_monotone": mono_f.passed,
        "max_r_entropy": _max_abs(res.r_entropy),
        "max_r_fisher": _max_abs(res.r_fisher),
    }
    code = EXIT_PASS if (mono_e.passed and mono_f.passed) else EXIT_PROPERTY
    return code, results


def _spec_as_dict(spec):
    return {"offset": spec.offset, "cosine_coeffs": [list(c) for c in spec.cosine_coeffs]}


def _run_ineq(cfg, exp, outdir):
    ineq = exp.config
    n, cells = ineq.grid.dim, ineq.grid.cells

    if ineq.check == "cmkm":
        rng = np.random.default_rng(ineq.seed)
        rows, worst = [], -math.inf
        for trial in range(ineq.trials):
            spec = sample_spec(rng, n)
            ratio = cmkm_ratio(build_test_function(ineq.grid, spec))
            worst = max(worst, ratio)
            rows.append((trial, spec.offset, ratio))
        write_csv(os.path.join(outdir, "trials.csv"),
                  ["trial", "c0", "cmkm_ratio"], rows)
        return EXIT_PASS, {"max_cmkm_ratio": worst}

    search = worst_ratio_search(n, ineq.model, ineq.trials, ineq.seed, cells=cells)
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


def _ks_run_once(cfg, cells, exp):
    """The run of ``exp``, the parse of the config dict ``cfg``, on ``cells``
    cells: on another cell count than its own, of ``cfg`` parsed anew."""
    if cells != exp.config.grid.cells:
        exp = parse_config(dict(cfg, grid=dict(cfg["grid"], cells=cells)))
    return run_ks(*exp.state0, exp.config)


def _run_ks(cfg, exp, outdir):
    model, cells = exp.config.model, exp.config.grid.cells
    s1 = model.linear_sensitivity
    traj = _ks_run_once(cfg, cells, exp)
    monitors = traj.meters
    write_csv(os.path.join(outdir, "ks_monitors.csv"), _KS_COLUMNS,
              _columns(*(getattr(monitors, col)
                         for col in ["time"] + _KS_COLUMNS[1:])))

    # residual convergence table from a paired coarse run; a residual is
    # null when the coarse grid would fall below the grid minimum, a run
    # records too few snapshots for interval residuals or the coarse run
    # aborts, which its row, not the summary, names with its last_time.
    # At S(u) = u the rows also hold the two special-case identities.
    table = []
    for c in (cells // 2, cells):
        row = {"cells": c, "max_lyap_residual": None}
        if s1:
            row.update(max_s1_lemma_residual=None, max_s1_remark_residual=None)
        if c >= MIN_CELLS:
            try:
                t = traj if c == cells else _ks_run_once(cfg, c, exp)
                row["integrator"] = t.integrator
                row["max_lyap_residual"] = _max_abs(lyapunov_identity_residual(t))
                if s1:
                    lemma, remark = s1_functional_identity(t)
                    row["max_s1_lemma_residual"] = _max_abs(lemma)
                    row["max_s1_remark_residual"] = _max_abs(remark)
            except RunAbort as err:  # only the coarse run integrates here
                row.update(termination=type(err).__name__, last_time=err.last_time,
                           integrator=err.trajectory.integrator)
            except EntroflowError:
                pass
        table.append(row)
    if table[0]["max_lyap_residual"] and table[1]["max_lyap_residual"]:
        table_ratio = table[0]["max_lyap_residual"] / table[1]["max_lyap_residual"]
    else:
        table_ratio = None

    mass = monitors.mass
    results = {
        "dt": traj.dt,
        "snapshots": len(traj.times),
        "integrator": traj.integrator,
        "mass_drift_rel": _max_abs(mass - mass[0]) / abs(float(mass[0])),
        "max_monitors": {
            col: float(np.max(getattr(monitors, col))) for col in _KS_COLUMNS[1:]
        },
        "residual_convergence": {"table": table, "ratio": table_ratio},
    }

    code = EXIT_PASS
    if model.critical:
        worst = float(np.max(lp_inequality_residuals(traj, model)))
        tol = (monotone_tolerance(1.0 / cells, traj.record_dt)
               * max(_max_abs(monitors.lp_norm), 1.0))
        results["lp_inequality"] = {"worst_slack": worst, "tol": tol,
                                    "passed": worst <= tol}
        if not results["lp_inequality"]["passed"]:
            code = EXIT_PROPERTY
    return code, results


def _run_plaplace(cfg, exp, outdir):
    traj = pl_mod.run(*exp.state0, exp.config)
    report = pl_mod.monotonicity_report(traj, exp.config.model)
    dt, I = traj.record_dt, traj.meters.I
    # for p < 3/2 the record holds no rate source: the column stays empty
    residuals = ([""] * (len(I) - 1) if traj.meters.rate_source is None
                 else pl_mod.rate_residuals(traj).tolist())
    write_csv(
        os.path.join(outdir, "pl_monitors.csv"),
        ["t", "I", "dI_dt", "residual_prop61"],
        _columns(traj.times, I, [""] + ((I[1:] - I[:-1]) / dt).tolist(),
                 [""] + residuals),
    )
    results = {
        "dt": traj.dt,
        "integrator": traj.integrator,
        "monotone": report.passed,
        "worst_violation": report.worst_violation,
        "tolerance_scale": report.tolerance_scale,
        "I_initial": float(I[0]),
        "I_final": float(I[-1]),
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
    """Parse, run and summarize one experiment; returns the exit code: 1
    before any output if the parse fails, 3 with a summary for any
    EntroflowError after it."""
    try:
        exp = parse_config(cfg)
    except EntroflowError as err:
        print("config error: %s" % err, file=sys.stderr)
        return EXIT_CONFIG
    outdir = experiment_dir(exp.name, out_root)
    summary = {"config": cfg, "termination": "completed"}
    try:
        code, results = _RUNNERS[exp.kind](cfg, exp, outdir)
    except EntroflowError as err:
        code = EXIT_NUMERICS
        results = {"termination": type(err).__name__, "message": str(err),
                   "last_time": getattr(err, "last_time", None)}
        # an abort after the integration started says what it cost so far
        partial = getattr(err, "trajectory", None)
        if partial is not None:
            results["integrator"] = partial.integrator
    summary.update(results)
    write_json(os.path.join(outdir, _SUMMARY_FILES[exp.kind]), summary)
    print("%s: exit %d (artifacts in %s)" % (exp.name, code, outdir))
    return code


# ---------------------------------------------------------------------------
# Argument parsing


def _load_config(path):
    """The JSON value in ``path``; an object without a name is named after
    the file.  A file nested too deep for the parser is a ConfigError."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError, RecursionError) as err:
        raise ConfigError("cannot read %s: %s" % (path, err))
    if isinstance(cfg, dict) and "name" not in cfg:
        cfg["name"] = os.path.splitext(os.path.basename(path))[0]
    return cfg


class _Parser(argparse.ArgumentParser):
    """A usage error exits with EXIT_CONFIG: argparse's own 2 is
    EXIT_PROPERTY here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, "%s: error: %s\n" % (self.prog, message))


def build_parser():
    parser = _Parser(prog="entroflow",
                     description="entropy/Fisher-information laboratory for 1D flows")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a preset or a JSON config")
    p_val = sub.add_parser("validate", help="parse a preset or a JSON config only")
    for p in (p_run, p_val):
        p.add_argument("config", help="a preset name, or the path of a JSON config")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="put the JSON VALUE (else the string) at the dotted KEY")
    p_run.add_argument("--out", default=None, help="output root directory")
    sub.add_parser("presets", help="list the preset catalog")
    return parser


def _set(cfg, settings):
    """Apply the ``--set KEY=VALUE`` edits ``settings`` to ``cfg`` in place."""
    for setting in settings:
        key, eq, text = setting.partition("=")
        path = key.split(".")
        if not eq or not all(path):
            raise ConfigError("--set takes KEY=VALUE with a dotted KEY, got %r" % setting)
        try:
            value = json.loads(text)
        except (ValueError, RecursionError):
            value = text
        target = cfg
        for part in path[:-1]:
            target = target.setdefault(part, {}) if isinstance(target, dict) else None
        if not isinstance(target, dict):
            raise ConfigError("--set %s: the path runs through a value that is not "
                              "an object" % key)
        target[path[-1]] = value


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "presets":
        print(catalog_text())
        return EXIT_PASS
    try:
        cfg = (preset_config(args.config) if args.config in PRESETS
               else _load_config(args.config))
        _set(cfg, args.set)
        if args.command == "validate":
            parse_config(cfg)
            print("ok")
            return EXIT_PASS
    except EntroflowError as err:
        print("config error: %s" % err, file=sys.stderr)
        return EXIT_CONFIG
    return run_experiment(cfg, args.out)


if __name__ == "__main__":
    sys.exit(main())
