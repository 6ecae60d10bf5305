"""The benchmark's three workloads and the checks on their outputs.

Each workload has four parts:

- ``setup(seed, scale)`` builds configs, models and seeded inputs; the
  same seed gives the same inputs.
- ``run_round(inputs, out_root)`` makes one round of calls into entroflow.
  Only this part is timed.  It returns the raw results, the wall time of
  each operation and the number that failed.  An operation fails when it raises, or
  when the CLI exits with 1 (config) or 3 (numerics); exit 2 is a verdict
  and is judged by the checks.
- ``collect(inputs, raw, out_root)`` reads back what the round wrote.
- ``checks`` maps a check name to ``fn(inputs, outputs, refs)`` that raises
  ``CheckFailed``.  ``refs`` caches reference values computed once per
  process, since every round repeats the same inputs.

Every reference is computed here from closed forms or with scipy, never
from a stored copy of the program's output.
"""

import contextlib
import csv
import io
import json
import math
import os
import sys
import time
import traceback

import numpy as np

from entroflow import cli, coeff_models, fields, inequalities


class CheckFailed(Exception):
    pass


# A reference.Reference the worker sets for untraced rounds; it times the
# reference kernel between operations, outside their clocks.
REFERENCE = None


def _expect(ok, message, *args):
    if not ok:
        raise CheckFailed(message % args)


def _timed(fn, *args):
    """One operation: (result or None, failed, seconds)."""
    error = None
    if REFERENCE is not None:
        REFERENCE.before_op()
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as err:
        result, error = None, err
    seconds = time.perf_counter() - t0
    if REFERENCE is not None:
        REFERENCE.after_op(seconds)
    if error is not None:
        traceback.print_exception(error, file=sys.stderr)
    return result, error is not None, seconds


def _run_cli(cfg, out_root):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run_experiment(cfg, out_root)


def _call_cli(cfg, out_root):
    """One CLI experiment: (exit code or None, failed, seconds)."""
    code, failed, seconds = _timed(_run_cli, cfg, out_root)
    return code, failed or code in (cli.EXIT_CONFIG, cli.EXIT_NUMERICS), seconds


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {col: [float(r[i]) if r[i] != "" else None for r in body]
            for i, col in enumerate(header)}


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _non_increasing(series, what):
    """Each step may rise by round-off only: the functionals checked here
    fall by many orders more than 1e-6 of their size per snapshot."""
    for k, (lo, hi) in enumerate(zip(series, series[1:])):
        tol = 1e-6 * max(abs(lo), abs(hi), 1.0)
        _expect(hi - lo <= tol, "%s increases on interval %d: %r -> %r (tol %g)",
                what, k, lo, hi, tol)


def _cell_centers(cells):
    return (np.arange(cells) + 0.5) / cells


# ---------------------------------------------------------------------------
# flows: the explicit solvers end to end through the CLI


# Sizes per scale.  "full" is the measured workload; "tiny" is for the
# self-test.  The KS horizon is a short prefix of preset ks_critical_21.
_FLOW_SIZES = {
    "full": {"ks_cells": 256, "ks_t_end": 0.02, "ks_record": 1000,
             "presets_t_scale": 1.0},
    "tiny": {"ks_cells": 64, "ks_t_end": 0.02, "ks_record": 100,
             "presets_t_scale": 0.1},
}

_FLOW_PRESETS = ("ks_s1_10", "plaplace_mono", "heat_sanity", "pme_m2")


def flows_setup(seed, scale):
    """Closed-form configs only: the seed does not enter this workload."""
    from entroflow.presets import preset_config

    size = _FLOW_SIZES[scale]
    ks = preset_config("ks_critical_21")
    ks["name"] = "ks_critical_21_short"
    ks["grid"]["cells"] = size["ks_cells"]
    ks["run"]["t_end"] = size["ks_t_end"]
    ks["run"]["record_every"] = size["ks_record"]
    configs = [ks]
    for name in _FLOW_PRESETS:
        cfg = preset_config(name)
        cfg["run"]["t_end"] *= size["presets_t_scale"]
        if scale == "tiny":
            cfg["run"]["record_every"] = max(1, cfg["run"]["record_every"] // 10)
        configs.append(cfg)
    return {"configs": configs}


def flows_round(inputs, out_root):
    codes, times, failed = {}, [], 0
    for cfg in inputs["configs"]:
        code, bad, seconds = _call_cli(cfg, out_root)
        codes[cfg["name"]] = code
        times.append(seconds)
        failed += bad
    return codes, times, failed


def flows_collect(inputs, codes, out_root):
    out = {"codes": dict(codes), "configs": {}}
    for cfg in inputs["configs"]:
        name = cfg["name"]
        d = os.path.join(out_root, name)
        out["configs"][name] = cfg
        if cfg["kind"] == "ks":
            out[name] = {"summary": _read_json(os.path.join(d, "ks_summary.json")),
                         "monitors": _read_csv(os.path.join(d, "ks_monitors.csv"))}
        elif cfg["kind"] == "plaplace":
            out[name] = {"monitors": _read_csv(os.path.join(d, "pl_monitors.csv"))}
        else:
            out[name] = {"meters": _read_csv(os.path.join(d, "meters.csv"))}
    return out


def _ks_names(outputs):
    return [n for n, c in outputs["configs"].items() if c["kind"] == "ks"]


def check_flows_exit_codes(inputs, outputs, refs):
    for name, code in outputs["codes"].items():
        _expect(code == cli.EXIT_PASS, "%s exited %r", name, code)


def _heat_entropy_exact(t):
    """int_0^1 H(u) for u = 1 + 1/2 e^{-pi^2 t} cos(pi x), H = s ln s - s + 1."""
    from scipy.integrate import quad

    amp = 0.5 * math.exp(-math.pi ** 2 * t)

    def H(x):
        s = 1.0 + amp * math.cos(math.pi * x)
        return s * math.log(s) - s + 1.0

    return quad(H, 0.0, 1.0, epsabs=1e-14, epsrel=1e-12)[0]


def check_heat_entropy_exact(inputs, outputs, refs):
    cfg = outputs["configs"]["heat_sanity"]
    meters = outputs["heat_sanity"]["meters"]
    h = 1.0 / cfg["grid"]["cells"]
    t_end = cfg["run"]["t_end"]
    dt = meters["t"][1] / cfg["run"]["record_every"]
    tol = h * h + dt
    key = ("heat", tuple(meters["t"]))
    if key not in refs:
        refs[key] = [_heat_entropy_exact(t) for t in meters["t"]]
    _expect(abs(meters["t"][-1] - t_end) <= 1e-12, "heat run ends at %r", meters["t"][-1])
    for t, num, exact in zip(meters["t"], meters["entropy"], refs[key]):
        _expect(abs(num - exact) <= tol,
                "heat entropy %r at t=%g differs from the exact %r by more than %g",
                num, t, exact, tol)


def check_ks_mass(inputs, outputs, refs):
    for name in _ks_names(outputs):
        mass = outputs[name]["monitors"]["mass"]
        m0 = outputs["configs"][name]["run"]["mass"]
        drift = max(abs(m - m0) for m in mass) / m0
        _expect(drift <= 1e-12, "%s: mass drifts by %g relative", name, drift)


def check_ks_lyapunov(inputs, outputs, refs):
    for name in _ks_names(outputs):
        mon = outputs[name]["monitors"]
        _non_increasing(mon["lyap_classical"], name + " classical Lyapunov functional")
        acc = mon["vt_accum"]
        _expect(all(b >= a for a, b in zip(acc, acc[1:])),
                "%s: vt_accum decreases: %r", name, acc)


def check_ks_convergence_and_lp(inputs, outputs, refs):
    for name in _ks_names(outputs):
        summary = outputs[name]["summary"]
        table = summary["residual_convergence"]["table"]
        coarse, fine = (row["max_lyap_residual"] for row in table)
        _expect(coarse is not None and fine is not None and fine > 0.0,
                "%s: residual table incomplete: %r", name, table)
        _expect(coarse / fine > 1.0,
                "%s: coarse/fine residual ratio %r is not > 1", name, coarse / fine)
        lp = summary["lp_inequality"]
        _expect(lp["passed"] is True and lp["worst_slack"] <= lp["tol"],
                "%s: L^p inequality verdict fails: %r", name, lp)


def check_plaplace_monotone(inputs, outputs, refs):
    mon = outputs["plaplace_mono"]["monitors"]
    _expect(len(mon["I"]) >= 3, "p-Laplace run records %d snapshots", len(mon["I"]))
    _non_increasing(mon["I"], "p-Laplace I[u]")


FLOWS = {
    "setup": flows_setup,
    "run_round": flows_round,
    "collect": flows_collect,
    "checks": {
        "flows_exit_codes": check_flows_exit_codes,
        "heat_entropy_exact": check_heat_entropy_exact,
        "ks_mass": check_ks_mass,
        "ks_lyapunov": check_ks_lyapunov,
        "ks_convergence_and_lp": check_ks_convergence_and_lp,
        "plaplace_monotone": check_plaplace_monotone,
    },
}


# ---------------------------------------------------------------------------
# quadrature: the quadrature-backed primitives, three ways


# The three parts take about equal time at "full" scale.  The nested
# states are fixed: adaptive quadrature costs more the farther s is from
# 1, and a few seeded states would make the round time depend on the seed.
_QUAD_SIZES = {
    "full": {"cells": 128, "t_end": 0.0005, "record": 60, "scalar_states": 130,
             "nested_states": (0.75, 1.5, 1.7)},
    "tiny": {"cells": 32, "t_end": 0.001, "record": 10, "scalar_states": 4,
             "nested_states": (1.2,)},
}
_KS_OFF = (2.0, 0.5)  # off the critical line p - q = 1


def quadrature_setup(seed, scale):
    size = _QUAD_SIZES[scale]
    rng = np.random.default_rng(seed)
    return {
        "model": coeff_models.ShiftedPowerLaw(2.0),
        "vector_cfg": {
            "name": "shifted_power_law_m2",
            "kind": "diffusion",
            "model": {"family": "shifted_power_law", "m": 2.0},
            "grid": {"dim": 1, "cells": size["cells"]},
            "run": {"t_end": size["t_end"], "safety": 0.4,
                    "record_every": size["record"]},
        },
        "states": [float(s) for s in rng.uniform(0.25, 4.0, size["scalar_states"])],
        "nested_states": list(size["nested_states"]),
    }


def quadrature_round(inputs, out_root):
    code, failed, seconds = _call_cli(inputs["vector_cfg"], out_root)
    times = [seconds]
    model = inputs["model"]
    scalar = []
    for s in inputs["states"]:
        ev, bad1, t1 = _timed(coeff_models.eval_primitives, model, s)
        bq, bad2, t2 = _timed(model.primitives_by_quadrature, s)
        scalar.append((ev, bq))
        times += [t1, t2]
        failed += bad1 + bad2
    nested = []
    for s in inputs["nested_states"]:
        ks, bad, t = _timed(coeff_models.eval_ks, _KS_OFF[0], _KS_OFF[1], s)
        nested.append(ks)
        times.append(t)
        failed += bad
    return {"code": code, "scalar": scalar, "nested": nested}, times, failed


def quadrature_collect(inputs, raw, out_root):
    d = os.path.join(out_root, inputs["vector_cfg"]["name"])
    out = dict(raw)
    if raw["code"] is not None:
        out["meters"] = _read_csv(os.path.join(d, "meters.csv"))
    return out


# Closed forms for a(s) = 2(1+s), lower limit 1 (0 for F).
def _lam(s):
    return 2.0 * np.log(s) + 2.0 * (s - 1.0)


def _entropy(s):
    return 2.0 * (s * np.log(s) - s + 1.0) + (s - 1.0) ** 2


def _sigma(s):
    return 4.0 * (np.sqrt(s) - 1.0) + (4.0 / 3.0) * (s ** 1.5 - 1.0)


def _flux(s):
    return s * s + 2.0 * s


def _close(value, ref, rtol):
    return abs(value - ref) <= rtol * max(1.0, abs(ref))


def check_quadrature_exit_code(inputs, outputs, refs):
    _expect(outputs["code"] == cli.EXIT_PASS,
            "shifted power-law run exited %r", outputs["code"])


def check_scalar_primitives(inputs, outputs, refs):
    for s, pair in zip(inputs["states"], outputs["scalar"]):
        for label, prim in zip(("eval_primitives", "primitives_by_quadrature"), pair):
            for attr, exact in (("lam", _lam(s)), ("entropy_density", _entropy(s)),
                                ("sigma", _sigma(s)), ("flux_primitive", _flux(s))):
                got = getattr(prim, attr)
                _expect(_close(got, exact, 1e-9), "%s(%r).%s = %r, closed form %r",
                        label, s, attr, got, exact)


def check_vector_meters(inputs, outputs, refs):
    """t = 0 meters against the closed forms on the known initial state,
    and entropy and Fisher information non-increasing along the run."""
    meters = outputs["meters"]
    cells = inputs["vector_cfg"]["grid"]["cells"]
    h = 1.0 / cells
    u0 = 1.0 + 0.5 * np.cos(np.pi * _cell_centers(cells))
    u0 *= 1.0 / np.mean(u0)
    entropy0 = float(np.sum(_entropy(u0))) * h
    sig = _sigma(u0)
    padded = np.concatenate([sig[:1], sig, sig[-1:]])
    dsig = (padded[2:] - padded[:-2]) / (2.0 * h)
    fisher0 = float(np.sum(dsig ** 2)) * h
    _expect(_close(meters["entropy"][0], entropy0, 1e-9),
            "entropy(0) = %r, closed form %r", meters["entropy"][0], entropy0)
    _expect(_close(meters["fisher_sigma"][0], fisher0, 1e-9),
            "fisher_sigma(0) = %r, closed form %r", meters["fisher_sigma"][0], fisher0)
    _expect(len(meters["t"]) >= 3, "vector run records %d snapshots", len(meters["t"]))
    for col in ("entropy", "fisher_sigma"):
        _non_increasing(meters[col], col)


def _nested_refs(s):
    """G and Psi as single integrals, by parts:
    G(s) = int_1^s (s - t) D/S dt,
    Psi(s) = int_1^s (s - t) t D S'/S + t D dt."""
    from scipy.integrate import quad

    p, q = _KS_OFF

    def D(t):
        return (1.0 + t) ** (-p)

    def ratio(t):  # D/S
        return (1.0 + t) ** (q - p) / t

    def g(t):  # t D S'/S with S = t (1+t)^-q
        return D(t) * (1.0 + t - q * t) / (1.0 + t)

    kw = {"epsabs": 1e-14, "epsrel": 1e-13, "limit": 200}
    G = quad(lambda t: (s - t) * ratio(t), 1.0, s, **kw)[0]
    psi = quad(lambda t: (s - t) * g(t) + t * D(t), 1.0, s, **kw)[0]
    return G, psi


def check_nested_ks(inputs, outputs, refs):
    for s, ks in zip(inputs["nested_states"], outputs["nested"]):
        if ("nested", s) not in refs:
            refs[("nested", s)] = _nested_refs(s)
        G, psi = refs[("nested", s)]
        _expect(_close(ks.double_primitive, G, 1e-8),
                "G(%r) = %r, scipy %r", s, ks.double_primitive, G)
        _expect(_close(ks.psi, psi, 1e-8), "Psi(%r) = %r, scipy %r", s, ks.psi, psi)


QUADRATURE = {
    "setup": quadrature_setup,
    "run_round": quadrature_round,
    "collect": quadrature_collect,
    "checks": {
        "quadrature_exit_code": check_quadrature_exit_code,
        "scalar_primitives": check_scalar_primitives,
        "vector_meters": check_vector_meters,
        "nested_ks": check_nested_ks,
    },
}


# ---------------------------------------------------------------------------
# ineq_sweep: sampled inequality checks in n = 1, 2, 3


_INEQ_SIZES = {
    "full": {1: (1024, 40, 20), 2: (256, 16, 8), 3: (64, 5, 3)},
    "tiny": {1: (64, 3, 2), 2: (16, 2, 2), 3: (8, 2, 1)},
}  # n -> (cells, search trials per model, cmkm fields)
_INEQ_MODELS = (("linear", 1.0), ("power_law", 2.0))


def _ineq_model(family, m):
    return coeff_models.Linear() if family == "linear" else coeff_models.PowerLaw(m)


def ineq_setup(seed, scale):
    searches, cmkm = [], []
    for n, (cells, trials, n_cmkm) in sorted(_INEQ_SIZES[scale].items()):
        for family, m in _INEQ_MODELS:
            searches.append({"n": n, "cells": cells, "trials": trials,
                             "seed": seed, "family": family, "m": m,
                             "model": _ineq_model(family, m)})
        rng = np.random.default_rng([seed, n])
        grid = fields.Grid(dim=n, cells=cells)
        for _ in range(n_cmkm):
            spec = inequalities.sample_spec(rng, n)
            cmkm.append({"n": n, "spec": spec,
                         "field": fields.build_test_function(grid, spec)})
    return {"searches": searches, "cmkm": cmkm}


def ineq_round(inputs, out_root):
    results, times, failed = [], [], 0
    for s in inputs["searches"]:
        res, bad, t = _timed(inequalities.worst_ratio_search, s["n"], s["model"],
                             s["trials"], s["seed"], s["cells"])
        results.append(res)
        times.append(t)
        failed += bad
    ratios = []
    for c in inputs["cmkm"]:
        r, bad, t = _timed(inequalities.cmkm_ratio, c["field"])
        ratios.append(r)
        times.append(t)
        failed += bad
    return {"searches": results, "cmkm": ratios}, times, failed


def ineq_collect(inputs, raw, out_root):
    return raw


def _spec_values(spec, cells):
    """The spec's cosine polynomial on cell centers, evaluated here."""
    x = _cell_centers(cells)
    n = len(spec.cosine_coeffs)
    vals = np.full((cells,) * n, spec.offset)
    for ax, coeffs in enumerate(spec.cosine_coeffs):
        line = sum(a * np.cos(k * np.pi * x) for k, a in enumerate(coeffs, start=1))
        shape = [1] * n
        shape[ax] = cells
        vals = vals + np.reshape(line, shape)
    return vals


def _search_lams(s):
    """lambda = min of a over [min f, max f] per trial, from the replayed
    seeded specs; a = 1 (linear) or 2 s (power law m = 2) is monotone."""
    rng = np.random.default_rng(s["seed"])
    out = []
    for _ in range(s["trials"]):
        spec = inequalities.sample_spec(rng, s["n"])
        fmin = float(_spec_values(spec, s["cells"]).min())
        lam = 1.0 if s["family"] == "linear" else s["m"] * fmin ** (s["m"] - 1.0)
        out.append((spec.offset, lam))
    return out


def check_ineq_constants(inputs, outputs, refs):
    for s, res in zip(inputs["searches"], outputs["searches"]):
        key = ("lams", s["n"], s["family"], s["seed"])
        if key not in refs:
            refs[key] = _search_lams(s)
        n = s["n"]
        c_bernis = (1.0 + math.sqrt(n)) ** 2
        _expect(len(res.rows) == s["trials"], "n=%d %s: %d rows for %d trials",
                n, s["family"], len(res.rows), s["trials"])
        _expect(res.all_passed is True, "n=%d %s: verdict fails", n, s["family"])
        for (trial, c0, rb, rf, _), (offset, lam) in zip(res.rows, refs[key]):
            c_fisher = (4.0 + (1.0 + math.sqrt(n)) ** 2) / (2.0 * lam)
            _expect(c0 == offset, "n=%d trial %d: sample c0 %r, replay %r",
                    n, trial, c0, offset)
            _expect(0.0 <= rb <= c_bernis, "n=%d %s trial %d: Bernis ratio %r > %r",
                    n, s["family"], trial, rb, c_bernis)
            _expect(0.0 <= rf <= c_fisher, "n=%d %s trial %d: Fisher ratio %r > %r",
                    n, s["family"], trial, rf, c_fisher)


def check_ineq_scaling(inputs, outputs, refs):
    """Scaling f to 2f leaves the linear-model Bernis ratio and the CMKM
    ratio unchanged: both sides of each are homogeneous of one degree."""
    linear = coeff_models.Linear()
    for s, res in zip(inputs["searches"], outputs["searches"]):
        if s["family"] != "linear":
            continue
        key = ("bernis2f", s["n"], s["seed"])
        if key not in refs:
            grid = fields.Grid(dim=s["n"], cells=s["cells"])
            f2 = fields.Field(grid, 2.0 * _spec_values(res.argmax_bernis, s["cells"]))
            refs[key] = inequalities.bernis_check(f2, linear, 0.0).ratio
        _expect(_close(res.max_bernis, refs[key], 1e-8),
                "n=%d: Bernis ratio %r, at 2f %r", s["n"], res.max_bernis, refs[key])
    for k, (c, ratio) in enumerate(zip(inputs["cmkm"], outputs["cmkm"])):
        key = ("cmkm2f", k, c["spec"])
        if key not in refs:
            f2 = fields.Field(c["field"].grid, 2.0 * c["field"].values)
            refs[key] = inequalities.cmkm_ratio(f2)
        _expect(ratio > 0.0 and _close(ratio, refs[key], 1e-8),
                "n=%d: CMKM ratio %r, at 2f %r", c["n"], ratio, refs[key])


INEQ_SWEEP = {
    "setup": ineq_setup,
    "run_round": ineq_round,
    "collect": ineq_collect,
    "checks": {
        "ineq_constants": check_ineq_constants,
        "ineq_scaling": check_ineq_scaling,
    },
}


WORKLOADS = {"flows": FLOWS, "quadrature": QUADRATURE, "ineq_sweep": INEQ_SWEEP}


def round_failures(workload, inputs, raw, n_failed, out_root, refs):
    """Names and messages of what went wrong in one round.  A round in which
    an operation failed is a failure in itself: its outputs are incomplete,
    so they go unchecked."""
    if n_failed:
        return [("operations", "%d operation(s) failed, outputs unchecked" % n_failed)]
    outputs = workload["collect"](inputs, raw, out_root)
    return run_checks(workload, inputs, outputs, refs)


def run_checks(workload, inputs, outputs, refs):
    """Names and messages of the checks that fail."""
    failures = []
    for name, check in workload["checks"].items():
        try:
            check(inputs, outputs, refs)
        except CheckFailed as err:
            failures.append((name, str(err)))
    return failures
