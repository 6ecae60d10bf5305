"""Self-test of the benchmark's correctness checks.

    python3 bench/selftest.py

Runs one round of each workload at a tiny size, shows that every check
accepts the program's real outputs, and then, for every check, corrupts a
copy of those outputs and shows that the check rejects it.  Last, it makes
one operation raise and shows that the round is judged a failure.  Exits 1
if a check accepts a corrupted result or rejects a real one, or if a round
with a failed operation passes.
"""

import contextlib
import copy
import dataclasses
import io
import math
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402


def _bump(seq, k, factor):
    seq[k] = seq[k] * factor


def _ks(out):
    return out["ks_critical_21_short"]


def _lp_fails(out):
    _ks(out)["summary"]["lp_inequality"]["passed"] = False


def _coarse_not_worse(out):
    table = _ks(out)["summary"]["residual_convergence"]["table"]
    table[0]["max_lyap_residual"] = 0.5 * table[1]["max_lyap_residual"]


def _lyapunov_rises(out):
    lyap = _ks(out)["monitors"]["lyap_classical"]
    lyap[-1] = lyap[-2] + 1.0


def _vt_accum_drops(out):
    acc = _ks(out)["monitors"]["vt_accum"]
    acc[-1] = 0.5 * acc[-2]


def _replace_first(seq, **changes):
    seq[0] = dataclasses.replace(seq[0], **changes)


def _scalar_off(out):
    ev, bq = out["scalar"][0]
    out["scalar"][0] = (ev, dataclasses.replace(bq, sigma=bq.sigma * (1 + 1e-6)))


def _ratio_over_constant(out):
    res = out["searches"][0]
    trial, c0, rb, rf, lam = res.rows[0]
    res.rows[0] = (trial, c0, (1.0 + math.sqrt(1)) ** 2 * 1.01, rf, lam)


def _fisher_over_constant(out):
    res = out["searches"][-1]
    trial, c0, rb, rf, lam = res.rows[-1]
    res.rows[-1] = (trial, c0, rb, 1e3, lam)


def _bernis_not_invariant(out):
    res = out["searches"][0]
    res.max_bernis *= 1.0 + 1e-6


# check name -> corruptions, each of which the check must reject
CORRUPTIONS = {
    "flows_exit_codes": [lambda o: o["codes"].update(ks_s1_10=2)],
    "heat_entropy_exact": [
        lambda o: _bump(o["heat_sanity"]["meters"]["entropy"], -1, 1.05)],
    "ks_mass": [lambda o: _bump(_ks(o)["monitors"]["mass"], -1, 1.0 + 1e-9)],
    "ks_lyapunov": [_lyapunov_rises, _vt_accum_drops],
    "ks_convergence_and_lp": [_coarse_not_worse, _lp_fails],
    "plaplace_monotone": [
        lambda o: _bump(o["plaplace_mono"]["monitors"]["I"], -1, 10.0)],
    "quadrature_exit_code": [lambda o: o.update(code=3)],
    "scalar_primitives": [_scalar_off],
    "vector_meters": [
        lambda o: _bump(o["meters"]["entropy"], 0, 1.0 + 1e-6),
        lambda o: _bump(o["meters"]["fisher_sigma"], -1, 10.0)],
    "nested_ks": [
        lambda o: _replace_first(o["nested"], psi=o["nested"][0].psi * (1 + 1e-6)),
        lambda o: _replace_first(o["nested"], double_primitive=0.0)],
    "ineq_constants": [_ratio_over_constant, _fisher_over_constant],
    "ineq_scaling": [_bernis_not_invariant,
                     lambda o: _bump(o["cmkm"], 0, 1.0 + 1e-6)],
}


def _failing_operation_rejected(tmp_root):
    """One ``cmkm_ratio`` call raises: the round must count it as failed and
    ``round_failures`` must report it, which makes the run incorrect."""
    workload = workloads.WORKLOADS["ineq_sweep"]
    inputs = workload["setup"](7, "tiny")
    real = workloads.inequalities.cmkm_ratio

    def broken(field):
        if broken.calls == 0:
            broken.calls += 1
            raise FloatingPointError("injected failure")
        return real(field)

    broken.calls = 0
    workloads.inequalities.cmkm_ratio = broken
    try:
        with tempfile.TemporaryDirectory(dir=tmp_root) as out_root, \
                contextlib.redirect_stderr(io.StringIO()):
            raw, _, failed = workload["run_round"](inputs, out_root)
            found = workloads.round_failures(workload, inputs, raw, failed,
                                             out_root, {})
    finally:
        workloads.inequalities.cmkm_ratio = real
    ok = failed == 1 and bool(found)
    print("ineq_sweep with one raising operation: %d failed, %s" % (
        failed, found[0][1] if found else "JUDGED CORRECT"))
    return ok


def main():
    bad = 0
    seen = set()
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    for wname, workload in workloads.WORKLOADS.items():
        inputs = workload["setup"](7, "tiny")
        with tempfile.TemporaryDirectory(dir=tmp_root) as out_root:
            raw, op_times, failed = workload["run_round"](inputs, out_root)
            outputs = workload["collect"](inputs, raw, out_root)
        print("%s: %d operations, %d failed" % (wname, len(op_times), failed))
        bad += failed > 0
        refs = {}
        for cname, check in workload["checks"].items():
            seen.add(cname)
            try:
                check(inputs, outputs, refs)
                verdict = "accepts the real output"
            except workloads.CheckFailed as err:
                verdict = "REJECTS THE REAL OUTPUT: %s" % err
                bad += 1
            print("  %-24s %s" % (cname, verdict))
            for k, corrupt in enumerate(CORRUPTIONS[cname]):
                broken = copy.deepcopy(outputs)
                corrupt(broken)
                try:
                    check(inputs, broken, refs)
                    msg = "ACCEPTS corruption %d" % k
                    bad += 1
                except workloads.CheckFailed as err:
                    msg = "rejects corruption %d: %s" % (k, err)
                print("  %-24s %s" % ("", msg[:150]))
    bad += not _failing_operation_rejected(tmp_root)
    missing = set(CORRUPTIONS) ^ seen
    if missing:
        print("checks without a corruption, or stale entries: %s" % sorted(missing))
        bad += 1
    print("self-test %s" % ("FAILED" if bad else "passed"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
