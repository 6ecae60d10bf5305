"""End-to-end acceptance checks, one per headline property.

Each test prints a single PASS/FAIL line (bypassing capture) so the full
verdict list is visible in the pytest log.
"""

import math
import time

import numpy as np
import pytest

from entroflow.coeff_models import (
    KSModel,
    Linear,
    PowerLaw,
    ShiftedPowerLaw,
    eval_primitives,
)
from entroflow.diffusion import FlowConfig, initial_cosine, run as run_flow
from entroflow.fields import Field, Grid
from entroflow.inequalities import bernis_constant, fisher_constant, worst_ratio_search
from entroflow.keller_segel import (
    cosine_initial_state,
    entro_prod_residual,
    lp_inequality_residuals,
    lyapunov_identity_residual,
    require_strict_hypotheses,
    run_ks,
    s1_functional_identity,
)
from entroflow.meters import (
    identity_residuals,
    monotone_tolerance,
    monotonicity_report,
)
from entroflow.p_laplace import PLaplaceModel, monotonicity_report as pl_mono, run as run_pl


def _verdict(capsys, name, ok):
    with capsys.disabled():
        print("\n[acceptance] %-28s %s" % (name, "PASS" if ok else "FAIL"))
    assert ok, name


def test_1_linear_heat_sanity(capsys):
    t0 = time.perf_counter()
    grid = Grid(1, 128)
    traj = run_flow(
        initial_cosine(grid), FlowConfig(Linear(), grid, t_end=0.1, record_every=200)
    )
    x = grid.axis_centers()
    exact = 1.0 + 0.5 * np.cos(np.pi * x) * np.exp(-np.pi**2 * 0.1)
    err = float(np.max(np.abs(traj.u[-1] - exact)))
    h, dt = grid.h, traj.record_dt
    mono_e = monotonicity_report(traj.meters.entropy, h, dt)
    mono_f = monotonicity_report(traj.meters.fisher_sigma, h, dt)
    elapsed = time.perf_counter() - t0
    ok = err < 1e-3 and mono_e.passed and mono_f.passed and elapsed < 5.0
    _verdict(capsys, "linear_heat_sanity", ok)


def test_2_identity_residual_convergence(capsys):
    def resmax(model, cells):
        g = Grid(1, cells)
        traj = run_flow(
            initial_cosine(g),
            FlowConfig(model, g, t_end=0.02, record_every=max(1, cells * cells // 800)),
        )
        res = identity_residuals(traj)
        return (
            max(abs(r) for r in res.r_entropy),
            max(abs(r) for r in res.r_fisher),
        )

    ok = True
    for model in (Linear(), PowerLaw(2.0)):
        a, b = resmax(model, 64), resmax(model, 128)
        ok = ok and a[0] / b[0] >= 3.5 and a[1] / b[1] >= 3.5
    _verdict(capsys, "identity_convergence", ok)


def test_3_st_fisher_monotone(capsys):
    ok = True
    for m in (0.5, 1.0, 2.0, 3.0):
        model = PowerLaw(m)
        g = Grid(1, 96)
        traj = run_flow(
            initial_cosine(g), FlowConfig(model, g, t_end=0.02, record_every=50)
        )
        rep = monotonicity_report(traj.meters.fisher_st, g.h, traj.record_dt)
        ok = ok and rep.passed
    _verdict(capsys, "st_fisher_monotone", ok)


def test_4_inequality_constants(capsys):
    ok = True
    model = Linear()
    for n in (1, 2):
        t0 = time.perf_counter()
        coarse = worst_ratio_search(n, model, trials=1000, seed=20260824, cells=64)
        fine = worst_ratio_search(n, model, trials=1000, seed=20260824, cells=128)
        elapsed = time.perf_counter() - t0
        ok = ok and coarse.all_passed and fine.all_passed and elapsed < 60.0
        for a, b in ((coarse.max_bernis, fine.max_bernis),
                     (coarse.max_fisher, fine.max_fisher)):
            ok = ok and abs(a - b) <= 0.05 * max(abs(a), abs(b))
    ok = ok and bernis_constant(1) == 4.0 and fisher_constant(1, 1.0) == 4.0
    ok = ok and fisher_constant(1, 2.5) == 4.0 / 2.5
    _verdict(capsys, "inequality_constants", ok)


def test_5_ks_identity_convergence(capsys):
    def run_at(params, cells):
        g = Grid(1, cells)
        return run_ks(
            *cosine_initial_state(g, mass=2.0),
            FlowConfig(params, g, t_end=0.02, record_every=max(1, cells * cells // 600)),
        )

    ok = True
    p21 = KSModel(2.0, 1.0)
    for fn in (lyapunov_identity_residual, entro_prod_residual):
        a = max(abs(r) for r in fn(run_at(p21, 48)))
        b = max(abs(r) for r in fn(run_at(p21, 96)))
        ok = ok and math.log2(a / b) >= 1.8
    p10 = KSModel(1.0, 0.0)
    la, ra = s1_functional_identity(run_at(p10, 48))
    lb, rb = s1_functional_identity(run_at(p10, 96))
    ok = ok and math.log2(max(map(abs, la)) / max(map(abs, lb))) >= 1.8
    ok = ok and math.log2(max(map(abs, ra)) / max(map(abs, rb))) >= 1.8
    _verdict(capsys, "ks_identity_convergence", ok)


def test_6_ks_global_existence_evidence(capsys):
    model = KSModel(2.0, 1.0)
    g = Grid(1, 256)
    require_strict_hypotheses(model)
    traj = run_ks(*cosine_initial_state(g, mass=20.0),
                  FlowConfig(model, g, t_end=1.0, record_every=4000))
    mons = traj.meters
    drift = np.max(np.abs(mons.mass - mons.mass[0])) / abs(mons.mass[0])
    finite = np.isfinite([mons.log_bound, mons.lp_norm, mons.ep_estimate,
                          mons.vt_accum]).all()
    slack = lp_inequality_residuals(traj, model)
    tol = 10.0 * (g.h**2 + traj.record_dt) * np.max(mons.lp_norm)
    ok = drift < 1e-12 and finite and max(slack) <= tol
    _verdict(capsys, "ks_global_evidence", ok)


def test_7_plaplace_monotone(capsys):
    ok = True
    for p in (2.0, 2.5, 3.0):
        for cells in (128, 256):
            g = Grid(1, cells)
            cfg = FlowConfig(PLaplaceModel(p, delta=1e-6), g, t_end=0.05,
                             record_every=200)
            traj = run_pl(initial_cosine(g), cfg)
            ok = ok and pl_mono(traj, cfg.model).passed is True
    # p = 2: the I path is exactly a quarter of the linear Fisher path
    g = Grid(1, 128)
    cfg = FlowConfig(PLaplaceModel(2.0), g, t_end=0.05, record_every=100)
    traj = run_pl(initial_cosine(g), cfg)
    htraj = run_flow(initial_cosine(g), FlowConfig(Linear(), g, 0.05, record_every=100))
    gap = np.max(np.abs(traj.meters.I - 0.25 * htraj.meters.fisher_sigma))
    ok = ok and gap <= 1e-10
    _verdict(capsys, "plaplace_monotone", ok)


def test_8_oracle_equivalence(capsys):
    ok = True
    svals = np.geomspace(0.05, 50.0, 50)
    for model in (Linear(), PowerLaw(0.5), PowerLaw(1.0), PowerLaw(2.0),
                  PowerLaw(3.0), ShiftedPowerLaw(2.0)):
        for s in svals:
            value = eval_primitives(model, float(s))
            quad = model.primitives_by_quadrature(float(s))
            for c, q in zip(
                (value.lam, value.entropy_density, value.sigma,
                 value.flux_primitive),
                (quad.lam, quad.entropy_density, quad.sigma, quad.flux_primitive),
            ):
                ok = ok and abs(c - q) <= 1e-9 * max(1.0, abs(q))
    # batch-quadrature G and Psi against the critical-line closed forms
    class ForcedQuadrature(KSModel):
        @property
        def critical(self):
            return False

    for p, q in ((2.0, 1.0), (1.0, 0.0)):
        closed, batch = KSModel(p, q), ForcedQuadrature(p, q)
        for s in (0.5, 2.0, 5.0):
            ok = ok and abs(float(closed.G(s)) - float(batch.G(s))) <= 1e-8
            ok = ok and abs(float(closed.psi(s)) - float(batch.psi(s))) <= 1e-8
    _verdict(capsys, "oracle_equivalence", ok)
