"""In-memory span tracing of entroflow's public functions, from outside.

The program has no instrumentation of its own, so the traced run wraps
module functions and methods at every place they are looked up and records
one span per call: its name, the stack of enclosing spans, busy time, the
part of it covered by child spans, and an optional item count (states,
snapshots or bytes, depending on the span).  Aggregates are kept per
stack path, so a metric can ask for calls made under a given caller.

``layer_metrics`` derives the per-layer metrics of BENCHMARK.json from the
aggregates of one run.
"""

import sys
import time
from collections import defaultdict

import numpy as np

_STEP_LOOPS = ("keller_segel.run_ks", "diffusion.run", "p_laplace.run")
_STEP_SPANS = ("keller_segel.ks_step", "diffusion.step", "p_laplace.pl_step")


class _Agg:
    __slots__ = ("count", "busy", "child", "items")

    def __init__(self):
        self.count = 0
        self.busy = 0.0
        self.child = 0.0
        self.items = 0


class Tracer:
    """Span aggregates per stack path, plus per-round context for hooks."""

    def __init__(self):
        self.paths = defaultdict(_Agg)
        self._stack = [((), [0.0])]  # (path, child-time accumulator)
        self.context = {}
        self._patches = []

    # -- recording --------------------------------------------------------

    def call(self, name, fn, args, kwargs, items_fn):
        parent_path, parent_child = self._stack[-1]
        path = parent_path + (name,)
        child = [0.0]
        self._stack.append((path, child))
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            busy = time.perf_counter() - t0
            self._stack.pop()
            parent_child[0] += busy
            agg = self.paths[path]
            agg.count += 1
            agg.busy += busy
            agg.child += child[0]
        if items_fn is not None:
            agg.items += items_fn(args, kwargs, result)
        return result

    # -- installing wrappers ---------------------------------------------

    def wrap(self, owner, attr, name, items_fn=None, after=None, modules=()):
        """Replace ``owner.attr``, and every global of ``modules`` bound to
        the same object under any name, with a recording wrapper.

        ``name`` is a span name or a callable ``(args, kwargs) -> name``;
        ``after(result, args, kwargs)`` runs once the call has returned.
        """
        original = getattr(owner, attr)
        tracer = self
        name_fn = name if callable(name) else (lambda args, kwargs: name)

        def wrapper(*args, **kwargs):
            result = tracer.call(name_fn(args, kwargs), original, args, kwargs,
                                 items_fn)
            if after is not None:
                after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = original
        self._replace(owner, attr, wrapper)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original and not (module is owner and key == attr):
                    self._replace(module, key, wrapper)
        return wrapper

    def replace_item(self, mapping, key, value):
        """Point a dict entry (a dispatch table) at a wrapper."""
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = value

    def _replace(self, target, attr, value):
        self._patches.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def uninstall(self):
        for target, attr, old in reversed(self._patches):
            if isinstance(target, dict):
                target[attr] = old
            else:
                setattr(target, attr, old)
        self._patches = []

    # -- queries ----------------------------------------------------------

    def _select(self, name, under=None):
        for path, agg in self.paths.items():
            if path[-1] != name:
                continue
            if under is not None and not any(u in path[:-1] for u in under):
                continue
            yield path, agg

    def count(self, name, under=None, parent=None):
        total = 0
        for path, agg in self._select(name, under):
            if parent is None or (len(path) > 1 and path[-2] in parent):
                total += agg.count
        return total

    def busy(self, name):
        # Recursive spans (adaptive Simpson calling itself) would be counted
        # at every level, so busy time sums outermost occurrences only.
        return sum(a.busy for p, a in self._select(name) if name not in p[:-1])

    def self_time(self, name):
        return sum(a.busy - a.child for _, a in self._select(name))

    def items(self, name, under=None):
        return sum(a.items for _, a in self._select(name, under))

    def table(self):
        """Per-name count, busy and self time, and per-path detail."""
        names = sorted({p[-1] for p in self.paths})
        return {
            "spans": {
                n: {"count": self.count(n), "busy_s": self.busy(n),
                    "self_s": self.self_time(n), "items": self.items(n)}
                for n in names
            },
            "paths": [
                {"path": list(p), "count": a.count, "busy_s": a.busy,
                 "self_s": a.busy - a.child, "items": a.items}
                for p, a in sorted(self.paths.items())
            ],
        }


# ---------------------------------------------------------------------------
# What is wrapped


def _size(args, kwargs, result):
    return int(np.size(args[1]))


def _snapshots(args, kwargs, result):
    return len(args[0].times)


def _field_bytes(args, kwargs, result):
    return int(args[0].values.nbytes)


def _dim_name(base, field_arg):
    def name(args, kwargs):
        return "%s[n%d]" % (base, field_arg(args).grid.dim)
    return name


def install(tracer):
    """Wrap every layer boundary the per-layer metrics read."""
    from entroflow import (cli, coeff_models, diffusion, fields, inequalities,
                           keller_segel, meters, p_laplace, quadrature,
                           reporting)

    modules = [m for k, m in sorted(sys.modules.items())
               if k == "entroflow" or k.startswith("entroflow.")]
    ctx = tracer.context

    def w(owner, attr, name, **kw):
        return tracer.wrap(owner, attr, name, modules=modules, **kw)

    # cli: the paired coarse KS run is the _ks_run_once call with fewer
    # cells than the experiment's configured grid.
    def run_ks_experiment(args, kwargs):
        ctx["ks_cells"] = int(args[0]["grid"]["cells"])
        return "cli._run_ks"

    def ks_run_once(args, kwargs):
        coarse = args[1] < ctx.get("ks_cells", args[1])
        return "cli.ks_coarse_run" if coarse else "cli.ks_fine_run"

    def remember_coarse(result, args, kwargs):
        if args[1] < ctx.get("ks_cells", args[1]):
            ctx.setdefault("coarse", []).append(result)

    w(cli, "run_experiment", "cli.run_experiment")
    tracer.replace_item(cli._RUNNERS, "ks", w(cli, "_run_ks", run_ks_experiment))
    w(cli, "_ks_run_once", ks_run_once, after=remember_coarse)

    # keller_segel: residuals on the coarse trajectory get their own span
    # name, so that classical_lyapunov per snapshot counts the metered
    # (fine) trajectory only.
    def lyap_residual(args, kwargs):
        traj = args[0]
        if any(t is traj for t in ctx.get("coarse", ())):
            return "keller_segel.lyapunov_identity_residual[coarse]"
        return "keller_segel.lyapunov_identity_residual"

    w(keller_segel, "run_ks", "keller_segel.run_ks")
    w(keller_segel, "ks_step", "keller_segel.ks_step")
    w(keller_segel, "ks_stable_dt", "keller_segel.ks_stable_dt")
    w(keller_segel, "v_time_derivative", "keller_segel.v_time_derivative")
    w(keller_segel, "classical_lyapunov", "keller_segel.classical_lyapunov")
    w(keller_segel, "measure_monitors", "keller_segel.measure_monitors",
      items_fn=_snapshots)
    w(keller_segel, "lyapunov_identity_residual", lyap_residual)
    w(keller_segel, "lp_inequality_residuals",
      "keller_segel.lp_inequality_residuals")

    # diffusion, p_laplace
    w(diffusion, "run", "diffusion.run")
    w(diffusion, "step", "diffusion.step")
    w(p_laplace, "run", "p_laplace.run")
    w(p_laplace, "pl_step", "p_laplace.pl_step")
    w(p_laplace, "rate_residuals", "p_laplace.rate_residuals")

    # fields
    tracer.wrap(fields.Field, "__post_init__", "fields.Field",
                items_fn=_field_bytes)
    w(fields, "integrate", "fields.integrate")
    w(fields, "neumann_hessian", _dim_name("fields.neumann_hessian",
                                           lambda a: a[0]))
    w(fields, "gradient_of_vector", _dim_name("fields.gradient_of_vector",
                                              lambda a: a[0][0]))

    # reporting
    w(reporting, "write_csv", "reporting.write_csv")
    w(reporting, "write_json", "reporting.write_json")

    # meters: closed-form models override sigma; quadrature-backed ones
    # inherit CoeffModel's.
    def measure_name(args, kwargs):
        model = args[1]
        overrides = any("sigma" in vars(c) for c in type(model).__mro__
                        if c is not coeff_models.CoeffModel and c is not object)
        return "meters.measure[closed]" if overrides else "meters.measure[quad]"

    w(meters, "measure", measure_name)
    w(meters, "identity_residuals", "meters.identity_residuals")

    # coeff_models: the quadrature-backed primitives live on CoeffModel
    cm = coeff_models.CoeffModel
    tracer.wrap(cm, "sigma", "coeff_models.sigma", items_fn=_size)
    tracer.wrap(cm, "lam", "coeff_models.lam", items_fn=_size)
    tracer.wrap(cm, "entropy_density", "coeff_models.entropy_density",
                items_fn=_size)
    tracer.wrap(cm, "primitives_by_quadrature",
                "coeff_models.primitives_by_quadrature")
    w(coeff_models, "eval_primitives", "coeff_models.eval_primitives")

    def ks_name(base):
        def name(args, kwargs):
            return base + ("[closed]" if args[0].critical else "[nested]")
        return name

    ksm = coeff_models.KSModel
    tracer.wrap(ksm, "G", ks_name("coeff_models.ks_G"), items_fn=_size)
    tracer.wrap(ksm, "psi", ks_name("coeff_models.ks_psi"), items_fn=_size)

    # quadrature
    w(quadrature, "adaptive_simpson", "quadrature.adaptive_simpson")

    # inequalities
    w(inequalities, "bernis_check",
      _dim_name("inequalities.bernis_check", lambda a: a[0]))
    w(inequalities, "fisher_ineq_check",
      _dim_name("inequalities.fisher_ineq_check", lambda a: a[0]))
    w(inequalities, "cmkm_ratio",
      _dim_name("inequalities.cmkm_ratio", lambda a: a[0]))


# ---------------------------------------------------------------------------
# Per-layer metrics


def _per_call(tracer, names, scale):
    calls = sum(tracer.count(n) for n in names)
    busy = sum(tracer.busy(n) for n in names)
    return scale * busy / calls if calls else 0.0


def _per_item(tracer, name, scale):
    items = tracer.items(name)
    return scale * tracer.busy(name) / items if items else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, rounds):
    """Per-layer metrics from ``rounds`` traced rounds of one workload.

    Times are per call (or per state), counts are per round and exact.
    """
    t = tracer
    steps = sum(t.count(n) for n in _STEP_SPANS)
    ks_steps = t.count("keller_segel.ks_step")
    checks_n3 = (t.count("inequalities.bernis_check[n3]")
                 + t.count("inequalities.fisher_ineq_check[n3]"))
    check_bytes_n3 = (t.items("fields.Field", under=("inequalities.bernis_check[n3]",))
                      + t.items("fields.Field",
                                under=("inequalities.fisher_ineq_check[n3]",)))
    lyap_monitored = (
        t.count("keller_segel.classical_lyapunov",
                parent=("keller_segel.measure_monitors",
                        "keller_segel.lyapunov_identity_residual")))
    m = {
        "keller_segel.ks_step_us": _per_call(t, ["keller_segel.ks_step"], 1e6),
        "keller_segel.ks_stable_dt_us":
            _per_call(t, ["keller_segel.ks_stable_dt"], 1e6),
        "keller_segel.ks_step_calls": ks_steps // rounds,
        "keller_segel.v_time_derivative_per_step": _ratio(
            t.count("keller_segel.v_time_derivative",
                    parent=("keller_segel.run_ks", "keller_segel.ks_step")),
            ks_steps),
        "keller_segel.classical_lyapunov_per_snapshot": _ratio(
            lyap_monitored, t.items("keller_segel.measure_monitors")),
        "keller_segel.measure_monitors_ms":
            _per_call(t, ["keller_segel.measure_monitors"], 1e3),
        "keller_segel.residuals_ms": _per_call(
            t, ["keller_segel.lyapunov_identity_residual",
                "keller_segel.lyapunov_identity_residual[coarse]",
                "keller_segel.lp_inequality_residuals"], 1e3),
        "cli.ks_coarse_run_s": _per_call(t, ["cli.ks_coarse_run"], 1.0),
        "diffusion.step_us": _per_call(t, ["diffusion.step"], 1e6),
        "diffusion.step_calls": t.count("diffusion.step") // rounds,
        "p_laplace.pl_step_us": _per_call(t, ["p_laplace.pl_step"], 1e6),
        "p_laplace.pl_step_calls": t.count("p_laplace.pl_step") // rounds,
        "p_laplace.rate_residuals_ms":
            _per_call(t, ["p_laplace.rate_residuals"], 1e3),
        "fields.field_constructions_per_step": _ratio(
            t.count("fields.Field", under=_STEP_LOOPS), steps),
        "fields.integrate_calls": t.count("fields.integrate") // rounds,
        "fields.neumann_hessian_ms_n3":
            _per_call(t, ["fields.neumann_hessian[n3]"], 1e3),
        "fields.gradient_of_vector_ms_n3":
            _per_call(t, ["fields.gradient_of_vector[n3]"], 1e3),
        "fields.computed_mb_per_check_n3":
            _ratio(check_bytes_n3 / 1e6, checks_n3),
        "reporting.write_csv_ms": _per_call(t, ["reporting.write_csv"], 1e3),
        "reporting.write_json_ms": _per_call(t, ["reporting.write_json"], 1e3),
        "meters.measure_ms_closed": _per_call(t, ["meters.measure[closed]"], 1e3),
        "meters.measure_ms_quad": _per_call(t, ["meters.measure[quad]"], 1e3),
        "meters.identity_residuals_ms":
            _per_call(t, ["meters.identity_residuals"], 1e3),
        "coeff_models.sigma_us_per_state":
            _per_item(t, "coeff_models.sigma", 1e6),
        "coeff_models.lam_us_per_state": _per_item(t, "coeff_models.lam", 1e6),
        "coeff_models.entropy_density_us_per_state":
            _per_item(t, "coeff_models.entropy_density", 1e6),
        "coeff_models.eval_primitives_ms":
            _per_call(t, ["coeff_models.eval_primitives"], 1e3),
        "coeff_models.primitives_by_quadrature_ms":
            _per_call(t, ["coeff_models.primitives_by_quadrature"], 1e3),
        "coeff_models.ks_G_ms_per_state":
            _per_item(t, "coeff_models.ks_G[nested]", 1e3),
        "coeff_models.ks_psi_ms_per_state":
            _per_item(t, "coeff_models.ks_psi[nested]", 1e3),
        "quadrature.adaptive_simpson_calls":
            t.count("quadrature.adaptive_simpson") // rounds,
        # self time: nested quadrature calls itself through the integrand
        "quadrature.adaptive_simpson_us": 1e6 * _ratio(
            t.self_time("quadrature.adaptive_simpson"),
            t.count("quadrature.adaptive_simpson")),
    }
    for n in (1, 2, 3):
        for fn in ("bernis_check", "fisher_ineq_check", "cmkm_ratio"):
            m["inequalities.%s_ms_n%d" % (fn, n)] = _per_call(
                t, ["inequalities.%s[n%d]" % (fn, n)], 1e3)
    return m

