"""One benchmark process: set up a workload, then run it as a closed loop.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                            [--setup-only]

A single caller runs whole rounds of the workload's operations back to
back until ``--seconds`` of timed rounds have passed (at least one round),
each round pinned to the next of the CPUs the process may use.
Each round is timed alone; the outputs of a round are read back and
checked after its clock has stopped.  Untraced rounds also time the
workload's reference kernel (``reference.py``) between operations,
outside their clocks.  The last line of standard output is
one JSON object for ``run.py``.

With ``--setup-only`` the process stops right before the first timed call
and prints the ``time.monotonic()`` reading of that moment, from which
``run.py`` takes the set-up time of a fresh process.

With ``--trace 1`` rounds alternate between untraced and traced; the
per-layer metrics come from the traced rounds and the tracing overhead is
the difference of the two medians.
"""

import time

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile

_HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(_HERE)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t_import = time.perf_counter()
    import entroflow.cli  # noqa: F401  (numpy and every entroflow module)
    import_s = time.perf_counter() - t_import
    if args.workload in ("flows", "quadrature"):
        import scipy.integrate  # noqa: F401  (the checks' references)
    sys.path.insert(0, _HERE)
    import reference
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload["setup"](args.seed, "full")
    setup_done = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0

    tracer = None
    if args.trace:
        import spans as tracing
        tracer = tracing.Tracer()

    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    walls = {False: [], True: []}
    ops = []
    kernel_times = []
    ref = reference.Reference(args.workload)
    attempted = failed = 0
    failures = []
    refs = {}
    # Rounds rotate over the CPUs this process may use, and each
    # untraced round times the workload's reference kernel between its
    # operations on the same CPU (reference.py), by which run.py scales
    # the round's time.
    cpus = sorted(os.sched_getaffinity(0))
    with tempfile.TemporaryDirectory(dir=tmp_root) as out_root:
        timed = 0.0
        k = 0
        while k < (2 if tracer else 1) or timed < args.seconds:
            traced = bool(tracer) and k % 2 == 1
            slot = k // 2 if tracer else k
            os.sched_setaffinity(0, {cpus[slot % len(cpus)]})
            if traced:
                tracing.install(tracer)
            else:
                workloads.REFERENCE = ref
                first_ref = len(ref.samples)
            t0 = time.perf_counter()
            raw, op_times, n_failed = workload["run_round"](inputs, out_root)
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
                tracer.context.clear()
            else:
                workloads.REFERENCE = None
                wall -= sum(ref.samples[first_ref:])
                ref.sample()
                kernel_times.append(ref.samples[first_ref:])
            timed += wall
            walls[traced].append(wall)
            if not traced:
                ops.append(op_times)
            attempted += len(op_times)
            failed += n_failed
            for name, msg in workloads.round_failures(workload, inputs, raw, n_failed,
                                                      out_root, refs):
                failures.append({"round": k, "check": name, "message": msg})
            k += 1

    result = {
        "rounds": k,
        "walls": walls[False],
        "op_times": ops,
        "kernel_times": kernel_times,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        rounds_traced = len(walls[True])
        layers = tracing.layer_metrics(tracer, rounds_traced)
        layers["cli.setup_import_s"] = import_s
        layers["trace.overhead_s"] = (statistics.median(walls[True])
                                      - statistics.median(walls[False]))
        result["layers"] = layers
        result["trace_table"] = tracer.table()
        result["traced_walls"] = walls[True]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
