"""entroflow benchmark: one workload, one run, one JSON line of metrics.

    python3 bench/run.py --workload flows|quadrature|ineq_sweep \\
                         --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from
``src/`` (nothing is installed).  Each workload runs in a fresh
single-threaded worker process (``worker.py``) driven as a closed loop by
one caller.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics of BENCHMARK.json.  Both times are in seconds of a host whose
reference kernel takes ``reference.NOMINAL_S`` (see ``reference.py``):

- ``setup_s``: process start to the first timed call, the median over
  ``SETUP_PROBES`` fresh set-up-only processes, pinned in turn to each
  CPU, half of them before the measuring process and half after it, of
  each probe's time scaled by a fresh interpreter that imports numpy,
  the faster of one run right before and one right after the probe;
- ``wall_s``: the time of one round of the workload's operations, the
  median over the run's rounds of each round's operation time scaled by
  the workload's kernel timed between its operations;
- ``peak_rss_mb``: ``ru_maxrss`` of the measuring process.

With ``--trace 1`` it holds the per-layer metrics of a traced run instead.
The result, with the raw times and the kernel samples, and the span table
of a traced run, are also written to ``.bench_out/``.  The exit code is 0
when every output checked correct.
"""

import argparse
import json
import os
import subprocess
import sys
import statistics
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import reference  # noqa: E402
SETUP_PROBES = 10
DEADLINE_S = 175.0


def _child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args, extra, timeout, cpu=None):
    """Run worker.py to completion, pinned to ``cpu`` if one is given;
    returns (start monotonic, parsed last line)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, text=True, preexec_fn=pin)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("worker exceeded the deadline")
    if proc.returncode != 0:
        raise SystemExit("worker exited %d" % proc.returncode)
    return start, json.loads(out.strip().splitlines()[-1])


def scaled_round(op_times, kernel_times, workload):
    """Median over rounds of each round's operation time, scaled by the
    workload's kernel timed between that round's operations."""
    nominal = reference.NOMINAL_S[workload]
    return statistics.median(sum(ops) * nominal / statistics.fmean(kern)
                             for ops, kern in zip(op_times, kernel_times))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_begin = time.monotonic()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error("unknown workload %r" % args.workload)
    if not os.path.isfile(os.path.join(ROOT, "src", "entroflow", "__init__.py")):
        sys.exit("no entroflow source under %s" % os.path.join(ROOT, "src"))

    # Set-up probes take turns on the CPUs this process may use, and half
    # of them run after the measuring process, half a minute later.  A
    # fresh interpreter importing numpy runs on the probe's CPU right
    # before and right after each probe, and the faster of the two is the
    # probe's reference: one run of 0.16 s now and then takes twice that.
    cpus = sorted(os.sched_getaffinity(0))
    env = _child_env()
    setups = []

    def probe_setup(probes):
        for k in probes:
            cpu = cpus[k % len(cpus)]
            os.sched_setaffinity(0, {cpu})
            before = reference.interpreter_seconds(env)
            start, probe = _worker(args, ["--setup-only"],
                                   DEADLINE_S - (time.monotonic() - t_begin), cpu)
            after = reference.interpreter_seconds(env)
            setups.append({"cpu": cpu, "seconds": probe["setup_done"] - start,
                           "kernel": [before, after]})
        os.sched_setaffinity(0, cpus)

    if not args.trace:
        probe_setup(range(SETUP_PROBES // 2))
    _, res = _worker(args, [], DEADLINE_S - (time.monotonic() - t_begin))
    if not args.trace:
        probe_setup(range(SETUP_PROBES // 2, SETUP_PROBES))

    if args.trace:
        values = res["layers"]
        wanted = spec["per_layer"]
    else:
        nominal = reference.NOMINAL_S["setup"]
        values = {"setup_s": statistics.median(
                      p["seconds"] * nominal / min(p["kernel"])
                      for p in setups),
                  "wall_s": scaled_round(res["op_times"], res["kernel_times"],
                                         args.workload),
                  "peak_rss_mb": res["peak_rss_mb"]}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    correct = not res["failures"] and res["rounds"] > 0
    result = {"correct": correct, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tag = "%s_seed%d_trace%d" % (args.workload, args.seed, args.trace)
    with open(os.path.join(out_dir, "result_%s.json" % tag), "w") as fh:
        json.dump(dict(result, rounds=res["rounds"], walls=res["walls"],
                       op_times=res["op_times"], setups=setups,
                       kernel_times=res["kernel_times"],
                       failures=res["failures"]), fh)
    if args.trace:
        with open(os.path.join(out_dir, "trace_%s.json" % tag), "w") as fh:
            json.dump(dict(res["trace_table"], traced_walls=res["traced_walls"],
                           untraced_walls=res["walls"]), fh, indent=1)
    for f in res["failures"]:
        print("check failed in round %(round)d: %(check)s: %(message)s" % f,
              file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
