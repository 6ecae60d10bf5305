"""Run-to-run spread of the end-to-end metrics, from which the bounds are set.

    python3 bench/spread.py --label A [--first-seed 100]
    python3 bench/spread.py --compare A B

The first form runs ``run.py`` ``RUNS`` times on every workload, each
time with another seed, and prints per (workload, metric) the median, the
quartiles of ``statistics.quantiles(values, n=4)`` and their distance as a
share of the median, next to the metric's bound.  Results go to
``.bench_out/spread_<label>.json``.  The second form compares the medians
of two such sets against the bounds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
RUNS = 10


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _path(label):
    return os.path.join(OUT, "spread_%s.json" % label)


def collect(label, first_seed):
    spec = _spec()
    data = {}
    for w in spec["workloads"]:
        rows = []
        for k in range(RUNS):
            seed = first_seed + k
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w["name"],
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            rows.append(res)
            print(w["name"], seed, json.dumps(res), flush=True)
        data[w["name"]] = rows
    os.makedirs(OUT, exist_ok=True)
    with open(_path(label), "w") as fh:
        json.dump(data, fh, indent=1)
    report(data, spec)


def summarize(rows, name):
    values = [r["metrics"][name]["value"] for r in rows]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def report(data, spec):
    print("%-11s %-12s %10s %10s %10s %7s %6s %s" % (
        "workload", "metric", "q1", "median", "q3", "spread", "bound", "failed/attempted"))
    for wname, rows in data.items():
        fails = sorted({"%d/%d" % (r["failed"], r["attempted"]) for r in rows})
        for m in spec["end_to_end"]:
            s = summarize(rows, m["name"])
            print("%-11s %-12s %10.4f %10.4f %10.4f %7.3f %6.2f %s" % (
                wname, m["name"], s["q1"], s["median"], s["q3"], s["spread"],
                m["bound"], " ".join(fails)))
        if not all(r["correct"] for r in rows):
            print("%s: a run reported incorrect outputs" % wname)


def compare(label_a, label_b):
    spec = _spec()
    with open(_path(label_a)) as fh:
        a = json.load(fh)
    with open(_path(label_b)) as fh:
        b = json.load(fh)
    print("%-11s %-12s %10s %10s %8s %6s" % ("workload", "metric", label_a, label_b,
                                            "change", "bound"))
    for wname in a:
        for m in spec["end_to_end"]:
            ma = summarize(a[wname], m["name"])["median"]
            mb = summarize(b[wname], m["name"])["median"]
            print("%-11s %-12s %10.4f %10.4f %+8.3f %6.2f" % (
                wname, m["name"], ma, mb, (mb - ma) / ma, m["bound"]))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--label")
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--compare", nargs=2)
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
    elif args.label:
        collect(args.label, args.first_seed)
    else:
        parser.error("give --label or --compare")


if __name__ == "__main__":
    main()
