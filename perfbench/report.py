"""Steadiness report: every metric with its unit, over two sets of runs.

For each workload it runs perfbench/run.py on two disjoint sets of seeds
and prints, per end-to-end metric, the quartiles of each set, the spread
(q3 - q1) / median of each set, the shift of the second median against the
first, and the metric's bound from BENCHMARK.json.  The raw (unnormalised)
times sit beside the normalised ones, so the effect of the calibration shows.
With --trace-check it also makes two traced runs of one seed and checks that
their counters are identical and print the per-layer metrics.

Usage:
  python3 perfbench/report.py [--workloads tower,seal] [--runs 10] [--trace-check]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

RAW = {"solve_p50_ms": "p50_ms", "solve_tail_ms": "tail_ms", "throughput_ops_s": "throughput_ops_s", "setup_s": "setup_s"}


def run_once(workload, seed, seconds, traced):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(traced))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def counters(result):
    """The per-layer metrics that must repeat exactly: all but times."""
    return {k: m["value"] for k, m in result["metrics"].items()
            if not k.endswith(".self_ms") and not k.startswith("trace.")}


def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], q[1], q[2]


def show(name, unit, sets, bound=None):
    cells = []
    for values in sets:
        q1, med, q3 = quartiles(values)
        cells.append(f"{q1:11.4f} {med:11.4f} {q3:11.4f} {((q3 - q1) / med if med else 0):7.2%}")
    shift = ""
    if statistics.median(sets[0]):
        shift = f"{statistics.median(sets[1]) / statistics.median(sets[0]) - 1:+7.2%}"
    b = f"{bound:5.2f}" if bound is not None else "    -"
    print(f"  {name:26s} {unit:6s} " + " | ".join(cells) + f" | {shift:>7s} {b}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--trace-check", action="store_true")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    ok = True
    print("columns per set: q1 median q3 spread | second median vs first, bound")
    for workload in args.workloads.split(","):
        sets = [[run_once(workload, 1000 * s + i + 1, seconds, False) for i in range(args.runs)] for s in range(2)]
        print(f"{workload}: {len(sets[0][0][1]['metrics'])} metrics, {sets[0][0][1]['attempted']} requests per run")
        for name, m in sets[0][0][1]["metrics"].items():
            show(name, m["unit"], [[res["metrics"][name]["value"] for _, res in runs] for runs in sets], bounds.get(name))
            if name in RAW:
                show(f"  raw {RAW[name]}", m["unit"], [[rec["raw"][RAW[name]] for rec, _ in runs] for runs in sets])
        show("kernel iqr_share", "share", [[rec["kernel"]["iqr_share"] for rec, _ in runs] for runs in sets])
        failures = sorted({f["input"].split(":")[0] + " " + f["reason"][:60] for runs in sets for rec, _ in runs
                           for f in rec["failures"]})
        wrong = [res for runs in sets for _, res in runs if not res["correct"]]
        ok &= not wrong
        print(f"  correct in every run: {not wrong}; failing inputs seen: {len(failures)}")
        for f in failures[:12]:
            print(f"    {f}")
        if args.trace_check:
            (rec_a, res_a), (rec_b, res_b) = (run_once(workload, 1, seconds, True) for _ in range(2))
            same = counters(res_a) == counters(res_b)
            ok &= same and res_a["correct"] and res_b["correct"]
            print(f"  traced: counters identical over two runs: {same}; correct: {res_a['correct'] and res_b['correct']};"
                  f" dominant span {rec_a['dominant_span']}; bypass checks {rec_a['bypass_checks']}")
            for name, m in res_a["metrics"].items():
                print(f"    {name:40s} {m['value']:14.4f} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
