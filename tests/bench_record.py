"""Record one change's benchmark runs against its parent in BENCH_<PR>.json.

For each workload of BENCHMARK.json and each seed, perfbench/run.py runs
`--workload W --seed S --seconds <run_seconds> --trace 0` once on the
parent commit (exported by `git archive` into a temporary directory) and
once on the checkout this script lives in, the parent first in even pairs
and second in odd ones.  The file, written at the checkout's root, holds
the PR number, the parent commit, the Python version, the CPU count and
the seeds, and per workload: each side's result lines (run.py's last
line) in seed order, the median of each end-to-end metric of
BENCHMARK.json on each side, and per metric the number of pairs the child
won (by the metric's "better" direction; a tie counts for neither).

  python tests/bench_record.py 46 HEAD --seeds 31 32 33 34 35

The child is the working tree, so run it before committing the change.
It records, it does not gate; tests/test_bench_files.py checks the shape
of every committed BENCH file with problems() below.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KEYS = {"pr", "parent", "python", "cpus", "seeds", "workloads"}
SIDES = ("parent", "child")


def benchmark():
    """(workload names, {end-to-end metric: "higher" or "lower"}, run seconds) of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        b = json.load(f)
    return [w["name"] for w in b["workloads"]], {m["name"]: m["better"] for m in b["end_to_end"]}, b["run_seconds"]


def run(checkout, workload, seed, seconds):
    """run.py's result line (its last) for one workload and seed on one checkout."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    argv = [sys.executable, os.path.join(checkout, "perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def summary(lines, better):
    """{"parent": [...], "child": [...], "median": {side: {metric: value}},
    "child_wins": {metric: pairs}} of the paired result lines of one workload."""
    value = {side: {m: [line["metrics"][m]["value"] for line in lines[side]] for m in better} for side in SIDES}
    wins = {}
    for m, way in better.items():
        sign = 1 if way == "higher" else -1
        wins[m] = sum(sign * (c - p) > 0 for p, c in zip(value["parent"][m], value["child"][m]))
    return {**lines, "median": {side: {m: statistics.median(v) for m, v in value[side].items()} for side in SIDES},
            "child_wins": wins}


def problems(obj):
    """What makes obj no BENCH file: missing or extra keys, other workloads
    than BENCHMARK.json's, a side without one result line per seed, or a
    metric value that is not a finite number.  [] for a well-formed file."""
    workloads, better, _ = benchmark()
    number = lambda x: isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    if not isinstance(obj, dict) or set(obj) != KEYS:
        return [f"top-level keys are not {sorted(KEYS)}"]
    bad = []
    if not (isinstance(obj["pr"], int) and isinstance(obj["cpus"], int) and isinstance(obj["parent"], str)
            and isinstance(obj["python"], str)):
        bad.append("pr and cpus must be integers, parent and python strings")
    seeds = obj["seeds"]
    if not (isinstance(seeds, list) and seeds and all(isinstance(s, int) for s in seeds)):
        return bad + ["seeds must be a non-empty list of integers"]
    if not isinstance(obj["workloads"], dict) or sorted(obj["workloads"]) != sorted(workloads):
        return bad + [f"workloads are not exactly {workloads}"]
    for name, w in obj["workloads"].items():
        if not isinstance(w, dict) or set(w) != {*SIDES, "median", "child_wins"}:
            bad.append(f"{name}: keys are not parent, child, median, child_wins")
            continue
        for side in SIDES:
            lines = w[side]
            if not isinstance(lines, list) or len(lines) != len(seeds):
                bad.append(f"{name}: {side} has not one result line per seed")
                continue
            for i, line in enumerate(lines):
                metrics = line.get("metrics") if isinstance(line, dict) else None
                if not isinstance(metrics, dict) or not all(
                        isinstance(metrics.get(m), dict) and number(metrics[m].get("value")) for m in better):
                    bad.append(f"{name}: {side} line {i} lacks a numeric value of every metric")
            median = w["median"].get(side) if isinstance(w["median"], dict) else None
            if not isinstance(median, dict) or set(median) != set(better) or not all(map(number, median.values())):
                bad.append(f"{name}: median of {side} is not one number per metric")
        wins = w["child_wins"]
        if not isinstance(wins, dict) or set(wins) != set(better) or not all(
                isinstance(n, int) and not isinstance(n, bool) and 0 <= n <= len(seeds) for n in wins.values()):
            bad.append(f"{name}: child_wins is not a count of pairs per metric")
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("pr", type=int)
    ap.add_argument("parent", help="the parent commit, as git names it")
    ap.add_argument("--seeds", type=int, nargs="+", default=[31, 32, 33, 34, 35])
    args = ap.parse_args()
    workloads, better, seconds = benchmark()
    commit = subprocess.run(["git", "-C", ROOT, "rev-parse", args.parent], capture_output=True, text=True,
                            check=True).stdout.strip()
    out = {"pr": args.pr, "parent": commit, "python": platform.python_version(), "cpus": os.cpu_count(),
           "seeds": args.seeds, "workloads": {}}
    with tempfile.TemporaryDirectory() as parent:
        archive = subprocess.run(["git", "-C", ROOT, "archive", commit], capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", parent], input=archive, check=True)
        for workload in workloads:
            lines = {side: [] for side in SIDES}
            for i, seed in enumerate(args.seeds):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    lines[side].append(run(parent if side == "parent" else ROOT, workload, seed, seconds))
            out["workloads"][workload] = summary(lines, better)
            print(workload, json.dumps(out["workloads"][workload]["median"]), "child wins",
                  json.dumps(out["workloads"][workload]["child_wins"]), flush=True)
    bad = problems(out)
    if bad:
        sys.exit("bench_record: " + "; ".join(bad))
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
