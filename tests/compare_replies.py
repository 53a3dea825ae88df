"""Compare the CLI replies of two checkouts of segtower, request by request.

For each workload and seed, the benchmark's request list
(perfbench/workloads.py of the checkout this script lives in) goes through
perfbench/client.py once per checkout, in a subprocess with PYTHONHASHSEED
set to the seed as perfbench/run.py sets it.  The "fixtures" list sends
every fixture to `kappa`, to `seal`, to `forests` (--method det and brute,
marked at its first mark and at its first two), to `invariants` (default,
--symbolic-only, --empirical-only) and to `verify` (A, partial and general
at n = 1 and 2, factorization) at p = 2, 3 and 5, and to `verify` A,
partial and general at p = 2, n = 4.  It also sends a tailed copy of each
fixture, a 3-vertex pendant path of voltages 1, -1 and 2 hung on its first
unmarked vertex, to the same `invariants` requests, and a copy whose every
edge voltage is shifted by 10^9 to `verify --theorem general` at n = 1 and
2, p = 2, 3 and 5.
Prints, per list, how many (exit code, stdout) pairs differ, and the name
and argv of the first three requests whose pairs differ.

  python tests/compare_replies.py OLD_CHECKOUT NEW_CHECKOUT --seeds 1 2 3 --seconds 2

Exits 0 whatever it finds: it reports, it does not gate.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("tower", "symbolic", "seal", "small")

# run in the child: argv is perfbench dir, checkout, workload, seed, seconds
CHILD = r"""
import json, os, sys
bench, checkout, workload, seed, seconds = sys.argv[1:]
sys.path.insert(0, bench)
import client, workloads
cli = client.load_cli(checkout)
cli.build_parser()
if workload == "fixtures":
    fixtures = os.path.join(os.path.dirname(bench), "fixtures")
    argvs = [["kappa"], ["seal"]]
    argvs += [["invariants", "--p", p, *mode] for mode in ([], ["--symbolic-only"], ["--empirical-only"]) for p in "235"]
    argvs += [["verify", "--theorem", t, "--p", p, "--n", n] for t in ("A", "partial", "general") for p in "235" for n in "12"]
    argvs += [["verify", "--theorem", "factorization", "--p", p] for p in "235"]
    argvs += [["verify", "--theorem", t, "--p", "2", "--n", "4"] for t in ("A", "partial", "general")]
    reqs = []
    for name in sorted(os.listdir(fixtures)):
        with open(os.path.join(fixtures, name)) as f:
            text = f.read()
        marks = [m["vertex"] for m in json.loads(text).get("ramified", [])]
        marked = [",".join(marks[:k]) for k in (1, 2) if len(marks) >= k]
        forests = [["forests", "--marked", m, "--method", method] for m in marked for method in ("det", "brute")]
        reqs += [workloads.Request(name, argv, None, stdin=text) for argv in argvs + forests]
        obj = json.loads(text)
        hook = next((v for v in obj["vertices"] if v not in marks), None)
        if hook is not None:
            path = [hook, "tail0", "tail1", "tail2"]
            obj["vertices"] += path[1:]
            obj["edges"] += [{"id": f"tail{i}", "from": u, "to": v, "voltage": a}
                             for i, (u, v, a) in enumerate(zip(path, path[1:], (1, -1, 2)))]
            reqs += [workloads.Request(name + " tailed", argv, None, stdin=json.dumps(obj)) for argv in argvs if argv[0] == "invariants"]
        obj = json.loads(text)
        for e in obj["edges"]:
            e["voltage"] = e.get("voltage", 0) + 10**9
        reqs += [workloads.Request(name + " shifted", argv, None, stdin=json.dumps(obj))
                 for argv in argvs if argv[:3] == ["verify", "--theorem", "general"] and argv[-1] in ("1", "2")]
else:
    for req in workloads.warmups(workload):
        client.call(cli, req)
    reqs = workloads.requests(workload, int(seed), int(seconds))
json.dump([[req.name, req.argv, *client.call(cli, req)[:2]] for req in reqs], sys.stdout)
"""


def replies(checkout, workload, seed, seconds):
    """[(request name, argv, (exit code, stdout))] of one list against one checkout."""
    env = {**os.environ, "PYTHONHASHSEED": str(seed % 2**32)}
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, "-c", CHILD, os.path.join(ROOT, "perfbench"), os.path.abspath(checkout),
                           workload, str(seed), str(seconds)], env=env, capture_output=True, text=True, check=True)
    return [(name, argv, (code, out)) for name, argv, code, out in json.loads(proc.stdout)]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--seconds", type=int, default=2)
    args = ap.parse_args()
    total = differ = 0
    for workload in (*WORKLOADS, "fixtures"):
        for seed in args.seeds if workload != "fixtures" else args.seeds[:1]:
            old, new = (replies(c, workload, seed, args.seconds) for c in (args.old, args.new))
            changed = [(name, argv) for (name, argv, a), (_, _, b) in zip(old, new) if a != b]
            n = len(changed) + abs(len(old) - len(new))
            total, differ = total + len(new), differ + n
            label = workload if workload == "fixtures" else f"{workload} seed {seed}"
            print(f"{label}: {n} of {len(new)} replies differ")
            for name, argv in changed[:3]:
                print(f"  {name}: {' '.join(argv)}")
    print(f"all: {differ} of {total} replies differ")


if __name__ == "__main__":
    main()
