"""Compare the CLI replies of two checkouts of segtower, request by request.

For each workload and seed, the benchmark's request list
(perfbench/workloads.py of the checkout this script lives in) goes through
perfbench/client.py once per checkout, in a subprocess with PYTHONHASHSEED
set to the seed as perfbench/run.py sets it.  The "fixtures" list sends
every fixture to `invariants` (default, --symbolic-only, --empirical-only)
and to `verify` (A and partial at n = 1, factorization) at p = 2, 3 and 5.
Prints, per list, how many (exit code, stdout) pairs differ.

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
    argvs = [["invariants", "--p", p, *mode] for mode in ([], ["--symbolic-only"], ["--empirical-only"]) for p in "235"]
    argvs += [["verify", "--theorem", t, "--p", p, *(["--n", "1"] if t != "factorization" else [])]
              for t in ("A", "partial", "factorization") for p in "235"]
    reqs = []
    for name in sorted(os.listdir(fixtures)):
        with open(os.path.join(fixtures, name)) as f:
            text = f.read()
        reqs += [workloads.Request(name, argv, None, stdin=text) for argv in argvs]
else:
    for req in workloads.warmups(workload):
        client.call(cli, req)
    reqs = workloads.requests(workload, int(seed), int(seconds))
json.dump([client.call(cli, req)[:2] for req in reqs], sys.stdout)
"""


def replies(checkout, workload, seed, seconds):
    """[(exit code, stdout)] of one list against one checkout."""
    env = {**os.environ, "PYTHONHASHSEED": str(seed % 2**32)}
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, "-c", CHILD, os.path.join(ROOT, "perfbench"), os.path.abspath(checkout),
                           workload, str(seed), str(seconds)], env=env, capture_output=True, text=True, check=True)
    return [tuple(x) for x in json.loads(proc.stdout)]


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
            n = sum(a != b for a, b in zip(old, new)) + abs(len(old) - len(new))
            total, differ = total + len(new), differ + n
            label = workload if workload == "fixtures" else f"{workload} seed {seed}"
            print(f"{label}: {n} of {len(new)} replies differ")
    print(f"all: {differ} of {total} replies differ")


if __name__ == "__main__":
    main()
