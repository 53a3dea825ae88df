"""Compare the CLI replies of two checkouts of segtower, request by request.

For each workload and seed, the benchmark's request list
(perfbench/workloads.py of the checkout this script lives in) goes through
perfbench/client.py once per checkout, in a subprocess with PYTHONHASHSEED
set to the seed as perfbench/run.py sets it.  The "fixtures" list sends
every fixture to `kappa`, to `seal`, to `forests` (--method det and brute,
marked at its first mark and at its first two), to `invariants` (default,
--symbolic-only, --empirical-only) and to `verify` (A, partial and general
at n = 1 and 2, factorization) at p = 2, 3 and 5, and to `verify` A,
partial and general at p = 2, n = 4 and at p = 3, n = 3 (at p = 3, n = 3
and p = 5, n = 2 a later mark's one lift is by far the densest row of the
witness, the row cover.cover_laplacian deletes).  It also sends a tailed
copy of each fixture, a 3-vertex pendant path of voltages 1, -1 and 2 hung
on its first unmarked vertex, and a branched copy, a 5-vertex pendant
tree with two forks hung on its first mark, to the same `invariants`
requests, to `seal` and to `verify` A, partial and general at p = 2, n = 1
(graph.prune_tails takes both trees off); a copy with an isolated extra mark (a disconnected
X) to the same `invariants` requests; a copy with a star without marks
beside it (x-a, x-b, x-c in vertex order [a, b, c, x], which prune_tails
takes down to c) to `seal`, to `invariants` (default, --symbolic-only,
--empirical-only) at p = 2 and to `verify` A, partial and general at
p = 2, n = 1 and factorization at p = 2; and a copy whose every edge voltage is
shifted by 10^9 to `verify --theorem general` at n = 1 and 2, p = 2, 3
and 5.  Two more requests send `verify --theorem general --p 101 --n 1`
segments whose chains would pass the work limit, so that their counts come
from their lifts (cover.lift_laplacian): a 1-segment, and the 2-segment
that one more edge to a second mark makes of it.  The star alone goes to
the requests of the copies with a star.  The "grids" list sends
`invariants --symbolic-only` at p = 2 and 3 and `verify --theorem
factorization --p 3` to k x k grids, k = 6, 8 and 10, with two opposite
corners marked and voltages +-1 on 70% of the edges (perfbench's
workloads._graph) drawn with seeds 0-2: hi from 18 to 53, so up to four groups of
linalg.GROUP_WIDTH nodes, where no request of the benchmark's lists for
seeds 1 and 2 passes hi = 15, one group.  It sends the same requests to
5 x 5 and 8 x 8 grids whose every edge is doubled, each copy with its own
voltage drawn from -3..3 (seeds 0-2): their off-diagonal entries have up to
two terms and 24-31 distinct ones per block, where the grids above, with
single edges of voltage +-1, have one term each, and hi (37 to 139)
passes one group.
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
    argvs += [["verify", "--theorem", t, "--p", p, "--n", n] for t in ("A", "partial", "general") for p, n in (("2", "4"), ("3", "3"))]
    # a star without marks, x-a, x-b, x-c in vertex order [a, b, c, x]: graph.prune_tails
    # keeps c, where deleting the first deletable vertex each time would keep x
    star = {"vertices": ["star_a", "star_b", "star_c", "star_x"], "ramified": [],
            "edges": [{"id": f"star_x{v}", "from": "star_x", "to": f"star_{v}"} for v in "abc"]}
    starred = [argv for argv in argvs if argv == ["seal"] or argv[:3] == ["invariants", "--p", "2"] or argv[4:] in (["2", "--n", "1"], ["2"])]
    reqs = []
    for name in sorted(os.listdir(fixtures)):
        with open(os.path.join(fixtures, name)) as f:
            text = f.read()
        marks = [m["vertex"] for m in json.loads(text).get("ramified", [])]
        marked = [",".join(marks[:k]) for k in (1, 2) if len(marks) >= k]
        forests = [["forests", "--marked", m, "--method", method] for m in marked for method in ("det", "brute")]
        reqs += [workloads.Request(name, argv, None, stdin=text) for argv in argvs + forests]
        # pendant trees, (parent, child, voltage) over [hook, prefix0, prefix1, ...]:
        # a path on the first unmarked vertex and a branching tree on the first mark
        hook = next((v for v in json.loads(text)["vertices"] if v not in marks), None)
        for label, prefix, at, tree in [("tailed", "tail", hook, [(0, 1, 1), (1, 2, -1), (2, 3, 2)]),
                                        ("branched", "branch", marks[0] if marks else None,
                                         [(0, 1, 1), (1, 2, 0), (1, 3, -1), (3, 4, 2), (3, 5, 0)])]:
            if at is None:
                continue
            obj = json.loads(text)
            ends = [at] + [f"{prefix}{i}" for i in range(len(tree))]
            obj["vertices"] += ends[1:]
            obj["edges"] += [{"id": ends[b], "from": ends[a], "to": ends[b], "voltage": x} for a, b, x in tree]
            reqs += [workloads.Request(f"{name} {label}", argv, None, stdin=json.dumps(obj))
                     for argv in argvs if argv[0] in ("invariants", "seal") or argv[4:] == ["2", "--n", "1"]]
        obj = json.loads(text)
        for e in obj["edges"]:
            e["voltage"] = e.get("voltage", 0) + 10**9
        reqs += [workloads.Request(name + " shifted", argv, None, stdin=json.dumps(obj))
                 for argv in argvs if argv[:3] == ["verify", "--theorem", "general"] and argv[-1] in ("1", "2")]
        obj = json.loads(text)
        obj["vertices"].append("isolated")
        obj["ramified"].append({"vertex": "isolated"})
        reqs += [workloads.Request(name + " isolated", argv, None, stdin=json.dumps(obj)) for argv in argvs if argv[0] == "invariants"]
        obj = json.loads(text)
        obj["vertices"] += star["vertices"]
        obj["edges"] += star["edges"]
        reqs += [workloads.Request(name + " with a star", argv, None, stdin=json.dumps(obj)) for argv in starred]
    reqs += [workloads.Request("star", argv, None, stdin=json.dumps(star)) for argv in starred]
    lifted = {"vertices": ["m", "u0", "u1", "u2", "u3"], "ramified": [{"vertex": "m"}],
              "edges": [{"from": u, "to": v, "voltage": a} for u, v, a in [("m", "u0", 82), ("u0", "u1", 83), ("m", "u2", 58),
                        ("u0", "u3", 58), ("u1", "u3", 83), ("u1", "u2", 58), ("u2", "u1", 56)]]}
    general = ["verify", "--theorem", "general", "--p", "101", "--n", "1"]
    reqs.append(workloads.Request("lifted 1-segment", general, None, stdin=json.dumps(lifted)))
    lifted["vertices"].append("w")
    lifted["ramified"].append({"vertex": "w"})
    lifted["edges"].append({"from": "u3", "to": "w", "voltage": 1})
    reqs.append(workloads.Request("lifted 2-segment", general, None, stdin=json.dumps(lifted)))
elif workload == "grids":
    import random
    argvs = [["invariants", "--p", p, "--symbolic-only"] for p in "23"] + [["verify", "--theorem", "factorization", "--p", "3"]]
    reqs = []
    for k in (6, 8, 10):
        vs, es, ram = workloads.grid(k, k, [(0, 0), (k - 1, k - 1)])
        for s in range(3):
            g = workloads._graph(vs, es, dict.fromkeys(ram, 0), random.Random(s), volt=True)
            reqs += [workloads.Request(f"grid {k}x{k} seed {s}", argv, g) for argv in argvs]
    for k in (5, 8):  # every edge doubled, each copy with its own voltage in -3..3: entries of several terms
        vs, es, ram = workloads.grid(k, k, [(0, 0), (k - 1, k - 1)])
        for s in range(3):
            rng = random.Random(s)
            g = {"vertices": vs, "ramified": [{"vertex": v} for v in ram],
                 "edges": [{"from": u, "to": v, "voltage": rng.randint(-3, 3)} for u, v in es for _ in range(2)]}
            reqs += [workloads.Request(f"doubled grid {k}x{k} seed {s}", argv, g) for argv in argvs]
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
    for workload in (*WORKLOADS, "fixtures", "grids"):
        for seed in args.seeds if workload in WORKLOADS else args.seeds[:1]:
            old, new = (replies(c, workload, seed, args.seconds) for c in (args.old, args.new))
            changed = [(name, argv) for (name, argv, a), (_, _, b) in zip(old, new) if a != b]
            n = len(changed) + abs(len(old) - len(new))
            total, differ = total + len(new), differ + n
            label = f"{workload} seed {seed}" if workload in WORKLOADS else workload
            print(f"{label}: {n} of {len(new)} replies differ")
            for name, argv in changed[:3]:
                print(f"  {name}: {' '.join(argv)}")
    print(f"all: {differ} of {total} replies differ")


if __name__ == "__main__":
    main()
