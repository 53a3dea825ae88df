import io
import json
import math
import os
import random
import re
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import (
    UnionFind,
    admissible_sets_by_trees,
    all_fixture_names,
    dense,
    explicit_tower_kappas,
    fixture_path,
    forest_count_by_roots,
    grid_graph,
    interpolated_det_laurent,
    kappa_enumerate,
    load_fixture,
    ord_p_oracle,
    parallel_voltage_json,
    path_decompose,
    prune_tails_quadratic,
    run_limited,
    taylor_shift_oracle,
)
from segtower import cli, iwasawa, linalg
from segtower.cli import _dumps, _num, run
from segtower.forests import forest_count_bruteforce
from segtower.graph import GraphError, RamificationData, build_graph, graph_from_json, graph_to_json, laplacian
from segtower.iwasawa import DisconnectedCover, tower_kappas, tower_report
from segtower.linalg import LaurentPoly
from segtower.seal import DecompositionError


def with_pendant_path(name, hook, length, voltage=None):
    """A fixture's graph JSON with a path of length new vertices hung on
    hook, each of its edges of the given voltage."""
    graph = json.loads(Path(fixture_path(name)).read_text())
    path = [hook] + [f"t{i}" for i in range(length)]
    graph["vertices"] += path[1:]
    graph["edges"] += [{"id": f"te{i}", "from": u, "to": v, **({"voltage": voltage} if voltage else {})}
                       for i, (u, v) in enumerate(zip(path, path[1:]))]
    return graph


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def parse_decimal(s, chunk=4000):
    """int from a decimal string of any length, in chunks under the digit limit."""
    value = 0
    for i in range(0, len(s), chunk):
        piece = s[i : i + chunk]
        value = value * 10 ** len(piece) + int(piece)
    return value


class TestSeal:
    def test_three_segments(self, capsys):
        code, out = invoke(capsys, "seal", "--input", fixture_path("cycle5_ram245.json"))
        assert code == 0
        assert len(out["segments"]) == 3
        assert out["l"] == 3 and out["k_prime"] == 3

    def test_no_decomposition_exit_2(self, capsys):
        code, out = invoke(capsys, "seal", "--input", fixture_path("k5_ram245.json"))
        assert code == 2
        assert out["error"] == "no_decomposition"
        assert "witness" in out

    def test_witness_independent_of_hash_seed(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        outs = set()
        for seed in "0123":
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            argv = [sys.executable, "-m", "segtower.cli", "seal", "--input", fixture_path("k5_ram245.json")]
            done = subprocess.run(argv, env=env, capture_output=True, text=True)
            assert done.returncode == 2
            outs.add(done.stdout)
        assert len(outs) == 1
        assert json.loads(outs.pop())["witness"] == {"edge": "e12", "pairs": [["v2", "v4"], ["v2", "v5"]]}

    def test_witness_prints_ids_as_strings(self, capsys, monkeypatch):
        # with each id vN renamed to the integer N the witness pairs print
        # as strings, as the segments' endpoints do
        k5 = json.loads(Path(fixture_path("k5_ram245.json")).read_text())
        for n in range(1, 6):
            k5 = _renamed(k5, f"v{n}", n)
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(k5)))
        code, out = invoke(capsys, "seal")
        assert code == 2
        assert out["witness"] == {"edge": "e12", "pairs": [["2", "4"], ["2", "5"]]}

    def test_grid_past_the_path_cap(self, capsys, monkeypatch):
        g, r = grid_graph(6, 6)
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(graph_to_json(g, r))))
        code, out = invoke(capsys, "seal")
        assert code == 0
        assert out["k"] == out["k_prime"] == 1 and len(out["segments"][0]["edges"]) == 60

    def test_deterministic(self, capsys):
        _, first = invoke(capsys, "seal", "--input", fixture_path("doubled_cycle_pendant_triangle.json"))
        _, second = invoke(capsys, "seal", "--input", fixture_path("doubled_cycle_pendant_triangle.json"))
        assert first == second


class TestKappa:
    def test_cycle(self, capsys):
        code, out = invoke(capsys, "kappa", "--input", fixture_path("cycle5_ram45.json"))
        assert code == 0
        assert out["kappa"] == "5"

    def test_stdin(self, capsys, monkeypatch):
        with open(fixture_path("cycle5_ram45.json")) as fh:
            data = fh.read()
        monkeypatch.setattr(sys, "stdin", io.StringIO(data))
        code, out = invoke(capsys, "kappa")
        assert code == 0 and out["kappa"] == "5"


class TestForests:
    def test_det_and_brute(self, capsys):
        for method in ("det", "brute"):
            code, out = invoke(
                capsys, "forests", "--input", fixture_path("voltage_segment.json"),
                "--marked", "v1,v4", "--method", method,
            )
            assert code == 0
            assert out["forest_count"] == "5"
            assert out["t"] == 2

    def test_bad_marked(self, capsys):
        code, out = invoke(
            capsys, "forests", "--input", fixture_path("voltage_segment.json"), "--marked", "bogus"
        )
        assert code == 1
        assert out["error"] == "bad_input"

    @pytest.mark.parametrize("method", ["det", "brute"])
    @pytest.mark.parametrize("marked, count", [("1,3", "2"), ("3", "3"), ("a", "3")])
    def test_marked_by_id(self, capsys, monkeypatch, method, marked, count):
        # --marked names the graph's own ids, integers included
        graph = {"vertices": [1, 2, 3, "a"], "edges": [{"from": 1, "to": 2}, {"from": 2, "to": 3}, {"from": 3, "to": 1}, {"from": 3, "to": "a"}]}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(graph)))
        code, out = invoke(capsys, "forests", "--marked", marked, "--method", method)
        assert code == 0 and out["forest_count"] == count


class TestCover:
    def test_projection_block(self, capsys):
        code, out = invoke(
            capsys, "cover", "--input", fixture_path("cycle5_ram45.json"), "--p", "3", "--n", "1"
        )
        assert code == 0
        assert len(out["vertices"]) == 11
        assert len(out["edges"]) == 15
        assert out["connected"] is True
        assert out["projection"]["vertices"]["v1@0"] == "v1"
        assert out["projection"]["edges"]["c1@0"] == "c1"


class TestInvariants:
    def test_full_report(self, capsys):
        code, out = invoke(
            capsys, "invariants", "--input", fixture_path("cycle5_ram45.json"), "--p", "2", "--nmax", "3"
        )
        assert code == 0
        assert out["symbolic"] == {"mu": 2, "lambda": 1}
        assert out["empirical"] == {"mu": 2, "lambda": 1, "nu": -2}
        assert out["agreement"] is True
        assert out["levels"][0]["kappa"] == "5"

    def test_symbolic_only(self, capsys):
        code, out = invoke(
            capsys, "invariants", "--input", fixture_path("glued_voltage_triangles.json"),
            "--p", "3", "--symbolic-only",
        )
        assert code == 0
        assert out["symbolic"] == {"mu": 2, "lambda": 1}
        assert "levels" not in out

    def test_every_vertex_ramified(self, capsys, monkeypatch):
        # the unramified block is empty, so det M = 1 and the characteristic
        # element is T^3; every edge lifts to p^n parallel copies
        triangle = {
            "vertices": ["a", "b", "c"],
            "edges": [{"from": "a", "to": "b"}, {"from": "b", "to": "c"}, {"from": "c", "to": "a"}],
            "ramified": [{"vertex": v} for v in "abc"],
        }
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(triangle)))
        code, out = invoke(capsys, "invariants", "--p", "3")
        assert code == 0
        assert out["symbolic"] == {"mu": 0, "lambda": 2}
        assert out["empirical"] == {"mu": 0, "lambda": 2, "nu": 1}
        assert out["agreement"] is True
        assert [lv["kappa"] for lv in out["levels"]] == [str(3 ** (2 * n + 1)) for n in range(5)]

    def test_isolated_unmarked_vertex(self, capsys, monkeypatch):
        # c would give the block an empty row, so det M = 0; X is refused
        # as disconnected before any block
        graph = {
            "vertices": ["a", "b", "c"],
            "edges": [{"from": "a", "to": "b"}, {"from": "a", "to": "b"}],
            "ramified": [{"vertex": "a"}],
        }
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(graph)))
        assert invoke(capsys, "invariants", "--symbolic-only", "--p", "3") == (
            2, {"error": "hypothesis_violation", "reason": "cover at level 0 is disconnected"})

    @pytest.mark.parametrize("mode", [["--symbolic-only"], [], ["--empirical-only"]])
    def test_disconnected_graph_refused_in_every_mode(self, capsys, monkeypatch, mode):
        # a-b, c-d with marks a and c: det M = 1, and --symbolic-only once
        # answered mu 0 and lambda 1 where the other modes exit 2
        graph = {"vertices": list("abcd"), "edges": [{"from": "a", "to": "b"}, {"from": "c", "to": "d"}],
                 "ramified": [{"vertex": "a"}, {"vertex": "c"}]}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(graph)))
        assert invoke(capsys, "invariants", "--p", "3", *mode) == (
            2, {"error": "hypothesis_violation", "reason": "cover at level 0 is disconnected"})

    def test_counts_past_the_digit_limit(self, capsys):
        code, out = invoke(
            capsys, "invariants", "--input", fixture_path("three_segment.json"), "--p", "3", "--nmax", "8"
        )
        assert code == 0
        assert len(out["levels"][8]["kappa"]) > 4300
        g, r, volt = load_fixture("three_segment.json")
        assert parse_decimal(out["levels"][8]["kappa"]) == tower_kappas(g, r, volt, 3, 8)[8]["kappa"]
        assert out["empirical"] == {"mu": 1, "lambda": 1, "nu": 2}

    def test_edge_count_past_the_digit_limit(self, capsys, monkeypatch):
        # one edge with both ends marked: det M = 1, so the chain is free, and
        # level n has p^n edges, a JSON number of 4321 digits at n = 480.
        # Python 3.11 refuses to print it: the reply was cut off by a traceback
        edge = {"vertices": ["a", "b"], "edges": [{"from": "a", "to": "b"}], "ramified": [{"vertex": "a"}, {"vertex": "b"}]}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(edge)))
        code, out = invoke(capsys, "invariants", "--p", "1000000007", "--nmax", "480")
        if code == 0:  # no digit limit (Python 3.10)
            assert out["levels"][480]["edges"] == 1000000007**480
        else:
            assert code == 1 and out["error"] == "bad_input" and "digit limit" in out["reason"]


    @pytest.mark.parametrize("mode", [["--symbolic-only"], [], ["--empirical-only"]])
    def test_a_long_tail_costs_no_det_m_work(self, mode):
        # a 1600-vertex pendant path on voltage_triangle_a: det M of X with
        # its tails took 2.0 s of CPU, start-up included, in _max_assignment,
        # where the pruned X takes 0.13 s; --empirical-only built the tower's
        # block with its tails, 2.3 s (Python 3.11.7, 2-core x86 host)
        graph = with_pendant_path("voltage_triangle_a.json", "A", 1600, voltage=1)
        done = run_limited(["-m", "segtower.cli", "invariants", "--p", "3", *mode], timeout=30, cpu=1, stdin=json.dumps(graph))
        assert done.returncode == 0, done.stderr[-300:]
        out = json.loads(done.stdout)
        if "--empirical-only" not in mode:
            assert out["char_body"] == [3] and out["t_power"] == 2 and out["symbolic"] == {"mu": 1, "lambda": 1}
        if "--symbolic-only" not in mode:
            g, r, volt = load_fixture("voltage_triangle_a.json")  # tails lift to tails: kappa(X_n) is the same
            assert [lv["kappa"] for lv in out["levels"]] == [str(lv["kappa"]) for lv in tower_kappas(g, r, volt, 3, 4)]
            assert out["empirical"] == {"mu": 1, "lambda": 1, "nu": -1}

    @pytest.mark.parametrize("mode", [[], ["--empirical-only"]])
    def test_a_long_tail_under_partial_ramification(self, mode):
        # cycle5_partial with a 1600-vertex pendant path on v1: the level-1
        # block, of the depth-0 mark alone, was built with the tail, 2.3 s of
        # CPU by default and 4.7 s with --empirical-only, start-up included
        # (Python 3.11.7, 2-core x86 host)
        graph = with_pendant_path("cycle5_partial.json", "v1", 1600)
        done = run_limited(["-m", "segtower.cli", "invariants", "--p", "3", *mode], timeout=30, cpu=1, stdin=json.dumps(graph))
        assert done.returncode == 0, done.stderr[-300:]
        out = json.loads(done.stdout)
        g, r, _ = load_fixture("cycle5_partial.json")
        assert [lv["kappa"] for lv in out["levels"]] == [str(lv["kappa"]) for lv in tower_kappas(g, r, {}, 3, 5)]
        assert out["empirical"] == {"mu": 0, "lambda": 3, "nu": -3}

    @pytest.mark.parametrize("mode", [["--symbolic-only"], []])
    def test_a_long_path_segment(self, mode):
        # 1600 unramified vertices between two depth-0 marks, voltage 1 on
        # each edge: det M = 1601 with degree bound 0, but the bound's
        # assignment searched down the path from every row, 2.3 s of CPU,
        # start-up included (Python 3.11.7, 2-core x86 host)
        path = ["a"] + [f"t{i}" for i in range(1600)] + ["b"]
        graph = {"vertices": path, "edges": [{"from": u, "to": v, "voltage": 1} for u, v in zip(path, path[1:])],
                 "ramified": [{"vertex": "a"}, {"vertex": "b"}]}
        done = run_limited(["-m", "segtower.cli", "invariants", "--p", "3", *mode], timeout=30, cpu=1, stdin=json.dumps(graph))
        assert done.returncode == 0, done.stderr[-300:]
        out = json.loads(done.stdout)
        assert out["char_body"] == [1601] and out["t_power"] == 2 and out["symbolic"] == {"mu": 0, "lambda": 1}
        if not mode:  # theorem A: kappa(X_n) = kappa(X) * 3^n * F_2^(3^n - 1), kappa(X) = 1 and F_2 = 1601
            assert [lv["kappa"] for lv in out["levels"]] == [str(3**n * 1601 ** (3**n - 1)) for n in range(5)]

    def test_tower_past_the_digit_limit_refused_before_the_work(self):
        # level 20000 of one edge between two marks has 2^20000 edges, 6021
        # digits: the whole tower took 17 s of CPU before the reply could not
        # print it.  Level 3000 (904 digits) still answers
        edge = json.dumps({"vertices": ["a", "b"], "edges": [{"from": "a", "to": "b"}],
                           "ramified": [{"vertex": "a"}, {"vertex": "b"}]})
        argv = ["-m", "segtower.cli", "invariants", "--p", "2", "--empirical-only", "--nmax"]
        if sys.version_info >= (3, 11):  # Python 3.10 has no digit limit, and runs the tower
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            done = run_limited([*argv, "20000"], timeout=30, cpu=3, stdin=edge)
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            assert done.returncode == 1, done.stderr[-300:]
            out = json.loads(done.stdout)
            assert out["error"] == "bad_input" and out["reason"].startswith("level 20000 of the tower would have")
            assert after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime < 1
        done = run_limited([*argv, "3000"], timeout=30, cpu=3, stdin=edge)
        assert done.returncode == 0, done.stderr[-300:]
        assert json.loads(done.stdout)["levels"][3000]["edges"] == 2**3000

    @pytest.mark.parametrize("mode", [["--empirical-only"], [], ["--symbolic-only"]])
    def test_a_disconnected_x_is_refused_before_any_chain(self, mode):
        # v1 is isolated: --empirical-only ran every root-of-unity chain of the
        # tower before kappa(X) = 0 refused it, 16.5 s of CPU, where the other
        # modes took 0.00 s (char_element checks connectivity first)
        graph = {"vertices": ["v0", "v1", "v2", "v3", "v4", "v5"], "ramified": [{"vertex": "v1"}, {"vertex": "v2", "depth": 2}],
                 "edges": [{"from": u, "to": v, "voltage": a} for u, v, a in
                           [("v4", "v3", 1), ("v5", "v5", -1), ("v4", "v3", 2), ("v0", "v5", -1), ("v5", "v4", 2),
                            ("v3", "v4", 1), ("v0", "v2", 0), ("v4", "v4", 2)]]}
        done = run_limited(["-m", "segtower.cli", "invariants", "--p", "7", *mode], timeout=30, cpu=2, stdin=json.dumps(graph))
        assert done.returncode == 2, done.stderr[-300:]
        assert json.loads(done.stdout) == {"error": "hypothesis_violation", "reason": "cover at level 0 is disconnected"}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="Python 3.10 has no int-to-str digit limit")
def test_digit_limit_boundary():
    # 2^2126 has 640 digits and 2^2127 has 641: at the least limit Python
    # allows, the first is the last level that prints.  Limit 0 is no limit
    g, r = build_graph(["a", "b"], [("a", "b")]), RamificationData.totally_ramified(["a", "b"])
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        assert tower_report(g, r, {}, 2, 2126, symbolic=False)["levels"][-1]["edges"] == 2**2126
        with pytest.raises(GraphError, match="^level 2127 of the tower would have an edge or vertex count past"):
            tower_report(g, r, {}, 2, 2127, symbolic=False)
        sys.set_int_max_str_digits(0)
        assert tower_report(g, r, {}, 2, 2127, symbolic=False)["levels"][-1]["edges"] == 2**2127
    finally:
        sys.set_int_max_str_digits(limit)


def test_num_any_size():
    for x in [0, 7, -12345, 10**4299, 10**4300 - 1, 3**20000, -(7**9001), 10**9000, 2**60000 + 1]:
        s = _num(x)
        sign = -1 if s.startswith("-") else 1
        assert s.lstrip("-") == s.lstrip("-").lstrip("0") or s == "0"
        assert sign * parse_decimal(s.lstrip("-")) == x


def test_num_matches_str():
    # str is the oracle here, with Python 3.11's int-to-str digit limit
    # lifted for the test (3.10 has no limit)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        rng = random.Random(11)
        widths = [0, 1, 2, 63, 9_999, 10_000, 10_001, 20_001, 65_537, 300_000] + rng.sample(range(300_000), 3)
        for b in widths:
            for x in (2**b - 1, 2**b, rng.getrandbits(b)):
                s = str(x)
                assert _num(x) == s and _num(-x) == ("-" + s if x else s), b
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_num_within_budget():
    # 2^(7^7), 248 k digits.  Measured on a 2-core x86 host: 0.05 s by
    # binary halves joined in decimal, 0.8 s by decimal halves from divmod
    x = 2 ** (7**7)
    t0 = time.process_time()
    _num(x)
    assert time.process_time() - t0 < 0.5


class TestVerify:
    def test_theorem_A(self, capsys):
        code, out = invoke(
            capsys, "verify", "--theorem", "A", "--p", "3", "--n", "1",
            "--input", fixture_path("cycle5_ram45.json"),
        )
        assert code == 0
        assert out["ok"] is True
        assert out["lhs"] == out["rhs"] == "240"

    @pytest.mark.parametrize("theorem, p, n", [("A", 3, 5), ("general", 2, 7)])
    def test_large_cover_within_budget(self, capsys, theorem, p, n):
        # explicit covers of 731 and 386 vertices, whose Laplacian minors are
        # arrowheads: each mark touches every sheet.  Measured on a 2-core
        # x86 host: 0.13 s and 0.08 s in a minimum-degree order, 24.6 s and
        # 10.7 s in a reverse Cuthill-McKee band
        name = "cycle5_ram45.json"
        t0 = time.process_time()
        code, out = invoke(capsys, "verify", "--theorem", theorem, "--p", str(p), "--n", str(n), "--input", fixture_path(name))
        assert time.process_time() - t0 < 3.0
        assert code == 0 and out["ok"] is True
        # the block route builds no cover
        assert parse_decimal(out["lhs"]) == tower_kappas(*load_fixture(name), p, n)[n]["kappa"]

    def test_large_cover_memory(self, capsys):
        # the 731-vertex cover's Laplacian minor goes to det_int as sparse
        # rows: 1.40 MiB at the peak, where a dense N x N minor took 5.56 MiB
        argv = ["verify", "--theorem", "A", "--p", "3", "--n", "5", "--input", fixture_path("cycle5_ram45.json")]
        tracemalloc.start()
        try:
            code = run(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and json.loads(capsys.readouterr().out)["ok"] is True
        assert peak < 3 * 2**20

    @pytest.mark.parametrize(
        "theorem, p, n, name",
        [("A", 2, 40, "cycle5_ram45.json"), ("A", 5, 20, "cycle5_ram45.json"), ("partial", 2, 40, "cycle5_partial.json")],
    )
    def test_refuses_a_level_past_the_size_limit_at_once(self, theorem, p, n, name):
        # the right side, a power with exponent p^n, was computed before the
        # level-n cover was built: these ran until killed at 20-60 s.  In a
        # child process with a CPU budget, so that a hang fails the test
        argv = ["verify", "--theorem", theorem, "--p", str(p), "--n", str(n), "--input", fixture_path(name)]
        done = run_limited(["-m", "segtower.cli", *argv], timeout=20, cpu=5)
        assert done.returncode == 1, done.stderr[-300:]
        out = json.loads(done.stdout)
        assert out["error"] == "bad_input" and "past 2^11" in out["reason"]

    @pytest.mark.parametrize("theorem", ["A", "partial", "general"])
    @pytest.mark.parametrize("tail", [[], [{"from": "m", "to": "x"}, {"from": "x", "to": "y"}]])
    def test_a_level_with_no_edge_is_answered_at_once(self, theorem, tail):
        # one mark with no edge, or only a pendant tail, which the checks
        # prune: the cover's size stops growing, so no level is refused, and
        # no p^n is formed.  In a child process with a CPU budget: p^n at
        # n = 10^9 alone takes minutes
        graph = {"vertices": ["m", "x", "y"][: 1 + len(tail)], "edges": tail, "ramified": [{"vertex": "m"}]}
        argv = ["-m", "segtower.cli", "verify", "--theorem", theorem, "--p", "3", "--n", str(10**9)]
        done = run_limited(argv, timeout=30, cpu=2, stdin=json.dumps(graph))
        assert done.returncode == 0, done.stderr[-300:]
        detail = ({"admissible_sets": [[]], "segment_kappas": [], "segment_forests": []} if theorem == "general"
                  else {"n0": "0", "kappa_n0": "1", "l_n0": "1", "segment_counts": []})
        assert json.loads(done.stdout) == {"theorem": theorem, "ok": True, "lhs": "1", "rhs": "1", "detail": detail}

    @pytest.mark.parametrize("theorem", ["A", "partial"])
    def test_refuses_an_oversized_base_cover_before_any_count(self, theorem):
        # one mark m with 6000 triangles m-u_i0-u_i1-m: 6000 1-segments, and
        # X itself is past the size limit.  Counting the segments' forests
        # first, one scan of X per segment, took 9-11 s of CPU before the
        # refusal; the harness's one cover, at level n, comes first and takes
        # 0.4 s, start-up included (Python 3.11.7, 2-core x86 host)
        k = 6000
        triangles = [(("m", f"u{i}_0"), (f"u{i}_0", f"u{i}_1"), (f"u{i}_1", "m")) for i in range(k)]
        graph = {"vertices": ["m"] + [f"u{i}_{j}" for i in range(k) for j in (0, 1)],
                 "edges": [{"from": u, "to": v} for t in triangles for u, v in t], "ramified": [{"vertex": "m"}]}
        argv = ["-m", "segtower.cli", "verify", "--theorem", theorem, "--p", "2", "--n", "1"]
        done = run_limited(argv, timeout=30, cpu=3, stdin=json.dumps(graph))
        assert done.returncode == 1, done.stderr[-300:]
        out = json.loads(done.stdout)
        assert out["error"] == "bad_input"
        assert out["reason"].startswith("the level-1 cover would have at least 24001 vertices and 36000 edges, past 2^11")

    def test_hypothesis_violation_exit_2(self, capsys):
        code, out = invoke(
            capsys, "verify", "--theorem", "A", "--p", "3", "--n", "1",
            "--input", fixture_path("voltage_segment.json"),
        )
        assert code == 2
        assert out["error"] == "hypothesis_violation"

    def test_general(self, capsys):
        code, out = invoke(
            capsys, "verify", "--theorem", "general", "--p", "3", "--n", "1",
            "--input", fixture_path("voltage_segment.json"),
        )
        assert code == 0 and out["ok"] is True

    def test_factorization(self, capsys):
        code, out = invoke(
            capsys, "verify", "--theorem", "factorization", "--p", "3",
            "--input", fixture_path("glued_voltage_triangles.json"),
        )
        assert code == 0 and out["ok"] is True

    @pytest.mark.parametrize("theorem, harness", [
        ("A", "verify_theorem_A"), ("partial", "verify_partial_ramification"),
        ("general", "verify_general_case"), ("factorization", "verify_char_factorization"),
    ])
    def test_failed_identity_exit_2(self, capsys, monkeypatch, theorem, harness):
        """A verdict that is not ok is the whole reply, ints as decimal strings, with exit 2."""
        calls = []

        def refute(g, r, voltage, p, *n):
            calls.append((len(g.vertices), p, n))
            return iwasawa.Verdict(False, 10**5000, [7, -1], {"level": 2, "primes": {"p": 3}, "exact": True})

        monkeypatch.setattr(iwasawa, harness, refute)
        code, out = invoke(capsys, "verify", "--theorem", theorem, "--p", "3", "--n", "2",
                           "--input", fixture_path("voltage_segment.json"))
        assert code == 2
        assert out == {"theorem": theorem, "ok": False, "lhs": "1" + "0" * 5000, "rhs": ["7", "-1"],
                       "detail": {"level": "2", "primes": {"p": "3"}, "exact": True}}
        level = () if theorem == "factorization" else (2,)  # factorization takes no level
        assert calls == [(len(load_fixture("voltage_segment.json")[0].vertices), 3, level)]

    def test_A_is_partial_at_depth_zero(self, capsys, monkeypatch):
        checked = 0
        for name in all_fixture_names():
            _, r, _ = load_fixture(name)
            if any(r.depths.values()):
                continue
            for p in ("2", "3"):
                for n in ("1", "2"):
                    argv = ["--p", p, "--n", n, "--input", fixture_path(name)]
                    code_a, a = invoke(capsys, "verify", "--theorem", "A", *argv)
                    code_p, q = invoke(capsys, "verify", "--theorem", "partial", *argv)
                    assert code_a == code_p, (name, p, n)
                    keys = ("ok", "lhs", "rhs") if code_a == 0 else ("error",)
                    assert [a[k] for k in keys] == [q[k] for k in keys], (name, p, n)
                    checked += code_a == 0
        assert checked >= 20
        # with no mark, A still reports the missing decomposition
        g, _, _ = load_fixture("cycle5_ram45.json")
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(graph_to_json(g, RamificationData()))))
        code, out = invoke(capsys, "verify", "--theorem", "A", "--p", "2")
        assert code == 2 and out["error"] == "no_decomposition"


class TestFamily:
    def test_line(self, capsys):
        code, out = invoke(capsys, "family", "--variant", "line", "--params", "multiplicities=2+3")
        assert code == 0
        assert out["f2_closed_form"] == "5"
        assert len(out["edges"]) == 5

    def test_chorded(self, capsys):
        code, out = invoke(
            capsys, "family", "--variant", "chorded_cycle", "--params", "n=5,t=2,i=1,j=2"
        )
        assert code == 0
        assert out["f2_closed_form"] == "4"

    def test_bad_params(self, capsys):
        code, out = invoke(capsys, "family", "--variant", "chorded_cycle", "--params", "n=5")
        assert code == 1


class TestOneParser:
    def test_replies_match_fresh_processes(self, capsys):
        # one process reuses its argv table: argument errors in between and a
        # flag set by an earlier request must not change any later reply
        inp = fixture_path("cycle5_ram245.json")
        symbolic = ["invariants", "--input", inp, "--p", "3", "--nmax", "3", "--symbolic-only"]
        both = ["invariants", "--input", inp, "--p", "3", "--symbolic-only", "--empirical-only"]
        full = ["invariants", "--input", inp, "--p", "3", "--nmax", "3"]
        not_a_number = ["cover", "--input", inp, "--p", "two", "--n", "1"]
        forests = ["forests", "--input", inp, "--marked", "v2,v4"]
        sequence = [symbolic, both, full, not_a_number, forests, symbolic]
        replies = []
        for argv in sequence:
            code = run(list(argv))
            replies.append((code, capsys.readouterr().out))
        assert [code for code, _ in replies] == [0, 1, 0, 1, 0, 0]
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        for argv, reply in zip(sequence, replies):
            done = subprocess.run([sys.executable, "-m", "segtower.cli", *argv], env=env, capture_output=True, text=True)
            assert reply == (done.returncode, done.stdout), argv


class TestArgv:
    # argv behaviour the argparse parser had, kept by the table-driven one
    INPUT = ["--input", fixture_path("cycle5_ram245.json")]

    def test_equals_form(self, capsys):
        spaced = invoke(capsys, "invariants", *self.INPUT, "--p", "3", "--nmax", "2")
        assert spaced[0] == 0
        assert invoke(capsys, "invariants", "=".join(self.INPUT), "--p=3", "--nmax=2") == spaced

    def test_repeated_option_keeps_last(self, capsys):
        last = invoke(capsys, "invariants", *self.INPUT, "--p", "3", "--nmax", "2")
        assert invoke(capsys, "invariants", *self.INPUT, "--p", "2", "--nmax", "4", "--p", "3", "--nmax", "2") == last

    @pytest.mark.parametrize(
        "argv",
        [
            ["invariants", "--p", "3", "--sym"],  # argparse took prefixes of --symbolic-only
            ["invariants", "--p", "3", "--nmax"],
            ["cover", "--p", "2.5", "--n", "1"],
            ["forests", "--marked", "v2", "--method", "fast"],
            ["kappa", "stray"],
            ["invariants", "--p", "3", "--symbolic-only", "--empirical-only"],
        ],
    )
    def test_bad_arguments(self, capsys, argv):
        code, out = invoke(capsys, argv[0], *self.INPUT, *argv[1:])
        assert code == 1 and out["error"] == "bad_input"

    @pytest.mark.parametrize("mark, argv", [("-h", ["--marked", "-h"]), ("-h", ["--marked=-h"]),
                                            ("--help", ["--marked=--help"])])
    def test_help_as_a_value_is_a_value(self, mark, argv):
        # -h and --help mean help only in place of the subcommand or an option
        # name: here they name the mark, and forests counts the forests
        graph = {"vertices": [mark, "b"], "edges": [{"from": mark, "to": "b"}], "ramified": [{"vertex": mark}]}
        done = run_limited(["-m", "segtower.cli", "forests", *argv], timeout=30, cpu=2, stdin=json.dumps(graph))
        assert done.returncode == 0, done.stderr[-300:]
        assert json.loads(done.stdout) == {"forest_count": "1", "t": 1, "method": "determinant"}

    USAGE = ["usage: segtower seal [--input INPUT]",
             "usage: segtower kappa [--input INPUT]",
             "usage: segtower forests [--input INPUT] --marked MARKED [--method {det,brute}]",
             "usage: segtower cover [--input INPUT] --p P --n N",
             "usage: segtower invariants [--input INPUT] --p P [--nmax NMAX] [--symbolic-only] [--empirical-only]",
             "usage: segtower verify [--input INPUT] --theorem {A,partial,general,factorization} --p P [--n N]",
             "usage: segtower family --variant {line,modified_line,chorded_cycle,complete} [--params PARAMS]"]

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_text(self, capsys, flag):
        # the whole usage after the module docstring, or one subcommand's line,
        # also after its options and in place of a missing required one
        assert run([flag]) == 0
        assert capsys.readouterr().out == cli.__doc__ + "\n" + "".join(line + "\n" for line in self.USAGE)
        for argv in (["seal", flag], ["seal", "--input", "x.json", flag], ["forests", "--method", "brute", flag]):
            assert run(argv) == 0
            assert capsys.readouterr().out == next(line for line in self.USAGE if line.split()[2] == argv[0]) + "\n"

    @pytest.mark.parametrize("argv", [["-h"], ["invariants", "--help"]])
    def test_help(self, capsys, argv):
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert "usage" in out and "invariants" in out
        with pytest.raises(ValueError):
            json.loads(out)


_PATH3 = {"vertices": ["a", "b", "c"], "edges": [{"from": "a", "to": "b"}, {"from": "b", "to": "c"}]}
# a listed twice, at depths 0 and 2
_TWICE = {"vertices": ["a", "b"], "edges": [{"from": "a", "to": "b"}], "ramified": [{"vertex": "a"}, {"vertex": "a", "depth": 2}]}
# past forest_count_bruteforce's 20-edge cap


_CYCLE22 = {"vertices": [f"v{i}" for i in range(22)], "edges": [{"from": f"v{i}", "to": f"v{(i + 1) % 22}"} for i in range(22)]}


def _triangle(x):
    """A triangle on the ids x, "b" and "c", with x and "b" marked."""
    edges = [{"from": x, "to": "b"}, {"from": "b", "to": "c"}, {"from": "c", "to": x}]
    return {"vertices": [x, "b", "c"], "edges": edges, "ramified": [{"vertex": x}, {"vertex": "b"}]}


def _renamed(x, old, new):
    """x with every value old, at any depth, replaced by new."""
    if isinstance(x, dict):
        return {k: _renamed(v, old, new) for k, v in x.items()}
    if isinstance(x, list):
        return [_renamed(v, old, new) for v in x]
    return new if x == old else x


# k5_ram245 has no decomposition: its witness printed the mark v2, renamed
# to Infinity, as the bare word Infinity, which is not JSON
_K5_INFINITE_MARK = _renamed(json.loads(Path(fixture_path("k5_ram245.json")).read_text()), "v2", math.inf)


class TestErrors:
    def test_missing_file(self, capsys):
        code, out = invoke(capsys, "kappa", "--input", "/nonexistent.json")
        assert code == 1
        assert out["error"] == "bad_input"

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out = invoke(capsys, "kappa", "--input", str(bad))
        assert code == 1

    def test_duplicate_default_edge_id_is_named(self, capsys, monkeypatch):
        # the second edge's default id is e1, its position in "edges"
        graph = {"vertices": ["a", "b", "c"], "edges": [{"id": "e1", "from": "a", "to": "b"}, {"from": "b", "to": "c"}]}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(graph)))
        code, out = invoke(capsys, "seal")
        assert code == 1
        assert out == {"error": "bad_input", "reason": "duplicate edge id 'e1'"}

    def test_unreadable_json(self, capsys, tmp_path):
        # bytes that are not UTF-8, and nesting past the recursion limit
        for name, data in [("bytes.json", b"\xff\xfe{}"), ("deep.json", b"[" * 200_000)]:
            path = tmp_path / name
            path.write_bytes(data)
            code, out = invoke(capsys, "kappa", "--input", str(path))
            assert code == 1 and out["error"] == "bad_input" and out["reason"].startswith("cannot read graph: ")

    @pytest.mark.parametrize("argv", [["--input", ""], ["--input="]])
    def test_empty_input_path_is_no_stdin(self, capsys, monkeypatch, argv):
        # an empty --input, as from an unset shell variable, names no file: it
        # must not fall back to the graph on stdin
        with open(fixture_path("cycle5_ram45.json")) as fh:
            monkeypatch.setattr(sys, "stdin", io.StringIO(fh.read()))
        code, out = invoke(capsys, "kappa", *argv)
        assert code == 1 and out["error"] == "bad_input" and out["reason"].startswith("cannot read graph: ")

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_linalg_error_is_a_json_reply(self, capsys, monkeypatch):
        # with no primes to reduce by, the determinant kernel raises
        monkeypatch.setattr(linalg, "_primes", lambda: iter(()))
        code, out = invoke(capsys, "kappa", "--input", fixture_path("cycle5_ram45.json"))
        assert code == 1
        assert out == {"error": "internal_error", "reason": "the primes ran out before their product passed the bound"}

    def test_refuses_a_tower_that_cannot_finish(self):
        # in a child process with a time and an address-space limit, so that
        # a request that runs on fails the test instead of the suite
        argv = ["-m", "segtower.cli", "invariants", "--input", fixture_path("voltage_segment.json")]
        argv += ["--p", "1000000007"]
        done = run_limited(argv + ["--nmax", "2"], timeout=10, address_space=2**31)
        assert done.returncode == 1
        out = json.loads(done.stdout)
        assert out["error"] == "bad_input" and "level 1 " in out["reason"]
        done = run_limited(argv + ["--symbolic-only"], timeout=10, address_space=2**31)
        assert done.returncode == 0 and json.loads(done.stdout)["p"] == 1000000007

    def test_unit_det_tower_refused_quickly(self, capsys, monkeypatch):
        # det M = 1, so each level's chain works on 0-bit numbers; building
        # p^n at each level only to multiply that 0 took 23 s of CPU before
        # this refusal (Python 3.11, 2-core x86 host)
        edge = {"vertices": ["u", "v"], "edges": [{"from": "u", "to": "v"}], "ramified": [{"vertex": "v"}]}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(edge)))
        t0 = time.process_time()
        code, out = invoke(capsys, "invariants", "--empirical-only", "--nmax", "1000000000", "--p", "101")
        assert time.process_time() - t0 < 2.0
        assert code == 1 and out["error"] == "bad_input" and out["reason"].startswith("level 24770 of the tower ")

    def test_refuses_a_graph_too_large_to_build(self):
        # each request allocated past 1 GB, or ran for half a minute, before
        # build_cover and the family builders checked the size first
        inp = ["--input", fixture_path("cycle5_ram45.json")]
        for argv in (
            ["cover", "--p", "101", "--n", "3", *inp],
            ["verify", "--theorem", "A", "--p", "101", "--n", "2", *inp],
            ["verify", "--theorem", "A", "--p", "2", "--n", "8", *inp],
            ["family", "--variant", "complete", "--params", "n=100000"],
        ):
            done = run_limited(["-m", "segtower.cli", *argv], timeout=10, address_space=2**30)
            assert done.returncode == 1, (argv, done.stderr[-300:])
            out = json.loads(done.stdout)
            assert out["error"] == "bad_input" and "past 2^11" in out["reason"], argv

    @pytest.mark.parametrize(
        "argv, graph, reason",
        [
            # det M = 4 - g^A - g^-A: its degree bound 2A passes WORK_LIMIT.
            # Interpolated without the estimate, A = 1000 took 9.7 s on a
            # 2-core x86 host, and A = 10^6 did not end within a minute
            (["invariants", "--p", "2", "--symbolic-only"], parallel_voltage_json(10**6), "characteristic element: det M has degree up to 2000000;"),
            (["invariants", "--p", "2", "--symbolic-only"], parallel_voltage_json(10**30), f"characteristic element: det M has degree up to {2 * 10**30};"),
            (["invariants", "--p", "2", "--empirical-only", "--nmax", "1"], parallel_voltage_json(10**30), "level 1: det M has degree up to"),
            # a negative level is bad input for every subcommand that takes one
            (["invariants", "--p", "2", "--symbolic-only", "--nmax", "-1"], _PATH3, "--nmax must be a non-negative tower level, got -1"),
            (["verify", "--theorem", "partial", "--p", "2", "--n", "-1"], "cycle5_ram45.json", "--n must be a non-negative tower level, got -1"),
            (["verify", "--theorem", "A", "--p", "2", "--n", "-1"], "cycle5_ram45.json", "--n must be a non-negative tower level, got -1"),
            (["cover", "--p", "2", "--n", "-2"], "cycle5_ram45.json", "--n must be a non-negative tower level, got -2"),
        ],
    )
    def test_refused_before_any_work(self, argv, graph, reason):
        # in a child process with a CPU budget, so that a hang fails the test
        stdin = Path(fixture_path(graph)).read_text() if isinstance(graph, str) else json.dumps(graph)
        done = run_limited(["-m", "segtower.cli", *argv], timeout=20, cpu=5, stdin=stdin)
        assert done.returncode == 1, done.stderr[-300:]
        out = json.loads(done.stdout)
        assert out["error"] == "bad_input" and out["reason"].startswith(reason), out

    def test_nan_id_refused(self):
        # NaN != NaN, so a union-find never found the root of a NaN id: this
        # seal request ran on until killed.  In a child process with a CPU
        # budget, so that a hang fails the test instead of the suite
        done = run_limited(["-m", "segtower.cli", "seal"], timeout=20, cpu=5, stdin=json.dumps(_triangle(math.nan)))
        assert done.returncode == 1, done.stderr[-300:]
        assert json.loads(done.stdout) == {"error": "bad_input", "reason": "cannot read graph: NaN is not a finite number"}

    def test_large_voltage_of_small_degree_answered(self):
        # a triangle through the mark with one voltage of 10^30: det M = 3.
        # Each node listed the powers x^e for every e in [-10^30, 10^30]
        # and ran out of memory; now it raises x only to the exponents used
        graph = {
            "vertices": ["a", "b", "c"],
            "edges": [{"from": "a", "to": "b"}, {"from": "b", "to": "c", "voltage": 10**30}, {"from": "c", "to": "a"}],
            "ramified": [{"vertex": "a"}],
        }
        argv = ["-m", "segtower.cli", "invariants", "--p", "2", "--nmax", "3"]
        done = run_limited(argv, timeout=20, cpu=5, stdin=json.dumps(graph))
        assert done.returncode == 0, done.stderr[-300:]
        out = json.loads(done.stdout)
        assert out["char_body"] == [3] and out["symbolic"] == {"mu": 0, "lambda": 0}
        # 2^30 divides the voltage, so X_n is 2^n triangles through a
        assert [lv["kappa"] for lv in out["levels"]] == ["3", "9", "81", "6561"]

    @pytest.mark.parametrize(
        "argv, graph",
        [
            (["kappa"], {"vertices": [[1]], "edges": []}),
            (["kappa"], {"vertices": ["a"], "edges": [{"from": "a", "to": {"b": 1}}]}),
            (["seal"], {"vertices": ["a"], "edges": [], "ramified": [{"vertex": ["a"]}]}),
            (["kappa"], {"vertices": ["a", "b"], "edges": [{"from": "a", "to": "b", "voltage": "x"}]}),
            (["kappa"], {"vertices": ["a", "b"], "edges": [{"from": "a", "to": "b", "voltage": 1.7}]}),
            (["seal"], {"vertices": ["a", "b"], "edges": [{"from": "a", "to": "b"}], "ramified": [{"vertex": "a", "depth": "0"}]}),
            (["seal"], {"vertices": ["a", "b"], "edges": [{"from": "a", "to": "b"}], "ramified": [{"vertex": "z"}]}),
            (["kappa"], {"vertices": "ab", "edges": []}),
            (["cover", "--p", "4", "--n", "1"], None),
            (["invariants", "--p", "4"], None),
            (["verify", "--theorem", "A", "--p", "1", "--n", "1"], None),
            (["verify", "--theorem", "factorization", "--p", "-3"], None),
            (["invariants", "--p", "3", "--nmax", "-3"], None),
            (["seal", "--no-prune"], None),
            (["verify", "--theorem", "partial", "--p", "2", "--n", "2", "--n0", "0"], None),
            (["kappa", "--bogus"], None),
            (["cover", "--p", "two", "--n", "1"], None),
            ([], {"vertices": ["a"], "edges": []}),
            (["forests", "--marked", "zz", "--method", "brute"], _PATH3),
            (["forests", "--marked", "a,a", "--method", "brute"], _PATH3),
            (["forests", "--marked", "v0", "--method", "brute"], _CYCLE22),
            (["forests", "--marked", "4"], {"vertices": [1, 2, 3], "edges": [{"from": 1, "to": 2}]}),
            (["kappa"], {"vertices": [1, "1"], "edges": []}),
            (["kappa"], {"vertices": [], "edges": []}),
            (["invariants", "--p", "2"], _TWICE),
            # family reads no graph: a graph on stdin keeps --input off its argv
            (["family", "--variant", "line", "--params", "n=x"], {}),
            (["family", "--variant", "line", "--params", "multiplicities=a"], {}),
            (["family", "--variant", "line", "--params", "multiplicities="], {}),
            (["family", "--variant", "complete", "--params", "m=3"], {}),
            (["invariants", "--p", "3", "--symbolic-only"], {"vertices": [], "edges": []}),
            # a number that is not finite: json.dumps writes NaN and
            # Infinity, and the text 1e400 reads as inf
            (["kappa"], _triangle(math.nan)),
            (["seal"], _K5_INFINITE_MARK),
            (["forests", "--marked", "b", "--method", "brute"], _triangle(-math.inf)),
            pytest.param(["kappa"], '{"vertices": [1e400], "edges": []}', id="kappa-1e400-text"),
        ],
    )
    def test_bad_input_exits_1(self, capsys, monkeypatch, argv, graph):
        if graph is None:
            argv = argv + ["--input", fixture_path("cycle5_ram45.json")]
        else:  # a str is the text on stdin as it is
            monkeypatch.setattr(sys, "stdin", io.StringIO(graph if isinstance(graph, str) else json.dumps(graph)))
        code, out = invoke(capsys, *argv)
        assert code == 1
        assert out["error"] == "bad_input"


_scalars = (
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-2, 2) | st.sampled_from([math.nan, math.inf, -math.inf])
    | st.sampled_from(["a", "b", ""])
)
_json = st.recursive(
    _scalars,
    lambda c: st.lists(c, max_size=3) | st.dictionaries(st.sampled_from(["vertex", "depth", "from", "to", "voltage"]), c, max_size=3),
    max_leaves=8,
)
_ids = st.sampled_from(["a", "b", 0]) | _json
_graphs = st.fixed_dictionaries(
    {
        "vertices": st.lists(_ids, max_size=4) | _json,
        "edges": st.lists(
            st.fixed_dictionaries({"from": _ids, "to": _ids}, optional={"id": _json, "voltage": st.integers(-2, 2) | _json}),
            max_size=5,
        ) | _json,
    },
    optional={"ramified": st.lists(st.fixed_dictionaries({"vertex": _ids}, optional={"depth": _json}), max_size=3) | _json},
)


@given(
    st.one_of(_json, _graphs),
    st.sampled_from([
        ["seal"], ["kappa"], ["forests", "--marked", "a"], ["cover", "--p", "2", "--n", "1"],
        ["invariants", "--p", "2", "--nmax", "2"], ["verify", "--theorem", "general", "--p", "2", "--n", "1"],
    ]),
)
@settings(max_examples=300, deadline=None)
def test_any_json_gets_a_json_reply(obj, argv):
    code, reply = _request(argv, obj)
    assert code in (0, 1, 2) and isinstance(reply, dict)


def _not_json(word):
    raise ValueError(f"{word} is not standard JSON")


def _request(argv, obj=None):
    """(exit code, reply) of cli.run on argv, the graph JSON obj on stdin."""
    out = io.StringIO()
    stdin, stdout = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(json.dumps(obj)), out
    try:
        code = run(argv)
    finally:
        sys.stdin, sys.stdout = stdin, stdout
    return code, json.loads(out.getvalue(), parse_constant=_not_json)


_REPLY_ARGVS = [["seal"], ["kappa"], ["cover", "--p", "2", "--n", "1"], ["invariants", "--p", "2"]] + [
    ["verify", "--theorem", t, "--p", "2", "--n", "1"] for t in ("A", "partial", "general", "factorization")
]


@pytest.mark.parametrize("name", all_fixture_names())
def test_reply_bytes(capsys, name):
    # every reply, an error reply too, is its JSON at indent 2 and one newline
    for argv in _REPLY_ARGVS:
        run(argv + ["--input", fixture_path(name)])
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


_text = st.text() | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é", "\u2028", "\U0001f600", 'a"\\\n\té\U0001f600'])
_leaves = (
    st.none() | st.booleans() | st.integers() | st.integers(0, 4300).map(lambda d: 10**d - 1)  # up to 4300 digits
    | st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 1e300]) | _text
)
_trees = st.recursive(
    _leaves, lambda c: st.lists(c, max_size=4) | st.lists(c, max_size=4).map(tuple) | st.dictionaries(_text, c, max_size=4), max_leaves=24
)


@given(_trees, st.none() | st.integers(4301, 4400) | st.sampled_from([{1}, b"x", 1j]))
@settings(max_examples=300, deadline=None)
def test_dumps_is_json_at_indent_2(tree, refused):
    # json.dumps is the oracle, its error too: ValueError for an int past the
    # 4300-digit limit (drawn as its number of digits, so that no repr of it
    # is ever made), TypeError for a set, bytes or a complex number
    if isinstance(refused, int):
        refused = 10 ** (refused - 1)
    x = tree if refused is None else [tree, {"refused": refused}]
    try:
        expected = json.dumps(x, indent=2)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)):
            _dumps(x)
    else:
        assert _dumps(x) == expected


def test_dumps_takes_str_keys_only():
    with pytest.raises(TypeError):
        _dumps({"a": {1: "b"}})


@st.composite
def voltage_requests(draw):
    """(graph JSON, p): 1-5 vertices, most often joined by a random spanning
    tree, plus up to 4 edges that may be loops or parallel; voltages -2..2,
    often all 0; 0-4 marks of depth 0-2; p in {2, 3, 5}."""
    vs = [f"v{i}" for i in range(draw(st.integers(1, 5)))]
    ends = st.sampled_from(vs)
    pairs = [(vs[draw(st.integers(0, i - 1))], v) for i, v in enumerate(vs) if i] if draw(st.integers(0, 3)) else []
    pairs += draw(st.lists(st.tuples(ends, ends), max_size=4))
    voltages = [0] * len(pairs) if draw(st.integers(0, 2)) == 2 else draw(st.lists(st.integers(-2, 2), min_size=len(pairs), max_size=len(pairs)))
    marks = {} if draw(st.integers(0, 4)) == 4 else draw(st.dictionaries(ends, st.integers(0, 2), min_size=1, max_size=4))
    obj = {
        "vertices": vs,
        "edges": [{"id": f"e{i}", "from": u, "to": v, "voltage": a} for i, ((u, v), a) in enumerate(zip(pairs, voltages))],
        "ramified": [{"vertex": v, "depth": k} for v, k in marks.items()],
    }
    return obj, draw(st.sampled_from([2, 3, 5]))


_FAMILY_PARAMS = {
    "line": st.lists(st.integers(0, 3), min_size=1, max_size=3).map(lambda ns: "multiplicities=" + "+".join(map(str, ns))),
    "modified_line": st.tuples(*[st.integers(1, 7)] * 3).map(lambda x: "k={},n={},m={}".format(*x)),
    "chorded_cycle": st.tuples(*[st.integers(1, 6)] * 4).map(lambda x: "n={},t={},i={},j={}".format(*x)),
    "complete": st.integers(0, 6).map(lambda n: f"n={n}"),
}
_HYPOTHESIS_REASONS = (
    "characteristic body is zero (degenerate segment)",
    "no exact integer fit for the tower orders",
    "the product formula requires totally ramified vertices",
    "the partial-ramification formula requires trivial voltage",
    "unsupported: no totally ramified vertex (covers may disconnect)",
    "n must be at least n0",
    "the admissible-set formula requires totally ramified vertices",
)


def _ask(argv, obj):
    """(exit code, reply) of a request on a valid graph, its reply checked
    against the one documented for its exit code: 1 only for a limit, 2 for
    no decomposition, a violated hypothesis or a failed verify identity."""
    code, reply = _request(argv, obj)
    if code == 1:
        assert reply.keys() == {"error", "reason"} and reply["error"] == "bad_input" and "past 2^" in reply["reason"], reply
    elif code == 2 and "error" in reply:
        if reply["error"] == "no_decomposition":
            assert reply.keys() == {"error", "reason", "witness"}, reply
        else:
            assert reply.keys() == {"error", "reason"} and reply["error"] == "hypothesis_violation", reply
            assert reply["reason"] in _HYPOTHESIS_REASONS or re.fullmatch(r"cover at level \d+ is disconnected", reply["reason"])
    else:
        assert code in (0, 2), (code, reply)
    return code, reply


def _small_levels(g, r, voltage, p, top):
    """explicit_tower_kappas over the levels up to top whose covers have at
    most 64 vertices: the counts, or the DisconnectedCover of the first
    disconnected level."""
    small = max(k for k in range(top + 1) if p**k * len(g.vertices) <= 64 or k == 0)
    try:
        return explicit_tower_kappas(g, r, voltage, p, small)
    except DisconnectedCover as exc:
        return exc


# no explain phase: on a failure of this test, Hypothesis 6.155's explain
# phase fails an internal assertion and hides the falsifying example
@given(voltage_requests(), st.data())
@settings(max_examples=300, deadline=None, phases=[p for p in Phase if p is not Phase.explain])
def test_every_subcommand_against_the_oracles(request, data):
    # each subcommand through cli.run on one small voltage multigraph: every
    # exit code with its documented reply, every exit-0 number against a
    # test oracle.  The empirical fit is not judged: agreement and fit_stable
    # can be false on correct code (ROADMAP directions 2 and 3)
    obj, p = request
    g, r, voltage = graph_from_json(obj)
    ids = {str(v): v for v in g.vertices}

    # seal: a decomposition exactly where the path formulation finds one
    code, reply = _ask(["seal"], obj)
    try:
        d = path_decompose(prune_tails_quadratic(g, r), r)
    except DecompositionError as exc:
        assert (code, reply["reason"]) == (2, exc.reason)
        d, no_decomposition = None, exc.reason
    else:
        assert code == 0 and (reply["l"], reply["k"], reply["k_prime"]) == (d.l, d.k, d.k_prime)
        assert reply["segments"] == [
            {"color": s.color, "t": s.t, "endpoints": [str(v) for v in s.ramified], "edges": sorted(s.edge_ids),
             **({"loop": True} if s.is_loop else {})} for s in d.segments
        ]
        sets = [frozenset(s) for s in reply["admissible_sets"]]
        assert len(set(sets)) == len(sets) and set(sets) == admissible_sets_by_trees(d)

    count = kappa_enumerate(g)
    assert _ask(["kappa"], obj) == (0, {"kappa": str(count), "method": "determinant",
                                       **({} if count else {"diagnostic": "graph is disconnected"})})

    marked = data.draw(st.lists(st.sampled_from(sorted(ids)), min_size=1, max_size=2, unique=True))
    method = data.draw(st.sampled_from(["det", "brute"]))
    forests = (forest_count_bruteforce if method == "det" else forest_count_by_roots)(g, [ids[m] for m in marked])
    assert _ask(["forests", "--marked", ",".join(marked), "--method", method], obj) == (
        0, {"forest_count": str(forests), "t": len(marked), "method": {"det": "determinant", "brute": "enumeration"}[method]})

    # cover: fibres of p^min(n, k_v) vertices; edge (e, t) joins (u, t mod m_u) and (v, (t + a_e) mod m_v)
    n = data.draw(st.integers(0, 2))
    mods = {v: p ** min(n, r.depths.get(v, n)) for v in g.vertices}
    vertices = [f"{v}@{i}" for v in g.vertices for i in range(mods[v])]
    edges = [{"id": f"{e.id}@{t}", "from": f"{e.u}@{t % mods[e.u]}", "to": f"{e.v}@{(t + voltage.get(e.id, 0)) % mods[e.v]}"}
             for e in g.edges for t in range(p**n)]
    uf = UnionFind()
    for e in edges:
        uf.union(e["from"], e["to"])
    assert _ask(["cover", "--p", str(p), "--n", str(n)], obj) == (0, {
        "vertices": vertices,
        "edges": edges,
        "ramified": [{"vertex": f"{v}@{i}", "depth": max(k - n, 0)} for v, k in r.depths.items() for i in range(mods[v])],
        "projection": {"vertices": {w: w.rsplit("@", 1)[0] for w in vertices}, "edges": {e["id"]: e["id"].rsplit("@", 1)[0] for e in edges}},
        "connected": len({uf.find(w) for w in vertices}) == 1,
    })

    # invariants: a disconnected X refused by name in every mode, before any
    # block; else (mu, lambda) from det M by the oracles, refused exactly
    # when det M = 0, which the symbolic half reads first; the levels against
    # explicit covers as far as those are small, a disconnected one refused
    # by name
    mode = data.draw(st.sampled_from(["", "--symbolic-only", "--empirical-only"]))
    nmax = data.draw(st.integers(0, 2))
    code, reply = _ask(["invariants", "--p", str(p), "--nmax", str(nmax), *filter(None, [mode])], obj)
    det = None if mode == "--empirical-only" else interpolated_det_laurent(
        dense(laplacian(prune_tails_quadratic(g, r), r.depths, voltage), LaurentPoly()))
    levels = None if mode == "--symbolic-only" or det == 0 else _small_levels(
        g, r, voltage, p, max(nmax, max(r.depths.values(), default=0) + 2))
    if not g.connected():
        assert (code, reply["reason"]) == (2, "cover at level 0 is disconnected")
    elif det == 0:
        assert (code, reply["reason"]) == (2, _HYPOTHESIS_REASONS[0])
    elif isinstance(levels, DisconnectedCover):
        assert (code, reply["reason"]) == (2, f"cover at level {levels.level} is disconnected")
    elif code == 0:
        assert reply["p"] == p and ("symbolic" in reply) == (det is not None) and ("levels" in reply) == (levels is not None)
        if det is not None:
            orders = [ord_p_oracle(c, p) for c in taylor_shift_oracle(det)[0]]
            mu = min(v for v in orders if v is not None)
            assert reply["symbolic"] == {"mu": mu, "lambda": reply["t_power"] - 1 + orders.index(mu)}
        if levels is not None:
            assert reply["levels"][: len(levels)] == [{**lv, "kappa": str(lv["kappa"])} for lv in levels]
    else:  # past the levels the oracle builds: a disconnected level, or no exact fit (ROADMAP direction 3)
        level = re.fullmatch(r"cover at level (\d+) is disconnected", reply["reason"])
        assert code == 2 and levels is not None
        assert int(level[1]) >= len(levels) if level else reply["reason"] == _HYPOTHESIS_REASONS[1]

    # verify: ok exactly on exit 0, and the identities hold wherever their
    # hypotheses do; a left side is kappa(X_n)
    theorem = data.draw(st.sampled_from(["A", "partial", "general", "factorization"]))
    n = data.draw(st.integers(0, 2))
    code, reply = _ask(["verify", "--theorem", theorem, "--p", str(p), "--n", str(n)], obj)
    if "theorem" in reply:
        assert reply["theorem"] == theorem and reply["ok"] == (code == 0) and reply["ok"], reply
        if theorem != "factorization" and not isinstance(levels := _small_levels(g, r, voltage, p, n), DisconnectedCover) and len(levels) > n:
            assert reply["lhs"] == str(levels[n]["kappa"])
    elif reply["error"] == "no_decomposition":
        assert d is None and reply["reason"] == no_decomposition

    variant = data.draw(st.sampled_from(sorted(_FAMILY_PARAMS)))
    code, reply = _request(["family", "--variant", variant, "--params", data.draw(_FAMILY_PARAMS[variant])])
    if code == 0:
        fg, fr, _ = graph_from_json(reply)
        assert len(fr.depths) == 2
        assert reply == {**graph_to_json(fg, fr), "f2_closed_form": str(forest_count_by_roots(fg, list(fr.depths)))}
    else:
        assert code == 1 and reply.keys() == {"error", "reason"} and reply["error"] == "bad_input"
