"""JSON command-line front end.

Reads the shared graph JSON format from --input (or standard input) and
prints deterministic JSON to standard output.  All potentially large counts
are emitted as decimal strings.

Exit codes: 0 success; 2 no decomposition / theorem hypothesis violated;
1 malformed input or bad arguments ("bad_input"), or an exact-arithmetic
check that failed inside the library ("internal_error").
"""

from __future__ import annotations

import argparse
import contextlib
import decimal
import json
import sys

from . import families, iwasawa
from .cover import build_cover, check_prime
from .forests import forest_count_bruteforce, forest_count_det, kappa
from .graph import GraphError, graph_from_json, graph_to_json
from .linalg import LinalgError
from .seal import DecompositionError, admissible_sets, decompose


def _num(x):
    """Decimal string of any int, past Python 3.11's int-to-str digit limit
    and in subquadratic time: x split at 2^h into binary halves, converted
    to Decimal and joined with decimal's fast multiplication."""
    if x.bit_length() <= 10_000:
        return str(x)
    if x < 0:
        return "-" + _num(-x)
    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])
    powers = {}  # h -> 2^h as a Decimal

    def convert(y, bits):  # y < 2^bits
        if bits <= 10_000:
            return decimal.Decimal(y)
        h = bits // 2
        if h not in powers:
            powers[h] = exact.power(2, h)
        return exact.add(exact.multiply(convert(y >> h, bits - h), powers[h]), convert(y & ((1 << h) - 1), h))

    return str(convert(x, x.bit_length()))


def _read_graph(args):
    try:
        with open(args.input) if args.input else contextlib.nullcontext(sys.stdin) as fh:
            obj = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: JSONDecodeError, UnicodeDecodeError
        raise GraphError(f"cannot read graph: {exc}") from None
    return graph_from_json(obj)


def _emit(obj):
    try:  # the whole reply or none of it
        text = json.dumps(obj, indent=2)
    except ValueError:  # a JSON number past Python 3.11's digit limit, such as a level's edge count
        raise GraphError("the reply holds a number past Python's int-to-str digit limit") from None
    sys.stdout.write(text + "\n")


def cmd_seal(args):
    g, r, _ = _read_graph(args)
    d = decompose(g, r)
    _emit(
        {
            "segments": [
                {
                    "color": s.color,
                    "t": s.t,
                    "endpoints": [str(v) for v in s.ramified],
                    "edges": sorted(s.edge_ids),
                    **({"loop": True} if s.is_loop else {}),
                }
                for s in d.segments
            ],
            "l": d.l,
            "k": d.k,
            "k_prime": d.k_prime,
            "admissible_sets": [sorted(I) for I in admissible_sets(d)],
        }
    )
    return 0


def cmd_kappa(args):
    g, _, _ = _read_graph(args)
    count = kappa(g)  # 0 exactly when g is disconnected
    _emit({"kappa": _num(count), "method": "determinant", **({} if count else {"diagnostic": "graph is disconnected"})})
    return 0


def cmd_forests(args):
    g, _, _ = _read_graph(args)
    ids = {str(v): v for v in g.vertices}  # distinct: graph_from_json checks
    marked = [ids.get(m, m) for m in args.marked.split(",") if m]
    if args.method == "brute":
        count, method = forest_count_bruteforce(g, marked), "enumeration"
    else:
        count, method = forest_count_det(g, marked), "determinant"
    _emit({"forest_count": _num(count), "t": len(marked), "method": method})
    return 0


def cmd_cover(args):
    g, r, voltage = _read_graph(args)
    c = build_cover(g, r, voltage, args.p, args.n)

    def vid(v):
        return f"{v[0]}@{v[1]}"

    _emit(
        {
            "vertices": [vid(v) for v in c.graph.vertices],
            "edges": [{"id": e.id, "from": vid(e.u), "to": vid(e.v)} for e in c.graph.edges],
            "ramified": [{"vertex": vid(v), "depth": k} for v, k in c.ram.depths.items()],
            "projection": {
                "vertices": {vid(v): str(v[0]) for v in c.graph.vertices},
                "edges": dict(c.edge_projection),
            },
            "connected": c.graph.connected(),
        }
    )
    return 0


def cmd_invariants(args):
    g, r, voltage = _read_graph(args)
    report = iwasawa.tower_report(
        g,
        r,
        voltage,
        args.p,
        n_max=args.nmax,
        empirical=not args.symbolic_only,
        symbolic=not args.empirical_only,
    )
    if "levels" in report:
        for lv in report["levels"]:
            lv["kappa"] = _num(lv["kappa"])
    _emit(report)
    return 0


def cmd_verify(args):
    g, r, voltage = _read_graph(args)
    if args.theorem == "factorization":
        v = iwasawa.verify_char_factorization(g, r, voltage, args.p)
    else:
        harness = {"A": iwasawa.verify_theorem_A, "partial": iwasawa.verify_partial_ramification,
                   "general": iwasawa.verify_general_case}[args.theorem]
        v = harness(g, r, voltage, args.p, args.n)

    def conv(x):
        if isinstance(x, dict):
            return {k: conv(val) for k, val in x.items()}
        if isinstance(x, list):
            return [conv(val) for val in x]
        if isinstance(x, int) and not isinstance(x, bool):
            return _num(x)
        return x

    _emit({"theorem": args.theorem, "ok": v.ok, "lhs": conv(v.lhs), "rhs": conv(v.rhs), "detail": conv(v.detail)})
    return 0 if v.ok else 2


def cmd_family(args):
    params = {}
    for kv in (args.params or "").split(","):
        if not kv:
            continue
        if "=" not in kv:
            raise GraphError(f"bad --params entry {kv!r}, expected key=value")
        k, val = kv.split("=", 1)
        try:
            params[k] = [int(x) for x in val.split("+")] if k == "multiplicities" else int(val)
        except ValueError:
            raise GraphError(f"bad --params entry {kv!r}, expected integer values") from None
    g, r = families.make_family(args.variant, **params)
    f2 = families.f2_closed_form(args.variant, **params)
    out = graph_to_json(g, r)
    out["f2_closed_form"] = _num(f2)
    _emit(out)
    return 0


class _Parser(argparse.ArgumentParser):  # the subparsers share the class
    def error(self, message):  # argument errors get a JSON bad_input reply
        raise GraphError(message)


def build_parser():
    ap = _Parser(prog="segtower", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        sp.add_argument("--input", help="graph JSON file (default: standard input)")
        return sp

    add("seal", cmd_seal, help="segment decomposition")

    add("kappa", cmd_kappa, help="spanning tree count")

    sp = add("forests", cmd_forests, help="segmental spanning forest count")
    sp.add_argument("--marked", required=True, help="comma-separated marked vertices (1 or 2)")
    sp.add_argument("--method", choices=["det", "brute"], default="det")

    sp = add("cover", cmd_cover, help="build the level-n derived cover")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)

    sp = add("invariants", cmd_invariants, help="tower report with mu/lambda/nu")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--nmax", type=int)
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--symbolic-only", action="store_true")
    group.add_argument("--empirical-only", action="store_true")

    sp = add("verify", cmd_verify, help="check a counting identity on a built cover")
    sp.add_argument("--theorem", choices=["A", "partial", "general", "factorization"], required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, default=1)

    sp = sub.add_parser("family", help="generate an example family graph")
    sp.set_defaults(fn=cmd_family)
    sp.add_argument("--variant", choices=["line", "modified_line", "chorded_cycle", "complete"], required=True)
    sp.add_argument("--params", help="key=value pairs, comma separated; multiplicities joined with +")

    return ap


# argparse keeps no state between parse_args calls, so one parser serves
# every request; building it costs about as much as a small request
_PARSER = build_parser()


def run(argv=None):
    try:
        args = _PARSER.parse_args(argv)
        if "p" in vars(args):
            check_prime(args.p, "--p")
        for flag in ("n", "nmax"):  # subcommands with a tower level have one of them
            if (vars(args).get(flag) or 0) < 0:
                raise GraphError(f"--{flag} must be a non-negative tower level, got {vars(args)[flag]}")
        return args.fn(args)
    except DecompositionError as exc:
        _emit({"error": "no_decomposition", "reason": exc.reason, "witness": exc.witness})
        return 2
    except iwasawa.TowerError as exc:
        _emit({"error": "hypothesis_violation", "reason": str(exc)})
        return 2
    except GraphError as exc:
        _emit({"error": "bad_input", "reason": str(exc)})
        return 1
    except LinalgError as exc:
        _emit({"error": "internal_error", "reason": str(exc)})
        return 1
    except SystemExit:  # --help, after printing it
        return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
