"""JSON command-line front end.

Reads the shared graph JSON format from --input (or standard input) and
prints deterministic JSON to standard output.  All potentially large counts
are emitted as decimal strings.

Exit codes: 0 success; 2 no decomposition / theorem hypothesis violated;
1 malformed input or bad arguments ("bad_input"), or an exact-arithmetic
check that failed inside the library ("internal_error").
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from types import SimpleNamespace

from . import families, iwasawa
from .cover import build_cover, check_prime
from .forests import forest_count_bruteforce, forest_count_det, kappa
from .graph import GraphError, graph_from_json, graph_to_json
from .linalg import LinalgError
from .seal import DecompositionError, admissible_sets, decompose


# Below this many bits str(x) is safe and fast: 10 000 bits is about 3011
# digits, under Python 3.11's 4300-digit int-to-str limit.
_STR_BITS = 10_000


def _num(x):
    """Decimal string of any int, past Python 3.11's int-to-str digit limit
    and in subquadratic time: x split at 2^h into binary halves, converted
    to Decimal and joined with decimal's fast multiplication."""
    if x.bit_length() <= _STR_BITS:
        return str(x)
    import decimal  # here: only a number past _STR_BITS needs it, and every call would pay for it at start-up
    if x < 0:
        return "-" + _num(-x)
    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])
    powers = {}  # h -> 2^h as a Decimal

    def convert(y, bits):  # y < 2^bits
        if bits <= _STR_BITS:
            return decimal.Decimal(y)
        h = bits // 2
        if h not in powers:
            powers[h] = exact.power(2, h)
        return exact.add(exact.multiply(convert(y >> h, bits - h), powers[h]), convert(y & ((1 << h) - 1), h))

    return str(convert(x, x.bit_length()))


def _finite(text):
    """A JSON float, refused when it is NaN or infinite: no reply can print
    either as standard JSON."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"{text} is not a finite number")
    return x


def _read_graph(args):
    try:
        with open(args.input) if args.input is not None else contextlib.nullcontext(sys.stdin) as fh:
            obj = json.load(fh, parse_float=_finite, parse_constant=_finite)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: JSONDecodeError, UnicodeDecodeError
        raise GraphError(f"cannot read graph: {exc}") from None
    return graph_from_json(obj)


_escape = json.encoder.encode_basestring_ascii  # json's own, in C


def _dumps(x, indent="\n"):
    """json.dumps(x, indent=2) for a reply, one join per dict and list: a str
    by json's C escaper, an int by int.__repr__ (ValueError past the digit
    limit, as in json), any other scalar by json.dumps.  Keys must be str."""
    if isinstance(x, str):
        return _escape(x)
    if type(x) is int:
        return int.__repr__(x)
    inner = indent + "  "
    if isinstance(x, dict):
        items = [_escape(k) + ": " + _dumps(v, inner) for k, v in x.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if isinstance(x, (list, tuple)):
        items = [_dumps(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    return json.dumps(x)


def _emit(obj):
    try:  # the whole reply or none of it
        text = _dumps(obj)
    except ValueError:  # a JSON number past Python 3.11's digit limit, such as a char_body coefficient
        raise GraphError("the reply holds a number past Python's int-to-str digit limit") from None
    sys.stdout.write(text + "\n")


# A handler returns its reply; one that takes --input gets the graph, marks and voltages too.
def cmd_seal(args, g, r, _):
    d = decompose(g, r)
    return {
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


def cmd_kappa(args, g, *_):
    count = kappa(g)  # 0 exactly when g is disconnected
    return {"kappa": _num(count), "method": "determinant", **({} if count else {"diagnostic": "graph is disconnected"})}


def cmd_forests(args, g, *_):
    ids = {str(v): v for v in g.vertices}  # distinct: graph_from_json checks
    marked = [ids.get(m, m) for m in args.marked.split(",") if m]
    if args.method == "brute":
        count, method = forest_count_bruteforce(g, marked), "enumeration"
    else:
        count, method = forest_count_det(g, marked), "determinant"
    return {"forest_count": _num(count), "t": len(marked), "method": method}


def cmd_cover(args, g, r, voltage):
    c = build_cover(g, r, voltage, args.p, args.n)

    def vid(v):
        return f"{v[0]}@{v[1]}"

    return {
        "vertices": [vid(v) for v in c.graph.vertices],
        "edges": [{"id": e.id, "from": vid(e.u), "to": vid(e.v)} for e in c.graph.edges],
        "ramified": [{"vertex": vid(v), "depth": k} for v, k in c.ram.depths.items()],
        "projection": {
            "vertices": {vid(v): str(v[0]) for v in c.graph.vertices},
            "edges": dict(c.edge_projection),
        },
        "connected": c.graph.connected(),
    }


def cmd_invariants(args, g, r, voltage):
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
    return report


def cmd_verify(args, g, r, voltage):
    harness = {"A": iwasawa.verify_theorem_A, "partial": iwasawa.verify_partial_ramification,
               "general": iwasawa.verify_general_case,
               "factorization": lambda g, r, voltage, p, n: iwasawa.verify_char_factorization(g, r, voltage, p)}
    v = harness[args.theorem](g, r, voltage, args.p, args.n)

    def conv(x):
        if isinstance(x, dict):
            return {k: conv(val) for k, val in x.items()}
        if isinstance(x, list):
            return [conv(val) for val in x]
        if isinstance(x, int) and not isinstance(x, bool):
            return _num(x)
        return x

    return {"theorem": args.theorem, "ok": v.ok, "lhs": conv(v.lhs), "rhs": conv(v.rhs), "detail": conv(v.detail)}


def cmd_family(args):
    params = {}
    for kv in filter(None, args.params.split(",")):
        if "=" not in kv:
            raise GraphError(f"bad --params entry {kv!r}, expected key=value")
        k, val = kv.split("=", 1)
        try:
            params[k] = [int(x) for x in val.split("+")] if k == "multiplicities" else int(val)
        except ValueError:
            raise GraphError(f"bad --params entry {kv!r}, expected integer values") from None
    g, r = families.make_family(args.variant, **params)
    f2 = families.f2_closed_form(args.variant, **params)
    return {**graph_to_json(g, r), "f2_closed_form": _num(f2)}


def build_parser():
    """The argv table {subcommand: (handler, {option: (kind, default, required)})},
    where kind is int, str, a tuple of choices or bool (a flag)."""
    graph, p, flag = {"--input": (str, None, False)}, {"--p": (int, None, True)}, (bool, False, False)  # graph JSON, else stdin
    return {
        "seal": (cmd_seal, graph),
        "kappa": (cmd_kappa, graph),
        "forests": (cmd_forests, {**graph, "--marked": (str, None, True), "--method": (("det", "brute"), "det", False)}),
        "cover": (cmd_cover, {**graph, **p, "--n": (int, None, True)}),
        "invariants": (cmd_invariants, {**graph, **p, "--nmax": (int, None, False),
                                        "--symbolic-only": flag, "--empirical-only": flag}),
        "verify": (cmd_verify, {**graph, "--theorem": (("A", "partial", "general", "factorization"), None, True), **p,
                                "--n": (int, 1, False)}),
        "family": (cmd_family, {"--variant": (("line", "modified_line", "chorded_cycle", "complete"), None, True),
                                "--params": (str, "", False)}),  # key=value pairs; multiplicities joined with +
    }


_COMMANDS = build_parser()  # built once: it holds no per-request state


def _usage(command):
    """Usage lines, optional options bracketed: command's alone, or after the module docstring every one."""
    def shown(o, kind, required):
        o += "" if kind is bool else " {" + ",".join(kind) + "}" if isinstance(kind, tuple) else " " + o[2:].upper()
        return o if required else f"[{o}]"
    return ("" if command else __doc__ + "\n") + "".join(
        f"usage: segtower {name} {' '.join(shown(o, kind, required) for o, (kind, _, required) in options.items())}\n"
        for name, (_, options) in _COMMANDS.items() if command in (None, name))


def _parse(argv):
    """(handler, args) for argv by the table of build_parser: argv[0] is the
    subcommand, then options --name value, --name=value or a flag --name; a
    repeated option keeps its last value.  -h or --help as the subcommand or
    an option name gives (None, the usage text).  Every bad argument is a GraphError."""
    if argv[:1] in (["-h"], ["--help"]):
        return None, _usage(None)
    fn, options = _COMMANDS.get(argv[0] if argv else None, (None, None))
    if fn is None:
        raise GraphError(f"expected a subcommand, one of {', '.join(_COMMANDS)}")
    values, rest = {}, iter(argv[1:])
    for arg in rest:
        if arg in ("-h", "--help"):
            return None, _usage(argv[0])
        name, eq, value = arg.partition("=")
        kind = options.get(name, (None,))[0]
        if kind is None or kind is bool and eq:  # an abbreviation and a stray positional too
            raise GraphError(f"unrecognized argument {arg!r}")
        if kind is not bool and not eq and (value := next(rest, "--")).startswith("--"):  # the end, or the next option
            raise GraphError(f"{name} expects a value")
        try:
            values[name] = True if kind is bool else int(value) if kind is int else value
        except ValueError:
            raise GraphError(f"{name} must be an integer, got {value!r}") from None
        if isinstance(kind, tuple) and value not in kind:
            raise GraphError(f"{name} must be one of {', '.join(kind)}; got {value!r}")
    if missing := [o for o, (_, _, required) in options.items() if required and o not in values]:
        raise GraphError(f"missing required option {', '.join(missing)}")
    if "--symbolic-only" in values and "--empirical-only" in values:
        raise GraphError("--symbolic-only and --empirical-only exclude each other")
    return fn, SimpleNamespace(**{o[2:].replace("-", "_"): values.get(o, default) for o, (_, default, _) in options.items()})


def run(argv=None):
    """Answer one request: read the graph (not for family), write one reply, return the exit code."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        fn, args = _parse(argv)
        if fn is None:  # args is the usage text
            sys.stdout.write(args)
            return 0
        if "p" in vars(args):
            check_prime(args.p, "--p")
        for flag in ("n", "nmax"):  # subcommands with a tower level have one of them
            if (vars(args).get(flag) or 0) < 0:
                raise GraphError(f"--{flag} must be a non-negative tower level, got {vars(args)[flag]}")
        reply = fn(args, *_read_graph(args)) if "input" in vars(args) else fn(args)
        _emit(reply)
        return 2 if fn is cmd_verify and not reply["ok"] else 0
    except DecompositionError as exc:  # vertex ids print as strings, as in every other reply
        witness = {k: [[str(v) for v in pair] for pair in x] if k == "pairs" else x for k, x in exc.witness.items()}
        reply, code = {"error": "no_decomposition", "reason": exc.reason, "witness": witness}, 2
    except iwasawa.TowerError as exc:
        reply, code = {"error": "hypothesis_violation", "reason": str(exc)}, 2
    except GraphError as exc:
        reply, code = {"error": "bad_input", "reason": str(exc)}, 1
    except LinalgError as exc:
        reply, code = {"error": "internal_error", "reason": str(exc)}, 1
    _emit(reply)
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
