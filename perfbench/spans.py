"""Spans around the public functions of each segtower module.

The benchmark cannot edit segtower, so it wraps the functions from outside.
Modules import each other's functions by name (``iwasawa`` binds ``kappa``,
``build_cover``, ``det_laurent``, ``decompose``; ``cli`` binds most of the
rest; ``forests.kappa`` imports ``det_int`` when it is called), so a wrapper
replaces the function under every name that binds it in every segtower
module.  ``uninstall`` puts the originals back.

A span's self time is its duration minus the time of the spans it called.
Self times are kept raw per request; the caller normalises them with the
request's calibration factor.  Counters (calls and work sizes) are exact.
"""

from __future__ import annotations

import sys
import time

# (module, function) -> (size counter names, their values from (args, result))
SPANS = {
    ("linalg", "det_int"): (("dim3", "out_bits"), lambda a, r: (len(a[0]) ** 3, abs(r).bit_length())),
    ("linalg", "det_laurent"): (("dim3",), lambda a, r: (len(a[0]) ** 3,)),
    ("linalg", "laurent_exact_div"): ((), None),
    ("linalg", "expand_at_gamma"): (("truncated",), lambda a, r: (int(not a[0].is_zero and a[0].min_exp() < 0),)),
    ("cover", "build_cover"): (("vertices", "edges"), lambda a, r: (len(r.graph.vertices), len(r.graph.edges))),
    ("cover", "segment_preimage"): ((), None),
    ("forests", "kappa"): (("dim",), lambda a, r: (max(0, len(a[0].vertices) - 1),)),
    ("forests", "forest_count_det"): ((), None),
    ("seal", "decompose"): ((), None),
    ("seal", "admissible_paths"): (("paths",), lambda a, r: (len(r),)),
    ("seal", "admissible_sets"): (("sets",), lambda a, r: (len(r),)),
    ("iwasawa", "char_element"): ((), None),
    ("iwasawa", "tower_kappas"): (("levels",), lambda a, r: (len(r),)),
    ("iwasawa", "fit_orders"): (("fits", "stable_fits"), lambda a, r: (int(r[0] is not None), int(bool(r[1])))),
    ("graph", "graph_from_json"): ((), None),
    ("graph", "prune_tails"): ((), None),
    ("graph", "laplacian"): ((), None),
    ("families", "make_family"): ((), None),
    ("families", "f2_closed_form"): ((), None),
    ("cli", "run"): (("nonzero_exit",), lambda a, r: (int(r != 0),)),
}

# (module, function) -> (exception class, counter of calls it ended)
ERROR_COUNTERS = {
    ("seal", "decompose"): ("DecompositionError", "no_decomposition"),
    ("seal", "admissible_paths"): ("PathCapExceeded", "cap_exceeded"),
}


def span_name(key):
    return f"{key[0]}.{key[1]}"


class Tracer:
    """Installs the wrappers; collects counters and raw self times."""

    def __init__(self):
        self.counters = {span_name(k): dict.fromkeys(("calls",) + names, 0) for k, (names, _) in SPANS.items()}
        for key, (_, counter) in ERROR_COUNTERS.items():
            self.counters[span_name(key)][counter] = 0
        self.self_s = {}  # span -> raw self seconds in the current request
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def install(self):
        mods = {name: m for name, m in sys.modules.items() if name == "segtower" or name.startswith("segtower.")}
        for key, (names, sizes) in SPANS.items():
            original = getattr(mods[f"segtower.{key[0]}"], key[1])
            wrapper = self._wrap(span_name(key), original, names, sizes, ERROR_COUNTERS.get(key))
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def take_self_times(self):
        out, self.self_s = self.self_s, {}
        return out

    def _wrap(self, name, fn, names, sizes, error):
        stack = self._stack
        counters = self.counters[name]

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if error and type(exc).__name__ == error[0]:
                    counters[error[1]] += 1
                raise
            finally:
                dt = time.thread_time() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                own = self.self_s
                own[name] = own.get(name, 0.0) + dt - child
                counters["calls"] += 1
            if sizes:
                for k, v in zip(names, sizes(args, result)):
                    counters[k] += v
            return result

        wrapper.__wrapped__ = fn
        return wrapper
