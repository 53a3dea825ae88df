"""Rules over segtower's own source, from one parse of each module of
src/segtower, the modules a fresh `import segtower.cli` loads, and the
README's CLI examples run end to end.

A name counts as used when a module of src/ reads it (a Name in Load
context), reads it as an attribute or imports it.  __init__.py imports in
order to re-export, so a name it imports is the package's API and counts as
used; a helper that only the tests call belongs in tests/conftest.py, not
in that API.  perfbench/spans.py wraps
functions by module and name from outside, so the keys of its SPANS count as
uses of those functions, and each of those names must exist.
"""

import ast
import importlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from segtower.cli import run

ROOT = Path(__file__).resolve().parent.parent
SRC_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


@pytest.fixture(scope="module")
def src():
    """One parse of each module of src/segtower, and the index of uses."""
    nodes = {path: list(ast.walk(ast.parse(path.read_text(), str(path)))) for path in sorted((ROOT / "src" / "segtower").glob("*.py"))}
    spans = ast.parse((ROOT / "perfbench" / "spans.py").read_text()).body
    tables = {t.id: node.value for node in spans if isinstance(node, ast.Assign) for t in node.targets if isinstance(t, ast.Name)}
    return SimpleNamespace(
        nodes=nodes,
        loads={path: {n.id for n in ns if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} for path, ns in nodes.items()},
        attrs={n.attr for ns in nodes.values() for n in ns if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)},
        imported={a.name for ns in nodes.values() for n in ns if isinstance(n, ast.ImportFrom) for a in n.names},
        spans={tuple(k.value for k in key.elts) for key in tables["SPANS"].keys},
        error_counters=ast.literal_eval(tables["ERROR_COUNTERS"]),
    )


def test_no_unused_import(src):
    """Every module but __init__.py uses each name it imports."""
    bad = [
        f"{path.name}:{node.lineno}: {name} is imported and never used"
        for path, nodes in src.nodes.items()
        if path.name != "__init__.py"
        for node in nodes
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if (name := (alias.asname or alias.name).split(".")[0]) not in src.loads[path]
    ]
    assert not bad, "\n".join(bad)


def test_no_assert_or_debug(src):
    """python -O strips assert statements and folds __debug__ to False, so no
    check in src/ may rest on either, whether or not a test reaches it."""
    bad = [
        f"{path.name}:{node.lineno}: " + ("assert statement" if isinstance(node, ast.Assert) else "__debug__")
        for path, nodes in src.nodes.items()
        for node in nodes
        if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__")
    ]
    assert not bad, "\n".join(bad)


def test_every_definition_is_used(src):
    """A function or class, top-level or nested, is read by name, read as an
    attribute, imported or wrapped by SPANS; a method or property is read as
    an attribute (a local variable of the same name is no use of it).  Dunder
    methods are exempt."""
    used = set().union(*src.loads.values(), src.attrs, src.imported)
    bad = []
    for path, nodes in src.nodes.items():
        methods = {id(m) for c in nodes if isinstance(c, ast.ClassDef) for m in c.body if not isinstance(m, ast.ClassDef)}
        for node in nodes:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if id(node) in methods:
                if node.name not in src.attrs and not (node.name.startswith("__") and node.name.endswith("__")):
                    bad.append(f"{path.name}:{node.lineno}: method {node.name} is never read as an attribute")
            elif node.name not in used and (path.stem, node.name) not in src.spans:
                bad.append(f"{path.name}:{node.lineno}: {node.name} is defined and never used")
    assert not bad, "\n".join(bad)


def test_det_mod_read_only_by_det_int(src):
    """linalg._det_mod borrows no row: a zero pivot over a nonzero column
    raises LinalgError.  That holds for the blocks det_int has checked (and
    det_laurent's M(1), which it passes with the bound it checked), so the
    kernel's one reader is det_int: a new caller fails here, not at run time."""

    def readers(node, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            if "_det_mod" in (getattr(child, "id", None), getattr(child, "attr", None)):
                yield inner
            yield from readers(child, inner)

    found = {(path.name, where) for path, nodes in src.nodes.items() for where in readers(nodes[0], None)}
    assert found == {("linalg.py", "det_int")}, f"_det_mod is read outside det_int: {sorted(found, key=str)}"


def test_benchmark_names_resolve(src):
    """Each (module, function) key of perfbench/spans.py's SPANS and
    ERROR_COUNTERS, and each exception class an ERROR_COUNTERS entry counts,
    is an attribute of its segtower module: a rename fails here, not first
    in the benchmark's traced run."""
    names = [*src.spans, *src.error_counters, *((mod, exc) for (mod, _), (exc, _) in src.error_counters.items())]
    assert src.spans and src.error_counters
    bad = [f"segtower.{mod}.{name}" for mod, name in names if not hasattr(importlib.import_module(f"segtower.{mod}"), name)]
    assert not bad, "perfbench/spans.py names what segtower does not define: " + ", ".join(bad)


def test_cli_start_up_imports():
    """A fresh interpreter's `import segtower.cli` loads none of dataclasses,
    inspect (which pulls in ast, dis and tokenize) and decimal (which only
    cli._num needs, past 10 000 bits): each costs every call milliseconds
    before its request.  A module the interpreter loaded before (site) does
    not count."""
    code = ("import sys; before = set(sys.modules); import segtower.cli; "
            "print(*sorted({'dataclasses', 'inspect', 'decimal'} & (set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", code], env=SRC_ENV, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [], f"import segtower.cli loads {done.stdout.strip()}"


def test_no_private_import_in_src(src):
    """A module of src/ imports only the public names of another: a name
    that two modules share is part of the API and is named so."""
    bad = [
        f"{path.name}:{node.lineno}: {alias.name} is private to {node.module or '.'}"
        for path, nodes in src.nodes.items()
        for node in nodes
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not bad, "\n".join(bad)


def test_conftest_imports_no_private_name():
    """An oracle must not share code with what it checks."""
    bad = [
        f"conftest.py:{node.lineno}: {alias.name} is private to {node.module}"
        for node in ast.walk(ast.parse((ROOT / "tests" / "conftest.py").read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "segtower"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not bad, "\n".join(bad)


def test_readme_examples(capsys, monkeypatch):
    """Every `segtower ...` line of the README exits 0 and prints JSON; the
    first one and the help texts also run through `python -m segtower.cli`."""
    examples = [shlex.split(line)[1:] for line in (ROOT / "README.md").read_text().splitlines() if line.startswith("segtower ")]
    assert examples
    monkeypatch.chdir(ROOT)
    for argv in examples:
        code = run(argv)
        out = capsys.readouterr().out
        assert code == 0, f"{argv}: exit {code}: {out}"
        json.loads(out)
    for argv in (["--help"], ["invariants", "--help"], examples[0]):
        done = subprocess.run([sys.executable, "-m", "segtower.cli", *argv], env=SRC_ENV, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0 and done.stdout.strip(), f"{argv}: exit {done.returncode}: {done.stderr}"
    json.loads(done.stdout)
