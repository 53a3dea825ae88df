"""The benchmark's one client: in-process ``segtower.cli.run`` requests."""

from __future__ import annotations

import contextlib
import io
import os
import sys


class MissingProgram(RuntimeError):
    pass


def load_cli(root):
    """Import segtower.cli from the checkout's ``src`` directory."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "segtower", "cli.py")):
        raise MissingProgram(f"no segtower sources under {src}")
    sys.path.insert(0, src)
    from segtower import cli

    return cli


def call(cli, req):
    """Run one request: graph JSON on stdin, stdout and stderr captured.

    Returns (exit code or None, stdout, error or None).  An exception that
    escapes ``cli.run`` is the error; so is a traceback printed to stderr.
    """
    out = io.StringIO()
    err = io.StringIO()
    sys.stdin = io.StringIO(req.stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(list(req.argv))
    except Exception as exc:  # a crash is a failed request, not the end of the run
        return None, out.getvalue(), f"raised {type(exc).__name__}: {str(exc)[:120]}"
    finally:
        sys.stdin = sys.__stdin__
    if "Traceback" in err.getvalue():
        return rc, out.getvalue(), "printed a traceback"
    return rc, out.getvalue(), None
