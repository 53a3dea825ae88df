"""Frozen calibration kernel.

Every timed interval of the benchmark is divided by the time of adjacent
runs of this kernel and multiplied by the frozen reference time ``K_REF_S``,
so host speed phases that slow everything alike cancel out.  The kernel does
the same kind of work as segtower (big-integer fraction-free elimination and
dict churn) but imports nothing from it.  One run takes about half a
millisecond, so a run between every two requests costs little.

Do not change this file: a change moves every reported number.
"""

from __future__ import annotations

import time

# Kernel CPU time at reference speed, in seconds.  On the 2-core x86-64 host
# (CPython 3.11) where it was frozen, the kernel took between 0.42 ms and
# 0.87 ms depending on the host's speed phase; the reference lies between.
# Reported times are raw * K_REF_S / adjacent kernel time.
K_REF_S = 0.0006

_N = 16


def _matrix():
    state = 20250817
    rows = []
    for _ in range(_N):
        row = []
        for _ in range(_N):
            state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
            row.append((state >> 40) % 201 - 100)
        rows.append(row)
    return rows


_MATRIX = _matrix()


def _work():
    a = [row[:] for row in _MATRIX]
    prev = 1
    sign = 1
    n = _N
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        akk = a[k][k]
        rowk = a[k]
        for i in range(k + 1, n):
            rowi = a[i]
            aik = rowi[k]
            for j in range(k + 1, n):
                rowi[j] = (rowi[j] * akk - aik * rowk[j]) // prev
            rowi[k] = 0
        prev = akk
    det = sign * a[n - 1][n - 1]
    churn = {}
    for i in range(800):
        key = (i * 7919) % 1031
        churn[key] = churn.get(key, 0) + i
        if i % 3 == 0:
            churn.pop((key * 31) % 1031, None)
    return det ^ len(churn)


_EXPECTED = _work()


def run_kernel():
    """Run the kernel once; return its CPU time in seconds."""
    t0 = time.thread_time()
    out = _work()
    dt = time.thread_time() - t0
    if out != _EXPECTED:
        raise RuntimeError("calibration kernel gave a different result")
    return dt
