"""One set-up sample, run in a fresh process by run.py.

Times importing segtower, building the CLI parser and one warm-up request per
subcommand of the workload, then runs the calibration kernel in the same
process.  Prints {"raw_s": ..., "kernel_s": ...} as JSON.

Usage: python3 perfbench/setup_probe.py WORKLOAD
"""

import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import client  # noqa: E402
import kernel  # noqa: E402
import workloads  # noqa: E402


def main():
    warm = workloads.warmups(sys.argv[1])
    t0 = time.process_time()
    cli = client.load_cli(os.path.dirname(HERE))
    cli.build_parser()
    for req in warm:
        rc, _, error = client.call(cli, req)
        if error or rc != 0:
            raise SystemExit(f"warm-up {req.argv} failed: {error or rc}")
    raw = time.process_time() - t0
    for _ in range(2):
        kernel.run_kernel()
    k = statistics.median(kernel.run_kernel() for _ in range(5))
    print(json.dumps({"raw_s": raw, "kernel_s": k}))


if __name__ == "__main__":
    main()
