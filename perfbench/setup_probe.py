"""Set-up probe, run in a fresh interpreter: import telebalance, then load
and build one workload's inputs, print one JSON line and exit.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import json
import sys
import time

t_start = time.perf_counter()

import program  # noqa: E402  (stdlib-only; the timed import is below)

program.import_program()
t_imported = time.perf_counter()

import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
t_ready = time.perf_counter()
print(json.dumps({"import_s": t_imported - t_start,
                  "load_s": t_ready - t_imported}), flush=True)
