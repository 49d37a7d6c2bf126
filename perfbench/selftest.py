"""Self-test of the benchmark's own checks.

Usage (from the root of a checkout): python3 perfbench/selftest.py

1. A copy of the checkout whose reference.json holds a wrong digest of the
   rendered output must make the run report every episode as failed
   (failed_frac = 1), print correct=false and exit nonzero.
2. The checkout itself, with the recorded digests, must pass and exit 0.
3. A directory holding only BENCHMARK.json and perfbench/ must make the
   benchmark exit nonzero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD = "ble_run"    # the cheapest workload
TIMEOUT_S = 180
SKIP = shutil.ignore_patterns("__pycache__", "*.egg-info")


def bench(cwd: Path) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", WORKLOAD,
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def copy_checkout(dest: Path, with_sources: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench", ignore=SKIP)
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=SKIP)


def main() -> int:
    failures = []

    with tempfile.TemporaryDirectory(prefix=".perfbench_selftest_",
                                     dir=ROOT) as tmp:
        tmp = Path(tmp)
        copy_checkout(tmp, with_sources=True)
        ref_file = tmp / "perfbench" / "reference.json"
        reference = json.loads(ref_file.read_text())
        reference[WORKLOAD]["output"] = "0" * 64
        ref_file.write_text(json.dumps(reference, indent=2))
        wrong = bench(tmp)
        res = result(wrong)
        if wrong.returncode == 0:
            failures.append("wrong digest: exit code 0")
        if res["correct"] or res["failed"] != res["attempted"]:
            failures.append(f"wrong digest: failed_frac is"
                            f" {res['failed']}/{res['attempted']}, not 1")

    right = bench(ROOT)
    res = result(right)
    if right.returncode != 0 or not res["correct"] or res["failed"]:
        failures.append(f"recorded digest: exit {right.returncode}, {res}")

    with tempfile.TemporaryDirectory(prefix=".perfbench_selftest_",
                                     dir=ROOT) as bare:
        bare = Path(bare)
        copy_checkout(bare, with_sources=False)
        alone = bench(bare)
        if alone.returncode == 0 or alone.stdout.strip():
            failures.append(f"no program: exit {alone.returncode},"
                            f" stdout {alone.stdout.strip()[:200]!r}")

    for f in failures:
        print("FAIL", f)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
