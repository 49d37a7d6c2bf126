"""Mutation audit of sim.run_episode's event loop: python tests/mutants.py

Applies each mutant, an exact text substitution that must match once, to
sim.py in a temporary copy of the checkout without .git, runs Tier-1 there
with -x, and prints killed or survived and the time taken. Exits 1 on a
survivor that EXPLAINED does not account for. Not collected by pytest.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# (the text, its mutant): each comparison and branch of the event loop
MUTANTS = [
    ("late[0] >= fall_ns", "late[0] > fall_ns"),
    ("if not fwd_col[row := late[3][1]]:", "if not fwd_col[row := late[3][1]] or True:"),
    ("row <= last_used", "row < last_used"),
    ("row <= last_applied", "row < last_applied"),
    ("if t_ns == end_ns:", "if False:"),
    ("row <= last_used or t_ns == last_arrival_ns", "row <= last_used"),
    ("min(plant_ns + done * SUBSTEP_NS, t_ns)", "plant_ns + done * SUBSTEP_NS"),
    ("max(local_to_true_ns(k * cycle_ns), now_ns)", "local_to_true_ns(k * cycle_ns)"),
    ("fbk_lost -= fbk_col[row]", "pass"),
    ("if t_ns == last_sample_ns:", "if False:"),
    ("held.clear()", "pass"),
    ("if stamp != synced:", "if False:"),
    ('kind in ("recv", "sync") and not', 'kind == "recv" and not'),
    ("not (t_ns - plant_ns) % SUBSTEP_NS", "False"),
    ("if t_ns > plant_ns:", "if t_ns >= plant_ns:"),
    ("if abs(th) > thr:", "if abs(th) >= thr:"),
    ("heap.append(event)", "pass"),
    ("heap.append(late)", "pass"),
    ("fbk_sent -= 1", "pass"),
    ("fwd_lost += 1", "pass"),
    ("fwd_col[-1] = 1", "pass"),
    ("else cycle_s", "else 2 * cycle_s"),
    ("fbk_lost += 1", "pass"),
    ("fbk_col[row] = 1\n\n", "pass\n\n"),
    ("if row <= last_applied:", "if False:"),
    ("if row <= last_used or ", "if "),
    ("synced += 1", "pass"),
    ("del column[row]", "pass"),
    ("lat_col[row] = (t_ns - sample_ns) / 1e6", "pass"),
]

# Why a survivor is harmless. A row's recv and its apply are each pushed once
# and popped at most once (those put back at a fall never are), so no popped
# one meets the row it set in last_used or last_applied. _rk4_span takes the
# same substeps in one call as split at a sync on the substep grid.
EXPLAINED = {
    "row <= last_used": "equivalent: a row's recv is pushed once",
    "row <= last_applied": "equivalent: a row's apply is pushed once",
    'kind in ("recv", "sync") and not': "equivalent: one more kernel call a sync",
    "if abs(th) > thr:": "equivalent unless the tilt equals fall_threshold to the bit",
}


def tier1(copy: Path) -> tuple[bool, float]:
    """Whether Tier-1 passes in copy (stopping at a failure), and its seconds."""
    start = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
        cwd=copy, env=dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1"),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return run.returncode == 0, time.perf_counter() - start


def main() -> int:
    unexplained = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(Path(__file__).resolve().parent.parent, copy,
                        ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache"))
        # a mutant only counts as killed if the unmutated copy passes
        passed, seconds = tier1(copy)
        print(f"{'passes' if passed else 'FAILS':8} {seconds:5.1f} s  (no mutant)", flush=True)
        if not passed:
            return 1
        sim = copy / "src" / "telebalance" / "sim.py"
        source = sim.read_text(encoding="utf-8")
        for old, new in MUTANTS:
            if source.count(old) != 1:
                sys.exit(f"{old!r} matches {source.count(old)} times")
            sim.write_text(source.replace(old, new), encoding="utf-8")
            survived, seconds = tier1(copy)
            note = f"  ({EXPLAINED.get(old, 'UNEXPLAINED')})" if survived else ""
            unexplained += survived and old not in EXPLAINED
            print(f"{'survived' if survived else 'killed':8} {seconds:5.1f} s  "
                  f"{old!r} -> {new!r}{note}", flush=True)
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
