"""telebalance benchmark: host time of the public API on four workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload gallop_run --seed 1 --seconds 15 --trace 0

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 is
the separate traced run: it times each layer through perfbench/spans.py
and reports the per-layer metrics. Every run first replays the workload at
the default seed and compares it with the digests in reference.json, then
checks every episode at the requested seed, then times repeated calls and
requires each to render the same bytes. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

import program

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 9        # timed fresh-interpreter probes, after one warm-up
PROBE_TIMEOUT_S = 60
MIN_ITERATIONS = 2      # timed calls per run, whatever --seconds says
MAX_WORKERS = 4         # bounds the pool a batch workload may start

# The host this was tuned on, a 2-vCPU VM, switches between a fast state
# and one about 1.4-1.75x slower, some times within a second and some times
# for 30 s, which moved whole-run medians of identical work by up to 2x.
# So while each bounded call runs, a timer signal takes a sample of the
# host's speed every CALIBRATION_PERIOD_S: the CPU time this thread needs
# for a fixed piece of work. The call is scaled to the speed at which that
# work takes CALIBRATION_REF_S; the raw times are printed beside.
CALIBRATION_STEPS = 5_000       # pure-Python integer steps of a sample
CALIBRATION_ARRAY_STEPS = 150   # small-array numpy steps of a sample
CALIBRATION_ARRAY = numpy.array([0.1, 0.2, 0.3, 0.4])
CALIBRATION_PERIOD_S = 0.05
CALIBRATION_REF_S = 0.0006      # a sample on that VM's 2.0 GHz vCPU, fast state
# The samples count only this thread's CPU time, so they cannot see time
# the hypervisor steals; calls during which it stole more than this share
# of their wall time are left out when enough others remain.
MAX_STEAL_SHARE = 0.05

# Bound by main() once the checkout's sources are on sys.path.
sim = spans = workloads = None


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree; git is
    not allowed to search the directories above the checkout."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(program.ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=program.ROOT,
                             env=env, capture_output=True, text=True,
                             timeout=PROBE_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def sample_cpu_s() -> float:
    """CPU time this thread needs for a fixed piece of work that belongs to
    the benchmark, of the two kinds the simulator does: pure-Python steps,
    then numpy steps on a small array. Time spent descheduled is left out.
    """
    t0 = time.thread_time()
    x = 0
    for i in range(CALIBRATION_STEPS):
        x += i * i
    a = CALIBRATION_ARRAY
    for _ in range(CALIBRATION_ARRAY_STEPS):
        a = numpy.sin(a * 0.5 + CALIBRATION_ARRAY)
    return time.thread_time() - t0


def steal_s() -> float:
    """Time the hypervisor has stolen from this VM, summed over its vCPUs:
    the steal column of /proc/stat, or 0 where the host reports none."""
    try:
        with open("/proc/stat") as f:
            ticks = int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0.0
    return ticks / os.sysconf("SC_CLK_TCK")


def at_reference_speed(measure):
    """Call measure(), which returns (seconds, extra), and scale its seconds
    to the reference speed.

    The speed is the mean of sample_cpu_s() samples taken just before and
    after the call and, from a SIGALRM handler in the main thread, every
    CALIBRATION_PERIOD_S during it, so it follows the host through the
    call. The samples add about 1.5% to the call. Returns (seconds at the
    reference speed, seconds as measured, extra, share of those seconds
    stolen by the hypervisor).
    """
    stolen = steal_s()
    samples = [sample_cpu_s()]
    previous = signal.signal(signal.SIGALRM,
                             lambda *_: samples.append(sample_cpu_s()))
    signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD_S,
                     CALIBRATION_PERIOD_S)
    try:
        seconds, extra = measure()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    samples.append(sample_cpu_s())
    stolen = steal_s() - stolen
    return (seconds * CALIBRATION_REF_S / statistics.mean(samples),
            seconds, extra, stolen / seconds)


def unstolen(measured: list) -> list:
    """The at_reference_speed() results whose steal share is at most
    MAX_STEAL_SHARE, or all of them when fewer than MIN_ITERATIONS are."""
    kept = [m for m in measured if m[3] <= MAX_STEAL_SHARE]
    return kept if len(kept) >= MIN_ITERATIONS else measured


def probe_setup(workload: str, seed: int) -> tuple[float, dict]:
    """One fresh interpreter: wall time until the workload's inputs are
    ready, and the import and load times the probe reports."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=program.ROOT)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        wall = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"setup probe exited with {proc.returncode}")
    return wall, json.loads(line)


def measure_setup(workload: str, seed: int) -> dict:
    """Medians over SETUP_PROBES probes; a first, discarded probe fills the
    bytecode caches a fresh checkout lacks."""
    probe_setup(workload, seed)
    probes = unstolen([at_reference_speed(lambda: probe_setup(workload, seed))
                       for _ in range(SETUP_PROBES)])
    return {"setup_s": statistics.median(p[0] for p in probes),
            "setup_raw_s": statistics.median(p[1] for p in probes),
            **{k: statistics.median(p[2][k] for p in probes)
               for k in probes[0][2]}}


class Run:
    """Episode accounting and the problems found, for one benchmark run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.per_call = workloads.EPISODES[workload]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, episodes: int, problem: str) -> None:
        self.failed += episodes
        self.problems.append(problem)

    def checked(self, label: str, passed) -> bool:
        """Account for one checked pass; False if it found a problem."""
        self.attempted += self.per_call
        self.failed += passed.failed_episodes
        self.problems += [f"{label}: {p}" for p in passed.problems]
        if passed.problems and not passed.failed_episodes:
            self.failed += self.per_call
        return not passed.problems

    def compare(self, what: str, digest: str, checked) -> None:
        """Account for one call whose rendered output must match the pass."""
        self.attempted += self.per_call
        if digest != checked.output:
            self.fail(self.per_call, f"{what} rendered {digest[:12]},"
                      f" the checked pass {checked.output[:12]}")


def check_passes(run: Run, reference: dict, seed: int, scenarios: list):
    """The reference pass at the default seed, which doubles as the warm-up,
    then the checked pass at the requested seed.

    Returns the pass the timed calls must reproduce, or None when a check
    failed. A reference mismatch fails every episode of the run.
    """
    ref = workloads.checked_pass(
        run.workload, workloads.build(run.workload, workloads.DEFAULT_SEED))
    ok = run.checked(f"seed {workloads.DEFAULT_SEED}", ref)
    for key in ("output", "traces"):
        if getattr(ref, key) != reference[key]:
            ok = False
            run.problems.append(f"{key} digest {getattr(ref, key)[:12]} at the"
                                f" default seed, reference {reference[key][:12]}")
    if not ok:
        run.failed = run.attempted
        return None
    if seed == workloads.DEFAULT_SEED:
        return ref
    checked = workloads.checked_pass(run.workload, scenarios)
    return checked if run.checked(f"seed {seed}", checked) else None


def timed_call(workload: str, scenarios: list, workers: int):
    """(wall seconds, rendered digest) of one call; the result is rendered
    inside the timed region, as a user writes it out."""
    gc.collect()
    t0 = time.perf_counter()
    text = workloads.render(workload, workloads.call(workload, scenarios,
                                                     workers))
    wall = time.perf_counter() - t0
    return wall, workloads.sha256(text)


def end_to_end(run: Run, scenarios: list, checked, workers: int,
               seconds: float) -> dict:
    calls = []
    deadline = time.perf_counter() + seconds
    while len(calls) < MIN_ITERATIONS or time.perf_counter() < deadline:
        call = at_reference_speed(
            lambda: timed_call(run.workload, scenarios, workers))
        run.compare(f"timed call {len(calls)}", call[2], checked)
        calls.append(call)
    kept = unstolen(calls)

    def row(k, fmt):
        return " ".join(format(c[k], fmt) for c in calls)
    print(f"{run.workload}: {len(calls)} timed calls, {len(kept)} kept;"
          f" wall s at reference speed {row(0, '.3f')}; as measured"
          f" {row(1, '.3f')}; steal share {row(3, '.3f')}")
    wall = statistics.median(c[0] for c in kept)
    return {
        "host_s_per_sim_s": (wall / checked.sim_seconds, "s/s"),
        "episodes_per_s": (run.per_call / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def per_layer(run: Run, scenarios: list, checked, seconds: float) -> dict:
    """Alternate untraced and traced calls with workers=1; times are medians
    over the traced calls, counts must repeat exactly between them."""
    untraced, traced, layers = [], [], []
    tracer = spans.LayerTracer(sim)
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        wall, digest = timed_call(run.workload, scenarios, 1)
        run.compare("untraced call", digest, checked)
        untraced.append(wall)
        gc.collect()
        with tracer:
            tracer.reset()
            t0 = time.perf_counter()
            result = workloads.call(run.workload, scenarios, 1)
            call_s = time.perf_counter() - t0
            text = workloads.render(run.workload, result)
            traced.append(time.perf_counter() - t0)
            if (not tracer.calls["trace_to_csv"]
                    and tracer.last_trace is not None
                    and "trace_to_csv" in tracer.originals):
                # A batch call renders no trace: time its last episode's.
                sim.trace_to_csv(tracer.last_trace)
        run.compare("traced call", workloads.sha256(text), checked)
        layers.append(tracer.metrics(call_s))

    out = {}
    for name, (_, unit) in layers[0].items():
        values = [m[name][0] for m in layers if name in m]
        if len(values) < len(layers):
            continue
        if unit == "count":
            if len(set(values)) > 1:
                run.fail(run.per_call,
                         f"{name} differs between traced calls: {values}")
            out[name] = (values[0], unit)
        else:
            out[name] = (statistics.median(values), unit)
    out["trace.overhead_frac"] = (statistics.median(traced)
                                  / statistics.median(untraced) - 1, "ratio")
    return out


def main(argv=None) -> int:
    global sim, spans, workloads
    try:
        telebalance = program.import_program()
    except program.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import scipy
    from telebalance import sim

    import spans
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    usable = len(os.sched_getaffinity(0))
    workers = 1 if args.trace else min(usable, MAX_WORKERS)
    print("# env " + json.dumps({
        "workload": args.workload, "seed": args.seed, "workers": workers,
        "trace": args.trace, "cores": os.cpu_count(), "usable_cores": usable,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "telebalance": telebalance.__version__,
        "commit": git_commit()}), flush=True)

    reference = json.loads(REFERENCE.read_text())[args.workload]
    run = Run(args.workload)
    metrics: dict = {}
    try:
        setup = measure_setup(args.workload, args.seed)
        scenarios = workloads.build(args.workload, args.seed)
        checked = check_passes(run, reference, args.seed, scenarios)
        if checked is not None and args.trace:
            metrics = per_layer(run, scenarios, checked, args.seconds)
            metrics["setup.import_s"] = (setup["import_s"], "s")
            metrics["config.load_s"] = (setup["load_s"], "s")
        elif checked is not None:
            metrics = end_to_end(run, scenarios, checked, workers, args.seconds)
            metrics["setup_s"] = (setup["setup_s"], "s")
            print(f"{args.workload}: setup_s as measured"
                  f" {setup['setup_raw_s']:.6g} s")
    except Exception as exc:  # the program raised: every episode counts as failed
        traceback.print_exc()
        run.attempted = max(run.attempted, run.per_call)
        run.fail(run.attempted - run.failed, f"raised {exc!r}")

    for problem in run.problems:
        print(f"FAILED {args.workload}: {problem}", file=sys.stderr)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} failed_frac = {run.failed / run.attempted:.6g}"
          f" ({run.failed} of {run.attempted} episodes)")
    correct = not run.problems
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
