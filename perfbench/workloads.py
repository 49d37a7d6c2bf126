"""The four benchmark workloads: inputs built from a seed, the call into
the public API that is timed, the text its output renders to, and the
per-episode checks.

Every workload is closed loop: one caller waits for each result before
it starts the next. Import this module only after program.import_program().
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, replace

from telebalance import sim
from telebalance.config import load_scenario
from telebalance.wireless import BLE, GALLOP, ChannelModel

from program import CONFIGS

# The shipped configs carry seed 1; the reference digests are taken there.
DEFAULT_SEED = 1

# Grid over the added delay that straddles the fall threshold: with the
# shipped delay_sweep.cfg every seed tried (0-13) falls at 16 ms, within
# half a second, and none falls below it. Episodes are cut to 5 s so that
# one sweep takes about 2 s of host time and a run holds many; the fall
# episodes stay uneven against the full ones.
SWEEP_PARAM = "mac.extra_delay"
SWEEP_VALUES = (0.0, 0.008, 0.012, 0.016)  # s
SWEEP_SEEDS = 3
SWEEP_DURATION = 5.0  # s

# Gilbert-Elliott burst channel giving about 5% dropped cycles on both
# links; 10 s episodes keep one comparison near 2 s of host time.
BURST_CHANNEL = ChannelModel(p_good_to_bad=0.01, p_bad_to_good=0.3,
                             loss_bad=0.8)
COMPARE_SEEDS = 4
COMPARE_DURATION = 10.0  # s

GALLOP_LATENCY_NS = 2_000_000   # 2-slot, 1 ms superframe of the shipped configs
BLE_MIN_LATENCY_MS = 7.5        # one connection interval

WORKLOADS = ("gallop_run", "ble_run", "delay_sweep", "lossy_compare")
EPISODES = {"gallop_run": 1, "ble_run": 1,
            "delay_sweep": len(SWEEP_VALUES) * SWEEP_SEEDS,
            "lossy_compare": 2 * COMPARE_SEEDS}


def build(workload: str, seed: int) -> list:
    """Scenario configs of a workload at a seed: everything before the call."""
    if workload == "gallop_run":
        return [replace(load_scenario(CONFIGS / "gallop_default.cfg"), seed=seed)]
    if workload == "ble_run":
        return [replace(load_scenario(CONFIGS / "ble_default.cfg"), seed=seed)]
    if workload == "delay_sweep":
        return [replace(load_scenario(CONFIGS / "delay_sweep.cfg"),
                        episode_duration=SWEEP_DURATION, seed=seed)]
    if workload == "lossy_compare":
        return [replace(load_scenario(CONFIGS / name), channel=BURST_CHANNEL,
                        episode_duration=COMPARE_DURATION, seed=seed)
                for name in ("gallop_default.cfg", "ble_default.cfg")]
    raise ValueError(f"unknown workload {workload!r}")


def call(workload: str, scenarios: list, workers: int):
    """The public-API call a user of the workload makes."""
    if workload in ("gallop_run", "ble_run"):
        return sim.run_episode(scenarios[0])[0]
    if workload == "delay_sweep":
        return sim.run_sweep(scenarios[0], SWEEP_PARAM, SWEEP_VALUES,
                             SWEEP_SEEDS, workers=workers)
    seed = scenarios[0].seed
    return sim.compare_scenarios(
        scenarios, seeds=list(range(seed, seed + COMPARE_SEEDS)),
        workers=workers)


def render(workload: str, result) -> str:
    """Text the result is written as: trace.csv, sweep.csv or a per-seed
    comparison table."""
    if workload in ("gallop_run", "ble_run"):
        return sim.trace_to_csv(result)
    if workload == "delay_sweep":
        rows = ["value,mean_rms_tilt_rate,fall_fraction,stderr"]
        rows += [",".join((repr(p.value), repr(p.mean_rms_tilt_rate),
                           repr(p.fall_fraction), repr(p.stderr)))
                 for p in result]
        return "\n".join(rows) + "\n"
    names = [f.name for f in fields(sim.EpisodeMetrics)]
    rows = [",".join(["label", "episode", *names])]
    for r in result:
        for i, m in enumerate(r.metrics):
            rows.append(",".join([r.label, str(i),
                                  *(repr(getattr(m, n)) for n in names)]))
    return "\n".join(rows) + "\n"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def episode_problems(cfg, trace) -> list[str]:
    """Invariants every episode must hold, whatever the seed."""
    problems = []
    for d in ("forward", "feedback"):
        sent, delivered, lost = (getattr(trace, f"{d}_{k}")
                                 for k in ("sent", "delivered", "lost"))
        if sent != delivered + lost:
            problems.append(f"{d}: sent {sent} != delivered {delivered}"
                            f" + lost {lost}")
    if not trace.records:
        problems.append("no cycle records")
    times = [r.t for r in trace.records]
    if any(b <= a for a, b in zip(times, times[1:])):
        problems.append("record times do not strictly increase")
    latencies = [r.cycle_latency for r in trace.records
                 if not math.isnan(r.cycle_latency)]
    if cfg.mac.variant == GALLOP:
        expected = (GALLOP_LATENCY_NS + 2 * round(cfg.mac.extra_delay * 1e9)) / 1e6
        wrong = [x for x in latencies if x != expected]
        if wrong:
            problems.append(f"{len(wrong)} gallop cycle latencies differ from"
                            f" {expected!r} ms, e.g. {wrong[0]!r}")
    elif cfg.mac.variant == BLE:
        low = [x for x in latencies if x < BLE_MIN_LATENCY_MS]
        if low:
            problems.append(f"{len(low)} BLE cycle latencies below"
                            f" {BLE_MIN_LATENCY_MS} ms, e.g. {low[0]!r}")
    return problems


@dataclass
class CheckedPass:
    """One untimed pass of a workload with every episode inspected."""
    output: str = ""            # sha256 of the rendered result
    traces: str = ""            # sha256 over the per-episode trace.csv digests
    episodes: int = 0
    failed_episodes: int = 0
    sim_seconds: float = 0.0    # simulated seconds actually integrated
    problems: list = field(default_factory=list)


def checked_pass(workload: str, scenarios: list) -> CheckedPass:
    """Run the workload once with workers=1, checking each episode as it ends.

    sim.run_episode is wrapped for the pass, so the episodes run in this
    thread and in call order; the wrapper is removed before returning.
    """
    result = CheckedPass()
    digests = []
    original = sim.run_episode

    def checking_run_episode(cfg):
        trace, metrics = original(cfg)
        digests.append(sha256(sim.trace_to_csv(trace)))
        result.episodes += 1
        result.sim_seconds += (cfg.episode_duration if trace.fall_time is None
                               else trace.fall_time)
        problems = episode_problems(cfg, trace)
        result.failed_episodes += bool(problems)
        result.problems += [f"{cfg.label} seed {cfg.seed}: {p}" for p in problems]
        return trace, metrics

    sim.run_episode = checking_run_episode
    try:
        output = render(workload, call(workload, scenarios, workers=1))
    finally:
        sim.run_episode = original
    result.output = sha256(output)
    result.traces = sha256("".join(d + "\n" for d in digests))
    if result.episodes != EPISODES[workload]:
        result.problems.append(f"{result.episodes} episodes ran,"
                               f" {EPISODES[workload]} expected")
    return result
