"""Discrete-event engine closing the loop: plant -> forward link ->
controller -> feedback link -> plant, with stability and latency metrics.

One episode is a strictly sequential event loop over a single heap of
(time_ns, insertion_seq) ordered events; ties resolve by insertion order,
so a (config, seed) pair fully determines the run. Event timestamps are
integer nanoseconds; the plant integrates between events in 0.5 ms
substeps under a zero-order-hold torque.

Sensor sampling is scheduled on the robot's local clock, which drifts
between sync epochs and is re-bounded at each epoch. The default
scenarios idealize the sync (zero drift, zero bound): the sync error of
the modeled link is three orders of magnitude below the slot grid, and a
perfectly aligned schedule is what makes the deterministic link's cycle
latency exactly repeatable. Clock imperfections are opt-in via the mac
config and feed straight into sampling (and therefore loop) jitter.

Master seed is split into independent streams for sensor noise, channel
loss, delivery jitter, and sync draws, so changing one subsystem does not
perturb the others across scenarios.
"""

from __future__ import annotations

import concurrent.futures
import heapq
import itertools
import math
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import NamedTuple

import numpy as np

from .control import (
    ControllerGains,
    DEFAULT_FILTER_ALPHA,
    DEFAULT_GAINS,
    compute_command,
    estimate_tilt,
    make_controller_state,
    tune_default_gains,
)
from .plant import (
    PlantParams,
    PlantState,
    SensorNoise,
    _rk4_span,
    sample_sensors,
)
from .wireless import (
    BLE,
    FEEDBACK,
    FORWARD,
    GALLOP,
    IDEAL,
    ChannelModel,
    ChannelProcess,
    MacConfig,
    build_superframe,
    transmit,
)

SUBSTEP_NS = 500_000
DEG = 180.0 / math.pi
NAN = float("nan")

# default IMU noise for scenarios; roughly a consumer-grade gyro (0.11 deg/s)
# and accelerometer-derived tilt (0.29 deg)
DEFAULT_NOISE = SensorNoise(gyro_noise_std=0.002, accel_noise_std=0.005)


def _ns(seconds: float) -> int:
    return round(seconds * 1e9)


@dataclass(frozen=True)
class ScenarioConfig:
    plant: PlantParams = PlantParams()
    noise: SensorNoise = DEFAULT_NOISE
    mac: MacConfig = MacConfig()
    channel: ChannelModel = ChannelModel()
    gains: ControllerGains | None = None   # None -> tuned for the cycle
    filter_alpha: float = DEFAULT_FILTER_ALPHA
    initial_tilt: float = math.radians(2.0)  # rad
    episode_duration: float = 60.0           # s
    control_cycle: float | None = None       # s, None -> derived from mac
    seed: int = 1
    fall_threshold: float = 0.6              # rad
    label: str = "scenario"

    def resolved_cycle(self) -> float:
        if self.control_cycle is not None:
            return self.control_cycle
        if self.mac.variant == GALLOP:
            return build_superframe(self.mac).span
        if self.mac.variant == BLE:
            return self.mac.ble_connection_interval
        return 0.005

    def validate(self) -> None:
        if not self.episode_duration > 0:
            raise ValueError("episode_duration must be positive")
        if not self.resolved_cycle() > 0:
            raise ValueError("control_cycle must be positive")
        if not self.fall_threshold > 0:
            raise ValueError("fall_threshold must be positive")
        if not math.isfinite(self.initial_tilt):
            raise ValueError("initial_tilt must be finite")
        if not 0.0 <= self.filter_alpha <= 1.0:
            raise ValueError("filter_alpha must be in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        self.mac.validate()
        if self.mac.variant == GALLOP:
            build_superframe(self.mac)


def _ideal_sync_mac(**overrides) -> MacConfig:
    overrides.setdefault("clock_drift_ppm", 0.0)
    overrides.setdefault("sync_error_bound", 0.0)
    return MacConfig(**overrides)


def gallop_scenario(**overrides) -> ScenarioConfig:
    """Deterministic-link default scenario (idealized clock sync)."""
    overrides.setdefault("mac", _ideal_sync_mac(variant=GALLOP))
    overrides.setdefault("label", "gallop")
    return ScenarioConfig(**overrides)


def ble_scenario(**overrides) -> ScenarioConfig:
    """Connection-interval baseline scenario (idealized clock sync)."""
    overrides.setdefault("mac", _ideal_sync_mac(variant=BLE))
    overrides.setdefault("label", "ble")
    return ScenarioConfig(**overrides)


def ideal_scenario(**overrides) -> ScenarioConfig:
    """Pass-through link: zero latency and loss, isolates the control loop."""
    overrides.setdefault("mac", _ideal_sync_mac(variant=IDEAL))
    overrides.setdefault("label", "ideal")
    return ScenarioConfig(**overrides)


class CycleRecord(NamedTuple):
    """One control cycle of a trace; a tuple because every cycle builds one."""

    t: float                 # s, sensor sample time (true simulation time)
    tilt: float              # deg
    tilt_rate: float         # deg/s
    wheel_rate: float        # deg/s
    command_left: float      # normalized; nan if never computed
    command_right: float
    cycle_latency: float     # ms, sample -> actuation; nan if dropped
    forward_dropped: bool
    feedback_dropped: bool


@dataclass
class EpisodeTrace:
    records: tuple[CycleRecord, ...]
    fall_time: float | None = None
    # per-direction message accounting (sent = delivered + lost, exactly)
    forward_sent: int = 0
    forward_delivered: int = 0
    forward_lost: int = 0
    feedback_sent: int = 0
    feedback_delivered: int = 0
    feedback_lost: int = 0


@dataclass(frozen=True)
class EpisodeMetrics:
    balanced_duration: float   # s
    fell: bool
    rms_tilt_rate: float       # deg/s over the balanced portion
    max_abs_tilt: float        # deg
    latency_mean: float        # ms
    latency_variance: float    # ms^2
    latency_p99: float         # ms
    drop_rate: float           # fraction of cycles with either direction lost


class _RobotClock:
    """Local sampling clock: linear drift between syncs, quantized to ns."""

    def __init__(self, drift_ppm: float):
        self.drift = drift_ppm * 1e-6
        self.offset_s = 0.0       # offset right after the last sync
        self.sync_ns = 0          # true time of the last sync
        self.version = 0

    def resync(self, true_ns: int, offset_s: float) -> None:
        self.offset_s = offset_s
        self.sync_ns = true_ns
        self.version += 1

    def local_to_true_ns(self, local_ns: int) -> int:
        # local(t) = t + offset + drift*(t - t_sync)
        t = (local_ns - self.offset_s * 1e9 + self.drift * self.sync_ns) \
            / (1.0 + self.drift)
        return round(t)


def run_episode(cfg: ScenarioConfig) -> tuple[EpisodeTrace, EpisodeMetrics]:
    """Simulate one episode; fully determined by (cfg, cfg.seed)."""
    cfg.validate()
    params = cfg.plant
    cycle_s = cfg.resolved_cycle()
    cycle_ns = _ns(cycle_s)
    end_ns = _ns(cfg.episode_duration)
    gains = cfg.gains if cfg.gains is not None \
        else tune_default_gains(params, cycle_s, cfg.filter_alpha)
    superframe = build_superframe(cfg.mac) if cfg.mac.variant == GALLOP else None

    rng_noise, rng_loss, rng_jitter, rng_sync = (
        np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(4))
    chan = ChannelProcess(cfg.channel)

    # plant state kept as raw floats between events (hot integration path)
    th, w, phi, v, tau = cfg.initial_tilt, 0.0, 0.0, 0.0, 0.0
    cstate = make_controller_state(params)
    torque = 0.0
    plant_ns = 0
    fall_ns: int | None = None
    thr = cfg.fall_threshold
    h_sub = SUBSTEP_NS * 1e-9
    tau_max = params.motor_max_torque

    clock = _RobotClock(cfg.mac.clock_drift_ppm)
    clock.resync(0, rng_sync.uniform(-cfg.mac.sync_error_bound,
                                     cfg.mac.sync_error_bound))
    sync_period_ns = _ns(cfg.mac.sync_epoch_period)

    heap: list[tuple[int, int, str, tuple]] = []
    counter = itertools.count()

    def push(t_ns: int, kind: str, payload: tuple) -> None:
        heapq.heappush(heap, (t_ns, next(counter), kind, payload))

    def advance_plant(t_ns: int) -> bool:
        """Integrate up to t_ns; True if the robot fell on the way."""
        nonlocal th, w, phi, v, tau, plant_ns, fall_ns
        if t_ns <= plant_ns:
            return False
        tau_cmd = min(max(torque, -tau_max), tau_max)
        n_full, rem = divmod(t_ns - plant_ns, SUBSTEP_NS)
        if n_full:
            th, w, phi, v, tau, done = _rk4_span(
                th, w, phi, v, tau, tau_cmd, params, h_sub, n_full, thr)
            plant_ns += done * SUBSTEP_NS
            if done < n_full or abs(th) > thr:
                fall_ns = plant_ns
                return True
        if rem:
            th, w, phi, v, tau, _ = _rk4_span(
                th, w, phi, v, tau, tau_cmd, params, rem * 1e-9, 1, thr)
            plant_ns += rem
            if abs(th) > thr:
                fall_ns = plant_ns
                return True
        return False

    mac = cfg.mac
    alpha = cfg.filter_alpha
    records: dict[int, CycleRecord] = {}
    # in-flight cycles: k -> (sample_ns, tilt, tilt_rate, wheel_rate), degrees
    cycles: dict[int, tuple[int, float, float, float]] = {}
    fwd_sent = fwd_delivered = fwd_lost = 0
    fbk_sent = fbk_delivered = fbk_lost = 0
    last_arrival_ns: int | None = None

    def close_cycle(k: int, act, applied_ns: int | None) -> None:
        """Record cycle k. act is None when the forward frame was lost,
        applied_ns is None when the feedback frame was."""
        sample_ns, tilt, tilt_rate, wheel_rate = cycles.pop(k)
        if act is None:
            left = right = NAN
        else:
            left, right = act.motor_command_left, act.motor_command_right
        latency = NAN if applied_ns is None else (applied_ns - sample_ns) / 1e6
        records[k] = CycleRecord(sample_ns / 1e9, tilt, tilt_rate, wheel_rate,
                                 left, right, latency, act is None,
                                 act is not None and applied_ns is None)

    def schedule_sample(k: int) -> None:
        t = max(clock.local_to_true_ns(k * cycle_ns), plant_ns)
        push(t, "sample", (k, clock.version))

    push(sync_period_ns, "sync", (1,))
    schedule_sample(0)

    fallen = False
    while heap and not fallen:
        t_ns, _, kind, payload = heapq.heappop(heap)
        if t_ns > end_ns:
            break

        if kind == "sample":
            k, version = payload
            if version != clock.version:
                schedule_sample(k)  # sync moved the local clock; reschedule
                continue
            fallen = advance_plant(t_ns)
            if fallen:
                break
            state = PlantState(th, w, phi, v, tau, t_ns / 1e9)
            frame = sample_sensors(state, cfg.noise, params, rng_noise, seq=k)
            cycles[k] = (t_ns, th * DEG, w * DEG, v * DEG)
            fwd_sent += 1
            out = transmit(mac, superframe, chan, FORWARD, t_ns,
                           rng_loss, rng_jitter)
            if out.delivered:
                fwd_delivered += 1
                push(out.deliver_ns, "recv", (k, frame))
            else:
                fwd_lost += 1
                close_cycle(k, None, None)
            schedule_sample(k + 1)

        elif kind == "recv":
            k, frame = payload
            fallen = advance_plant(t_ns)
            if fallen:
                break
            dt = (t_ns - last_arrival_ns) / 1e9 if last_arrival_ns is not None \
                else cycle_s
            last_arrival_ns = t_ns
            cstate = estimate_tilt(cstate, frame, dt, alpha)
            cstate, act = compute_command(cstate, gains, frame, dt, now=t_ns / 1e9)
            fbk_sent += 1
            out = transmit(mac, superframe, chan, FEEDBACK, t_ns,
                           rng_loss, rng_jitter)
            if out.delivered:
                fbk_delivered += 1
                push(out.deliver_ns, "apply", (k, act))
            else:
                fbk_lost += 1
                close_cycle(k, act, None)

        elif kind == "apply":
            k, act = payload
            fallen = advance_plant(t_ns)
            if fallen:
                break
            if not t_ns / 1e9 > act.issue_time:
                raise RuntimeError("actuation applied no later than issued")
            torque = act.motor_command_left * tau_max
            close_cycle(k, act, t_ns)

        elif kind == "sync":
            (epoch,) = payload
            fallen = advance_plant(t_ns)
            if fallen:
                break
            clock.resync(t_ns, rng_sync.uniform(-mac.sync_error_bound,
                                                mac.sync_error_bound))
            push((epoch + 1) * sync_period_ns, "sync", (epoch + 1,))

    if not fallen and plant_ns < end_ns:
        advance_plant(end_ns)

    trace = EpisodeTrace(
        records=tuple(records[k] for k in sorted(records)),
        fall_time=None if fall_ns is None else fall_ns / 1e9,
        forward_sent=fwd_sent, forward_delivered=fwd_delivered,
        forward_lost=fwd_lost, feedback_sent=fbk_sent,
        feedback_delivered=fbk_delivered, feedback_lost=fbk_lost,
    )
    if trace.records:
        metrics = compute_metrics(trace, cfg)
    else:
        nan = float("nan")
        metrics = EpisodeMetrics(
            balanced_duration=trace.fall_time if trace.fall_time is not None
            else cfg.episode_duration,
            fell=trace.fall_time is not None,
            rms_tilt_rate=nan, max_abs_tilt=abs(cfg.initial_tilt) * DEG,
            latency_mean=nan, latency_variance=nan, latency_p99=nan,
            drop_rate=0.0)
    return trace, metrics


def compute_metrics(trace: EpisodeTrace, cfg: ScenarioConfig) -> EpisodeMetrics:
    """Aggregate one episode's trace; rms is over the balanced portion."""
    if not trace.records:
        raise ValueError("cannot compute metrics from an empty trace")
    fell = trace.fall_time is not None
    balanced = trace.fall_time if fell else cfg.episode_duration

    rates = np.array([r.tilt_rate for r in trace.records if r.t <= balanced])
    tilts = np.array([abs(r.tilt) for r in trace.records])
    lat = np.array([r.cycle_latency for r in trace.records
                    if not math.isnan(r.cycle_latency)])
    dropped = np.array([r.forward_dropped or r.feedback_dropped
                        for r in trace.records])

    if lat.size:
        lat_mean = float(lat.mean())
        lat_var = float(np.mean((lat - lat_mean) ** 2))
        lat_p99 = float(np.percentile(lat, 99))
    else:
        lat_mean = lat_var = lat_p99 = float("nan")

    return EpisodeMetrics(
        balanced_duration=balanced,
        fell=fell,
        rms_tilt_rate=float(np.sqrt(np.mean(rates ** 2))) if rates.size
        else float("nan"),
        max_abs_tilt=float(tilts.max()),
        latency_mean=lat_mean,
        latency_variance=lat_var,
        latency_p99=lat_p99,
        drop_rate=float(dropped.mean()),
    )


# Declared field types (postponed annotations, so strings) that a sweep may
# set, and the type each swept value is coerced to.
_NUMERIC_FIELDS = {"int": int, "float": float, "float | None": float}


def _set_by_path(cfg: ScenarioConfig, path: str, value: float) -> ScenarioConfig:
    """Copy of cfg with the numeric field at a dotted path set to value.

    Paths are 'section.field' (mac.extra_delay), 'scenario.field' or a bare
    scenario field. The value is coerced to the field's declared type; an
    int field rejects a non-integral value. Setting a gain of a scenario
    whose gains are tuned at run time starts from the shipped defaults.
    """
    parts = path.split(".")
    if len(parts) == 2 and parts[0] == "scenario":
        parts = parts[1:]
    if len(parts) == 1:
        section, target = None, cfg
    elif len(parts) == 2:
        section = parts[0]
        target = getattr(cfg, section, None)
        if section == "gains" and target is None:
            target = DEFAULT_GAINS  # as load_scenario does for a partial [gains]
    else:
        raise ValueError(f"unknown parameter path {path!r}")
    name = parts[-1]
    declared = {f.name: f.type for f in fields(target)} \
        if is_dataclass(target) else {}
    kind = _NUMERIC_FIELDS.get(declared.get(name))
    if kind is None:
        raise ValueError(f"unknown or non-numeric parameter path {path!r}")
    if kind is int and not float(value).is_integer():
        raise ValueError(f"parameter {path!r} takes an integer, got {value!r}")
    value = kind(value)
    if section is None:
        return replace(cfg, **{name: value})
    return replace(cfg, **{section: replace(target, **{name: value})})


@dataclass(frozen=True)
class SweepPoint:
    value: float
    mean_rms_tilt_rate: float  # deg/s, averaged over seeds
    fall_fraction: float
    stderr: float              # standard error of the rms mean


def _run_job(job: tuple[ScenarioConfig, bool]
             ) -> tuple[EpisodeTrace | None, EpisodeMetrics]:
    """One batch episode; the trace comes back only when asked for, so a
    worker process pickles no trace the caller drops."""
    cfg, keep_trace = job
    trace, metrics = run_episode(cfg)
    return (trace if keep_trace else None), metrics


def _run_batch(jobs: list[tuple[ScenarioConfig, bool]], workers: int
               ) -> list[tuple[EpisodeTrace | None, EpisodeMetrics]]:
    """Run (config, keep_trace) jobs; results come back in job order.

    With workers > 1 and more than one job the episodes run in a process
    pool; otherwise they run here in series, through the module's
    run_episode. A worker's exception reaches the caller with its type.
    """
    if workers > 1 and len(jobs) > 1:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(workers, len(jobs))) as pool:
            try:
                return list(pool.map(_run_job, jobs))
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
    return [_run_job(job) for job in jobs]


def run_sweep(base: ScenarioConfig, parameter_path: str, values,
              seeds_per_point: int, workers: int = 1) -> list[SweepPoint]:
    """Episode statistics across a numeric config parameter.

    Each grid value is run with seeds base.seed .. base.seed+K-1. The whole
    grid is one batch, and its results are sliced back per value in grid
    order, so sequential and concurrent execution give identical tables.
    """
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one value")
    if seeds_per_point < 3:
        raise ValueError("sweep needs at least 3 seeds per point")
    grid = [_set_by_path(base, parameter_path, v) for v in values]
    jobs = [(replace(cfg, seed=base.seed + i), False)
            for cfg in grid for i in range(seeds_per_point)]
    metrics = [m for _, m in _run_batch(jobs, workers)]

    points = []
    for i, v in enumerate(values):
        runs = metrics[i * seeds_per_point:(i + 1) * seeds_per_point]
        rms = np.array([m.rms_tilt_rate for m in runs])
        points.append(SweepPoint(
            value=float(v),
            mean_rms_tilt_rate=float(rms.mean()),
            fall_fraction=float(np.mean([m.fell for m in runs])),
            stderr=float(rms.std(ddof=1) / math.sqrt(len(rms))),
        ))
    return points


def failure_threshold(points: list[SweepPoint]) -> float | None:
    """Smallest swept value whose fall fraction reaches one half."""
    for p in points:
        if p.fall_fraction >= 0.5:
            return p.value
    return None


@dataclass
class ScenarioResult:
    label: str
    config: ScenarioConfig
    metrics: list[EpisodeMetrics]
    trace: EpisodeTrace  # first seed, for plotting

    def mean(self, name: str) -> float:
        return float(np.mean([getattr(m, name) for m in self.metrics]))


def compare_scenarios(cfgs: list[ScenarioConfig], seeds,
                      workers: int = 1) -> list[ScenarioResult]:
    """Run each scenario over a common seed list; metrics stay per-seed."""
    if len(cfgs) < 2:
        raise ValueError("comparison needs at least 2 scenarios")
    seed_list = list(range(seeds)) if isinstance(seeds, int) else list(seeds)
    if not seed_list:
        raise ValueError("comparison needs at least 1 seed")

    # one batch of every scenario x seed; only each first seed keeps its trace
    jobs = [(replace(cfg, seed=s), i == 0)
            for cfg in cfgs for i, s in enumerate(seed_list)]
    outs = _run_batch(jobs, workers)
    n = len(seed_list)
    return [ScenarioResult(label=cfg.label, config=cfg,
                           metrics=[m for _, m in outs[j * n:(j + 1) * n]],
                           trace=outs[j * n][0])
            for j, cfg in enumerate(cfgs)]


TRACE_COLUMNS = ("t", "tilt", "tilt_rate", "wheel_rate", "command_left",
                 "command_right", "cycle_latency", "forward_dropped",
                 "feedback_dropped")


def trace_to_csv(trace: EpisodeTrace) -> str:
    """CSV text of the per-cycle records, header row included."""
    lines = [",".join(TRACE_COLUMNS)]
    lines += [f"{r.t!r},{r.tilt!r},{r.tilt_rate!r},{r.wheel_rate!r},"
              f"{r.command_left!r},{r.command_right!r},{r.cycle_latency!r},"
              f"{'true' if r.forward_dropped else 'false'},"
              f"{'true' if r.feedback_dropped else 'false'}"
              for r in trace.records]
    return "\n".join(lines) + "\n"


def metrics_to_text(metrics: EpisodeMetrics) -> str:
    """key=value record of one episode's metrics."""
    pairs = (
        ("balanced_duration_s", metrics.balanced_duration),
        ("fell", "true" if metrics.fell else "false"),
        ("rms_tilt_rate_deg_s", metrics.rms_tilt_rate),
        ("max_abs_tilt_deg", metrics.max_abs_tilt),
        ("latency_mean_ms", metrics.latency_mean),
        ("latency_variance_ms2", metrics.latency_variance),
        ("latency_p99_ms", metrics.latency_p99),
        ("drop_rate", metrics.drop_rate),
    )
    return "".join(f"{k}={v if isinstance(v, str) else repr(v)}\n"
                   for k, v in pairs)
