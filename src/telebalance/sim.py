"""Discrete-event engine closing the loop: plant -> forward link ->
controller -> feedback link -> plant, with stability and latency metrics.

One episode is a strictly sequential event loop over a single heap of
(time_ns, insertion_seq) ordered events; ties resolve by insertion order,
and the episode's end comes last at its time, so a (config, seed) pair
fully determines the run. Event timestamps are integer nanoseconds; the
plant advances to each event by one plant._rk4_span call (the advance rule
is in plant.py), under a zero-order-hold torque. A sample appends its
cycle's row to the trace's columns, and the cycle's close fills in its
command, latency and drops; the rows still in flight at the episode's
end are deleted. The trace is the closed cycles, in sample order.

Sensor sampling is scheduled on the robot's local clock (wireless.RobotClock),
which drifts between sync epochs and is re-bounded at each epoch. The engine
schedules the syncs and counts them; a pending sample stamped before the
latest sync is re-scheduled on the synced clock. The default
scenarios idealize the sync (zero drift, zero bound): the sync error of
the modeled link is three orders of magnitude below the slot grid, and a
perfectly aligned schedule is what makes the deterministic link's cycle
latency exactly repeatable. Clock imperfections are opt-in via the mac
config and feed straight into sampling (and therefore loop) jitter.

Master seed is split into independent streams for sensor noise, channel
loss, delivery jitter, and sync draws, so changing one subsystem does not
perturb the others across scenarios. Each is drawn in blocks, with the
values and order of one scalar draw at a time (BlockStream).
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace
from heapq import heappop, heappush
from typing import Iterator, NamedTuple

import numpy as np

from .config import ScenarioConfig, set_by_path
from .control import (
    ControllerGains,
    ControllerState,
    compute_command,
    estimate_tilt,
    tune_default_gains,
)
from .plant import SUBSTEP_NS, _ns, _rk4_span, sample_sensors
from .wireless import FEEDBACK, FORWARD, ChannelProcess, RobotClock, transmit

DEG = 180.0 / math.pi
NAN = float("nan")

# draws a stream fetches from numpy at a time
STREAM_BLOCK = 1024


class BlockStream:
    """A Generator's normal(), random() and uniform(low, high), drawn from
    numpy a block at a time. A block of n holds what n scalar calls return,
    in order, and numpy's uniform is low + (high - low) * random(). A stream
    serves normals or doubles, never both: a block drawn ahead would
    reorder them."""

    def __init__(self, rng: np.random.Generator, block: int = STREAM_BLOCK):
        self._kind: str | None = None
        self.normal = self._draws("normal", rng.normal, block).__next__
        self.random = self._draws("double", rng.random, block).__next__

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def _draws(self, kind: str, draw, block: int) -> Iterator[float]:
        if self._kind not in (None, kind):
            raise ValueError(f"a stream of {self._kind}s cannot serve a {kind}")
        self._kind = kind
        while True:
            yield from draw(size=block).tolist()


class CycleRecord(NamedTuple):
    """One control cycle of a trace, one row of its columns."""

    t: float                 # s, sensor sample time (true simulation time)
    tilt: float              # deg
    tilt_rate: float         # deg/s
    wheel_rate: float        # deg/s
    command: float           # normalized, both wheels; nan if never computed
    cycle_latency: float     # ms, sample -> actuation; nan if dropped
    forward_dropped: bool    # lost, or delivered too late to be used
    feedback_dropped: bool   # lost, or delivered after a newer command


@dataclass
class EpisodeTrace:
    """An episode's cycles in sample order, one array column per
    CycleRecord field: the floats as 'd', the drop flags as 'b' (0 or 1)."""
    t: array = field(default_factory=lambda: array("d"))
    tilt: array = field(default_factory=lambda: array("d"))
    tilt_rate: array = field(default_factory=lambda: array("d"))
    wheel_rate: array = field(default_factory=lambda: array("d"))
    command: array = field(default_factory=lambda: array("d"))
    cycle_latency: array = field(default_factory=lambda: array("d"))
    forward_dropped: array = field(default_factory=lambda: array("b"))
    feedback_dropped: array = field(default_factory=lambda: array("b"))
    fall_time: float | None = None
    # per-direction message accounting (sent = delivered + lost, exactly)
    forward_sent: int = 0
    forward_delivered: int = 0
    forward_lost: int = 0
    feedback_sent: int = 0
    feedback_delivered: int = 0
    feedback_lost: int = 0

    @classmethod
    def from_records(cls, records, **counts) -> EpisodeTrace:
        """A trace of these CycleRecords; counts are its other fields."""
        trace = cls(**counts)
        for column, values in zip(trace.columns(), zip(*records)):
            column.extend(values)
        return trace

    def columns(self) -> tuple[array, ...]:
        """The columns, in CycleRecord field order."""
        return tuple(getattr(self, name) for name in CycleRecord._fields)

    @property
    def records(self) -> RecordView:
        """The cycles as CycleRecords, read from the columns in place."""
        return RecordView(self)


class RecordView(Sequence):
    """A trace's rows as CycleRecords, the flags as bool. len and an index
    cost O(1), iteration builds one record a step, a slice is a tuple of
    records, and == compares as a tuple. It reads the columns as they are
    when used."""

    __slots__ = ("_trace",)

    def __init__(self, trace: EpisodeTrace):
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace.t)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        *floats, fwd, fbk = (column[i] for column in self._trace.columns())
        return CycleRecord(*floats, bool(fwd), bool(fbk))

    def __iter__(self) -> Iterator[CycleRecord]:
        *floats, fwd, fbk = self._trace.columns()
        return map(CycleRecord._make, zip(
            *floats, map(bool, fwd), map(bool, fbk)))

    def __eq__(self, other) -> bool:
        return tuple(self) == other


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


def _resolve_gains(cfg: ScenarioConfig, tune=None) -> ControllerGains:
    """The gains an episode of cfg runs: its own, or else the shipped
    defaults tuned for its control cycle by tune, tune_default_gains unless
    given (TuningFailureError if none fit)."""
    if cfg.gains is not None:
        return cfg.gains
    return (tune or tune_default_gains)(cfg.plant, cfg.resolved_cycle(), cfg.filter_alpha)


def run_episode(cfg: ScenarioConfig) -> tuple[EpisodeTrace, EpisodeMetrics]:
    """Simulate one episode; fully determined by (cfg, cfg.seed)."""
    params = cfg.plant
    cycle_s = cfg.resolved_cycle()
    cycle_ns = _ns(cycle_s)
    end_ns = _ns(cfg.episode_duration)
    gains = _resolve_gains(cfg)

    rng_noise, rng_loss, rng_jitter, rng_sync = (
        BlockStream(np.random.default_rng(s))
        for s in np.random.SeedSequence(cfg.seed).spawn(4))
    chan = ChannelProcess(cfg.channel)

    # plant state kept as raw floats between events (hot integration path)
    th, w, phi, v, tau = cfg.initial_tilt, 0.0, 0.0, 0.0, 0.0
    cstate = ControllerState()
    torque = 0.0
    plant_ns = 0
    fall_ns: int | None = None
    thr = cfg.fall_threshold
    tau_max = params.motor_max_torque

    clock = RobotClock(cfg.mac, rng_sync)
    local_to_true_ns = clock.local_to_true_ns
    sync_period_ns = _ns(cfg.mac.sync_epoch_period)
    synced = 0  # syncs handled after the t = 0 one

    # events (t_ns, insertion seq, kind, payload); a sample's payload is
    # (its period k, synced when scheduled), a recv's its SensorFrame, an
    # apply's its ActuationFrame. The end event's seq, inf, sorts it after
    # every other event at end_ns
    heap: list[tuple[int, float, str, tuple]] = []
    next_seq = itertools.count().__next__

    mac = cfg.mac
    alpha = cfg.filter_alpha
    trace = EpisodeTrace()
    (t_col, tilt_col, rate_col, wheel_col, cmd_col, lat_col, fwd_col,
     fbk_col) = columns = trace.columns()
    # cycles in flight, in sample order: k -> (its row, sample_ns)
    in_flight: dict[int, tuple[int, int]] = {}
    fwd_sent = fwd_delivered = fwd_lost = 0
    fbk_sent = fbk_delivered = fbk_lost = 0
    last_arrival_ns: int | None = None
    last_sample_ns = -1
    last_used = -1     # seq of the newest frame the controller used
    last_applied = -1  # seq of the newest command applied

    def schedule_sample(k: int) -> None:
        """Push period k's sample: at k cycles on the local clock, no
        earlier than the plant time."""
        heappush(heap, (max(local_to_true_ns(k * cycle_ns), plant_ns), next_seq(),
                        "sample", (k, synced)))

    def close_cycle(k: int, act, applied_ns: int | None) -> None:
        """Fill in cycle k's row. act is None when the forward frame was
        lost, applied_ns is None when the feedback frame was."""
        row, sample_ns = in_flight.pop(k)
        if act is None:
            fwd_col[row] = 1
            return
        cmd_col[row] = act.motor_command
        if applied_ns is None:
            fbk_col[row] = 1
        else:
            lat_col[row] = (applied_ns - sample_ns) / 1e6

    heappush(heap, (sync_period_ns, next_seq(), "sync", ()))
    schedule_sample(0)
    heappush(heap, (end_ns, math.inf, "end", ()))

    while True:
        t_ns, _, kind, payload = heappop(heap)
        if kind == "sample":
            k, stamp = payload
            if stamp != synced:
                schedule_sample(k)  # a sync moved the local clock: sample k anew
                continue
            if t_ns == last_sample_ns:
                # a resync jumped the clock past period k: go on to k + 1
                schedule_sample(k + 1)
                continue
            if t_ns == end_ns:
                continue  # its cycle could not close within the episode
        if t_ns > plant_ns:
            th, w, phi, v, tau, done = _rk4_span(
                th, w, phi, v, tau, torque, params, t_ns - plant_ns, thr)
            if abs(th) > thr:
                # a fall in the remainder substep lands at the span's end
                fall_ns = min(plant_ns + done * SUBSTEP_NS, t_ns)
                break
            plant_ns = t_ns

        if kind == "sample":
            last_sample_ns = t_ns
            frame = sample_sensors(th, w, phi, cfg.noise, params, rng_noise, seq=k)
            in_flight[k] = len(t_col), t_ns
            t_col.append(t_ns / 1e9)
            tilt_col.append(th * DEG)
            rate_col.append(w * DEG)
            wheel_col.append(v * DEG)
            cmd_col.append(NAN)
            lat_col.append(NAN)
            fwd_col.append(0)
            fbk_col.append(0)
            fwd_sent += 1
            deliver_ns = transmit(mac, chan, FORWARD, t_ns, rng_loss, rng_jitter)[0]
            if deliver_ns is not None:
                fwd_delivered += 1
                heappush(heap, (deliver_ns, next_seq(), "recv", frame))
            else:
                fwd_lost += 1
                close_cycle(k, None, None)
            schedule_sample(k + 1)

        elif kind == "recv":
            frame = payload
            k = frame.seq
            if k <= last_used or t_ns == last_arrival_ns:
                # overtaken by a newer frame (BLE jitter), or sharing a slot
                # with the last one after a resync: the cycle is dropped. So
                # the controller takes frames in seq order, each at a dt > 0
                close_cycle(k, None, None)
                continue
            dt = (t_ns - last_arrival_ns) / 1e9 if last_arrival_ns is not None \
                else cycle_s
            last_arrival_ns, last_used = t_ns, k
            cstate = estimate_tilt(cstate, frame, dt, alpha)
            cstate, act = compute_command(cstate, gains, frame, dt)
            fbk_sent += 1
            deliver_ns = transmit(mac, chan, FEEDBACK, t_ns, rng_loss, rng_jitter)[0]
            if deliver_ns is not None:
                fbk_delivered += 1
                heappush(heap, (deliver_ns, next_seq(), "apply", act))
            else:
                fbk_lost += 1
                close_cycle(k, act, None)

        elif kind == "apply":
            act = payload
            k = act.seq
            if k <= last_applied:
                # overtaken by a newer command (BLE jitter): the torque
                # stays, and the cycle is dropped
                close_cycle(k, act, None)
                continue
            last_applied = k
            torque = act.motor_command * tau_max
            close_cycle(k, act, t_ns)

        elif kind == "sync":
            synced += 1
            clock.sync(t_ns)
            heappush(heap, (t_ns + sync_period_ns, next_seq(), "sync", ()))

        else:  # end: the plant has reached end_ns
            break

    for row, _ in reversed(in_flight.values()):  # last first: rows keep place
        for column in columns:
            del column[row]
    trace = replace(
        trace, fall_time=None if fall_ns is None else fall_ns / 1e9,
        forward_sent=fwd_sent, forward_delivered=fwd_delivered,
        forward_lost=fwd_lost, feedback_sent=fbk_sent,
        feedback_delivered=fbk_delivered, feedback_lost=fbk_lost,
    )
    return trace, compute_metrics(trace, cfg)


def _p99(x: np.ndarray) -> float:
    """float(np.percentile(x, 99)) bit for bit, without np.percentile: its
    np.unique call imports numpy.ma, 1.8 MB, in every process."""
    n = x.size
    v = (n - 1) * 0.99
    i = math.floor(v)
    if v >= n - 1:
        return float(x[-1])
    # numpy's own partition points, so ties of -0.0 and 0.0 land alike
    part = np.partition(x, sorted({0, i, i + 1, n - 1}))
    a, b, g = float(part[i]), float(part[i + 1]), v - i
    d = b - a
    return b - d * (1 - g) if g >= 0.5 else a + d * g


def compute_metrics(trace: EpisodeTrace, cfg: ScenarioConfig) -> EpisodeMetrics:
    """Aggregate one episode's trace; rms is over the balanced portion.

    An empty trace (a fall before the first sample) reports the initial
    tilt as its peak, nan rms and latencies, and no drops.
    """
    fell = trace.fall_time is not None
    balanced = trace.fall_time if fell else cfg.episode_duration
    if not trace.t:
        return EpisodeMetrics(balanced, fell, NAN, abs(cfg.initial_tilt) * DEG,
                              NAN, NAN, NAN, 0.0)

    t, tilt, tilt_rate, _, _, latency, fwd, fbk = (
        np.frombuffer(column, dtype=column.typecode)
        for column in trace.columns())
    rates = tilt_rate[t <= balanced]
    tilts = np.abs(tilt)
    lat = latency[~np.isnan(latency)]
    dropped = fwd | fbk

    if lat.size:
        lat_mean = float(lat.mean())
        lat_var = float(np.mean((lat - lat_mean) ** 2))
        lat_p99 = _p99(lat)
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

    The gains of every job without its own are tuned here first, once per
    distinct (plant, cycle, filter_alpha), so a grid that cannot be tuned
    raises TuningFailureError before any episode runs.
    The episodes run in a pool of min(workers, jobs, usable cores) when
    that exceeds one, else here in series through the module's run_episode;
    a worker's exception reaches the caller with its type.
    """
    tune = functools.cache(tune_default_gains)
    jobs = [(cfg if cfg.gains is not None
             else replace(cfg, gains=_resolve_gains(cfg, tune)), keep_trace)
            for cfg, keep_trace in jobs]
    workers = min(workers, len(jobs), len(os.sched_getaffinity(0))
                  if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    if workers > 1:
        import concurrent.futures  # the serial path never pays for it

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            try:
                return list(pool.map(_run_job, jobs))
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
    return [_run_job(job) for job in jobs]


def run_sweep(base: ScenarioConfig, parameter_path: str, values,
              seeds_per_point: int, workers: int = 1) -> list[SweepPoint]:
    """Episode statistics across a numeric config parameter.

    Each grid value is run with seeds s .. s+K-1, s the seed of its own
    config: base.seed, or the value itself on a scenario.seed sweep. The whole
    grid is one batch, and its results are sliced back per value in grid
    order, so sequential and concurrent execution give identical tables.
    """
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one value")
    if seeds_per_point < 3:
        raise ValueError("sweep needs at least 3 seeds per point")
    grid = [set_by_path(base, parameter_path, v) for v in values]
    jobs = [(replace(cfg, seed=cfg.seed + i), False)
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
    labels = [cfg.label for cfg in cfgs]
    if len(set(labels)) < len(labels):
        # each label names its scenario's row and trace file
        raise ValueError(f"scenario labels must differ, got {labels}")
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


# the planar robot has one command: both command columns carry it
TRACE_COLUMNS = ("t", "tilt", "tilt_rate", "wheel_rate", "command_left",
                 "command_right", "cycle_latency", "forward_dropped",
                 "feedback_dropped")


def trace_to_csv(trace: EpisodeTrace) -> str:
    """CSV text of the trace's rows, header row included. The rows go
    into one bytearray, not a string each until a join, so the heap peaks
    at about twice the text's size."""
    text = bytearray((",".join(TRACE_COLUMNS) + "\n").encode())
    for t, tilt, tilt_rate, wheel_rate, command, latency, fwd, fbk in zip(
            *trace.columns()):
        cmd = repr(command)
        text += (f"{t!r},{tilt!r},{tilt_rate!r},{wheel_rate!r},{cmd},{cmd},"
                 f"{latency!r},{'true' if fwd else 'false'},"
                 f"{'true' if fbk else 'false'}\n").encode()
    return text.decode()


# EpisodeMetrics field -> its name, with its unit, in metrics.txt; a
# comparison averages each over the seeds as mean_<name>, and fell as
# fall_fraction
METRIC_NAMES = dict(zip((f.name for f in fields(EpisodeMetrics)), (
    "balanced_duration_s", "fell", "rms_tilt_rate_deg_s", "max_abs_tilt_deg",
    "latency_mean_ms", "latency_variance_ms2", "latency_p99_ms", "drop_rate")))


def metrics_to_text(metrics: EpisodeMetrics) -> str:
    """key=value record of one episode's metrics."""
    values = {field: repr(getattr(metrics, field)) for field in METRIC_NAMES}
    values["fell"] = "true" if metrics.fell else "false"
    return "".join(f"{name}={values[field]}\n"
                   for field, name in METRIC_NAMES.items())
