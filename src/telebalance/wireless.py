"""Link models: deterministic TDMA/FDD superframe link, BLE-style baseline,
and an ideal pass-through, plus per-channel burst loss and clock sync.

All event times are handled as integer nanoseconds so that delivery
schedules are exact and repeatable; the public configuration stays in
seconds. Three link variants:

  gallop       2-slot TDMA superframe (forward / feedback) on disjoint
               FDD bands with per-slot frequency hopping; a frame waits
               for the next slot of its direction and is delivered at
               slot end. Loss may be retried in a later same-direction
               slot of the same superframe when the layout has one.
  ble_baseline delivery quantized to the next connection-event boundary
               strictly after the ready time, plus a uniform jitter.
  ideal        pass-through with 1 ns latency, no loss (for experiments
               isolating the control loop from the network).

Channel impairments are per-channel Gilbert-Elliott chains (good/bad
burst states) composed with an optional static per-channel loss floor.
Chains are advanced lazily using the analytic n-step transition law, one
uniform draw per use. Clock sync is modeled at the offset level: between
sync epochs the local offset grows linearly with drift; a sync epoch
resamples it uniformly within the sync error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

GALLOP = "gallop"
BLE = "ble_baseline"
IDEAL = "ideal"

FORWARD = "forward"
FEEDBACK = "feedback"

BLE_MIN_INTERVAL_S = 0.0075


class InvalidConfigError(ValueError):
    """Raised for MAC configurations that violate the layout rules."""


def _ns(seconds: float) -> int:
    return round(seconds * 1e9)


@dataclass(frozen=True)
class MacConfig:
    variant: str = GALLOP
    slot_duration: float = 1e-3          # s
    slots_per_superframe: int = 2        # forward, feedback, alternating
    forward_band: int = 0                # FDD band identifiers; must differ
    feedback_band: int = 1
    channel_count: int = 37              # hop channels per band
    hop_increment: int = 7               # coprime with channel_count
    sync_epoch_period: float = 1.0       # s
    sync_error_bound: float = 1e-6       # s
    clock_drift_ppm: float = 20.0
    ble_connection_interval: float = 0.0075  # s
    ble_jitter_max: float = 2e-3         # s
    slot_guard: float = 1e-4             # s, admission tolerance after slot start
    extra_delay: float = 0.0             # s, added to every delivery
    custom_slots: tuple | None = None    # ((direction, start_s, duration_s, band), ...)

    def validate(self) -> None:
        if self.variant not in (GALLOP, BLE, IDEAL):
            raise InvalidConfigError(f"unknown mac variant {self.variant!r}")
        if self.slot_duration <= 0 or self.slots_per_superframe < 1:
            raise InvalidConfigError("superframe needs >= 1 slot of positive duration")
        if self.forward_band == self.feedback_band:
            raise InvalidConfigError(
                "forward and feedback bands must be disjoint (FDD)")
        if self.channel_count < 1 or self.hop_increment < 1:
            raise InvalidConfigError("channel_count and hop_increment must be >= 1")
        if math.gcd(self.hop_increment, self.channel_count) != 1:
            raise InvalidConfigError(
                f"hop_increment {self.hop_increment} shares a factor with "
                f"channel_count {self.channel_count}")
        if self.ble_connection_interval < BLE_MIN_INTERVAL_S:
            raise InvalidConfigError("ble_connection_interval must be >= 7.5 ms")
        if self.ble_jitter_max < 0 or self.extra_delay < 0:
            raise InvalidConfigError("ble_jitter_max and extra_delay must be >= 0")
        if not 0 <= self.slot_guard < self.slot_duration:
            raise InvalidConfigError("slot_guard must be in [0, slot_duration)")
        if self.sync_epoch_period <= 0 or self.sync_error_bound < 0:
            raise InvalidConfigError("sync parameters must be positive / >= 0")


@dataclass(frozen=True)
class Slot:
    start_offset: float  # s, within the superframe
    duration: float      # s
    direction: str       # forward | feedback
    band: int


@dataclass(frozen=True)
class Superframe:
    """One TDMA cycle; slots in start order, as build_superframe lays them
    out (transmit's per-direction tables rely on that order)."""

    slots: tuple[Slot, ...]

    def __post_init__(self) -> None:
        # (start_ns, end_ns, direction, band) per slot; cached for transmit
        table = tuple((_ns(s.start_offset), _ns(s.start_offset) + _ns(s.duration),
                       s.direction, s.band) for s in self.slots)
        object.__setattr__(self, "_table_ns", table)
        object.__setattr__(self, "_span_ns", max(end for _, end, _, _ in table))
        # (start_ns, end_ns, position) of each direction's slots, in start order
        object.__setattr__(self, "_direction_ns", {
            d: tuple((start, end, pos) for pos, (start, end, sd, _) in enumerate(table)
                     if sd == d)
            for d in (FORWARD, FEEDBACK)})

    @property
    def span(self) -> float:
        return self._span_ns / 1e9

    @property
    def span_ns(self) -> int:
        return self._span_ns

    def slots_ns(self) -> tuple[tuple[int, int, str, int], ...]:
        """(start_ns, end_ns, direction, band) per slot, in start order."""
        return self._table_ns


def build_superframe(cfg: MacConfig) -> Superframe:
    """TDMA layout for one communication cycle.

    Default: slots_per_superframe back-to-back slots of slot_duration,
    alternating forward/feedback starting with forward, each on its FDD
    band. The stock 2-slot layout spans 2 ms: one full cycle.
    """
    cfg.validate()
    if cfg.custom_slots is not None:
        slots = tuple(Slot(start_offset=float(start), duration=float(dur),
                           direction=direction, band=int(band))
                      for direction, start, dur, band in cfg.custom_slots)
    else:
        slots = tuple(
            Slot(start_offset=i * cfg.slot_duration, duration=cfg.slot_duration,
                 direction=FORWARD if i % 2 == 0 else FEEDBACK,
                 band=cfg.forward_band if i % 2 == 0 else cfg.feedback_band)
            for i in range(cfg.slots_per_superframe))

    band_of = {FORWARD: cfg.forward_band, FEEDBACK: cfg.feedback_band}
    for i, s in enumerate(slots):
        if s.direction not in (FORWARD, FEEDBACK):
            raise InvalidConfigError(f"slot {i} has unknown direction {s.direction!r}")
        if s.duration <= 0:
            raise InvalidConfigError(f"slot {i} has non-positive duration")
        if s.band != band_of[s.direction]:
            raise InvalidConfigError(
                f"slot {i} ({s.direction}) assigned band {s.band}, expected "
                f"{band_of[s.direction]} (FDD violation)")
    ordered = sorted(range(len(slots)), key=lambda i: slots[i].start_offset)
    for a, b in zip(ordered, ordered[1:]):
        end_a = _ns(slots[a].start_offset) + _ns(slots[a].duration)
        if end_a > _ns(slots[b].start_offset):
            raise InvalidConfigError(
                f"slots {a} and {b} overlap in time "
                f"({slots[a]} vs {slots[b]})")
    return Superframe(slots=tuple(slots[i] for i in ordered))


def hop_channel(cfg: MacConfig, slot_global_index: int) -> int:
    """In-band channel for a slot: (index * increment) mod channel_count."""
    return (slot_global_index * cfg.hop_increment) % cfg.channel_count


@dataclass(frozen=True)
class ChannelModel:
    """Loss process parameters; probabilities all in [0, 1].

    Per transmission the loss probability composes a static per-channel
    floor with the Gilbert-Elliott state-dependent loss:
        p = 1 - (1 - static) * (1 - ge_state_loss)
    Defaults are lossless (good state is perfect and never left).
    """

    default_loss: float = 0.0
    per_channel_loss: tuple[tuple[int, float], ...] = ()
    p_good_to_bad: float = 0.0
    p_bad_to_good: float = 1.0
    loss_good: float = 0.0
    loss_bad: float = 1.0

    def __post_init__(self) -> None:
        probs = [self.default_loss, self.p_good_to_bad, self.p_bad_to_good,
                 self.loss_good, self.loss_bad]
        probs += [p for _, p in self.per_channel_loss]
        if any(not 0.0 <= p <= 1.0 for p in probs):
            raise ValueError("all channel probabilities must be in [0, 1]")

    def static_loss(self, channel: int) -> float:
        for ch, p in self.per_channel_loss:
            if ch == channel:
                return p
        return self.default_loss

    def stationary_loss_rate(self) -> float:
        """Long-run Gilbert-Elliott loss rate (ignores the static floor)."""
        s = self.p_good_to_bad + self.p_bad_to_good
        if s == 0.0:
            return self.loss_good  # chain frozen in its initial (good) state
        pi_bad = self.p_good_to_bad / s
        return (1.0 - pi_bad) * self.loss_good + pi_bad * self.loss_bad


_GOOD, _BAD = 0, 1


class ChannelProcess:
    """Per-channel Gilbert-Elliott phase, advanced lazily per slot clock.

    Each channel's chain starts in the good state on first use and is
    brought forward by the elapsed number of slots with the analytic
    n-step transition probability (one uniform per use). One process
    instance is owned by exactly one link.
    """

    def __init__(self, model: ChannelModel):
        self.model = model
        self._state: dict[int, int] = {}
        self._last_slot: dict[int, int] = {}
        # n-step law: P(state changes) = pi_other * (1 - (1 - s)^n)
        self._s = model.p_good_to_bad + model.p_bad_to_good
        self._pi_bad = model.p_good_to_bad / self._s if self._s else 0.0

    def _advance(self, channel: int, slot_index: int, rng: np.random.Generator) -> int:
        state = self._state.get(channel, _GOOD)
        n = slot_index - self._last_slot.get(channel, slot_index)
        s = self._s
        if s == 0.0 or n <= 0:
            p_other = 0.0
        else:
            r_n = (1.0 - s) ** n
            if state == _GOOD:
                p_other = self._pi_bad * (1.0 - r_n)
            else:
                p_other = (1.0 - self._pi_bad) * (1.0 - r_n)
        if rng.random() < p_other:
            state = _BAD if state == _GOOD else _GOOD
        self._state[channel] = state
        self._last_slot[channel] = slot_index
        return state

    def loss_probability(self, channel: int, slot_index: int,
                         rng: np.random.Generator) -> float:
        state = self._advance(channel, slot_index, rng)
        ge = self.model.loss_good if state == _GOOD else self.model.loss_bad
        static = self.model.static_loss(channel)
        return 1.0 - (1.0 - static) * (1.0 - ge)


class DeliveryOutcome(NamedTuple):
    """One transmit's result; a tuple because every frame builds one."""

    status: str                    # delivered | lost
    send_ns: int
    deliver_ns: int | None = None
    channel_used: int | None = None
    slot_index: int | None = None

    @property
    def delivered(self) -> bool:
        return self.status == "delivered"

    @property
    def send_time(self) -> float:
        return self.send_ns / 1e9

    @property
    def deliver_time(self) -> float | None:
        return None if self.deliver_ns is None else self.deliver_ns / 1e9


def transmit(cfg: MacConfig, superframe: Superframe | None,
             channel: ChannelProcess, direction: str, ready_ns: int,
             loss_rng: np.random.Generator,
             jitter_rng: np.random.Generator | None = None) -> DeliveryOutcome:
    """Deliver one frame over the configured link; loss is an outcome.

    ready_ns is the time the frame is handed to the radio, in integer ns.
    Every slot/event attempt consumes exactly two uniforms from loss_rng
    (chain advance + loss draw); BLE additionally consumes one jitter
    uniform per attempt.
    """
    extra_ns = _ns(cfg.extra_delay)

    if cfg.variant == IDEAL:
        return DeliveryOutcome("delivered", ready_ns, ready_ns + 1 + extra_ns)

    if cfg.variant == BLE:
        interval_ns = _ns(cfg.ble_connection_interval)
        event = ready_ns // interval_ns + 1  # first boundary strictly after
        jitter = jitter_rng if jitter_rng is not None else loss_rng
        jitter_ns = _ns(jitter.uniform(0.0, cfg.ble_jitter_max))
        ch = hop_channel(cfg, event)
        p_loss = channel.loss_probability(ch, event, loss_rng)
        lost = loss_rng.random() < p_loss
        if lost:
            return DeliveryOutcome("lost", ready_ns, None, ch, event)
        return DeliveryOutcome("delivered", ready_ns,
                               event * interval_ns + jitter_ns + extra_ns, ch, event)

    # gallop: next admissible slot of this direction, retry within superframe
    if superframe is None:
        raise InvalidConfigError("gallop transmission requires a superframe")
    slots = superframe._direction_ns[direction]
    if not slots:
        # degenerate layout without this direction: the frame can never
        # be carried (e.g. forward-only frames starve the controller)
        return DeliveryOutcome("lost", ready_ns)

    span = superframe._span_ns
    sf, phase = divmod(ready_ns - _ns(cfg.slot_guard), span)
    for first, slot in enumerate(slots):
        if slot[0] >= phase:
            candidates = slots[first:]
            break
    else:  # none left in this superframe: the next one has them all
        sf += 1
        candidates = slots
    base_ns = sf * span
    base_idx = sf * len(superframe._table_ns)
    band_ch = (cfg.forward_band if direction == FORWARD else cfg.feedback_band) \
        * cfg.channel_count

    for _start, end, pos in candidates:
        global_idx = base_idx + pos
        ch = band_ch + hop_channel(cfg, global_idx)
        p_loss = channel.loss_probability(ch, global_idx, loss_rng)
        if not loss_rng.random() < p_loss:
            return DeliveryOutcome("delivered", ready_ns, base_ns + end + extra_ns,
                                   ch, global_idx)
    return DeliveryOutcome("lost", ready_ns, None, ch, global_idx)


@dataclass(frozen=True)
class ClockState:
    true_time: float = 0.0       # s
    local_offset: float = 0.0    # s, local clock = true time + offset
    drift_rate: float = 0.0      # ppm
    last_sync_time: float = 0.0  # s


def advance_clock(clk: ClockState, dt: float) -> ClockState:
    """Let the local clock drift for dt seconds of true time."""
    if dt < 0:
        raise ValueError("dt must be >= 0")
    return replace(clk, true_time=clk.true_time + dt,
                   local_offset=clk.local_offset + clk.drift_rate * 1e-6 * dt)


def sync_epoch(clk: ClockState, cfg: MacConfig,
               rng: np.random.Generator) -> ClockState:
    """Network-wide resync: offset resampled within the sync error bound."""
    bound = cfg.sync_error_bound
    offset = rng.uniform(-bound, bound)
    return replace(clk, local_offset=offset, last_sync_time=clk.true_time)


@dataclass(frozen=True)
class LatencySummary:
    min: float       # s
    mean: float      # s
    variance: float  # s^2
    p99: float       # s
    n_delivered: int
    n_lost: int


def latency_distribution(cfg: MacConfig, channel_model: ChannelModel,
                         n_samples: int, rng: np.random.Generator,
                         aligned: bool = False) -> LatencySummary:
    """Monte-Carlo summary of full-cycle (forward + feedback) latency.

    One sample = one sensor-to-actuation exchange. Ready times are placed
    one per communication period; `aligned` pins them to period starts
    (the scheduled-sampling operating point), otherwise the phase within
    each period is uniform. Lost cycles are counted, not averaged.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    cfg.validate()
    superframe = build_superframe(cfg) if cfg.variant == GALLOP else None
    period_ns = superframe.span_ns if superframe is not None else \
        _ns(cfg.ble_connection_interval if cfg.variant == BLE else 0.005)
    process = ChannelProcess(channel_model)

    latencies_ms: list[float] = []
    n_lost = 0
    for i in range(n_samples):
        ready = i * period_ns
        if not aligned:
            ready += _ns(rng.uniform(0.0, period_ns / 1e9))
        fwd = transmit(cfg, superframe, process, FORWARD, ready, rng, rng)
        if not fwd.delivered:
            n_lost += 1
            continue
        fbk = transmit(cfg, superframe, process, FEEDBACK, fwd.deliver_ns, rng, rng)
        if not fbk.delivered:
            n_lost += 1
            continue
        latencies_ms.append((fbk.deliver_ns - ready) / 1e6)

    if not latencies_ms:
        nan = float("nan")
        return LatencySummary(nan, nan, nan, nan, 0, n_lost)
    arr = np.array(latencies_ms)
    mean_ms = float(arr.mean())
    return LatencySummary(
        min=float(arr.min()) / 1e3,
        mean=mean_ms / 1e3,
        variance=float(np.mean((arr - mean_ms) ** 2)) / 1e6,
        p99=float(np.percentile(arr, 99)) / 1e3,
        n_delivered=len(latencies_ms),
        n_lost=n_lost,
    )
