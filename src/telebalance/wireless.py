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
ChannelProcess.lost is the one loss decision, for a BLE event and a gallop
slot alike: it advances the chain lazily by the analytic n-step transition
law (one uniform draw), then draws the loss; a channel that cannot lose a
frame is never drawn on.
RobotClock is the robot's local clock, the one the engine samples on: its
offset grows linearly with drift between syncs, and each sync (t = 0, then
every epoch) redraws it within the sync error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .plant import MAX_MAGNITUDE, Seconds, check_finite

GALLOP = "gallop"
BLE = "ble_baseline"
IDEAL = "ideal"

FORWARD = "forward"
FEEDBACK = "feedback"

BLE_MIN_INTERVAL_S = 0.0075
# build_superframe lays out every slot, and transmit scans a direction's
# slots for each frame
MAX_SLOTS = 1000

# the keys a config file writes in a grammar of their own
SlotLayout = tuple     # ((direction, start_s, duration_s), ...)
ChannelFloors = tuple  # ((channel, loss probability), ...)


def _ns(seconds: float) -> int:
    return round(seconds * 1e9)


@dataclass(frozen=True)
class MacConfig:
    """Link parameters, checked when built; the clock defaults to the
    idealized sync (no drift, no sync error). __post_init__ lays out the
    link's rules once, as attributes that are not keys: nominal_cycle, the
    cycle unless a scenario sets its own; channel_base, each direction's
    first channel (gallop's FDD bands: forward from 0, feedback from
    channel_count); the fixed delays in whole ns; and gallop's superframe."""

    variant: str = GALLOP
    slot_duration: Seconds = 1e-3
    slots_per_superframe: int = 2        # forward, feedback, alternating
    channel_count: int = 37              # hop channels per band
    hop_increment: int = 7               # coprime with channel_count
    sync_epoch_period: Seconds = 1.0
    sync_error_bound: Seconds = 0.0
    clock_drift_ppm: float = 0.0
    ble_connection_interval: Seconds = 0.0075
    ble_jitter_max: Seconds = 2e-3
    slot_guard: Seconds = 1e-4           # admission tolerance after slot start
    extra_delay: Seconds = 0.0           # added to every delivery
    slots: SlotLayout | None = None

    def __post_init__(self) -> None:
        check_finite(self)
        if self.variant not in (GALLOP, BLE, IDEAL):
            raise ValueError(f"unknown mac variant {self.variant!r}")
        # event times are whole ns: a shorter slot or sync period is 0 ns long
        if _ns(self.slot_duration) <= 0:
            raise ValueError("slot_duration must be at least 1 ns")
        if not 1 <= self.slots_per_superframe <= MAX_SLOTS:
            raise ValueError(f"slots_per_superframe must be in [1, {MAX_SLOTS}]")
        if self.channel_count < 1 or self.hop_increment < 1:
            raise ValueError("channel_count and hop_increment must be >= 1")
        if math.gcd(self.hop_increment, self.channel_count) != 1:
            raise ValueError(
                f"hop_increment {self.hop_increment} shares a factor with "
                f"channel_count {self.channel_count}")
        if self.ble_connection_interval < BLE_MIN_INTERVAL_S:
            raise ValueError("ble_connection_interval must be >= 7.5 ms")
        if self.ble_jitter_max < 0 or self.extra_delay < 0:
            raise ValueError("ble_jitter_max and extra_delay must be >= 0")
        if not 0 <= self.slot_guard < self.slot_duration:
            raise ValueError("slot_guard must be in [0, slot_duration)")
        if _ns(self.sync_epoch_period) <= 0:
            raise ValueError("sync_epoch_period must be at least 1 ns")
        if self.sync_error_bound < 0:
            raise ValueError("sync_error_bound must be >= 0")
        # a stopped or reversed clock never samples, a racing one every few ns
        if not -1e6 < self.clock_drift_ppm < 1e6:
            raise ValueError("clock_drift_ppm must be in (-1e6, 1e6)")
        # cycle: the superframe span, the connection interval, or 5 ms;
        # base: each direction's first channel, none on the ideal link
        superframe, base = None, {}
        if self.variant == GALLOP:
            superframe = build_superframe(self)
            cycle = superframe.span_ns / 1e9
            base = {FORWARD: 0, FEEDBACK: self.channel_count}
        elif self.slots is not None:
            raise ValueError(
                f"slots apply only to the {GALLOP} variant, not {self.variant!r}")
        elif self.variant == BLE:
            cycle, base = self.ble_connection_interval, {FORWARD: 0, FEEDBACK: 0}
        else:
            cycle = 0.005
        # plain attributes, past the frozen __setattr__
        self.__dict__.update(
            superframe=superframe, nominal_cycle=cycle, channel_base=base,
            extra_delay_ns=_ns(self.extra_delay), slot_guard_ns=_ns(self.slot_guard),
            ble_interval_ns=_ns(self.ble_connection_interval))


class Slot(NamedTuple):
    """One slot of the superframe, in whole ns from the superframe start."""

    start_ns: int
    end_ns: int
    direction: str       # forward | feedback


class Superframe(NamedTuple):
    """One TDMA cycle in whole ns, as build_superframe lays it out."""

    slots: tuple[Slot, ...]  # in start order
    span_ns: int             # the latest slot end
    # direction -> (start_ns, end_ns, position in slots) of its slots, in
    # start order: the table transmit scans
    by_direction: dict[str, tuple[tuple[int, int, int], ...]]


def build_superframe(cfg: MacConfig) -> Superframe:
    """TDMA layout for one communication cycle, checked and laid out in ns.

    Default: slots_per_superframe back-to-back slots of slot_duration,
    alternating forward/feedback starting with forward; cfg.slots gives
    each slot's (direction, start_s, duration_s) instead. A slot's
    direction picks its FDD band. The stock 2-slot layout spans 2 ms.
    """
    layout = cfg.slots if cfg.slots is not None else [
        (FEEDBACK if i % 2 else FORWARD, i * cfg.slot_duration, cfg.slot_duration)
        for i in range(cfg.slots_per_superframe)]
    # slots_per_superframe is bounded already; a custom layout is bounded here
    if not 1 <= len(layout) <= MAX_SLOTS:
        raise ValueError(f"slots must hold 1 to {MAX_SLOTS} slots, got {len(layout)}")

    slots, starts = [], []
    for i, entry in enumerate(layout):
        try:
            direction, start, dur = entry
            start, dur = float(start), float(dur)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"slots entry {i} must be (direction, start_s, "
                             f"duration_s), got {entry!r}") from None
        if direction not in (FORWARD, FEEDBACK):
            raise ValueError(f"slot {i} has unknown direction {direction!r}")
        if not (abs(start) <= MAX_MAGNITUDE and abs(dur) <= MAX_MAGNITUDE):
            raise ValueError(
                f"slot {i} has a non-finite start or duration, or one beyond "
                f"+/-{MAX_MAGNITUDE:g} s")
        if start < 0:
            raise ValueError(f"slot {i} starts before the superframe, at {start!r} s")
        # a frame admitted slot_guard late must still end after it was ready
        if _ns(dur) <= _ns(cfg.slot_guard):
            raise ValueError(f"slot {i} duration must exceed slot_guard "
                             f"({cfg.slot_guard!r} s), got {dur!r} s")
        slots.append(Slot(_ns(start), _ns(start) + _ns(dur), direction))
        starts.append(start)
    # by the seconds given: starts that round to one ns keep their order
    ordered = sorted(range(len(slots)), key=starts.__getitem__)
    for a, b in zip(ordered, ordered[1:]):
        if slots[a].end_ns > slots[b].start_ns:
            raise ValueError(
                f"slots {a} and {b} overlap in time ({slots[a]} vs {slots[b]})")
    table = tuple(slots[i] for i in ordered)
    return Superframe(
        table, max(s.end_ns for s in table),
        {d: tuple((s.start_ns, s.end_ns, pos) for pos, s in enumerate(table)
                  if s.direction == d)
         for d in (FORWARD, FEEDBACK)})


@dataclass(frozen=True)
class ChannelModel:
    """Loss process parameters; probabilities all in [0, 1].

    Per transmission the loss probability composes a static per-channel
    floor with the Gilbert-Elliott state-dependent loss:
        p = 1 - (1 - static) * (1 - ge_state_loss)
    Defaults are lossless (good state is perfect and never left).
    """

    default_loss: float = 0.0
    per_channel: ChannelFloors = ()
    p_good_to_bad: float = 0.0
    p_bad_to_good: float = 1.0
    loss_good: float = 0.0
    loss_bad: float = 1.0

    def __post_init__(self) -> None:
        check_finite(self)
        probs = [self.default_loss, self.p_good_to_bad, self.p_bad_to_good,
                 self.loss_good, self.loss_bad]
        probs += [p for _, p in self.per_channel]
        if any(not 0.0 <= p <= 1.0 for p in probs):
            raise ValueError("all channel probabilities must be in [0, 1]")
        channels = [ch for ch, _ in self.per_channel]
        for i, ch in enumerate(channels):
            if ch in channels[:i]:
                raise ValueError(f"per_channel lists channel {ch} twice")

    def stationary_loss_rate(self) -> float:
        """Long-run Gilbert-Elliott loss rate (ignores the static floor)."""
        s = self.p_good_to_bad + self.p_bad_to_good
        if s == 0.0:
            return self.loss_good  # chain frozen in its initial (good) state
        pi_bad = self.p_good_to_bad / s
        return (1.0 - pi_bad) * self.loss_good + pi_bad * self.loss_bad


class ChannelProcess:
    """Per-channel Gilbert-Elliott phase, advanced lazily per slot clock.

    Each channel's chain starts in the good state on first use and is
    brought forward by lost(), the one use, over the elapsed number of
    slots with the analytic n-step transition probability. One process
    instance is owned by exactly one link.
    """

    def __init__(self, model: ChannelModel):
        self.model = model
        # channel -> (in the bad state, slot index of its last use)
        self._chain: dict[int, tuple[bool, int]] = {}
        # channel -> its static loss floor; default_loss for any other
        self._static = dict(model.per_channel)
        # n-step law: P(state changes) = pi_other * (1 - (1 - s)^n)
        self._s = model.p_good_to_bad + model.p_bad_to_good
        self._pi_bad = model.p_good_to_bad / self._s if self._s else 0.0
        # no draw can lose a frame: every loss probability it could meet is 0
        self.lossless = not (
            model.default_loss or model.loss_good
            or any(self._static.values())
            or (model.p_good_to_bad and model.loss_bad))

    def lost(self, channel: int, slot_index: int, rng: np.random.Generator) -> bool:
        """Whether a frame on channel in slot slot_index is lost. A lossless
        process draws nothing; any other advances the channel's chain to
        slot_index (one uniform), then draws the loss (one more)."""
        if self.lossless:
            return False
        bad, last_slot = self._chain.get(channel, (False, slot_index))
        n = slot_index - last_slot
        s = self._s
        pi_other = 1.0 - self._pi_bad if bad else self._pi_bad
        p_other = pi_other * (1.0 - (1.0 - s) ** n) if s and n > 0 else 0.0
        if rng.random() < p_other:
            bad = not bad
        self._chain[channel] = (bad, slot_index)
        ge = self.model.loss_bad if bad else self.model.loss_good
        static = self._static.get(channel, self.model.default_loss)
        return 1.0 - (1.0 - static) * (1.0 - ge) > rng.random()


class DeliveryOutcome(NamedTuple):
    """One transmit's result, built by tuple.__new__ for every frame. A
    field that does not apply is None: deliver_ns exactly when the frame is
    lost, channel_used and slot_index when no slot was tried (ideal link)."""

    deliver_ns: int | None
    channel_used: int | None = None
    slot_index: int | None = None

    @property
    def delivered(self) -> bool:
        return self.deliver_ns is not None


def transmit(cfg: MacConfig, channel: ChannelProcess, direction: str,
             ready_ns: int, loss_rng: np.random.Generator,
             jitter_rng: np.random.Generator | None = None) -> DeliveryOutcome:
    """Deliver one frame over the configured link; loss is an outcome.

    ready_ns is the time the frame is handed to the radio, in integer ns.
    A BLE event draws one uniform from jitter_rng, which the BLE link
    requires. On a lossy channel each BLE event and each gallop slot
    attempt then draws two uniforms from loss_rng: chain advance, loss
    draw. A lossless channel, and the ideal link, draw nothing from it.
    """
    extra_ns = cfg.extra_delay_ns

    if cfg.variant == IDEAL:
        return tuple.__new__(DeliveryOutcome, (ready_ns + 1 + extra_ns, None, None))

    if cfg.variant == BLE:
        # one try: a one-slot table at the first event strictly after, jittered
        base_idx = ready_ns // cfg.ble_interval_ns + 1
        base_ns = base_idx * cfg.ble_interval_ns \
            + _ns(jitter_rng.uniform(0.0, cfg.ble_jitter_max))
        slots, phase = ((0, 0, 0),), 0
    else:
        # gallop: next admissible slot of this direction, retry in the superframe
        superframe = cfg.superframe
        slots = superframe.by_direction[direction]
        if not slots:
            # degenerate layout without this direction: the frame can never
            # be carried (e.g. forward-only frames starve the controller)
            return DeliveryOutcome(None)
        span = superframe.span_ns
        sf, phase = divmod(ready_ns - cfg.slot_guard_ns, span)
        if phase > slots[-1][0]:
            # none left in this superframe: the next one has them all
            sf += 1
            phase = slots[0][0]
        base_ns = sf * span
        base_idx = sf * len(superframe.slots)

    for start, end, pos in slots:
        if start < phase:
            continue
        # the channel law: the direction's base plus the hop over the index
        index = base_idx + pos
        ch = cfg.channel_base[direction] + index * cfg.hop_increment % cfg.channel_count
        if channel.lossless or not channel.lost(ch, index, loss_rng):
            return tuple.__new__(DeliveryOutcome, (base_ns + end + extra_ns, ch, index))
    return tuple.__new__(DeliveryOutcome, (None, ch, index))


def check_channels_used(cfg: MacConfig, channels) -> None:
    """Reject a loss floor on a channel transmit never uses. By its channel
    law, a direction at slot positions P of an n-slot superframe (BLE: one
    slot, both directions at base 0) uses base + j, 0 <= j < channel_count,
    exactly when j % g is in {p * hop_increment % g for p in P}, with
    g = gcd(n, channel_count). The ideal link uses none, so takes any floor."""
    n, sf = cfg.channel_count, cfg.superframe
    g = math.gcd(len(sf.slots), n) if sf else 1
    used = {base: {p * cfg.hop_increment % g
                   for _, _, p in (sf.by_direction[d] if sf else ((0, 0, 0),))}
            for d, base in cfg.channel_base.items()}
    for ch in channels:
        if used and not any(0 <= ch - b < n and (ch - b) % g in r for b, r in used.items()):
            ranges = " and ".join(f"{b}-{b + n - 1}" + f" (offset % {g} in {sorted(r)})"
                                  * (g > 1) for b, r in used.items() if r)
            raise ValueError(f"per_channel channel {ch} is never used: "
                             f"{cfg.variant} uses channels {ranges}")


class RobotClock:
    """Local sampling clock: local(t) = t + offset + drift * (t - t_sync).

    Each sync draws the offset uniformly within the sync error bound; the
    constructor is the t = 0 sync. version counts syncs.
    """

    def __init__(self, mac: MacConfig, rng: np.random.Generator):
        self.drift = mac.clock_drift_ppm * 1e-6
        self.bound = mac.sync_error_bound
        self.rng = rng
        self.version = 0
        self.sync(0)

    def sync(self, true_ns: int) -> None:
        """Network-wide resync at true time true_ns."""
        self.offset_s = self.rng.uniform(-self.bound, self.bound)
        self.sync_ns = true_ns
        self.version += 1

    def local_to_true_ns(self, local_ns: int) -> int:
        """True time, in whole ns, at which the local clock reads local_ns."""
        t = (local_ns - self.offset_s * 1e9 + self.drift * self.sync_ns) \
            / (1.0 + self.drift)
        return round(t)
