"""Link models: deterministic TDMA/FDD superframe link, BLE-style baseline,
and an ideal pass-through, plus per-channel burst loss and clock sync.

Event times are integer ns, so delivery schedules are exact and
repeatable; the public configuration stays in seconds. Every link is one
slot table repeated each period (Superframe) and one admission rule: a
frame goes out in the first slot of its direction that starts at most
admit_ns before it is ready, and arrives at that slot's end.

  gallop       TDMA superframe of slots_per_superframe back-to-back
               slots (2 by default), alternating forward / feedback from
               forward, on disjoint FDD bands with per-slot frequency
               hopping, admitting up to slot_guard late; a loss may be
               retried in a later slot of the same direction and superframe.
  ble_baseline one event a connection interval for both directions, taking
               frames ready strictly before it, plus a uniform jitter.
  ideal        pass-through with 1 ns latency, no loss (for experiments
               isolating the control loop from the network).

Channel impairments are per-channel Gilbert-Elliott chains (good/bad
burst states) composed with one static loss floor for every channel.
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
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .plant import Seconds, _ns, check_finite, check_range

GALLOP = "gallop"
BLE = "ble_baseline"
IDEAL = "ideal"

FORWARD = "forward"
FEEDBACK = "feedback"

BLE_MIN_INTERVAL_S = 0.0075
# MacConfig lays out every gallop slot, and transmit scans a direction's
# slots for each frame
MAX_SLOTS = 1000
# the channels a hop steps each slot: prime, so on any channel_count it
# does not divide, channel_count consecutive slots use every channel once
HOP_INCREMENT = 7


@dataclass(frozen=True)
class MacConfig:
    """Link parameters, checked when built; the clock defaults to the
    idealized sync (no drift, no sync error). __post_init__ lays out the
    link's rules once, as attributes that are not keys: nominal_cycle, the
    cycle unless a scenario sets its own; channel_base, each direction's
    first channel (gallop's FDD bands: forward from 0, feedback from
    channel_count), which slot index i hops past by i * HOP_INCREMENT %
    channel_count; extra_delay_ns; and the slot table and admission rule
    (module docstring), superframe and admit_ns. Gallop's table is
    slots_per_superframe slots, each d = slot_duration in whole ns long,
    slot k spanning [k d, (k + 1) d). slots_per_superframe is in [2, 1000],
    so every superframe carries both directions: a control cycle needs a
    forward slot and a feedback slot."""

    variant: str = GALLOP
    slot_duration: Seconds = 1e-3
    slots_per_superframe: int = 2        # forward, feedback, alternating
    channel_count: int = 37              # hop channels per band
    sync_epoch_period: Seconds = 1.0
    sync_error_bound: Seconds = 0.0
    clock_drift_ppm: float = 0.0
    ble_connection_interval: Seconds = 0.0075
    ble_jitter_max: Seconds = 2e-3
    slot_guard: Seconds = 1e-4           # admission tolerance after slot start
    extra_delay: Seconds = 0.0           # added to every delivery

    def __post_init__(self) -> None:
        check_finite(self)
        if self.variant not in (GALLOP, BLE, IDEAL):
            raise ValueError(f"variant must be one of {GALLOP}, {BLE}, {IDEAL}, got {self.variant!r}")
        # event times are whole ns: a shorter slot or sync period is 0 ns long
        if _ns(self.slot_duration) <= 0:
            raise ValueError(f"slot_duration must be at least 1 ns, got {self.slot_duration!r} s")
        check_range(self, ("slots_per_superframe",), 2, MAX_SLOTS)
        check_range(self, ("channel_count",), 1)
        if self.channel_count % HOP_INCREMENT == 0:
            raise ValueError(f"channel_count must not be a multiple of the hop "
                             f"increment {HOP_INCREMENT}, got {self.channel_count}")
        if self.ble_connection_interval < BLE_MIN_INTERVAL_S:
            raise ValueError("ble_connection_interval must be >= 7.5 ms, "
                             f"got {self.ble_connection_interval!r} s")
        # gallop checks below that its slots outlast slot_guard
        check_range(self, ("ble_jitter_max", "extra_delay", "slot_guard",
                           "sync_error_bound"), 0)
        if _ns(self.sync_epoch_period) <= 0:
            raise ValueError("sync_epoch_period must be at least 1 ns, "
                             f"got {self.sync_epoch_period!r} s")
        # a stopped or reversed clock never samples, a racing one every few ns
        if not -1e6 < self.clock_drift_ppm < 1e6:
            raise ValueError(f"clock_drift_ppm must be in (-1e6, 1e6), got {self.clock_drift_ppm!r}")
        # cycle: the superframe span, the connection interval, or 5 ms;
        # base: each direction's first channel, none on the ideal link
        if self.variant == GALLOP:
            # a frame admitted slot_guard late must still arrive after it
            # was ready
            n, d, admit = self.slots_per_superframe, _ns(self.slot_duration), _ns(self.slot_guard)
            if d <= admit:
                raise ValueError(f"slot_duration {self.slot_duration!r} s must exceed "
                                 f"slot_guard {self.slot_guard!r} s")
            superframe = Superframe(n, n * d, {
                direction: tuple((k * d, (k + 1) * d, k) for k in range(first, n, 2))
                for first, direction in enumerate((FORWARD, FEEDBACK))})
            cycle = superframe.span_ns / 1e9
            base = {FORWARD: 0, FEEDBACK: self.channel_count}
        else:
            # one event a period (1 ns on the ideal link), for both directions
            ble = self.variant == BLE
            span = _ns(self.ble_connection_interval) if ble else 1
            superframe = Superframe(1, span, dict.fromkeys((FORWARD, FEEDBACK), ((0, 0, 0),)))
            admit, cycle = -1, self.ble_connection_interval if ble else 0.005
            base = dict.fromkeys((FORWARD, FEEDBACK) if ble else (), 0)
        # plain attributes, past the frozen __setattr__
        self.__dict__.update(
            superframe=superframe, admit_ns=admit, nominal_cycle=cycle,
            channel_base=base, extra_delay_ns=_ns(self.extra_delay))


class Superframe(NamedTuple):
    """A link's slot table in whole ns, repeated every span_ns: gallop's
    TDMA cycle of slots_per_superframe equal slots, alternating forward and
    feedback from forward, or one event at the start of each BLE connection
    interval (each ns on the ideal link)."""

    count: int               # slots a period; slot k of period p is index p * count + k
    span_ns: int             # the period: gallop's last slot end
    # direction -> (start_ns, end_ns, position k) of its slots, in start
    # order: the table transmit scans
    by_direction: dict[str, tuple[tuple[int, int, int], ...]]


@dataclass(frozen=True)
class ChannelModel:
    """Loss process parameters; probabilities all in [0, 1].

    Per transmission the loss probability composes the static floor
    default_loss, the same on every channel, with the loss of the state
    of the channel's own Gilbert-Elliott chain (good 0, bad loss_bad):
        p = 1 - (1 - default_loss) * (1 - ge_state_loss)
    Defaults are lossless (the good state is never left).
    """

    default_loss: float = 0.0
    p_good_to_bad: float = 0.0
    p_bad_to_good: float = 1.0
    loss_bad: float = 1.0

    def __post_init__(self) -> None:
        check_finite(self)
        check_range(self, ("default_loss", "p_good_to_bad", "p_bad_to_good",
                           "loss_bad"), 0, 1)


class ChannelProcess:
    """Per-channel Gilbert-Elliott phase, advanced lazily per slot clock.

    Each channel's chain starts in the good state on first use and is
    brought forward by lost(), the one use, over the elapsed number of
    slots with the analytic n-step law, then loses the frame at its
    state's ChannelModel probability. One process serves exactly one link.
    """

    def __init__(self, model: ChannelModel):
        self.model = model
        # channel -> (in the bad state, slot index of its last use)
        self._chain: dict[int, tuple[bool, int]] = {}
        # n-step law: P(state changes) = pi_other * (1 - (1 - s)^n)
        self._s = model.p_good_to_bad + model.p_bad_to_good
        self._pi_bad = model.p_good_to_bad / self._s if self._s else 0.0
        # no draw can lose a frame: every loss probability it could meet is 0
        self.lossless = not (
            model.default_loss or (model.p_good_to_bad and model.loss_bad))

    def lost(self, channel: int, slot_index: int, rng: np.random.Generator) -> bool:
        """Whether a frame on channel in slot slot_index is lost: advances
        the channel's chain to slot_index (one uniform), then draws the loss
        (one more). Asked only of a lossy process; transmit draws nothing
        on a lossless one."""
        bad, last_slot = self._chain.get(channel, (False, slot_index))
        n = slot_index - last_slot
        s = self._s
        pi_other = 1.0 - self._pi_bad if bad else self._pi_bad
        p_other = pi_other * (1.0 - (1.0 - s) ** n) if s and n > 0 else 0.0
        if rng.random() < p_other:
            bad = not bad
        self._chain[channel] = (bad, slot_index)
        ge = self.model.loss_bad if bad else 0.0
        return 1.0 - (1.0 - self.model.default_loss) * (1.0 - ge) > rng.random()


class DeliveryOutcome(NamedTuple):
    """One transmit's result, built by tuple.__new__ for every frame. A
    field that does not apply is None: deliver_ns exactly when the frame is
    lost, channel_used and slot_index on the ideal link."""

    deliver_ns: int | None
    channel_used: int | None
    slot_index: int | None

    @property
    def delivered(self) -> bool:
        return self.deliver_ns is not None


def transmit(cfg: MacConfig, channel: ChannelProcess, direction: str,
             ready_ns: int, loss_rng: np.random.Generator,
             jitter_rng: np.random.Generator | None = None) -> DeliveryOutcome:
    """Deliver one frame over the configured link; loss is an outcome.

    ready_ns is the time the frame is handed to the radio, in integer ns;
    it tries the first slot of its direction admitted then, and each later
    one of that direction in the period. A BLE frame first draws its jitter
    from jitter_rng, which the BLE link requires. On a lossy channel each
    slot tried draws two uniforms from loss_rng: chain advance, loss draw.
    A lossless channel, and the ideal link, draw nothing from it.
    """
    extra_ns = cfg.extra_delay_ns

    if cfg.variant == IDEAL:
        return tuple.__new__(DeliveryOutcome, (ready_ns + 1 + extra_ns, None, None))
    if cfg.variant == BLE:
        extra_ns += _ns(jitter_rng.uniform(0.0, cfg.ble_jitter_max))

    superframe = cfg.superframe
    slots = superframe.by_direction[direction]
    span = superframe.span_ns
    sf, phase = divmod(ready_ns - cfg.admit_ns, span)
    if phase > slots[-1][0]:
        # none left in this period: the next one has them all
        sf += 1
        phase = slots[0][0]
    base_ns = sf * span
    base_idx = sf * superframe.count

    for start, end, pos in slots:
        if start < phase:
            continue
        # the channel law: the direction's base plus the hop over the index
        index = base_idx + pos
        ch = cfg.channel_base[direction] + index * HOP_INCREMENT % cfg.channel_count
        if channel.lossless or not channel.lost(ch, index, loss_rng):
            return tuple.__new__(DeliveryOutcome, (base_ns + end + extra_ns, ch, index))
    return tuple.__new__(DeliveryOutcome, (None, ch, index))


def latency_interval(mac: MacConfig, cycle: float) -> tuple[int, int]:
    """(min, max) sample-to-actuation latency in ns over the samples of an
    episode of any length on the idealized clock, from transmit on a
    lossless channel, every BLE jitter draw at its least, then greatest.
    Samples fall on the multiples of gcd(cycle, span_ns); between the
    phases where the forward slot choice changes (one past a forward slot's
    start plus admit_ns) the latency falls as the sample moves later, so its
    extremes lie at the phases either side of a change."""
    sf = mac.superframe
    changes = [start + mac.admit_ns + 1 for start, _, _ in sf.by_direction[FORWARD]]
    g = math.gcd(_ns(cycle), sf.span_ns)
    lossless = ChannelProcess(ChannelModel())
    latencies = []
    for change in changes:
        after = -(-change // g) * g  # the first sample phase at or past it
        for sample in (after - g, after):
            for extreme in (min, max):  # uniform(lo, hi) gives lo, then hi
                jitter = SimpleNamespace(uniform=extreme)
                ready = transmit(mac, lossless, FORWARD, sample, None, jitter)[0]
                latencies.append(
                    transmit(mac, lossless, FEEDBACK, ready, None, jitter)[0] - sample)
    return min(latencies), max(latencies)


class RobotClock:
    """Local sampling clock: local(t) = t + offset + drift * (t - t_sync).

    Each sync draws the offset uniformly within the sync error bound; the
    constructor is the t = 0 sync. The engine schedules the syncs, counts
    them, and re-schedules a pending sample stamped before the latest one.
    """

    def __init__(self, mac: MacConfig, rng: np.random.Generator):
        self.drift = mac.clock_drift_ppm * 1e-6
        self.bound = mac.sync_error_bound
        self.rng = rng
        self.sync(0)

    def sync(self, true_ns: int) -> None:
        """Network-wide resync at true time true_ns."""
        self.offset_s = self.rng.uniform(-self.bound, self.bound)
        self.sync_ns = true_ns

    def local_to_true_ns(self, local_ns: int) -> int:
        """True time, in whole ns, at which the local clock reads local_ns."""
        t = (local_ns - self.offset_s * 1e9 + self.drift * self.sync_ns) \
            / (1.0 + self.drift)
        return round(t)
