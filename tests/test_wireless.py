import math
import pickle
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from telebalance.wireless import (
    BLE,
    FEEDBACK,
    FORWARD,
    GALLOP,
    HOP_INCREMENT,
    IDEAL,
    MAX_SLOTS,
    ChannelModel,
    ChannelProcess,
    MacConfig,
    RobotClock,
    latency_interval,
    transmit,
)

from oracles import gallop_slot_search, stationary_loss_rate

LOSSLESS = ChannelModel()


def gallop_cfg(**kw):
    return MacConfig(variant=GALLOP, **kw)


def ble_cfg(**kw):
    return MacConfig(variant=BLE, **kw)


def slot_table(superframe):
    """Every (start_ns, end_ns, position) of a superframe, in position order."""
    return sorted((slot for slots in superframe.by_direction.values() for slot in slots),
                  key=lambda slot: slot[2])


class TestSuperframe:
    def test_default_layout_spans_two_slots(self):
        sf = gallop_cfg().superframe
        assert sf.count == 2
        assert sf.span_ns == 2_000_000
        assert sf.by_direction == {FORWARD: ((0, 1_000_000, 0),),
                                   FEEDBACK: ((1_000_000, 2_000_000, 1),)}
        assert gallop_cfg().channel_base == {FORWARD: 0, FEEDBACK: 37}

    def test_fewer_than_two_slots_rejected_naming_slots(self):
        # a superframe carries a forward and a feedback slot: one slot would
        # never deliver a command. Every variant checks the key
        for variant in (GALLOP, BLE, IDEAL):
            for n in (0, 1):
                with pytest.raises(ValueError, match=r"slots_per_superframe must be in "
                                                     rf"\[2, {MAX_SLOTS}\], got {n}$"):
                    MacConfig(variant=variant, slots_per_superframe=n)

    def test_slot_not_longer_than_the_guard_rejected_naming_it(self):
        # a frame admitted slot_guard late would be delivered at or before
        # its ready time: with a 0.1 ms guard, a 50 us slot admits a frame
        # ready at 80 us
        for dur in (5e-5, 1e-4):
            with pytest.raises(ValueError, match=f"slot_duration {dur!r} s must exceed "
                                                 "slot_guard 0.0001 s"):
                gallop_cfg(slot_duration=dur)
        gallop_cfg(slot_duration=1.01e-4)

    def test_more_slots_than_a_superframe_holds_rejected_naming_slots(self):
        # MAX_SLOTS bounds the slots transmit scans, and the bound itself is
        # a valid layout
        for n in (MAX_SLOTS + 1, 1500):
            with pytest.raises(ValueError, match=r"slots_per_superframe must be in "
                                                 rf"\[2, {MAX_SLOTS}\], got {n}"):
                gallop_cfg(slots_per_superframe=n)
        assert gallop_cfg(slots_per_superframe=MAX_SLOTS).superframe.count == MAX_SLOTS

    @pytest.mark.parametrize("dur, n, slot_ns, span_ns", [
        (1.0000006e-3, 3, 1_000_001, 3_000_003),
        (1.0000004e-3, 3, 1_000_000, 3_000_000)])
    def test_a_duration_off_the_ns_grid_gives_equal_slots(self, dur, n, slot_ns, span_ns):
        # every slot is the duration rounded to whole ns: neither the
        # refusal of two slots that overlap by 1 ns nor a 1 ns gap
        sf = gallop_cfg(slot_duration=dur, slots_per_superframe=n).superframe
        assert slot_table(sf) == [(k * slot_ns, (k + 1) * slot_ns, k) for k in range(n)]
        assert sf.span_ns == span_ns

    @pytest.mark.parametrize("key, value", [
        ("slot_duration", 1e-12), ("sync_epoch_period", 1e-12),
        ("slots_per_superframe", MAX_SLOTS + 1)])
    def test_period_below_1_ns_or_slot_count_above_bound_names_key(
            self, key, value):
        # a 0 ns slot or sync period never advances the event clock, and
        # MacConfig lays out every slot
        with pytest.raises(ValueError, match=f"{key} must be"):
            gallop_cfg(**{key: value})

    def test_tdma_slots_pairwise_disjoint(self):
        for n in (2, 3, 4, 6):
            table = slot_table(gallop_cfg(slots_per_superframe=n).superframe)
            assert len(table) == n
            for i in range(len(table)):
                for j in range(i + 1, len(table)):
                    s1, e1 = table[i][0], table[i][1]
                    s2, e2 = table[j][0], table[j][1]
                    assert e1 <= s2 or e2 <= s1


class TestDerivedLinkValues:
    def test_replace_recomputes_them_from_the_keys(self):
        mac = replace(gallop_cfg(), extra_delay=1e-3)
        assert mac.extra_delay_ns == 1_000_000
        assert replace(mac, slot_duration=2e-3).nominal_cycle == 4e-3

    @pytest.mark.parametrize("variant", [GALLOP, BLE, IDEAL])
    def test_pickle_keeps_them(self, variant):
        # a worker process gets its scenario, and so its link, by pickle
        mac = MacConfig(variant=variant)
        copy = pickle.loads(pickle.dumps(mac))
        assert copy == mac
        for name in ("superframe", "admit_ns", "channel_base", "nominal_cycle",
                     "extra_delay_ns"):
            assert getattr(copy, name) == getattr(mac, name), name


def hops(cfg, direction, readies):
    """(channel_used, slot_index) of a lossless transmit at each ready time."""
    proc, rng, jit = ChannelProcess(LOSSLESS), np.random.default_rng(0), \
        np.random.default_rng(1)
    return [transmit(cfg, proc, direction, t, rng, jit)[1:] for t in readies]


def band_offsets(cfg, indices):
    """Sorted channel less its band's base of a lossless transmit in each of
    the 2-slot layout's slot indices: even ones forward, odd ones feedback,
    each from a frame ready at its superframe's start."""
    offsets = []
    for i in indices:
        direction = FEEDBACK if i % 2 else FORWARD
        [(ch, index)] = hops(cfg, direction, [i // 2 * cfg.superframe.span_ns])
        assert index == i
        offsets.append(ch - cfg.channel_base[direction])
    return sorted(offsets)


class TestHopping:
    def test_hop_examples(self):
        # the direction's base plus (index * HOP_INCREMENT) mod channel_count
        assert hops(gallop_cfg(), FORWARD, [0, 2_000_000]) == [(0, 0), (14, 2)]
        assert hops(gallop_cfg(), FEEDBACK, [0]) == [(37 + 7, 1)]
        # BLE numbers both directions from 0; ready at 0 goes out at event 1
        assert hops(ble_cfg(), FEEDBACK, [0]) == [(7, 1)]

    def test_consecutive_slots_cover_all_channels(self):
        # the 2-slot layout's forward and feedback frames together take slot
        # indices 0-36, whose channels less their band's base cover the band;
        # BLE takes 37 consecutive events
        assert band_offsets(gallop_cfg(), range(37)) == list(range(37))
        used = sorted(ch for ch, _ in hops(ble_cfg(), FORWARD,
                                           [k * 7_500_000 for k in range(37)]))
        assert used == list(range(37))

    @settings(max_examples=60, deadline=None)
    @given(count=st.integers(3, 101).filter(lambda c: c % HOP_INCREMENT),
           start=st.integers(0, 10**6))
    def test_coverage_for_any_coprime_increment(self, count, start):
        cfg = gallop_cfg(channel_count=count)
        assert band_offsets(cfg, range(start, start + count)) == list(range(count))

    def test_a_shared_factor_leaves_half_of_each_band_unused(self):
        # README: with channel_count = 36 on the 2-slot layout, forward frames
        # use only the even channels of their band and feedback frames only
        # the odd ones, over any number of superframes
        cfg = gallop_cfg(channel_count=36)
        readies = [k * 2_000_000 for k in range(36)]
        assert {ch for ch, _ in hops(cfg, FORWARD, readies)} == set(range(0, 35, 2))
        assert {ch for ch, _ in hops(cfg, FEEDBACK, readies)} == set(range(37, 72, 2))

    def test_clock_that_stops_or_runs_backwards_rejected(self):
        for drift_ppm in (-1e6, -2e6):
            with pytest.raises(ValueError, match="clock_drift_ppm"):
                gallop_cfg(clock_drift_ppm=drift_ppm)
        gallop_cfg(clock_drift_ppm=-999_999.0)

    def test_clock_a_million_times_fast_rejected(self):
        # such a clock samples every few ns of true time: a short run would
        # not finish
        for drift_ppm in (1e6, 1e11):
            with pytest.raises(ValueError,
                               match=r"clock_drift_ppm must be in \(-1e6, 1e6\)"):
                gallop_cfg(clock_drift_ppm=drift_ppm)
        gallop_cfg(clock_drift_ppm=999_999.0)

    def test_non_coprime_increment_rejected(self):
        with pytest.raises(ValueError, match="channel_count must not be a multiple "
                                             "of the hop increment 7, got 14"):
            gallop_cfg(channel_count=14)


class TestGallopTransmit:
    def test_zero_loss_delivers_at_slot_end(self):
        cfg = gallop_cfg()
        out = transmit(cfg, ChannelProcess(LOSSLESS), FORWARD, 0,
                       np.random.default_rng(0))
        assert out.delivered
        assert out.deliver_ns == 1_000_000

    def test_full_cycle_is_two_ms(self):
        cfg = gallop_cfg()
        proc = ChannelProcess(LOSSLESS)
        rng = np.random.default_rng(0)
        fwd = transmit(cfg, proc, FORWARD, 0, rng)
        fbk = transmit(cfg, proc, FEEDBACK, fwd.deliver_ns, rng)
        assert fbk.deliver_ns - 0 == 2_000_000

    def test_certain_loss_without_retransmission_slot(self):
        cfg = gallop_cfg()
        out = transmit(cfg, ChannelProcess(ChannelModel(default_loss=1.0)),
                       FORWARD, 0, np.random.default_rng(0))
        assert not out.delivered

    def test_retransmission_slot_recovers_single_channel_loss(self):
        # 4-slot frame: forward slots at global indices 0 and 2; the first
        # hop lands on channel 0, the retry on channel 14. Each try draws
        # the chain advance, then the loss, lost below 0.5: the first try
        # is lost, the retry delivered
        cfg = gallop_cfg(slots_per_superframe=4)
        draws = iter([0.5, 0.1, 0.5, 0.9])
        out = transmit(cfg, ChannelProcess(ChannelModel(default_loss=0.5)), FORWARD, 0,
                       SimpleNamespace(random=draws.__next__))
        assert out.delivered
        assert (out.slot_index, out.channel_used) == (2, 14)
        assert out.deliver_ns == 3_000_000
        assert next(draws, None) is None

    def test_mid_frame_ready_waits_for_next_superframe(self):
        cfg = gallop_cfg()
        out = transmit(cfg, ChannelProcess(LOSSLESS), FORWARD, 1_500_000,
                       np.random.default_rng(0))
        assert out.deliver_ns == 3_000_000

    def test_guard_admits_slightly_late_frames(self):
        cfg = gallop_cfg(slot_guard=1e-4)
        out = transmit(cfg, ChannelProcess(LOSSLESS), FORWARD,
                       2_000_000 + 50_000, np.random.default_rng(0))
        assert out.deliver_ns == 3_000_000  # made the slot starting at 2 ms

    def test_extra_delay_shifts_delivery(self):
        cfg = gallop_cfg(extra_delay=5e-3)
        out = transmit(cfg, ChannelProcess(LOSSLESS), FORWARD, 0,
                       np.random.default_rng(0))
        assert out.deliver_ns == 6_000_000

    def test_deliveries_reproducible_for_equal_seeds(self):
        cfg = gallop_cfg()
        model = ChannelModel(default_loss=0.05, p_good_to_bad=0.1, p_bad_to_good=0.3,
                             loss_bad=0.9)

        def run():
            proc = ChannelProcess(model)
            rng = np.random.default_rng(123)
            return [transmit(cfg, proc, FORWARD, i * 2_000_000, rng)
                    for i in range(200)]

        assert run() == run()


class CountingRng:
    """Generator stand-in that counts the uniforms drawn from it."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.draws = 0

    def random(self):
        self.draws += 1
        return self._rng.random()


# (direction, superframe, slot position, slot edge, lands at the guard, ns off)
frame_readies = st.tuples(st.sampled_from([FORWARD, FEEDBACK]),
                          st.integers(0, 3), st.integers(0, 5),
                          st.sampled_from([0, 1]), st.booleans(),
                          st.integers(-2, 2))


class TestGallopSlotTable:
    LOSSY = ChannelModel(default_loss=0.3, p_good_to_bad=0.2,
                         p_bad_to_good=0.4, loss_bad=0.9)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 6), dur_us=st.integers(1, 1000),
           guard_frac=st.sampled_from([0.0, 0.001, 0.05, 0.1, 0.9, 0.999]),
           count=st.sampled_from([37, 5, 1]),
           extra=st.sampled_from([0.0, 3e-3]),
           readies=st.lists(frame_readies, min_size=1, max_size=6),
           seed=st.integers(0, 2**16),
           model=st.sampled_from([LOSSY, LOSSLESS]))
    def test_transmit_matches_brute_force_slot_search(self, n, dur_us, guard_frac,
                                                      count, extra, readies, seed,
                                                      model):
        # a guard below the slot, down to 0
        guard = math.floor(guard_frac * dur_us * 1000) * 1e-9
        cfg = gallop_cfg(slots_per_superframe=n, slot_duration=dur_us * 1e-6,
                         slot_guard=guard, channel_count=count, extra_delay=extra)
        # gallop's layout as the oracle reads it: alternating from forward
        layout = [(FEEDBACK if i % 2 else FORWARD, i * dur_us * 1e-6, dur_us * 1e-6)
                  for i in range(n)]
        sf = cfg.superframe
        table = slot_table(sf)
        guard_ns = round(guard * 1e9)
        procs = ChannelProcess(model), ChannelProcess(model)
        rngs = CountingRng(seed), CountingRng(seed)
        # as transmit does, ask of a loss only on a lossy channel
        lost = (lambda *_: False) if procs[1].lossless else procs[1].lost
        for direction, k, pos, edge, at_guard, off in readies:
            edge_ns = table[pos % len(table)][edge]
            ready = max(0, k * sf.span_ns + edge_ns + off
                        - (guard_ns if at_guard else 0))
            out = transmit(cfg, procs[0], direction, ready, rngs[0])
            ref = gallop_slot_search(layout, direction, ready, guard_ns,
                                     count, HOP_INCREMENT, round(extra * 1e9),
                                     lost, rngs[1])
            assert (out.deliver_ns, out.slot_index, out.channel_used) == ref
            assert out.delivered == (ref[0] is not None)
            # a lossless channel delivers in the reference's slot undrawn
            assert rngs[0].draws == (0 if model is LOSSLESS else rngs[1].draws)

    @pytest.mark.parametrize("model, lossless", [
        (LOSSLESS, True),
        (ChannelModel(p_good_to_bad=0.3, loss_bad=0.0), True),
        # a lossy bad state the chain never enters
        (ChannelModel(p_bad_to_good=0.0, loss_bad=0.5), True),
        # a partly lossy bad state the chain enters and never leaves
        (ChannelModel(p_good_to_bad=0.5, p_bad_to_good=0.0, loss_bad=0.1),
         False),
        (ChannelModel(default_loss=0.1), False),
        # a floor under a chain whose bad state loses nothing
        (ChannelModel(default_loss=0.1, p_good_to_bad=0.3, loss_bad=0.0), False),
        (ChannelModel(p_good_to_bad=0.01), False),
    ])
    def test_lossless_when_no_draw_can_lose(self, model, lossless):
        assert ChannelProcess(model).lossless is lossless


@st.composite
def free_links(draw) -> dict:
    """MacConfig keywords of any variant, with a free slot count, slot
    duration (which may be no longer than the guard), guard, delay and
    jitter; construction may reject them."""
    return dict(variant=draw(st.sampled_from([GALLOP, BLE, IDEAL])),
                slots_per_superframe=draw(st.integers(2, 6)),
                slot_duration=draw(st.integers(1, 1000)) * 1e-6,
                slot_guard=draw(st.sampled_from([0.0, 1e-6, 5e-5, 1e-4, 9e-4])),
                extra_delay=draw(st.sampled_from([0.0, 1e-9, 3e-3])),
                ble_jitter_max=draw(st.sampled_from([0.0, 2e-3, 0.02])))


class TestDeliveryAfterReady:
    @settings(max_examples=300, deadline=None)
    @given(kw=free_links(),
           readies=st.lists(st.one_of(st.integers(0, 200_000),
                                      st.integers(0, 20_000_000)),
                            min_size=1, max_size=8),
           seed=st.integers(0, 2**16),
           model=st.sampled_from([LOSSLESS, TestGallopSlotTable.LOSSY]))
    # a slot 1 ns longer than the 0.1 ms guard, with frames ready at the
    # guard and 1 ns past it
    @example(kw=dict(slot_duration=1.00001e-4), readies=[100_000, 100_001],
             seed=0, model=LOSSLESS)
    def test_every_frame_arrives_after_it_was_ready(self, kw, readies, seed,
                                                    model):
        try:
            cfg = MacConfig(**kw)
        except ValueError:
            reject()
        proc = ChannelProcess(model)
        loss_rng, jitter_rng = np.random.default_rng(seed), np.random.default_rng(seed + 1)
        for direction in (FORWARD, FEEDBACK):
            for ready in readies:
                out = transmit(cfg, proc, direction, ready, loss_rng, jitter_rng)
                assert out.deliver_ns is None or out.deliver_ns > ready


class TestBleTransmit:
    def test_ready_mid_interval_hits_next_boundary(self):
        cfg = ble_cfg(ble_jitter_max=0.0)
        out = transmit(cfg, ChannelProcess(LOSSLESS), FORWARD, 100_000,
                       np.random.default_rng(0), np.random.default_rng(1))
        assert out.deliver_ns == 7_500_000

    def test_one_way_latency_floor_on_scheduled_grid(self):
        cfg = ble_cfg()
        proc = ChannelProcess(LOSSLESS)
        rng = np.random.default_rng(5)
        jit = np.random.default_rng(6)
        interval = 7_500_000
        for k in range(500):
            out = transmit(cfg, proc, FORWARD, k * interval, rng, jit)
            assert out.deliver_ns - k * interval >= interval

    def test_interval_below_floor_rejected(self):
        with pytest.raises(ValueError,
                           match="ble_connection_interval must be >= 7.5 ms"):
            ble_cfg(ble_connection_interval=5e-3)

    @pytest.mark.parametrize("model, draws_per_event", [
        (LOSSLESS, 0), (TestGallopSlotTable.LOSSY, 2)])
    def test_loss_draws_only_on_a_lossy_channel(self, model, draws_per_event):
        # chain advance, then loss draw; a lossless channel draws nothing,
        # as on gallop
        cfg = ble_cfg()
        proc, rng = ChannelProcess(model), CountingRng(0)
        jit = np.random.default_rng(1)
        for k in range(50):
            transmit(cfg, proc, FORWARD, k * 7_500_000, rng, jit)
        assert rng.draws == 50 * draws_per_event

    def test_loss_drawn_once_per_event(self):
        cfg = ble_cfg()
        out = transmit(cfg, ChannelProcess(ChannelModel(default_loss=1.0)),
                       FORWARD, 0, np.random.default_rng(0),
                       np.random.default_rng(1))
        assert not out.delivered

    @settings(max_examples=200, deadline=None)
    @given(interval_us=st.integers(7500, 20000), k=st.integers(0, 10**5),
           off=st.one_of(st.sampled_from([-1, 0, 1]), st.integers(-10**7, 10**7)),
           extra_us=st.integers(0, 5000), jitter_max_us=st.integers(0, 5000),
           seed=st.integers(0, 2**16), direction=st.sampled_from([FORWARD, FEEDBACK]))
    def test_matches_the_closed_form(self, interval_us, k, off, extra_us,
                                     jitter_max_us, seed, direction):
        # the first event strictly after ready, then its jitter and the
        # added delay; both directions hop from channel 0 by event index
        cfg = ble_cfg(ble_connection_interval=interval_us * 1e-6,
                      extra_delay=extra_us * 1e-6, ble_jitter_max=jitter_max_us * 1e-6)
        interval = interval_us * 1000
        ready = max(0, k * interval + off)
        jitter = round(np.random.default_rng(seed).uniform(0.0, cfg.ble_jitter_max) * 1e9)
        out = transmit(cfg, ChannelProcess(LOSSLESS), direction, ready, None,
                       np.random.default_rng(seed))
        index = ready // interval + 1
        assert out.deliver_ns == index * interval + jitter + extra_us * 1000
        assert out.slot_index == index
        assert out.channel_used == index * 7 % 37


class TestIdealTransmit:
    def test_pass_through_one_nanosecond(self):
        cfg = MacConfig(variant=IDEAL)
        out = transmit(cfg, ChannelProcess(LOSSLESS), FORWARD, 42,
                       np.random.default_rng(0))
        assert out.delivered
        assert out.deliver_ns == 43

    @settings(max_examples=100, deadline=None)
    @given(ready=st.integers(0, 10**12), extra_us=st.integers(0, 5000),
           direction=st.sampled_from([FORWARD, FEEDBACK]),
           model=st.sampled_from([LOSSLESS, ChannelModel(default_loss=1.0)]))
    def test_delivers_one_ns_after_ready_plus_the_delay(self, ready, extra_us,
                                                        direction, model):
        # no loss, no channel, no slot, and no draw from either generator
        cfg = MacConfig(variant=IDEAL, extra_delay=extra_us * 1e-6)
        out = transmit(cfg, ChannelProcess(model), direction, ready, None, None)
        assert out == (ready + 1 + extra_us * 1000, None, None)


# README's table of the [mac] keys each variant ignores, each set to a value
# that the keys the variant reads would refuse
IGNORED_KEYS = [
    (dict(variant=GALLOP), "ble_connection_interval", 20e-3),
    (dict(variant=GALLOP), "ble_jitter_max", 5e-3),
    (dict(variant=BLE), "slot_duration", 5e-5),
    (dict(variant=BLE), "slots_per_superframe", 7),
    (dict(variant=BLE), "slot_guard", 5e-3),
    (dict(variant=IDEAL), "slot_duration", 5e-5),
    (dict(variant=IDEAL), "slots_per_superframe", 7),
    (dict(variant=IDEAL), "slot_guard", 5e-3),
    (dict(variant=IDEAL), "ble_connection_interval", 20e-3),
    (dict(variant=IDEAL), "ble_jitter_max", 5e-3),
    (dict(variant=IDEAL), "channel_count", 5),
]


class TestIgnoredKeys:
    @staticmethod
    def results(mac):
        """Derived link values, transmit on a lossless and a lossy channel at
        times around the slot and event edges, and latency_interval."""
        readies = sorted({max(0, k * step + off) for step in (100_000, 2_000_000, 7_500_000)
                          for k in range(6) for off in (-1, 0, 1)})
        outs = []
        for model in (LOSSLESS, TestGallopSlotTable.LOSSY):
            proc, loss_rng, jitter_rng = (ChannelProcess(model), np.random.default_rng(3),
                                          np.random.default_rng(4))
            outs += [transmit(mac, proc, d, t, loss_rng, jitter_rng)
                     for t in readies for d in (FORWARD, FEEDBACK)]
        derived = [getattr(mac, name) for name in (
            "superframe", "admit_ns", "channel_base", "nominal_cycle", "extra_delay_ns")]
        return derived, outs, latency_interval(mac, mac.nominal_cycle)

    @pytest.mark.parametrize("link, key, value", IGNORED_KEYS,
                             ids=[f"{kw['variant']}-{key}"
                                  for kw, key, _ in IGNORED_KEYS])
    def test_an_ignored_key_changes_nothing(self, link, key, value):
        mac = MacConfig(**link)
        assert self.results(replace(mac, **{key: value})) == self.results(mac)

    def test_a_guard_admits_a_frame_in_any_slot_longer_than_it(self):
        # the 3 ms forward slot takes a frame 2 ms late, not one 1 ns later
        cfg = gallop_cfg(slot_duration=3e-3, slot_guard=2e-3)
        outs = [transmit(cfg, ChannelProcess(LOSSLESS), FORWARD, ready,
                         np.random.default_rng(0)).deliver_ns
                for ready in (2_000_000, 2_000_001)]
        assert outs == [3_000_000, 9_000_000]


class TestGilbertElliott:
    def test_stationary_loss_rate_formula(self):
        m = ChannelModel(p_good_to_bad=0.05, p_bad_to_good=0.2, loss_bad=1.0)
        assert stationary_loss_rate(m) == pytest.approx(0.2)
        # a chain that never moves stays in its initial, good state
        frozen = ChannelModel(default_loss=0.1, p_good_to_bad=0.0, p_bad_to_good=0.0)
        assert stationary_loss_rate(frozen) == pytest.approx(frozen.default_loss)

    def test_lazy_advance_matches_stepwise_statistics(self):
        # revisiting a channel every 37 slots uses the analytic n-step law;
        # the visit-to-visit bad-state frequency must match stationary pi_bad
        m = ChannelModel(p_good_to_bad=0.02, p_bad_to_good=0.05, loss_bad=1.0)
        proc = ChannelProcess(m)
        rng = np.random.default_rng(7)
        # loss_bad = 1 and no floor: a frame is lost just in the bad state
        bad = sum(proc.lost(3, 37 * i, rng) for i in range(200_000))
        pi_bad = 0.02 / 0.07
        assert abs(bad / 200_000 - pi_bad) / pi_bad < 0.02

    def test_floored_burst_channel_matches_stationary_rate(self):
        # the floor loses in both states; visits 37 slots apart are all but
        # independent (0.75^37 of the chain's memory is left), so 200 000 of
        # them read the long-run rate within 2%
        m = ChannelModel(default_loss=0.05, p_good_to_bad=0.05,
                         p_bad_to_good=0.2, loss_bad=1.0)
        proc = ChannelProcess(m)
        rng = np.random.default_rng(11)
        lost = sum(proc.lost(3, 37 * i, rng) for i in range(200_000))
        rate = stationary_loss_rate(m)
        assert abs(lost / 200_000 - rate) / rate < 0.02

    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            ChannelModel(default_loss=1.5)


def offset_ns(clk, local_ns):
    """Local minus true time at the instant the clock reads local_ns, as
    the engine sees it through local_to_true_ns."""
    return local_ns - clk.local_to_true_ns(local_ns)


def offset_budget_ns(clk, cfg, local_ns):
    """sync_error_bound + drift * (t - t_sync), plus 1 ns for the rounding
    of local_to_true_ns to whole ns."""
    elapsed_ns = clk.local_to_true_ns(local_ns) - clk.sync_ns
    return cfg.sync_error_bound * 1e9 + cfg.clock_drift_ppm * 1e-6 * elapsed_ns + 1


class TestClock:
    def test_drift_accumulates_linearly(self):
        clk = RobotClock(gallop_cfg(clock_drift_ppm=20.0, sync_error_bound=0.0),
                         np.random.default_rng(0))
        assert offset_ns(clk, 0) == 0
        assert offset_ns(clk, 1_000_020_000) == 20_000
        assert offset_ns(clk, 2_000_040_000) == 40_000

    def test_sync_with_zero_bound_is_exact(self):
        clk = RobotClock(gallop_cfg(clock_drift_ppm=20.0, sync_error_bound=0.0),
                         np.random.default_rng(0))
        assert offset_ns(clk, 3_000_060_000) == 60_000  # 20 ppm for 3 s
        clk.sync(3_000_000_000)
        assert offset_ns(clk, 3_000_000_000) == 0
        assert clk.sync_ns == 3_000_000_000

    def test_sync_bounds_large_offset(self):
        cfg = gallop_cfg(clock_drift_ppm=20.0, sync_error_bound=1e-6)
        clk = RobotClock(cfg, np.random.default_rng(1))
        assert abs(offset_ns(clk, 10_000_000_000)) > 50_000  # 10 s of drift
        clk.sync(10_000_000_000)
        assert abs(offset_ns(clk, 10_000_000_000)) <= 1_000 + 1

    def test_offset_bounded_by_sync_plus_drift(self):
        # |local - true| <= bound + drift*(t - t_sync) at every sampled time
        cfg = gallop_cfg(clock_drift_ppm=20.0, sync_error_bound=1e-6)
        clk = RobotClock(cfg, np.random.default_rng(3))
        period_ns = round(cfg.sync_epoch_period * 1e9)
        for epoch in range(100):
            clk.sync(epoch * period_ns)
            for j in range(1, 21):
                local = epoch * period_ns + j * period_ns // 20
                assert abs(offset_ns(clk, local)) <= offset_budget_ns(clk, cfg, local)

    def test_worst_case_pre_sync_offset(self):
        # drift for one full epoch on top of a fresh sync stays within
        # bound + drift * elapsed
        cfg = gallop_cfg(clock_drift_ppm=20.0, sync_error_bound=1e-6)
        clk = RobotClock(cfg, np.random.default_rng(4))
        period_ns = round(cfg.sync_epoch_period * 1e9)
        worst = 0
        for epoch in range(100):
            clk.sync(epoch * period_ns)
            local = (epoch + 1) * period_ns
            assert abs(offset_ns(clk, local)) <= offset_budget_ns(clk, cfg, local)
            worst = max(worst, abs(offset_ns(clk, local)))
        assert worst > 15_000  # drift really does accumulate

    def test_sync_offsets_are_uniform_on_bound_interval(self):
        clk = RobotClock(gallop_cfg(sync_error_bound=1e-6, clock_drift_ppm=0.0),
                         np.random.default_rng(9))
        draws = []
        for i in range(10_000):
            clk.sync(i * 1_000_000)
            draws.append(offset_ns(clk, i * 1_000_000))
        stat = scipy.stats.kstest(draws, scipy.stats.uniform(-1_000, 2_000).cdf)
        assert stat.pvalue > 0.01

