import math
import pickle
from dataclasses import replace

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
    IDEAL,
    MAX_SLOTS,
    ChannelModel,
    ChannelProcess,
    MacConfig,
    RobotClock,
    build_superframe,
    check_channels_used,
    transmit,
)

from oracles import gallop_slot_search

LOSSLESS = ChannelModel()


def gallop_cfg(**kw):
    return MacConfig(variant=GALLOP, **kw)


def ble_cfg(**kw):
    return MacConfig(variant=BLE, **kw)


class TestSuperframe:
    def test_default_layout_spans_two_slots(self):
        sf = build_superframe(gallop_cfg())
        assert len(sf.slots) == 2
        assert sf.span_ns == 2_000_000
        assert sf.slots[0].direction == FORWARD
        assert sf.slots[1].direction == FEEDBACK
        assert gallop_cfg().channel_base == {FORWARD: 0, FEEDBACK: 37}

    def test_forward_only_degenerate_layout(self):
        sf = build_superframe(gallop_cfg(slots_per_superframe=1))
        assert len(sf.slots) == 1
        assert sf.span_ns == 1_000_000
        # feedback frames starve instead of erroring
        out = transmit(gallop_cfg(slots_per_superframe=1),
                       ChannelProcess(LOSSLESS), FEEDBACK, 0,
                       np.random.default_rng(0))
        assert not out.delivered

    def test_slot_starting_before_the_superframe_rejected_naming_it(self):
        # with a 1 ms span, a forward frame ready at 5.5 ms would go out in
        # the slot that ends at 5.0 ms
        with pytest.raises(ValueError, match="slot 0 starts before the superframe"):
            gallop_cfg(slots=((FORWARD, -2e-3, 1e-3), (FEEDBACK, 0.0, 1e-3)))

    def test_slot_not_longer_than_the_guard_rejected_naming_it(self):
        # a frame admitted slot_guard late would be delivered at or before
        # its ready time: with a 0.1 ms guard, a 50 us slot admits a frame
        # ready at 80 us
        for dur in (5e-5, 1e-4):
            with pytest.raises(ValueError, match="slot 0 duration must exceed "
                                                 "slot_guard"):
                gallop_cfg(slots=((FORWARD, 0.0, dur), (FEEDBACK, 1e-3, 1e-3)))
        gallop_cfg(slots=((FORWARD, 0.0, 1.01e-4), (FEEDBACK, 1e-3, 1e-3)))

    def test_overlapping_slots_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            gallop_cfg(slots=((FORWARD, 0.0, 1e-3), (FEEDBACK, 0.5e-3, 1e-3)))

    @pytest.mark.parametrize("start, duration", [
        (math.inf, 1e-3), (0.0, math.inf), (math.nan, 1e-3), (0.0, math.nan)])
    def test_non_finite_slot_time_names_slot(self, start, duration):
        with pytest.raises(ValueError, match="slot 0 has a non-finite"):
            gallop_cfg(slots=((FORWARD, start, duration), (FEEDBACK, 1e-3, 1e-3)))

    def test_empty_slots_rejected_naming_slots(self):
        with pytest.raises(ValueError, match="slots must hold 1 to 1000 slots, got 0"):
            gallop_cfg(slots=())

    @pytest.mark.parametrize("entry", [
        (FEEDBACK, 1e-3, 1e-3, 1), (FEEDBACK, 1e-3), FEEDBACK, None,
        (FEEDBACK, "x", 1e-3), (FEEDBACK, 1e-3, None), (FEEDBACK, 10**400, 1e-3)],
        ids=["four_fields", "two_fields", "bare_direction", "none",
             "text_start", "none_duration", "int_beyond_float"])
    def test_malformed_slot_entry_rejected_naming_slots_and_index(self, entry):
        # the old 4-field form and entries built in code with a start or a
        # duration that is no number among them: no unpacking or conversion
        # error escapes
        with pytest.raises(ValueError, match=r"slots entry 1 must be \(direction, "
                                             r"start_s, duration_s\)"):
            gallop_cfg(slots=((FORWARD, 0.0, 1e-3), entry))

    def test_more_slots_than_a_superframe_holds_rejected_naming_slots(self):
        # MAX_SLOTS bounds a custom layout as it bounds slots_per_superframe
        def layout(n):
            return tuple((FEEDBACK if i % 2 else FORWARD, i * 1e-3, 1e-3)
                         for i in range(n))
        for n in (MAX_SLOTS + 1, 1500):
            with pytest.raises(ValueError, match=f"slots must hold 1 to "
                                                 f"{MAX_SLOTS} slots, got {n}"):
                gallop_cfg(slots=layout(n))
        assert len(gallop_cfg(slots=layout(MAX_SLOTS)).superframe.slots) == MAX_SLOTS

    @pytest.mark.parametrize("key, value", [
        ("slot_duration", 1e-12), ("sync_epoch_period", 1e-12),
        ("slots_per_superframe", MAX_SLOTS + 1)])
    def test_period_below_1_ns_or_slot_count_above_bound_names_key(
            self, key, value):
        # a 0 ns slot or sync period never advances the event clock, and
        # build_superframe lays out every slot
        with pytest.raises(ValueError, match=f"{key} must be"):
            gallop_cfg(**{key: value})

    def test_tdma_slots_pairwise_disjoint(self):
        for n in (1, 2, 4, 6):
            sf = build_superframe(gallop_cfg(slots_per_superframe=n))
            table = sf.slots
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
        for name in ("superframe", "channel_base", "nominal_cycle", "extra_delay_ns",
                     "slot_guard_ns", "ble_interval_ns"):
            assert getattr(copy, name) == getattr(mac, name), name


def hops(cfg, direction, readies):
    """(channel_used, slot_index) of a lossless transmit at each ready time."""
    proc, rng, jit = ChannelProcess(LOSSLESS), np.random.default_rng(0), \
        np.random.default_rng(1)
    return [transmit(cfg, proc, direction, t, rng, jit)[1:] for t in readies]


class TestHopping:
    def test_hop_examples(self):
        # the direction's base plus (index * increment) mod channel_count
        assert hops(gallop_cfg(), FORWARD, [0, 2_000_000]) == [(0, 0), (14, 2)]
        assert hops(gallop_cfg(), FEEDBACK, [0]) == [(37 + 7, 1)]
        # BLE numbers both directions from 0; ready at 0 goes out at event 1
        assert hops(ble_cfg(), FEEDBACK, [0]) == [(7, 1)]

    def test_consecutive_slots_cover_all_channels(self):
        # one slot a superframe: frames in 37 consecutive slots, or events
        for cfg, period in ((gallop_cfg(slots_per_superframe=1), 1_000_000),
                            (ble_cfg(), 7_500_000)):
            used = sorted(ch for ch, _ in hops(cfg, FORWARD,
                                               [k * period for k in range(37)]))
            assert used == list(range(37))

    @settings(max_examples=60, deadline=None)
    @given(count=st.integers(3, 101), start=st.integers(0, 10**6))
    def test_coverage_for_any_coprime_increment(self, count, start):
        inc = next(i for i in range(7, 7 + count) if math.gcd(i, count) == 1)
        cfg = gallop_cfg(channel_count=count, hop_increment=inc,
                         slots_per_superframe=1)
        readies = [(start + i) * 1_000_000 for i in range(count)]
        assert {ch for ch, _ in hops(cfg, FORWARD, readies)} == set(range(count))

    @settings(max_examples=60, deadline=None)
    @given(count=st.integers(1, 12), inc=st.integers(1, 12),
           forward=st.lists(st.booleans(), min_size=1, max_size=6))
    def test_channel_rule_accepts_exactly_the_channels_transmit_uses(
            self, count, inc, forward):
        inc = next(i for i in range(inc, inc + count + 1) if math.gcd(i, count) == 1)
        n = len(forward)
        cfg = gallop_cfg(channel_count=count, hop_increment=inc, slots=tuple(
            (FORWARD if fwd else FEEDBACK, i * 1e-3, 1e-3)
            for i, fwd in enumerate(forward)))
        # a frame ready at each slot start over count superframes meets every
        # (superframe mod count, slot) pair, so every channel the law reaches
        readies = [k * 1_000_000 for k in range(n * count)]
        used = {ch for d in (FORWARD, FEEDBACK) for ch, _ in hops(cfg, d, readies)}
        accepted = set()
        for ch in range(-1, 2 * count + 1):
            try:
                check_channels_used(cfg, [ch])
                accepted.add(ch)
            except ValueError:
                pass
        assert accepted == used - {None}

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
        with pytest.raises(ValueError, match="hop_increment 6 shares a factor "
                                             "with channel_count 36"):
            gallop_cfg(channel_count=36, hop_increment=6)


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
        # hop lands on channel 0, the retry on channel 14
        cfg = gallop_cfg(slots_per_superframe=4)
        model = ChannelModel(per_channel=((0, 1.0),))
        out = transmit(cfg, ChannelProcess(model), FORWARD, 0,
                       np.random.default_rng(0))
        assert out.delivered
        assert out.slot_index == 2
        assert out.deliver_ns == 3_000_000

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
        model = ChannelModel(p_good_to_bad=0.1, p_bad_to_good=0.3,
                             loss_good=0.05, loss_bad=0.9)

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


@st.composite
def slot_layouts(draw):
    """Valid custom layouts in whole microseconds, listed in any order;
    one direction may have no slot at all."""
    slots, t_us = [], 0
    for _ in range(draw(st.integers(1, 5))):
        t_us += draw(st.integers(0, 300))
        dur_us = draw(st.integers(1, 1000))
        direction = draw(st.sampled_from([FORWARD, FEEDBACK]))
        slots.append((direction, t_us * 1e-6, dur_us * 1e-6))
        t_us += dur_us
    return tuple(draw(st.permutations(slots)))


# (direction, superframe, slot position, slot edge, lands at the guard, ns off)
frame_readies = st.tuples(st.sampled_from([FORWARD, FEEDBACK]),
                          st.integers(0, 3), st.integers(0, 4),
                          st.sampled_from([0, 1]), st.booleans(),
                          st.integers(-2, 2))


class TestGallopSlotTable:
    LOSSY = ChannelModel(default_loss=0.3, p_good_to_bad=0.2,
                         p_bad_to_good=0.4, loss_bad=0.9)

    @settings(max_examples=200, deadline=None)
    @given(layout=slot_layouts(),
           guard_frac=st.sampled_from([0.0, 0.001, 0.05, 0.1, 0.9, 0.999]),
           hop=st.sampled_from([(37, 7), (5, 2), (1, 1)]),
           extra=st.sampled_from([0.0, 3e-3]),
           readies=st.lists(frame_readies, min_size=1, max_size=6),
           seed=st.integers(0, 2**16),
           model=st.sampled_from([LOSSY, LOSSLESS]))
    def test_transmit_matches_brute_force_slot_search(self, layout, guard_frac,
                                                      hop, extra, readies, seed,
                                                      model):
        # a guard below the layout's shortest slot, down to 0
        guard = math.floor(guard_frac * min(d for _, _, d in layout) * 1e9) * 1e-9
        count, increment = hop
        cfg = gallop_cfg(slots=layout, slot_guard=guard,
                         channel_count=count, hop_increment=increment,
                         extra_delay=extra)
        sf = build_superframe(cfg)
        table = sf.slots
        guard_ns = round(guard * 1e9)
        procs = ChannelProcess(model), ChannelProcess(model)
        rngs = CountingRng(seed), CountingRng(seed)
        for direction, k, pos, edge, at_guard, off in readies:
            edge_ns = table[pos % len(table)][edge]
            ready = max(0, k * sf.span_ns + edge_ns + off
                        - (guard_ns if at_guard else 0))
            out = transmit(cfg, procs[0], direction, ready, rngs[0])
            ref = gallop_slot_search(layout, direction, ready, guard_ns,
                                     count, increment, round(extra * 1e9),
                                     procs[1].lost, rngs[1])
            assert (out.deliver_ns, out.slot_index, out.channel_used) == ref
            assert out.delivered == (ref[0] is not None)
            # a lossless channel delivers in the reference's slot undrawn
            assert rngs[0].draws == (0 if model is LOSSLESS else rngs[1].draws)

    @pytest.mark.parametrize("model, lossless", [
        (LOSSLESS, True),
        (ChannelModel(p_good_to_bad=0.3, loss_bad=0.0), True),
        (ChannelModel(per_channel=((3, 0.0),)), True),
        (ChannelModel(per_channel=((3, 0.1),)), False),
        (ChannelModel(default_loss=0.1), False),
        (ChannelModel(loss_good=0.1), False),
        (ChannelModel(p_good_to_bad=0.01), False),
    ])
    def test_lossless_when_no_draw_can_lose(self, model, lossless):
        assert ChannelProcess(model).lossless is lossless


@st.composite
def free_links(draw) -> dict:
    """MacConfig keywords of any variant, with a free custom layout (slots
    may start before 0 or be shorter than the guard), guard, delay and
    jitter; construction may reject them."""
    kw = dict(variant=draw(st.sampled_from([GALLOP, BLE, IDEAL])),
              slot_guard=draw(st.sampled_from([0.0, 1e-6, 5e-5, 1e-4, 9e-4])),
              extra_delay=draw(st.sampled_from([0.0, 1e-9, 3e-3])),
              ble_jitter_max=draw(st.sampled_from([0.0, 2e-3, 0.02])))
    if kw["variant"] == GALLOP and draw(st.booleans()):
        slots, t_us = [], draw(st.integers(-500, 500))
        for _ in range(draw(st.integers(1, 4))):
            direction = draw(st.sampled_from([FORWARD, FEEDBACK]))
            dur_us = draw(st.integers(1, 1000))
            slots.append((direction, t_us * 1e-6, dur_us * 1e-6))
            t_us += dur_us + draw(st.integers(0, 300))
        kw["slots"] = tuple(slots)
    return kw


class TestDeliveryAfterReady:
    @settings(max_examples=300, deadline=None)
    @given(kw=free_links(),
           readies=st.lists(st.one_of(st.integers(0, 200_000),
                                      st.integers(0, 20_000_000)),
                            min_size=1, max_size=8),
           seed=st.integers(0, 2**16),
           model=st.sampled_from([LOSSLESS, TestGallopSlotTable.LOSSY]))
    # a slot that starts before the superframe, and one no longer than the
    # 0.1 ms guard
    @example(kw=dict(slots=((FORWARD, -2e-3, 1e-3), (FEEDBACK, 0.0, 1e-3))),
             readies=[5_500_000], seed=0, model=LOSSLESS)
    @example(kw=dict(slots=((FORWARD, 0.0, 5e-5), (FEEDBACK, 1e-3, 1e-3))),
             readies=[80_000, 100_000], seed=0, model=LOSSLESS)
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


class TestIdealTransmit:
    def test_pass_through_one_nanosecond(self):
        cfg = MacConfig(variant=IDEAL)
        out = transmit(cfg, ChannelProcess(LOSSLESS), FORWARD, 42,
                       np.random.default_rng(0))
        assert out.delivered
        assert out.deliver_ns == 43


class TestGilbertElliott:
    def test_stationary_loss_rate_formula(self):
        m = ChannelModel(p_good_to_bad=0.05, p_bad_to_good=0.2,
                         loss_good=0.0, loss_bad=1.0)
        assert m.stationary_loss_rate() == pytest.approx(0.2)

    def test_lazy_advance_matches_stepwise_statistics(self):
        # revisiting a channel every 37 slots uses the analytic n-step law;
        # the visit-to-visit bad-state frequency must match stationary pi_bad
        m = ChannelModel(p_good_to_bad=0.02, p_bad_to_good=0.05,
                         loss_good=0.0, loss_bad=1.0)
        proc = ChannelProcess(m)
        rng = np.random.default_rng(7)
        # loss_bad = 1 and loss_good = 0: a frame is lost just in the bad state
        bad = sum(proc.lost(3, 37 * i, rng) for i in range(200_000))
        pi_bad = 0.02 / 0.07
        assert abs(bad / 200_000 - pi_bad) / pi_bad < 0.02

    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            ChannelModel(default_loss=1.5)
        with pytest.raises(ValueError):
            ChannelModel(per_channel=((0, -0.1),))

    def test_channel_listed_twice_rejected_naming_it(self):
        # one floor per channel: neither entry may silently win
        with pytest.raises(ValueError, match="per_channel lists channel 3 twice"):
            ChannelModel(per_channel=((3, 0.1), (5, 0.2), (3, 0.5)))
        ChannelModel(per_channel=((3, 0.1), (5, 0.5)))


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
        version = clk.version
        clk.sync(3_000_000_000)
        assert offset_ns(clk, 3_000_000_000) == 0
        assert clk.sync_ns == 3_000_000_000
        assert clk.version == version + 1

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

