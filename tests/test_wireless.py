import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from telebalance.wireless import (
    BLE,
    FEEDBACK,
    FORWARD,
    GALLOP,
    IDEAL,
    ChannelModel,
    ChannelProcess,
    ClockState,
    InvalidConfigError,
    MacConfig,
    advance_clock,
    build_superframe,
    hop_channel,
    latency_distribution,
    sync_epoch,
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
        assert sf.span == pytest.approx(2e-3)
        assert sf.slots[0].direction == FORWARD
        assert sf.slots[1].direction == FEEDBACK
        assert sf.slots[0].band != sf.slots[1].band

    def test_forward_only_degenerate_layout(self):
        sf = build_superframe(gallop_cfg(slots_per_superframe=1))
        assert len(sf.slots) == 1
        assert sf.span == pytest.approx(1e-3)
        # feedback frames starve instead of erroring
        out = transmit(gallop_cfg(slots_per_superframe=1), sf,
                       ChannelProcess(LOSSLESS), FEEDBACK, 0,
                       np.random.default_rng(0))
        assert out.status == "lost"

    def test_same_band_is_fdd_violation(self):
        with pytest.raises(InvalidConfigError):
            build_superframe(gallop_cfg(feedback_band=0))

    def test_custom_layout_band_violation_names_slot(self):
        cfg = gallop_cfg(custom_slots=(
            (FORWARD, 0.0, 1e-3, 0), (FEEDBACK, 1e-3, 1e-3, 0)))
        with pytest.raises(InvalidConfigError, match="slot 1"):
            build_superframe(cfg)

    def test_overlapping_slots_rejected(self):
        cfg = gallop_cfg(custom_slots=(
            (FORWARD, 0.0, 1e-3, 0), (FEEDBACK, 0.5e-3, 1e-3, 1)))
        with pytest.raises(InvalidConfigError, match="overlap"):
            build_superframe(cfg)

    def test_tdma_slots_pairwise_disjoint(self):
        for n in (1, 2, 4, 6):
            sf = build_superframe(gallop_cfg(slots_per_superframe=n))
            table = sf.slots_ns()
            for i in range(len(table)):
                for j in range(i + 1, len(table)):
                    s1, e1 = table[i][0], table[i][1]
                    s2, e2 = table[j][0], table[j][1]
                    assert e1 <= s2 or e2 <= s1


class TestHopping:
    def test_hop_examples(self):
        cfg = gallop_cfg()
        assert hop_channel(cfg, 0) == 0
        assert hop_channel(cfg, 1) == 7

    def test_consecutive_slots_cover_all_channels(self):
        cfg = gallop_cfg()
        used = sorted(hop_channel(cfg, i) for i in range(37))
        assert used == list(range(37))

    @settings(max_examples=60, deadline=None)
    @given(count=st.integers(3, 101), start=st.integers(0, 10**6))
    def test_coverage_for_any_coprime_increment(self, count, start):
        inc = next(i for i in range(7, 7 + count) if math.gcd(i, count) == 1)
        cfg = gallop_cfg(channel_count=count, hop_increment=inc)
        used = {hop_channel(cfg, start + i) for i in range(count)}
        assert used == set(range(count))

    def test_non_coprime_increment_rejected(self):
        with pytest.raises(InvalidConfigError):
            gallop_cfg(channel_count=36, hop_increment=6).validate()


class TestGallopTransmit:
    def test_zero_loss_delivers_at_slot_end(self):
        cfg = gallop_cfg()
        sf = build_superframe(cfg)
        out = transmit(cfg, sf, ChannelProcess(LOSSLESS), FORWARD, 0,
                       np.random.default_rng(0))
        assert out.delivered
        assert out.deliver_ns == 1_000_000

    def test_full_cycle_is_two_ms(self):
        cfg = gallop_cfg()
        sf = build_superframe(cfg)
        proc = ChannelProcess(LOSSLESS)
        rng = np.random.default_rng(0)
        fwd = transmit(cfg, sf, proc, FORWARD, 0, rng)
        fbk = transmit(cfg, sf, proc, FEEDBACK, fwd.deliver_ns, rng)
        assert fbk.deliver_ns - 0 == 2_000_000

    def test_certain_loss_without_retransmission_slot(self):
        cfg = gallop_cfg()
        sf = build_superframe(cfg)
        out = transmit(cfg, sf, ChannelProcess(ChannelModel(default_loss=1.0)),
                       FORWARD, 0, np.random.default_rng(0))
        assert out.status == "lost"

    def test_retransmission_slot_recovers_single_channel_loss(self):
        # 4-slot frame: forward slots at global indices 0 and 2; the first
        # hop lands on channel 0, the retry on channel 14
        cfg = gallop_cfg(slots_per_superframe=4)
        sf = build_superframe(cfg)
        model = ChannelModel(per_channel_loss=((0, 1.0),))
        out = transmit(cfg, sf, ChannelProcess(model), FORWARD, 0,
                       np.random.default_rng(0))
        assert out.delivered
        assert out.slot_index == 2
        assert out.deliver_ns == 3_000_000

    def test_mid_frame_ready_waits_for_next_superframe(self):
        cfg = gallop_cfg()
        sf = build_superframe(cfg)
        out = transmit(cfg, sf, ChannelProcess(LOSSLESS), FORWARD, 1_500_000,
                       np.random.default_rng(0))
        assert out.deliver_ns == 3_000_000

    def test_guard_admits_slightly_late_frames(self):
        cfg = gallop_cfg(slot_guard=1e-4)
        sf = build_superframe(cfg)
        out = transmit(cfg, sf, ChannelProcess(LOSSLESS), FORWARD,
                       2_000_000 + 50_000, np.random.default_rng(0))
        assert out.deliver_ns == 3_000_000  # made the slot starting at 2 ms

    def test_extra_delay_shifts_delivery(self):
        cfg = gallop_cfg(extra_delay=5e-3)
        sf = build_superframe(cfg)
        out = transmit(cfg, sf, ChannelProcess(LOSSLESS), FORWARD, 0,
                       np.random.default_rng(0))
        assert out.deliver_ns == 6_000_000

    def test_deliveries_reproducible_for_equal_seeds(self):
        cfg = gallop_cfg()
        sf = build_superframe(cfg)
        model = ChannelModel(p_good_to_bad=0.1, p_bad_to_good=0.3,
                             loss_good=0.05, loss_bad=0.9)

        def run():
            proc = ChannelProcess(model)
            rng = np.random.default_rng(123)
            return [transmit(cfg, sf, proc, FORWARD, i * 2_000_000, rng)
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
        slots.append((direction, t_us * 1e-6, dur_us * 1e-6,
                      0 if direction == FORWARD else 1))
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
           guard=st.sampled_from([0.0, 1e-6, 5e-5, 1e-4, 9e-4]),
           hop=st.sampled_from([(37, 7), (5, 2), (1, 1)]),
           extra=st.sampled_from([0.0, 3e-3]),
           readies=st.lists(frame_readies, min_size=1, max_size=6),
           seed=st.integers(0, 2**16))
    def test_transmit_matches_brute_force_slot_search(self, layout, guard, hop,
                                                      extra, readies, seed):
        count, increment = hop
        cfg = gallop_cfg(custom_slots=layout, slot_guard=guard,
                         channel_count=count, hop_increment=increment,
                         extra_delay=extra)
        sf = build_superframe(cfg)
        table = sf.slots_ns()
        guard_ns = round(guard * 1e9)
        procs = ChannelProcess(self.LOSSY), ChannelProcess(self.LOSSY)
        rngs = CountingRng(seed), CountingRng(seed)
        for direction, k, pos, edge, at_guard, off in readies:
            edge_ns = table[pos % len(table)][edge]
            ready = max(0, k * sf.span_ns + edge_ns + off
                        - (guard_ns if at_guard else 0))
            out = transmit(cfg, sf, procs[0], direction, ready, rngs[0])
            band = cfg.forward_band if direction == FORWARD else cfg.feedback_band
            ref = gallop_slot_search(layout, direction, ready, guard_ns, band,
                                     count, increment, round(extra * 1e9),
                                     procs[1].loss_probability, rngs[1])
            assert (out.deliver_ns, out.slot_index, out.channel_used) == ref
            assert out.delivered == (ref[0] is not None)
            assert rngs[0].draws == rngs[1].draws


class TestBleTransmit:
    def test_ready_mid_interval_hits_next_boundary(self):
        cfg = ble_cfg(ble_jitter_max=0.0)
        out = transmit(cfg, None, ChannelProcess(LOSSLESS), FORWARD, 100_000,
                       np.random.default_rng(0), np.random.default_rng(1))
        assert out.deliver_ns == 7_500_000

    def test_one_way_latency_floor_on_scheduled_grid(self):
        cfg = ble_cfg()
        proc = ChannelProcess(LOSSLESS)
        rng = np.random.default_rng(5)
        jit = np.random.default_rng(6)
        interval = 7_500_000
        for k in range(500):
            out = transmit(cfg, None, proc, FORWARD, k * interval, rng, jit)
            assert out.deliver_ns - out.send_ns >= interval

    def test_interval_below_floor_rejected(self):
        with pytest.raises(InvalidConfigError):
            ble_cfg(ble_connection_interval=5e-3).validate()

    def test_loss_drawn_once_per_event(self):
        cfg = ble_cfg()
        out = transmit(cfg, None, ChannelProcess(ChannelModel(default_loss=1.0)),
                       FORWARD, 0, np.random.default_rng(0),
                       np.random.default_rng(1))
        assert out.status == "lost"


class TestIdealTransmit:
    def test_pass_through_one_nanosecond(self):
        cfg = MacConfig(variant=IDEAL)
        out = transmit(cfg, None, ChannelProcess(LOSSLESS), FORWARD, 42,
                       np.random.default_rng(0))
        assert out.delivered
        assert out.deliver_ns == 43


class TestGilbertElliott:
    def test_stationary_loss_rate_formula(self):
        m = ChannelModel(p_good_to_bad=0.05, p_bad_to_good=0.2,
                         loss_good=0.0, loss_bad=1.0)
        assert m.stationary_loss_rate() == pytest.approx(0.2)

    def test_long_run_loss_matches_stationary_rate(self):
        # one channel used every slot for 1e6 slots
        m = ChannelModel(p_good_to_bad=0.05, p_bad_to_good=0.2,
                         loss_good=0.0, loss_bad=1.0)
        proc = ChannelProcess(m)
        rng = np.random.default_rng(2024)
        n = 1_000_000
        lost = 0
        for i in range(n):
            p = proc.loss_probability(0, i, rng)
            if rng.random() < p:
                lost += 1
        rate = lost / n
        ref = m.stationary_loss_rate()
        assert abs(rate - ref) / ref < 0.01

    def test_lazy_advance_matches_stepwise_statistics(self):
        # revisiting a channel every 37 slots uses the analytic n-step law;
        # the visit-to-visit bad-state frequency must match stationary pi_bad
        m = ChannelModel(p_good_to_bad=0.02, p_bad_to_good=0.05,
                         loss_good=0.0, loss_bad=1.0)
        proc = ChannelProcess(m)
        rng = np.random.default_rng(7)
        bad = sum(proc.loss_probability(3, 37 * i, rng) == 1.0
                  for i in range(200_000))
        pi_bad = 0.02 / 0.07
        assert abs(bad / 200_000 - pi_bad) / pi_bad < 0.02

    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            ChannelModel(default_loss=1.5)
        with pytest.raises(ValueError):
            ChannelModel(per_channel_loss=((0, -0.1),))


class TestClock:
    def test_drift_accumulates_linearly(self):
        clk = ClockState(drift_rate=20.0)
        clk = advance_clock(clk, 1.0)
        assert clk.local_offset == pytest.approx(20e-6, rel=1e-9)
        assert advance_clock(clk, 0.0) == clk

    def test_sync_with_zero_bound_is_exact(self):
        cfg = gallop_cfg(sync_error_bound=0.0)
        clk = ClockState(local_offset=5e-5, true_time=1.0)
        clk = sync_epoch(clk, cfg, np.random.default_rng(0))
        assert clk.local_offset == 0.0
        assert clk.last_sync_time == 1.0

    def test_sync_bounds_large_offset(self):
        cfg = gallop_cfg(sync_error_bound=1e-6)
        clk = ClockState(local_offset=50e-6)
        clk = sync_epoch(clk, cfg, np.random.default_rng(1))
        assert abs(clk.local_offset) <= 1e-6

    def test_offset_bounded_by_sync_plus_drift(self):
        # |offset(t)| <= bound + drift*(t - last_sync) at every sampled time
        cfg = gallop_cfg()
        clk = ClockState(drift_rate=cfg.clock_drift_ppm)
        rng = np.random.default_rng(3)
        for _ in range(100):
            clk = sync_epoch(clk, cfg, rng)
            for _ in range(20):
                clk = advance_clock(clk, cfg.sync_epoch_period / 20)
                budget = cfg.sync_error_bound + cfg.clock_drift_ppm * 1e-6 \
                    * (clk.true_time - clk.last_sync_time)
                assert abs(clk.local_offset) <= budget + 1e-15

    def test_worst_case_pre_sync_offset(self):
        # drift for one full epoch on top of a fresh sync stays within
        # bound + drift * period
        cfg = gallop_cfg()
        rng = np.random.default_rng(4)
        worst = 0.0
        clk = ClockState(drift_rate=cfg.clock_drift_ppm)
        for _ in range(100):
            clk = sync_epoch(clk, cfg, rng)
            clk = advance_clock(clk, cfg.sync_epoch_period)
            worst = max(worst, abs(clk.local_offset))
        assert worst <= cfg.sync_error_bound + 20e-6 + 1e-15
        assert worst > 15e-6  # drift really does accumulate

    def test_sync_offsets_are_uniform_on_bound_interval(self):
        cfg = gallop_cfg(sync_error_bound=1e-6)
        rng = np.random.default_rng(9)
        clk = ClockState()
        draws = []
        for _ in range(10_000):
            clk = sync_epoch(clk, cfg, rng)
            draws.append(clk.local_offset)
        stat = scipy.stats.kstest(draws, scipy.stats.uniform(-1e-6, 2e-6).cdf)
        assert stat.pvalue > 0.01


class TestLatencyDistribution:
    def test_gallop_aligned_is_exactly_two_ms(self):
        s = latency_distribution(gallop_cfg(), LOSSLESS, 2000,
                                 np.random.default_rng(0), aligned=True)
        assert s.mean == 0.002
        assert s.min == 0.002
        assert s.variance == 0.0
        assert s.p99 == 0.002
        assert s.n_lost == 0

    def test_ble_aligned_cycle_floor(self):
        s = latency_distribution(ble_cfg(ble_jitter_max=0.0), LOSSLESS, 1000,
                                 np.random.default_rng(0), aligned=True)
        assert s.min >= 0.0075

    def test_ble_jitter_produces_variance(self):
        s = latency_distribution(ble_cfg(), LOSSLESS, 2000,
                                 np.random.default_rng(1), aligned=True)
        assert s.variance > 0.0

    def test_random_phase_gallop_bounded_by_one_extra_frame(self):
        s = latency_distribution(gallop_cfg(), LOSSLESS, 2000,
                                 np.random.default_rng(2))
        assert 0.002 - 1e-4 <= s.min
        assert s.p99 <= 0.004

    def test_lossy_channel_counts_drops(self):
        s = latency_distribution(gallop_cfg(), ChannelModel(default_loss=0.5),
                                 2000, np.random.default_rng(3), aligned=True)
        assert s.n_lost > 0
        assert s.n_delivered + s.n_lost == 2000
