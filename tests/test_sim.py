import concurrent.futures
import hashlib
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import textwrap
import tracemalloc
from array import array
from dataclasses import astuple, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from telebalance import sim
from telebalance.config import (
    ScenarioConfig,
    ble_scenario,
    gallop_scenario,
    ideal_scenario,
    load_scenario,
    set_by_path,
)
from telebalance.control import (
    ControllerGains,
    TuningFailureError,
    tune_default_gains,
)
from telebalance.plant import SensorNoise
from telebalance.sim import (
    EpisodeTrace,
    compare_scenarios,
    compute_metrics,
    failure_threshold,
    metrics_to_text,
    run_episode,
    run_sweep,
    trace_to_csv,
)
from telebalance.wireless import (
    BLE,
    FEEDBACK,
    FORWARD,
    GALLOP,
    IDEAL,
    ChannelModel,
    ChannelProcess,
    MacConfig,
    latency_interval,
    transmit,
)

from oracles import (
    linear_fall_time,
    record_metrics,
    wip_linear_system,
)
from test_golden import GOLDEN


class TestRunEpisode:
    def test_zero_network_balances_two_degrees(self):
        trace, m = run_episode(ideal_scenario(episode_duration=5.0))
        assert not m.fell
        assert m.max_abs_tilt < 4.0
        assert m.balanced_duration == 5.0
        # final second stays tightly regulated
        tail = [tilt for t, tilt in zip(trace.t, trace.tilt) if t > 4.0]
        assert all(abs(tilt) < 0.5 for tilt in tail)

    def test_gallop_zero_loss_latency_is_deterministic(self):
        _, m = run_episode(gallop_scenario(episode_duration=5.0))
        assert m.latency_mean == 2.0
        assert m.latency_variance == 0.0
        assert m.drop_rate == 0.0

    def test_zero_gains_fall_matches_open_loop_oracle(self, params):
        cfg = gallop_scenario(episode_duration=5.0,
                              gains=ControllerGains(0.0, 0.0, 0.0, 0.0))
        _, m = run_episode(cfg)
        assert m.fell
        A, _ = wip_linear_system(params)
        t_ref = linear_fall_time(A, [cfg.initial_tilt, 0, 0, 0], cfg.fall_threshold)
        assert abs(m.balanced_duration - t_ref) / t_ref < 0.05

    def test_records_are_time_ordered_and_cycle_spaced(self):
        trace, _ = run_episode(gallop_scenario(episode_duration=2.0))
        times = list(trace.t)
        assert times == sorted(times)
        assert len(times) == 1000  # one per 2 ms cycle
        diffs = np.diff(times)
        assert np.allclose(diffs, 0.002, atol=1e-12)

    def test_causality_latency_positive_and_bounded_below(self):
        cfg = gallop_scenario(
            episode_duration=2.0,
            mac=MacConfig(variant=GALLOP, clock_drift_ppm=0.0,
                          sync_error_bound=0.0, extra_delay=0.003))
        trace, m = run_episode(cfg)
        lats = [lat for lat in trace.cycle_latency if not math.isnan(lat)]
        assert lats
        # per-delivery extra delay: cycle >= 2 ms + 2 * 3 ms
        assert min(lats) >= 8.0
        assert not m.fell

    def test_message_conservation_under_loss(self):
        cfg = gallop_scenario(episode_duration=3.0,
                              channel=ChannelModel(default_loss=0.3))
        trace, m = run_episode(cfg)
        assert trace.forward_sent == trace.forward_delivered + trace.forward_lost
        assert trace.feedback_sent == trace.feedback_delivered + trace.feedback_lost
        assert trace.forward_lost > 0
        dropped = sum(f or b for f, b in zip(trace.forward_dropped,
                                             trace.feedback_dropped))
        assert m.drop_rate == pytest.approx(dropped / len(trace.t))

    def test_forward_drop_records_have_no_command(self):
        cfg = gallop_scenario(episode_duration=1.0,
                              channel=ChannelModel(default_loss=0.5))
        trace, _ = run_episode(cfg)
        fwd_drops = [(command, lat) for command, lat, f in zip(
            trace.command, trace.cycle_latency, trace.forward_dropped) if f]
        assert fwd_drops
        assert all(math.isnan(command) for command, _ in fwd_drops)
        assert all(math.isnan(lat) for _, lat in fwd_drops)

    def test_seed_determinism_and_sensitivity(self):
        cfg = gallop_scenario(episode_duration=2.0, seed=9)
        t1, m1 = run_episode(cfg)
        t2, m2 = run_episode(cfg)
        assert trace_to_csv(t1) == trace_to_csv(t2)
        assert m1 == m2
        t3, _ = run_episode(replace(cfg, seed=10))
        assert trace_to_csv(t3) != trace_to_csv(t1)

    def test_clock_drift_feeds_loop_jitter(self):
        # scheduled sampling on a drifting clock makes gallop latency vary
        mac = MacConfig(variant=GALLOP, clock_drift_ppm=200.0,
                        sync_error_bound=1e-5)
        cfg = ScenarioConfig(mac=mac, episode_duration=5.0, label="drifty")
        trace, m = run_episode(cfg)
        assert m.latency_variance > 0.0
        # trace timestamps stay true simulation time: strictly increasing,
        # near the nominal grid
        times = np.array(trace.t)
        assert np.all(np.diff(times) > 0)
        assert abs(times[-1] - 0.002 * (len(times) - 1)) < 0.01

    def test_immediate_fall_is_a_result_not_an_error(self):
        cfg = gallop_scenario(initial_tilt=0.7, episode_duration=2.0)
        trace, m = run_episode(cfg)
        assert m.fell
        assert not any(trace.columns())
        assert m.balanced_duration <= 0.001
        assert trace_to_csv(trace).count("\n") == 1  # header only

    @pytest.mark.parametrize("make, fall_time", [
        (gallop_scenario, 0.0005), (ble_scenario, 0.0005),
        # the ideal link's first span is the 1 ns up to the frame's arrival:
        # one remainder substep, with no whole substep before it
        (ideal_scenario, 1e-09)])
    def test_tilt_past_the_threshold_falls_in_the_first_span(self, make, fall_time):
        trace, _ = run_episode(make(initial_tilt=0.7, episode_duration=1.0))
        assert trace.fall_time == fall_time

    def test_invalid_config_rejected_before_running(self):
        with pytest.raises(ValueError):
            run_episode(gallop_scenario(episode_duration=-1.0))
        with pytest.raises(ValueError):
            bad_mac = MacConfig(variant=GALLOP, channel_count=14)
            run_episode(gallop_scenario(mac=bad_mac))

    def test_negative_seed_rejected_before_running(self):
        with pytest.raises(ValueError, match="seed"):
            run_episode(gallop_scenario(seed=-1))

    def test_ble_episode_has_jitter_variance(self):
        _, m = run_episode(ble_scenario(episode_duration=5.0))
        assert m.latency_variance > 0.0
        assert m.latency_mean > 15.0

    def test_overtaken_frame_drops_its_cycle(self):
        # a 20 ppm clock synced within 1 us samples right at BLE event
        # boundaries, so two samples can share an event and the later one's
        # jitter overtake
        mac = MacConfig(variant=BLE, clock_drift_ppm=20.0, sync_error_bound=1e-6)
        trace, _ = run_episode(ble_scenario(mac=mac, episode_duration=2.0))
        assert trace.forward_lost == 0
        assert any(trace.forward_dropped)

    def test_overtaken_command_drops_its_cycle(self):
        # a BLE jitter beyond the connection interval lets a newer command
        # arrive first; the older one is dropped, though it was delivered
        mac = replace(ble_scenario().mac, ble_jitter_max=0.02)
        trace, _ = run_episode(ble_scenario(mac=mac, episode_duration=5.0))
        assert trace.feedback_lost == 0
        overtaken = [(lat, command) for lat, command, b in zip(
            trace.cycle_latency, trace.command, trace.feedback_dropped) if b]
        assert len(overtaken) == 9
        assert all(math.isnan(lat) and not math.isnan(command)
                   for lat, command in overtaken)

    def test_fall_caught_in_a_remainder_substep(self):
        # on the ideal link the command lands 2 ns after each 5 ms sample,
        # so the span up to the next sample ends in a 0.5 ms - 2 ns
        # remainder: only a fall caught there lands on the cycle grid
        cfg = ideal_scenario(gains=ControllerGains(0.0, 0.0, 0.0, 0.0),
                             noise=SensorNoise(0.0, 0.0),
                             control_cycle=0.005, initial_tilt=0.055,
                             episode_duration=2.0)
        trace, m = run_episode(cfg)
        assert trace.fall_time == 0.275
        assert round(trace.fall_time * 1e9) % 5_000_000 == 0
        assert len(trace.t) == 55  # the sample at the fall is not taken
        assert m.balanced_duration == 0.275

    @pytest.mark.parametrize("seed, fall_time, records, counters", [
        # the jittered span ends in a 143 106 ns remainder substep: the fall
        # is caught there, at the span's end
        (19, 0.721143106, 94, (97, 97, 0, 95, 95, 0)),
        # the fall is caught in whole substep 9 of the span's 11, so its
        # remainder substep never runs
        (0, 0.726320157, 95, (97, 97, 0, 96, 96, 0))])
    def test_ble_fall_inside_a_jittered_span(self, seed, fall_time, records,
                                             counters):
        trace, _ = run_episode(ble_scenario(
            initial_tilt=math.radians(1), episode_duration=3.0,
            gains=ControllerGains(kp_tilt=0.5, kd_tilt=0.05,
                                  kp_position=0.0, kd_position=0.0), seed=seed))
        assert trace.fall_time == fall_time
        assert len(trace.t) == records
        assert (trace.forward_sent, trace.forward_delivered, trace.forward_lost,
                trace.feedback_sent, trace.feedback_delivered,
                trace.feedback_lost) == counters

    def test_every_cycle_dropped(self):
        trace, m = run_episode(gallop_scenario(
            channel=ChannelModel(default_loss=1.0), episode_duration=2.0))
        assert trace.forward_lost == trace.forward_sent == len(trace.t) > 0
        assert trace.feedback_sent == 0
        assert m.drop_rate == 1.0
        assert all(math.isnan(x) for x in (m.latency_mean, m.latency_variance,
                                            m.latency_p99))
        assert math.isfinite(m.rms_tilt_rate)

    def test_clock_jump_past_a_period_skips_it(self):
        # a sync error bound of ~2 cycles lets a resync jump the clock past
        # whole sample periods; each is taken at most once, never twice
        mac = MacConfig(variant=GALLOP, clock_drift_ppm=0.0,
                        sync_error_bound=3.9e-3, sync_epoch_period=0.0625)
        trace, _ = run_episode(gallop_scenario(mac=mac, episode_duration=1.0))
        times = list(trace.t)
        assert all(a < b for a, b in zip(times, times[1:]))
        assert len(times) < 500

    def test_no_sample_at_the_episode_end(self):
        # a sample at end_ns could close only if its frame were lost, so
        # the record count would hang on the last frame's luck
        burst = ChannelModel(p_good_to_bad=0.01, p_bad_to_good=0.1, loss_bad=0.9)
        mac = MacConfig(variant=GALLOP, channel_count=1,
                        clock_drift_ppm=0.0, sync_error_bound=0.0)
        for seed in range(4):
            trace, _ = run_episode(gallop_scenario(
                mac=mac, channel=burst, episode_duration=10.0, seed=seed))
            assert len(trace.t) == trace.forward_sent == 5000
            assert trace.t[-1] < 10.0

    @pytest.mark.parametrize("extra_delay", [0.0, 1e-3, 3e-3])
    @pytest.mark.parametrize("channel", [
        ChannelModel(), ChannelModel(p_good_to_bad=0.01, p_bad_to_good=0.3,
                                     loss_bad=0.8)])
    def test_idealized_sync_moves_no_sample(self, channel, extra_delay):
        # every sync re-schedules the pending sample, and an idealized one
        # puts it back at its own time: 29 syncs in 3 s give the same trace
        # as none
        traces = [trace_to_csv(run_episode(gallop_scenario(
            mac=MacConfig(sync_epoch_period=period, extra_delay=extra_delay),
            channel=channel, episode_duration=3.0))[0]) for period in (0.1, 10.0)]
        assert traces[0] == traces[1]

    @pytest.mark.parametrize("make, key", [(ble_scenario, "ble_jitter_max"),
                                           (gallop_scenario, "sync_error_bound")])
    def test_negative_zero_bound_runs_as_zero(self, make, key):
        # the config accepts -0.0 (not < 0); numpy's scalar uniform refused
        # its -0.0 range with "high - low < 0", which named no key
        traces = [trace_to_csv(run_episode(make(
            mac=replace(make().mac, **{key: bound}), episode_duration=0.5))[0])
            for bound in (0.0, -0.0)]
        assert traces[0] == traces[1]


@st.composite
def lossless_links(draw):
    """(mac, control_cycle or None): a lossless link on the idealized clock,
    its times in whole us; a gallop superframe holds 2-6 slots, one of each
    direction at least, of 200-1500 us, with a guard shorter than a slot."""
    extra = draw(st.integers(0, 3000)) * 1e-6
    if draw(st.sampled_from([GALLOP, BLE])) == GALLOP:
        dur_us = draw(st.integers(200, 1500))
        mac = MacConfig(slots_per_superframe=draw(st.integers(2, 6)),
                        slot_duration=dur_us * 1e-6,
                        slot_guard=draw(st.integers(0, dur_us - 1)) * 1e-6,
                        extra_delay=extra)
    else:
        mac = MacConfig(variant=BLE,
                        ble_connection_interval=draw(st.integers(7500, 15000)) * 1e-6,
                        ble_jitter_max=draw(st.integers(0, 5000)) * 1e-6,
                        extra_delay=extra)
    cycle = draw(st.none() | st.integers(2000, 7000).map(lambda us: us * 1e-6))
    return mac, cycle


def lattice_latencies(mac, cycle, max_phases):
    """latency_interval by brute force, or None past max_phases: both
    transmits at every sample phase in the link's period, each BLE jitter
    draw at its least, then greatest."""
    lossless = ChannelProcess(ChannelModel())
    period = mac.superframe.span_ns
    phases = range(0, period, math.gcd(round(cycle * 1e9), period))
    if len(phases) > max_phases:
        return None
    latencies = []
    for sample in phases:
        for extreme in (min, max):  # uniform(lo, hi) is lo, then hi
            jitter = SimpleNamespace(uniform=extreme)
            ready = transmit(mac, lossless, FORWARD, sample, None, jitter)[0]
            latencies.append(
                transmit(mac, lossless, FEEDBACK, ready, None, jitter)[0] - sample)
    return min(latencies), max(latencies)


class TestLatencyInterval:
    """wireless.latency_interval drives wireless.transmit itself; every
    latency the engine records lies in it, and the deterministic links
    record exactly it."""

    @staticmethod
    def recorded(cfg):
        trace, _ = run_episode(cfg)
        return {round(lat * 1e6) for lat in trace.cycle_latency
                if not math.isnan(lat)}

    @settings(max_examples=30, deadline=None)
    @given(link=lossless_links())
    def test_every_recorded_latency_lies_inside(self, link):
        mac, control_cycle = link
        cfg = ScenarioConfig(mac=mac, control_cycle=control_cycle,
                             episode_duration=1.0)
        low, high = latency_interval(mac, cfg.resolved_cycle())
        recorded = self.recorded(cfg)
        assert low <= min(recorded) and max(recorded) <= high
        # and it is the brute-force pass wherever that stays short
        brute = lattice_latencies(mac, cfg.resolved_cycle(), max_phases=2000)
        assert brute is None or (low, high) == brute

    # delay_sweep.cfg's rule: 2 ms plus twice an even whole-ms delay; an odd
    # one waits one superframe more (1 ms gives 5 ms, 5 ms gives 13 ms)
    @pytest.mark.parametrize("extra_ms, latency_ms", [
        (0, 2), (1, 5), (2, 6), (5, 13), (8, 18), (12, 26), (16, 34)])
    def test_gallop_with_added_delay(self, extra_ms, latency_ms):
        mac = MacConfig(extra_delay=extra_ms * 1e-3)
        cfg = gallop_scenario(mac=mac, episode_duration=0.2)
        latency_ns = latency_ms * 1_000_000
        assert latency_interval(mac, cfg.resolved_cycle()) == (latency_ns,) * 2
        assert self.recorded(cfg) == {latency_ns}

    def test_four_slot_superframe(self):
        mac = MacConfig(slots_per_superframe=4)
        cfg = gallop_scenario(mac=mac, episode_duration=0.2)
        assert latency_interval(mac, cfg.resolved_cycle()) == (2_000_000,) * 2
        assert self.recorded(cfg) == {2_000_000}

    def test_a_cycle_off_the_superframe_covers_every_phase(self, config_dir):
        # 2.000007 ms against a 2 ms superframe meets every ns of it, 7 ns
        # later each cycle; by 30 s the samples have crossed the forward
        # admission edge (slot start plus guard, 100 us), where the latency
        # jumps from just over 1.9 ms to just under 3.9 ms
        cfg = replace(load_scenario(config_dir / "gallop_default.cfg"),
                      control_cycle=0.002000007, episode_duration=30.0)
        low, high = latency_interval(cfg.mac, cfg.resolved_cycle())
        assert (low, high) == (1_900_000, 3_899_999)
        recorded = self.recorded(cfg)
        assert {1_900_005, 3_899_396} <= recorded
        assert (min(recorded), max(recorded)) == (1_900_005, 3_899_998)

    def test_ble_records_inside_the_interval(self):
        cfg = ble_scenario(episode_duration=7.5)
        low, high = latency_interval(cfg.mac, cfg.resolved_cycle())
        assert (low, high) == (15_000_000, 17_000_000)
        recorded = self.recorded(cfg)
        assert low <= min(recorded) and max(recorded) <= high
        # the jitter spreads the records over the whole interval
        assert max(recorded) - min(recorded) >= 0.95 * (high - low)


class TestBlockStream:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**63), block=st.integers(1, 7),
           kind=st.sampled_from(["normal", "random", "uniform"]),
           bounds=st.lists(st.tuples(st.floats(-1e12, 1e12), st.floats(0.0, 1e12)),
                           min_size=1, max_size=30))
    def test_blocks_give_the_scalar_calls_values_in_order(self, seed, block, kind,
                                                          bounds):
        # more draws than a block holds: the values cross block boundaries
        stream = sim.BlockStream(np.random.default_rng(seed), block)
        scalar = np.random.default_rng(seed)
        for low, width in bounds:
            high = low + width  # numpy wants high - low >= 0, and not -0.0
            if kind == "uniform":
                got, want = stream.uniform(low, high), scalar.uniform(low, high)
            else:
                got, want = getattr(stream, kind)(), getattr(scalar, kind)()
            assert repr(got) == repr(want)  # same float, sign of zero included

    @pytest.mark.parametrize("first, other", [
        ("normal", "random"), ("normal", "uniform"),
        ("random", "normal"), ("uniform", "normal")])
    def test_a_stream_serves_one_kind(self, first, other):
        stream = sim.BlockStream(np.random.default_rng(0), 4)
        draws = {"normal": stream.normal, "random": stream.random,
                 "uniform": lambda: stream.uniform(-1.0, 1.0)}
        draws[first]()
        with pytest.raises(ValueError, match="cannot serve"):
            draws[other]()


def dropped_runs(trace: EpisodeTrace) -> list[int]:
    """Lengths of the runs of consecutive cycles with either direction dropped."""
    runs, length = [], 0
    for f, b in zip(trace.forward_dropped, trace.feedback_dropped):
        if f or b:
            length += 1
        elif length:
            runs.append(length)
            length = 0
    return runs + [length] if length else runs


class TestHoppingDecorrelatesBursts:
    def test_37_channels_shorten_runs_of_dropped_cycles_at_equal_drop_rate(self):
        # Gilbert-Elliott bursts of ~10 slots; on one channel per band a
        # burst drops consecutive cycles, hopping over 37 spreads it out
        burst = ChannelModel(p_good_to_bad=0.01, p_bad_to_good=0.1, loss_bad=0.9)
        stats = {}
        for count in (1, 37):
            mac = MacConfig(variant=GALLOP, channel_count=count,
                            clock_drift_ppm=0.0, sync_error_bound=0.0)
            runs, cycles = [], 0
            for seed in (0, 1, 2):
                trace, _ = run_episode(gallop_scenario(
                    mac=mac, channel=burst, episode_duration=10.0, seed=seed))
                runs += dropped_runs(trace)
                cycles += len(trace.t)
            stats[count] = (sum(runs) / cycles, np.mean(runs), max(runs))
        (rate_1, mean_1, max_1), (rate_37, mean_37, max_37) = stats[1], stats[37]
        assert abs(rate_1 - rate_37) <= 0.2 * rate_37
        assert mean_37 < mean_1
        assert max_37 < max_1


@st.composite
def short_scenarios(draw):
    """Random valid scenarios of at most 0.5 s on a drifting, resynced clock,
    from crystal-grade sync up to clocks that jump by several cycles."""
    variant = draw(st.sampled_from([GALLOP, BLE, IDEAL]))
    drift = draw(st.one_of(st.floats(1.0, 500.0), st.floats(500.0, 5e5)))
    mac = MacConfig(
        variant=variant,
        slots_per_superframe=draw(st.sampled_from([2, 3, 4])),
        ble_connection_interval=draw(st.sampled_from([0.0075, 0.01])),
        ble_jitter_max=draw(st.floats(0.0, 0.02)),  # may pass the interval
        extra_delay=draw(st.floats(0.0, 4e-3)),
        clock_drift_ppm=drift * draw(st.sampled_from([-1.0, 1.0])),
        sync_error_bound=draw(st.one_of(st.floats(1e-7, 1e-4),
                                        st.floats(1e-4, 1e-2))),
        sync_epoch_period=draw(st.floats(0.001, 0.3)),
    )
    channel = ChannelModel(default_loss=draw(st.floats(0.0, 0.3)),
                           p_good_to_bad=draw(st.floats(0.0, 0.2)),
                           p_bad_to_good=draw(st.floats(0.1, 1.0)),
                           loss_bad=draw(st.floats(0.0, 1.0)))
    return ScenarioConfig(mac=mac, channel=channel,
                          initial_tilt=draw(st.floats(-0.2, 0.2)),
                          episode_duration=draw(st.floats(0.01, 0.5)),
                          seed=draw(st.integers(0, 2**32 - 1)))


def latency_floor_ns(mac: MacConfig) -> int:
    """Least sample-to-actuation time: two hops, each no earlier than the
    end of a slot admitted slot_guard late (gallop) or 1 ns after the
    ready time (BLE, ideal), plus extra_delay."""
    hop_ns = round(mac.slot_duration * 1e9) - round(mac.slot_guard * 1e9) \
        if mac.variant == GALLOP else 1
    return 2 * (hop_ns + round(mac.extra_delay * 1e9))


class TestPipelineProperties:
    @settings(max_examples=100, deadline=None)
    @given(cfg=short_scenarios())
    def test_episode_invariants(self, cfg):
        trace, _ = run_episode(cfg)
        assert trace.forward_sent == trace.forward_delivered + trace.forward_lost
        assert trace.feedback_sent == trace.feedback_delivered + trace.feedback_lost
        times = list(trace.t)
        assert all(a < b for a, b in zip(times, times[1:]))
        # every kept row was sampled before the fall, or else the episode's
        # end: compute_metrics takes the rms over all of them
        horizon = cfg.episode_duration if trace.fall_time is None \
            else trace.fall_time
        assert all(t < horizon for t in times)
        # commands take effect in cycle order: a reordered one is dropped
        applied = [round(t * 1e9) + round(lat * 1e6)
                   for t, lat in zip(trace.t, trace.cycle_latency)
                   if not math.isnan(lat)]
        assert all(a <= b for a, b in zip(applied, applied[1:]))
        floor = latency_floor_ns(cfg.mac)
        assert all(round(lat * 1e6) >= floor for lat in trace.cycle_latency
                   if not math.isnan(lat))
        if trace.fall_time is not None:
            assert 0.0 <= trace.fall_time <= cfg.episode_duration


@st.composite
def hand_built_traces(draw):
    """Traces of up to 20 cycles on a 2 ms grid, drawn column by column:
    NaN latencies, at times every one of them, and a fall that may land
    among the rows."""
    n = draw(st.integers(0, 20))
    value = st.floats(-1e6, 1e6)
    latency = st.just(math.nan) if draw(st.booleans()) else st.one_of(
        st.just(math.nan), st.floats(0.0, 1e3))

    def column(typecode, elements):
        return array(typecode, draw(st.lists(elements, min_size=n, max_size=n)))

    return EpisodeTrace(
        t=array("d", [0.002 * k for k in range(n)]),
        tilt=column("d", value), tilt_rate=column("d", value),
        wheel_rate=column("d", value),
        command=column("d", st.just(math.nan) | value),
        cycle_latency=column("d", latency),
        forward_dropped=column("b", st.booleans()),
        feedback_dropped=column("b", st.booleans()),
        fall_time=draw(st.none() | st.floats(0.0, 0.002 * n + 0.004)))


@st.composite
def tied_samples(draw):
    """1-300 values drawn from a pool of at most four, so ties are common;
    the pool holds signed zeros and magnitudes up to 1e300."""
    pool = draw(st.lists(st.sampled_from([0.0, -0.0]) | st.floats(-1e300, 1e300),
                         min_size=1, max_size=4))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=300))


class TestComputeMetrics:
    CFG = gallop_scenario(episode_duration=1.0)

    @settings(max_examples=100, deadline=None)
    @given(trace=hand_built_traces())
    @example(trace=EpisodeTrace())
    @example(trace=EpisodeTrace(fall_time=0.5))
    def test_columns_match_the_record_oracle(self, trace):
        got = compute_metrics(trace, self.CFG)
        want = record_metrics(trace, self.CFG)
        # bit for bit: repr round-trips a float and tells -0.0 from 0.0
        assert [repr(x) for x in astuple(got)] == [repr(x) for x in astuple(want)]

    # v = 0.99 (n - 1) splits at g = 0.5: n = 51 gives g = 0.5 (b - d (1 - g)),
    # n = 52 gives 0.49 (a + d g), n = 101 an exact order statistic; on
    # -0.0 ties only the branch numpy takes gives the right signed zero
    @settings(max_examples=300, deadline=None)
    @given(x=tied_samples())
    @example(x=[-0.0])
    @example(x=[-0.0] * 51)
    @example(x=[-0.0] * 52)
    @example(x=[0.0, -0.0, 1e300, -1e300] * 25 + [5e-324])
    def test_p99_is_numpys_linear_percentile(self, x):
        x = np.array(x)
        want = float(np.percentile(x, 99))
        assert repr(sim._p99(x)) == repr(want)

    def _trace(self, n, lat=2.0, fwd=0, fbk=0, fall_time=None):
        """n cycles on the 2 ms grid at a 0.5 deg tilt, a 1 deg/s tilt rate
        and a 0.1 command; lat, fwd and fbk are one value for every cycle
        or a list of n."""
        def column(typecode, values):
            return array(typecode, values if isinstance(values, list)
                         else [values] * n)

        return EpisodeTrace(
            t=array("d", [0.002 * i for i in range(n)]), tilt=column("d", 0.5),
            tilt_rate=column("d", 1.0), wheel_rate=column("d", 0.0),
            command=column("d", 0.1), cycle_latency=column("d", lat),
            forward_dropped=column("b", fwd), feedback_dropped=column("b", fbk),
            fall_time=fall_time)

    def test_constant_rate_rms(self):
        cfg = gallop_scenario(episode_duration=1.0)
        trace = self._trace(10)
        m = compute_metrics(trace, cfg)
        assert m.rms_tilt_rate == 1.0

    def test_constant_latency_mean_and_zero_variance(self):
        cfg = gallop_scenario(episode_duration=1.0)
        trace = self._trace(100, lat=2.0)
        m = compute_metrics(trace, cfg)
        assert m.latency_mean == 2.0
        assert m.latency_variance == 0.0
        assert m.latency_p99 == 2.0

    def test_drop_rate_counts_cycles_with_either_direction_lost(self):
        cfg = gallop_scenario(episode_duration=1.0)
        flags = [(False, False), (False, False), (True, False), (False, False)]
        trace = self._trace(
            4, fwd=[f for f, _ in flags], fbk=[b for _, b in flags],
            lat=[float("nan") if f or b else 2.0 for f, b in flags])
        m = compute_metrics(trace, cfg)
        assert m.drop_rate == 0.25

    def test_empty_trace_reports_initial_tilt_and_no_drops(self):
        # falls in the first substep, before the sample at 0 is taken
        cfg = gallop_scenario(initial_tilt=0.6)
        trace, m = run_episode(cfg)
        assert not any(trace.columns())
        assert (m.balanced_duration, m.fell) == (0.0005, True)
        assert m.max_abs_tilt == math.degrees(0.6)
        assert all(math.isnan(x) for x in (m.rms_tilt_rate, m.latency_mean,
                                            m.latency_variance, m.latency_p99))
        assert m.drop_rate == 0.0
        assert metrics_to_text(compute_metrics(trace, cfg)) == metrics_to_text(m)

        m = compute_metrics(self._trace(0), cfg)
        assert (m.balanced_duration, m.fell) == (cfg.episode_duration, False)

    def test_fall_truncates_balanced_duration(self):
        cfg = gallop_scenario(episode_duration=10.0)
        trace = self._trace(5, fall_time=0.5)
        m = compute_metrics(trace, cfg)
        assert m.fell
        assert m.balanced_duration == 0.5


def assert_rows_closed(trace: EpisodeTrace) -> None:
    """Every row is a closed cycle: forward dropped with no command, or
    with its command and either a latency or a feedback drop."""
    for command, lat, fwd, fbk in zip(trace.command, trace.cycle_latency,
                                      trace.forward_dropped, trace.feedback_dropped):
        if fwd:
            assert math.isnan(command) and math.isnan(lat)
            assert not fbk
        else:
            assert not math.isnan(command)
            assert math.isnan(lat) == fbk


class TestTraceRows:
    def test_rows_closed_out_of_order_stay_in_sample_order(self):
        # a jitter beyond the connection interval: a command applied before
        # an older one closes its row first, then the older row is dropped
        mac = replace(ble_scenario().mac, ble_jitter_max=0.02)
        trace, _ = run_episode(ble_scenario(mac=mac, episode_duration=1.0))
        assert trace.feedback_lost == 0
        assert sum(trace.feedback_dropped) == 9
        assert all(a < b for a, b in zip(trace.t, trace.t[1:]))
        assert_rows_closed(trace)
        # the bytes this episode wrote when each cycle was a CycleRecord:
        # it falls at 0.446 s, so it is the golden 5 s case's episode
        assert hashlib.sha256(trace_to_csv(trace).encode()).hexdigest() \
            == GOLDEN["ble_overtaken_command"]

    def test_fall_deletes_the_rows_in_flight(self):
        # a 34 ms loop on the 2 ms cycle: 17 cycles are in flight at the fall
        mac = replace(gallop_scenario().mac, extra_delay=0.016)
        trace, _ = run_episode(gallop_scenario(mac=mac, episode_duration=1.0))
        fall_ns = round(trace.fall_time * 1e9)
        closed = [k for k in range(trace.forward_sent)
                  if k * 2_000_000 + 34_000_000 <= fall_ns]
        assert trace.forward_sent - len(closed) == 17
        assert {len(column) for column in trace.columns()} == {len(closed)}
        assert list(trace.t) == [k * 2_000_000 / 1e9 for k in closed]
        assert set(trace.cycle_latency) == {34.0}
        assert_rows_closed(trace)

    def test_pickle_and_records_keep_the_trace(self):
        trace, _ = run_episode(gallop_scenario(
            channel=ChannelModel(default_loss=0.3), episode_duration=0.5))
        assert any(trace.forward_dropped)
        assert any(trace.feedback_dropped)
        pickled = pickle.loads(pickle.dumps(trace))
        assert (pickled.forward_lost, pickled.feedback_lost) == (
            trace.forward_lost, trace.feedback_lost)
        assert trace_to_csv(pickled) == trace_to_csv(trace)
        # the benchmark's row iterator yields the column rows, by repr
        assert len(trace.records) == len(trace.t)
        assert [repr(tuple(r)) for r in trace.records] == [
            repr(row) for row in zip(*trace.columns())]


def heap_peak(call) -> int:
    """The tracemalloc peak, in bytes, of what call() allocates."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTraceMemory:
    # Bounds fixed before either side was measured. Between a 0.25 s and a
    # 1.25 s gallop episode (125 and 625 cycles), a trace of CycleRecord
    # tuples, as the engine kept before the columns, held 256 B per cycle
    # and raised run_episode's heap peak by 352 B per cycle; the columns
    # hold 52 B and raise it by 81 B.
    TRACE_BYTES_PER_CYCLE = 64
    PEAK_BYTES_PER_CYCLE = 200

    def test_bytes_per_cycle(self):
        def traced(duration):
            cfg = gallop_scenario(episode_duration=duration)
            tracemalloc.start()
            try:
                trace, _ = run_episode(cfg)
                return trace, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run_episode(gallop_scenario(episode_duration=0.1))  # lazy set-up
        short, short_peak = traced(0.25)
        long, long_peak = traced(1.25)
        cycles = len(long.t)
        held = sum(sys.getsizeof(column) for column in long.columns())
        assert held / cycles <= self.TRACE_BYTES_PER_CYCLE
        # the episode's fixed costs cancel in the difference
        per_cycle = (long_peak - short_peak) / (cycles - len(short.t))
        assert per_cycle <= self.PEAK_BYTES_PER_CYCLE

    def test_no_run_imports_numpy_ma(self):
        # np.percentile reaches numpy.ma through np.unique: +1.8 MB per process
        script = textwrap.dedent("""
            import sys
            from telebalance import ble_scenario, gallop_scenario, run_episode
            from telebalance.sim import (compare_scenarios, metrics_to_text,
                                         run_sweep, trace_to_csv)
            cfgs = [gallop_scenario(episode_duration=0.2),
                    ble_scenario(episode_duration=0.2)]
            for cfg in cfgs:
                trace, metrics = run_episode(cfg)
                trace_to_csv(trace), metrics_to_text(metrics)
            compare_scenarios(cfgs, seeds=[1, 2], workers=1)
            run_sweep(cfgs[0], "mac.extra_delay", [0.0, 1e-3], 3, workers=1)
            print(sorted(name for name in sys.modules
                         if name == "numpy.ma" or name.startswith("numpy.ma.")))
        """)
        env = {**os.environ, "PYTHONPATH": str(Path(sim.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "[]\n"

    # The text and the bytearray it is decoded from, which grows by at most
    # an eighth over its length: 2.125 times the text. A list of one string
    # per row before the join took 2.46 times on a 60 s gallop trace.
    CSV_PEAK_PER_TEXT_BYTE = 2.25

    def test_trace_to_csv_peaks_near_twice_its_text(self):
        trace, _ = run_episode(gallop_scenario(episode_duration=20.0))
        text = trace_to_csv(trace)
        peak = heap_peak(lambda: trace_to_csv(trace))
        assert peak < self.CSV_PEAK_PER_TEXT_BYTE * len(text)


class TestSweep:
    def test_single_value_equals_averaged_episodes(self):
        base = gallop_scenario(episode_duration=2.0)
        pts = run_sweep(base, "mac.extra_delay", [0.0], seeds_per_point=3)
        assert len(pts) == 1
        rms = [run_episode(replace(base, seed=base.seed + i))[1].rms_tilt_rate
               for i in range(3)]
        assert pts[0].mean_rms_tilt_rate == float(np.mean(rms))
        assert pts[0].fall_fraction == 0.0

    def test_unknown_parameter_path_rejected(self):
        base = gallop_scenario(episode_duration=1.0)
        with pytest.raises(ValueError):
            run_sweep(base, "mac.does_not_exist", [0.0], seeds_per_point=3)
        with pytest.raises(ValueError):
            run_sweep(base, "label", [0.0], seeds_per_point=3)

    def test_needs_three_seeds_and_values(self):
        base = gallop_scenario(episode_duration=1.0)
        with pytest.raises(ValueError):
            run_sweep(base, "mac.extra_delay", [], seeds_per_point=3)
        with pytest.raises(ValueError):
            run_sweep(base, "mac.extra_delay", [0.0], seeds_per_point=2)

    def test_sequential_and_concurrent_agree(self):
        base = gallop_scenario(episode_duration=1.5)
        grid = [0.0, 0.004]
        seq = run_sweep(base, "mac.extra_delay", grid, seeds_per_point=3)
        par = run_sweep(base, "mac.extra_delay", grid, seeds_per_point=3,
                        workers=4)
        assert seq == par

    def test_int_field_takes_integral_values_as_int(self):
        base = gallop_scenario(episode_duration=0.5)
        cfg = set_by_path(base, "mac.slots_per_superframe", 4.0)
        assert cfg.mac.slots_per_superframe == 4
        assert type(cfg.mac.slots_per_superframe) is int
        pts = run_sweep(base, "mac.slots_per_superframe", [2.0, 4.0],
                        seeds_per_point=3)
        assert [p.value for p in pts] == [2.0, 4.0]

    def test_float_field_takes_int_values_as_float(self):
        cfg = set_by_path(gallop_scenario(), "mac.extra_delay", 0)
        assert type(cfg.mac.extra_delay) is float

    def test_non_integral_value_for_int_field_names_the_path(self):
        base = gallop_scenario(episode_duration=0.5)
        with pytest.raises(ValueError, match="mac.slots_per_superframe"):
            run_sweep(base, "mac.slots_per_superframe", [2.0, 2.5],
                      seeds_per_point=3)
        with pytest.raises(ValueError, match="scenario.seed"):
            set_by_path(base, "scenario.seed", 1.5)

    def test_scenario_prefixed_path_reaches_scenario_fields(self):
        base = gallop_scenario(episode_duration=1.0)
        cfg = set_by_path(base, "scenario.episode_duration", 0.5)
        assert cfg.episode_duration == 0.5
        assert set_by_path(base, "scenario.seed", 3.0).seed == 3
        assert run_sweep(base, "scenario.episode_duration", [0.5],
                         seeds_per_point=3) \
            == run_sweep(base, "episode_duration", [0.5], seeds_per_point=3)
        with pytest.raises(ValueError, match="parameter path"):
            set_by_path(base, "scenario.label", 1.0)

    def test_seed_sweep_runs_each_value_from_its_own_seed(self):
        # a scenario.seed point runs seeds value .. value+2, as a sweep of
        # another key from that base seed does
        base = gallop_scenario(episode_duration=0.5)
        swept = run_sweep(base, "scenario.seed", [1, 50], seeds_per_point=3)
        single = [run_sweep(replace(base, seed=s), "mac.extra_delay", [0.0], 3)[0]
                  for s in (1, 50)]
        assert [astuple(p)[1:] for p in swept] == [astuple(p)[1:] for p in single]
        assert astuple(swept[0])[1:] != astuple(swept[1])[1:]

    def test_worker_error_reaches_caller_with_its_type(self):
        base = gallop_scenario(episode_duration=0.5)
        with pytest.raises(ValueError, match="slot_guard"):
            run_sweep(base, "mac.slot_guard", [0.002], 3, workers=2)

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="only a forked worker inherits the patched run_episode")
    def test_episode_error_in_a_pool_worker_reaches_caller_with_its_type(
            self, monkeypatch):
        # the config is valid and tuned in the caller; seed 2's episode
        # raises inside a worker of a two-process pool
        run = sim.run_episode

        def episode(cfg):
            if cfg.seed == 2:
                raise ArithmeticError("seed 2")
            return run(cfg)
        monkeypatch.setattr(sim, "run_episode", episode)
        monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: {0, 1})
        base = gallop_scenario(episode_duration=0.05)
        with pytest.raises(ArithmeticError, match="seed 2"):
            run_sweep(base, "mac.extra_delay", [0.0], 3, workers=2)

    def test_worker_tuning_failure_reaches_caller_with_its_type(self):
        # the config is valid; gain tuning fails in the caller, before the
        # pool would start
        base = gallop_scenario(episode_duration=0.5)
        with pytest.raises(TuningFailureError, match="200.0 ms"):
            run_sweep(base, "scenario.control_cycle", [0.2], 3, workers=2)

    def test_bad_grid_value_rejected_before_any_episode(self, monkeypatch):
        episodes = []
        run = sim.run_episode
        monkeypatch.setattr(sim, "run_episode",
                            lambda cfg: episodes.append(cfg) or run(cfg))
        base = gallop_scenario(episode_duration=0.5)
        with pytest.raises(ValueError, match="extra_delay must be finite"):
            run_sweep(base, "mac.extra_delay", [0.0, math.inf], 3)
        assert episodes == []

    def test_caller_tunes_every_job_before_dispatch(self, monkeypatch):
        # workers never tune: each job reaches _run_job with the gains the
        # episode would have tuned for its own cycle
        jobs = []
        run_job = sim._run_job
        monkeypatch.setattr(sim, "_run_job",
                            lambda job: jobs.append(job) or run_job(job))
        base = gallop_scenario(episode_duration=0.2)
        cycles = [0.005, 0.01]
        run_sweep(base, "scenario.control_cycle", cycles, 3)
        assert len(jobs) == 6
        for (cfg, _), cycle in zip(jobs, [c for c in cycles for _ in range(3)]):
            assert cfg.gains == tune_default_gains(base.plant, cycle)
            assert replace(cfg, gains=None) == replace(
                base, control_cycle=cycle, seed=cfg.seed)

    @pytest.mark.parametrize("path, values, tunings", [
        ("mac.extra_delay", [0.0, 0.008, 0.012], 1),
        ("scenario.control_cycle", [0.005, 0.01, 0.005], 2)])
    def test_each_distinct_cycle_is_tuned_once(self, monkeypatch, path, values,
                                               tunings):
        calls = []
        tune = sim.tune_default_gains
        monkeypatch.setattr(sim, "tune_default_gains",
                            lambda *args: calls.append(args) or tune(*args))
        run_sweep(gallop_scenario(episode_duration=0.1), path, values, 3)
        assert len(calls) == tunings

    def test_untunable_grid_rejected_before_any_episode(self, monkeypatch):
        episodes = []
        run = sim.run_episode
        monkeypatch.setattr(sim, "run_episode",
                            lambda cfg: episodes.append(cfg) or run(cfg))
        base = gallop_scenario(episode_duration=0.5)
        with pytest.raises(TuningFailureError, match="200.0 ms"):
            run_sweep(base, "scenario.control_cycle", [0.005, 0.2], 3)
        assert episodes == []

    @pytest.mark.parametrize("affinity, cpu_count, pool_size", [
        ({0, 1, 2}, 64, 3), (None, 5, 5), (None, None, None)])
    def test_pool_holds_at_most_one_process_per_usable_core(
            self, monkeypatch, affinity, cpu_count, pool_size):
        # a pool that records its size and runs the jobs here: no process
        # starts; 1000 workers asked for on 8 jobs
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InlinePool)
        if affinity is None:
            monkeypatch.delattr(sim.os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: affinity)
        monkeypatch.setattr(sim.os, "cpu_count", lambda: cpu_count)
        base = gallop_scenario(episode_duration=0.02)
        points = run_sweep(base, "mac.extra_delay", [0.0, 0.004], 4, workers=1000)
        # an unknown core count runs in series
        assert sizes == ([] if pool_size is None else [pool_size])
        assert points == run_sweep(base, "mac.extra_delay", [0.0, 0.004], 4)

    def test_failure_threshold_helper(self):
        from telebalance.sim import SweepPoint
        pts = [SweepPoint(0.0, 1.0, 0.0, 0.0), SweepPoint(1.0, 2.0, 0.5, 0.0),
               SweepPoint(2.0, 3.0, 1.0, 0.0)]
        assert failure_threshold(pts) == 1.0
        assert failure_threshold(pts[:1]) is None
        # the smallest such value, whatever order the grid was swept in
        assert failure_threshold(pts[::-1]) == 1.0

    def test_doubling_seeds_stays_within_standard_error(self):
        base = gallop_scenario(episode_duration=4.0)
        p3 = run_sweep(base, "mac.extra_delay", [0.0], seeds_per_point=3)[0]
        p6 = run_sweep(base, "mac.extra_delay", [0.0], seeds_per_point=6)[0]
        assert abs(p3.mean_rms_tilt_rate - p6.mean_rms_tilt_rate) \
            <= 2.0 * (p3.stderr + p6.stderr)


class TestCompare:
    def test_gallop_vs_ble_latency_character(self):
        results = compare_scenarios(
            [gallop_scenario(episode_duration=4.0),
             ble_scenario(episode_duration=4.0)], seeds=[0, 1, 2])
        by_label = {r.label: r for r in results}
        assert by_label["gallop"].mean("latency_variance") == 0.0
        assert by_label["ble"].mean("latency_variance") > 0.0
        assert by_label["ble"].mean("rms_tilt_rate") \
            > by_label["gallop"].mean("rms_tilt_rate")

    def test_identical_inputs_give_identical_reports(self):
        cfgs = [gallop_scenario(episode_duration=1.5),
                ble_scenario(episode_duration=1.5)]
        r1 = compare_scenarios(cfgs, seeds=[3, 4])
        r2 = compare_scenarios(cfgs, seeds=[3, 4])
        for a, b in zip(r1, r2):
            assert a.metrics == b.metrics
            assert trace_to_csv(a.trace) == trace_to_csv(b.trace)

    def test_explicit_gains_reach_the_episode_unchanged(self, monkeypatch):
        jobs = []
        run_job = sim._run_job
        monkeypatch.setattr(sim, "_run_job",
                            lambda job: jobs.append(job) or run_job(job))
        gains = ControllerGains(kp_tilt=18.0, kd_tilt=1.4)
        cfgs = [gallop_scenario(episode_duration=0.2, gains=gains),
                ble_scenario(episode_duration=0.2)]
        results = compare_scenarios(cfgs, seeds=[3, 4])
        assert [cfg for cfg, _ in jobs[:2]] == \
            [replace(cfgs[0], seed=s) for s in (3, 4)]
        assert all(cfg.gains is gains for cfg, _ in jobs[:2])
        tuned = tune_default_gains(cfgs[1].plant, cfgs[1].resolved_cycle())
        assert [cfg for cfg, _ in jobs[2:]] == \
            [replace(cfgs[1], seed=s, gains=tuned) for s in (3, 4)]
        # each result still carries the caller's own config
        assert [r.config for r in results] == cfgs

    def test_process_pool_matches_serial(self):
        cfgs = [gallop_scenario(episode_duration=1.5),
                ble_scenario(episode_duration=1.5)]
        serial = compare_scenarios(cfgs, seeds=[3, 4, 5])
        pooled = compare_scenarios(cfgs, seeds=[3, 4, 5], workers=2)
        assert [r.label for r in pooled] == ["gallop", "ble"]
        for a, b in zip(serial, pooled):
            assert a.metrics == b.metrics
            assert trace_to_csv(a.trace) == trace_to_csv(b.trace)
        first = run_episode(replace(cfgs[1], seed=3))[0]
        assert trace_to_csv(pooled[1].trace) == trace_to_csv(first)

    def test_needs_two_scenarios_and_a_seed(self):
        with pytest.raises(ValueError):
            compare_scenarios([gallop_scenario()], seeds=[0])
        with pytest.raises(ValueError):
            compare_scenarios([gallop_scenario(), ble_scenario()], seeds=[])


class TestSerialization:
    def test_trace_csv_shape(self):
        trace, _ = run_episode(gallop_scenario(episode_duration=0.5))
        text = trace_to_csv(trace)
        lines = text.splitlines()
        assert lines[0] == ("t,tilt,tilt_rate,wheel_rate,command_left,"
                            "command_right,cycle_latency,forward_dropped,"
                            "feedback_dropped")
        assert len(lines) == 1 + len(trace.t)
        assert text.endswith("\n")
        # both command columns carry the one planar command
        assert all(row.split(",")[4] == row.split(",")[5] for row in lines[1:])

    def test_trace_csv_text(self):
        nan = float("nan")
        trace = EpisodeTrace(
            t=array("d", [0.0, 0.002, 0.004, 0.006]),
            tilt=array("d", [-0.0, 2.5, 0.1, 1.0]),
            tilt_rate=array("d", [1e-05, -3.25, -1e-05, 0.5]),
            wheel_rate=array("d", [1e+16, 0.0, -1e+16, 2.0]),
            command=array("d", [nan, -0.0, 1e-05, 1.0]),
            cycle_latency=array("d", [nan, nan, 1e+16, 2.0]),
            forward_dropped=array("b", [1, 0, 0, 1]),
            feedback_dropped=array("b", [0, 1, 0, 1]))
        assert trace_to_csv(trace) == (
            "t,tilt,tilt_rate,wheel_rate,command_left,command_right,"
            "cycle_latency,forward_dropped,feedback_dropped\n"
            "0.0,-0.0,1e-05,1e+16,nan,nan,nan,true,false\n"
            "0.002,2.5,-3.25,0.0,-0.0,-0.0,nan,false,true\n"
            "0.004,0.1,-1e-05,-1e+16,1e-05,1e-05,1e+16,false,false\n"
            "0.006,1.0,0.5,2.0,1.0,1.0,2.0,true,true\n")

    def test_empty_trace_csv_is_the_header_line(self):
        assert trace_to_csv(EpisodeTrace()) == (
            "t,tilt,tilt_rate,wheel_rate,command_left,command_right,"
            "cycle_latency,forward_dropped,feedback_dropped\n")

    def test_metrics_text_round_trippable(self):
        _, m = run_episode(gallop_scenario(episode_duration=0.5))
        text = metrics_to_text(m)
        fields = dict(line.split("=", 1) for line in text.strip().splitlines())
        assert fields["fell"] == "false"
        assert float(fields["latency_mean_ms"]) == 2.0
        assert float(fields["latency_variance_ms2"]) == 0.0
