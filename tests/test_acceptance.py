"""End-to-end acceptance checks, one test per criterion.

Each test prints one PASS/FAIL line (visible with `pytest -s`); tolerances
are pinned in the assertions. Criterion 3's failure-threshold value is a
recorded output of the shipped configuration, not a target.
"""

import contextlib
import hashlib
import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from telebalance.cli import main
from telebalance.config import ble_scenario, gallop_scenario, ideal_scenario
from telebalance.control import ControllerGains
from telebalance.plant import PlantParams
from telebalance.sim import (
    compare_scenarios,
    failure_threshold,
    run_episode,
    run_sweep,
    trace_to_csv,
)
from telebalance.wireless import (
    BLE,
    FEEDBACK,
    FORWARD,
    GALLOP,
    ChannelModel,
    ChannelProcess,
    MacConfig,
    RobotClock,
    transmit,
)

from oracles import (
    expm_taylor,
    lagrangian_energy,
    stationary_loss_rate,
    wip_linear_system,
)


@contextlib.contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_latency_anchors():
    with criterion(1, "latency anchors"):
        start = time.perf_counter()

        # sample-to-actuation latency as the engine records it per cycle
        trace = run_episode(gallop_scenario(episode_duration=4.0))[0]
        assert len(trace.t) == 2000
        assert all(latency == 2.0 for latency in trace.cycle_latency)

        # BLE one-way latency floor on the scheduled sampling grid
        cfg = MacConfig(variant=BLE)
        proc = ChannelProcess(ChannelModel())
        rng, jit = np.random.default_rng(1), np.random.default_rng(2)
        interval_ns = 7_500_000
        for k in range(1000):
            out = transmit(cfg, proc, FORWARD, k * interval_ns, rng, jit)
            assert out.deliver_ns - k * interval_ns >= interval_ns
        trace, _ = run_episode(ble_scenario(episode_duration=7.5))
        latencies = [latency for latency in trace.cycle_latency
                     if not math.isnan(latency)]
        assert len(latencies) > 900
        assert min(latencies) >= 15.0  # two connection intervals

        assert time.perf_counter() - start < 1.0


def test_criterion_2_qualitative_link_comparison():
    with criterion(2, "deterministic link vs BLE baseline"):
        results = compare_scenarios(
            [gallop_scenario(episode_duration=60.0),
             ble_scenario(episode_duration=60.0)],
            seeds=list(range(10)), workers=2)  # pooled == serial, byte for byte
        by_label = {r.label: r for r in results}
        gallop, ble = by_label["gallop"], by_label["ble"]

        assert all(not m.fell for m in gallop.metrics), "gallop episode fell"
        assert gallop.mean("rms_tilt_rate") < ble.mean("rms_tilt_rate")
        assert all(m.latency_variance > 0.0 for m in ble.metrics)
        assert all(m.latency_variance == 0.0 for m in gallop.metrics)
        print(f"\n  rms tilt rate: gallop {gallop.mean('rms_tilt_rate'):.2f} "
              f"vs ble {ble.mean('rms_tilt_rate'):.2f} deg/s over 10 seeds")


def test_criterion_3_loop_budget_sweep():
    with criterion(3, "added-delay sweep"):
        base = gallop_scenario(episode_duration=20.0)
        grid = [0.0, 0.002, 0.005, 0.008, 0.012, 0.016]
        points = run_sweep(base, "mac.extra_delay", grid, seeds_per_point=3,
                           workers=2)

        assert points[0].fall_fraction == 0.0
        # +2 ms does not fall, but it sits in a saturated limit cycle: 54.6
        # deg/s rms, 64% of commands clamped, lifted radius 1.037
        assert points[1].fall_fraction == 0.0
        assert points[-1].fall_fraction == 1.0  # largest value always falls
        threshold = failure_threshold(points)
        assert threshold is not None

        for prev, cur in zip(points, points[1:]):
            slack = math.sqrt(prev.stderr ** 2 + cur.stderr ** 2)
            assert cur.mean_rms_tilt_rate >= prev.mean_rms_tilt_rate - slack
        print(f"\n  recorded failure threshold: extra_delay = {threshold*1e3:g} ms")


def test_criterion_4_plant_oracle_equivalence():
    with criterion(4, "plant vs matrix-exponential and energy oracles"):
        # the plant as the engine advances it: zero gains on the ideal
        # link, a fall threshold out of reach, state read from the trace
        def open_loop(plant, tilt0, duration):
            trace = run_episode(ideal_scenario(
                plant=plant, gains=ControllerGains(0.0, 0.0, 0.0, 0.0),
                initial_tilt=tilt0,
                episode_duration=duration, fall_threshold=1e3))[0]
            assert len(trace.t) == round(duration / 0.005)
            return [(math.radians(tilt), math.radians(rate), math.radians(wheel), t)
                    for t, tilt, rate, wheel in zip(
                        trace.t, trace.tilt, trace.tilt_rate, trace.wheel_rate)]

        params = PlantParams()
        A, _ = wip_linear_system(params)
        x0 = np.array([0.01, 0.0, 0.0, 0.0])
        worst = 0.0
        for tilt, _, _, t in open_loop(params, 0.01, 0.1):
            ref = expm_taylor(A * t) @ x0
            worst = max(worst, abs(tilt - ref[0]) / abs(ref[0]))
        assert worst < 1e-4

        frictionless = PlantParams(viscous_friction=0.0)
        e0 = lagrangian_energy(0.02, 0.0, 0.0, frictionless)
        drift = 0.0
        for tilt, tilt_rate, wheel_rate, _ in open_loop(frictionless, 0.02, 1.0):
            e = lagrangian_energy(tilt, tilt_rate, wheel_rate, frictionless)
            drift = max(drift, abs(e - e0) / e0)
        assert drift < 1e-6
        print(f"\n  trajectory error {worst:.2e}, energy drift {drift:.2e}")


def test_criterion_5_protocol_invariants():
    with criterion(5, "protocol invariant suite"):
        # FDD band disjointness on the channels transmit uses, from frames
        # ready at every slot start of 37 consecutive superframes, and
        # TDMA slot disjointness
        lossless, rng = ChannelProcess(ChannelModel()), np.random.default_rng(0)

        def channels(cfg, direction, readies):
            outs = [transmit(cfg, lossless, direction, t, rng) for t in readies]
            return sorted(out.channel_used for out in outs if out.delivered)

        for n in (2, 3, 4, 8):
            cfg = MacConfig(variant=GALLOP, slots_per_superframe=n)
            sf = cfg.superframe
            table = sorted(slot for slots in sf.by_direction.values() for slot in slots)
            assert len(table) == sf.count == n
            readies = [k * sf.span_ns + start for k in range(37)
                       for start, _, _ in table]
            fwd_bands, fbk_bands = (
                {ch // cfg.channel_count for ch in channels(cfg, d, readies)}
                for d in (FORWARD, FEEDBACK))
            assert fwd_bands == {0} and fbk_bands == {1}
            assert not (fwd_bands & fbk_bands)
            for i in range(len(table)):
                for j in range(i + 1, len(table)):
                    assert table[i][1] <= table[j][0] or table[j][1] <= table[i][0]

        # hopping permutation over 37 consecutive superframes, per band
        cfg = MacConfig(variant=GALLOP)
        readies = [k * cfg.superframe.span_ns for k in range(37)]
        assert channels(cfg, FORWARD, readies) == list(range(37))
        assert channels(cfg, FEEDBACK, readies) == list(range(37, 74))

        # Gilbert-Elliott long-run loss rate within 1% of the analytic value
        model = ChannelModel(p_good_to_bad=0.05, p_bad_to_good=0.2, loss_bad=1.0)
        proc = ChannelProcess(model)
        rng = np.random.default_rng(2024)
        n_slots = 1_000_000
        lost = 0
        for i in range(n_slots):
            if proc.lost(0, i, rng):
                lost += 1
        analytic = stationary_loss_rate(model)
        assert abs(lost / n_slots - analytic) / analytic < 0.01

        # clock offset bound at every sampled time, read through the
        # engine's local_to_true_ns (+1 ns for its rounding to whole ns)
        mac = MacConfig(variant=GALLOP, clock_drift_ppm=20.0, sync_error_bound=1e-6)
        clk = RobotClock(mac, np.random.default_rng(7))
        period_ns = round(mac.sync_epoch_period * 1e9)
        for epoch in range(100):
            clk.sync(epoch * period_ns)
            for j in range(1, 11):
                local = epoch * period_ns + j * period_ns // 10
                true = clk.local_to_true_ns(local)
                bound = mac.sync_error_bound * 1e9 + mac.clock_drift_ppm * 1e-6 \
                    * (true - clk.sync_ns)
                assert abs(local - true) <= bound + 1


def test_criterion_6_determinism(tmp_path):
    with criterion(6, "byte-level determinism"):
        cfg_text = (
            "[scenario]\nepisode_duration = 5 s\ninitial_tilt = 2 deg\n"
            "seed = 11\n\n[mac]\nvariant = gallop\nclock_drift_ppm = 0\n"
            "sync_error_bound = 0 us\n")
        cfg_path = tmp_path / "episode.cfg"
        cfg_path.write_text(cfg_text, encoding="utf-8")

        hashes = []
        for run_dir in ("a", "b"):
            out = tmp_path / run_dir
            assert main(["run", str(cfg_path), "--out", str(out)]) == 0
            hashes.append(hashlib.sha256(
                (out / "trace.csv").read_bytes()).hexdigest())
        assert hashes[0] == hashes[1]

        base = gallop_scenario(episode_duration=2.0)
        grid = [0.0, 0.004, 0.016]
        sequential = run_sweep(base, "mac.extra_delay", grid, seeds_per_point=3)
        concurrent = run_sweep(base, "mac.extra_delay", grid, seeds_per_point=3,
                               workers=4)
        assert sequential == concurrent

        # an episode run inside a worker thread is byte-identical too
        direct = trace_to_csv(run_episode(base)[0])
        with ThreadPoolExecutor(max_workers=2) as pool:
            pooled = trace_to_csv(pool.submit(run_episode, base).result()[0])
        assert direct == pooled
