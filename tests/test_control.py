import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    expm_taylor,
    latency_interval,
    lifted_loop_matrix,
    loop_matrix_rows,
    probed_span,
    rk4_span_closure,
    wip_linear_system,
)
from telebalance.control import (
    DEFAULT_FILTER_ALPHA,
    DEFAULT_GAINS,
    WHEEL_RATE_SMOOTHING,
    ControllerGains,
    TuningFailureError,
    closed_loop_matrix,
    compute_command,
    controller_map,
    ControllerState,
    estimate_tilt,
    spectral_radius,
    tune_default_gains,
)
from telebalance import control
from telebalance.config import ScenarioConfig, ideal_scenario
from telebalance.plant import (
    TWO_PI,
    PlantParams,
    SensorFrame,
    SensorNoise,
    _ns,
    _rk4_span,
    sample_sensors,
    span_matrix,
)
from telebalance.sim import run_episode
from telebalance.wireless import BLE, MacConfig

# the cycles and plants over which the loop model and the tuner are checked
GRID_CYCLES_MS = (0.5, 1, 2, 3, 4, 5, 7.5, 10, 12.5, 15, 20, 25, 30)
GRID_PLANTS = {
    "default": PlantParams(),
    "no_motor_lag": PlantParams(motor_time_constant=0.0),
    "heavy": PlantParams(body_mass=0.6, com_distance=0.08),
}
# the DEFAULT_GAINS scale tune_default_gains picked at each of those cycles
# while closed_loop_matrix still called scipy.linalg.expm
SCIPY_EXPM_SCALES = {
    "default": (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.75, 0.5, 0.5, 0.35, 0.35, 0.25),
    "no_motor_lag": (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.75, 0.5, 0.5, 0.35, 0.25, 0.25, 0.15),
    "heavy": (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.75, 0.5, 0.5, 0.35, 0.35, 0.25, 0.25),
}


def frame(gyro=0.0, accel=0.0, enc=0, seq=0):
    """A frame whose wheel angle reads enc counts, as sample_sensors gives it."""
    angle = enc / PlantParams().encoder_counts_per_rev * TWO_PI
    return SensorFrame(gyro_pitch_rate=gyro, accel_tilt=accel, wheel_angle=angle,
                       seq=seq)


class TestEstimateTilt:
    def test_alpha_zero_is_pure_accelerometer(self):
        cs = ControllerState()
        cs = estimate_tilt(cs, frame(gyro=99.0, accel=0.07), dt=0.002, alpha=0.0)
        assert cs.tilt_estimate == 0.07

    def test_alpha_one_is_pure_gyro_integration(self):
        cs = ControllerState()
        cs = estimate_tilt(cs, frame(gyro=0.2, accel=123.0), dt=0.005, alpha=1.0)
        assert cs.tilt_estimate == pytest.approx(0.001, rel=1e-12)

    def test_tracks_true_tilt_on_noiseless_trajectory(self, params):
        # closed loop against plant ground truth: estimate within 5 mrad after
        # 1 s; the plant takes the engine's RK4 substeps under each command
        th, w, phi, v, tau = math.radians(2), 0.0, 0.0, 0.0, 0.0
        cs = ControllerState()
        rng = np.random.default_rng(0)
        cycle = 0.005
        for k in range(400):
            f = sample_sensors(th, w, phi, SensorNoise(), params, rng, seq=k)
            cs = estimate_tilt(cs, f, cycle)
            cs, act = compute_command(cs, DEFAULT_GAINS, f, cycle)
            torque = act.motor_command * params.motor_max_torque
            th, w, phi, v, tau, _ = _rk4_span(th, w, phi, v, tau, torque, params,
                                              round(cycle * 1e9))
            if k * cycle > 1.0:
                assert abs(cs.tilt_estimate - th) < 0.005


class TestComputeCommand:
    def test_all_zero_gives_zero_command(self):
        cs = ControllerState()
        cs = estimate_tilt(cs, frame(), dt=0.002)
        cs, act = compute_command(cs, ControllerGains(), frame(), dt=0.002)
        assert act.motor_command == 0.0

    def test_p_only_tilt_term(self):
        gains = ControllerGains(kp_tilt=1.0)
        cs = ControllerState(tilt_estimate=0.1)
        cs, act = compute_command(cs, gains, frame(seq=0), dt=0.002)
        assert act.motor_command == pytest.approx(0.1, rel=1e-12)

    def test_saturation_at_command_limit(self):
        gains = ControllerGains(kp_tilt=20.0, command_limit=1.0)
        cs = ControllerState(tilt_estimate=0.1)
        cs, act = compute_command(cs, gains, frame(seq=0), dt=0.002)
        assert act.motor_command == 1.0

    def test_seq_echoed_and_both_wheels_equal(self):
        cs = ControllerState()
        f = frame(accel=0.05, seq=3)
        cs = estimate_tilt(cs, f, dt=0.002)
        cs, act = compute_command(cs, DEFAULT_GAINS, f, dt=0.002)
        assert act.seq == 3
        # one command, which the planar model applies to both wheels
        assert act._fields == ("motor_command", "seq")

    def test_identical_frame_sequences_give_identical_commands(self):
        def run():
            cs = ControllerState()
            out = []
            rng = np.random.default_rng(11)
            for k in range(50):
                f = frame(gyro=rng.normal(), accel=rng.normal() * 0.1,
                          enc=int(rng.integers(-500, 500)), seq=k)
                cs2 = estimate_tilt(cs, f, 0.002)
                cs, act = compute_command(cs2, DEFAULT_GAINS, f, 0.002)
                out.append(act.motor_command)
            return out

        assert run() == run()

    @settings(max_examples=200, deadline=None)
    @given(gyro=st.floats(-1e6, 1e6), accel=st.floats(-1e6, 1e6),
           enc=st.integers(-10**9, 10**9), seq=st.integers(0, 1000))
    def test_commands_always_clamped(self, gyro, accel, enc, seq):
        params = PlantParams()
        gains = ControllerGains(kp_tilt=50.0, kd_tilt=5.0, ki_tilt=3.0,
                                kp_position=2.0, kd_position=1.0)
        cs = ControllerState()
        f = frame(gyro=gyro, accel=accel, enc=enc, seq=seq)
        cs = estimate_tilt(cs, f, dt=0.002, alpha=0.5)
        cs, act = compute_command(cs, gains, f, dt=0.002)
        assert -1.0 <= act.motor_command <= 1.0

    @settings(max_examples=100, deadline=None)
    @given(tilts=st.lists(st.floats(-10, 10), min_size=1, max_size=80))
    def test_integral_never_exceeds_limit(self, tilts):
        params = PlantParams()
        gains = ControllerGains(ki_tilt=4.0, integral_limit=0.3)
        cs = ControllerState()
        for k, tilt in enumerate(tilts):
            f = frame(accel=tilt, seq=k)
            cs = estimate_tilt(cs, f, dt=0.01, alpha=0.0)
            cs, _ = compute_command(cs, gains, f, dt=0.01)
            assert abs(cs.integral_accum) <= 0.3


class TestTuning:
    def test_default_gains_stabilize_default_cycle(self, params):
        gains = tune_default_gains(params, 0.005)
        assert gains == DEFAULT_GAINS
        assert spectral_radius(closed_loop_matrix(params, gains, 0.005)) < 1.0

    def test_gallop_and_ble_cycles_are_stable(self, params):
        for cycle in (0.002, 0.0075):
            gains = tune_default_gains(params, cycle)
            assert spectral_radius(closed_loop_matrix(params, gains, cycle)) < 1.0

    def test_long_cycle_fails(self, params):
        with pytest.raises(TuningFailureError):
            tune_default_gains(params, 0.2)

    @pytest.mark.parametrize("cycle", [0.002, 0.0075, 0.2])
    def test_one_plant_block_per_tune(self, monkeypatch, cycle):
        # the block does not depend on the gains: every searched scale,
        # all ten of them at 0.2 s, composes its controller map with one
        calls = []
        build = control.span_matrix
        monkeypatch.setattr(control, "span_matrix",
                            lambda *args: calls.append(args) or build(*args))
        if cycle < 0.1:
            assert tune_default_gains(PlantParams(), cycle) == DEFAULT_GAINS
        else:
            with pytest.raises(TuningFailureError):
                tune_default_gains(PlantParams(), cycle)
        assert len(calls) == 1

    @pytest.mark.parametrize("cycle", [100.0, 1e12])
    def test_very_long_cycle_fails_within_a_second_without_warnings(self, cycle):
        # span_matrix composes whole substeps by squaring; stepping the
        # 2e15 substeps of a 1e12 s cycle would not finish
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TuningFailureError):
                tune_default_gains(PlantParams(), cycle)
        assert time.perf_counter() - start < 1.0

    def test_zero_gains_leave_loop_unstable(self, params):
        zero = ControllerGains()
        assert spectral_radius(closed_loop_matrix(params, zero, 0.005)) >= 1.0

    def test_cycle_must_be_positive(self, params):
        with pytest.raises(ValueError):
            tune_default_gains(params, 0.0)

    @pytest.mark.parametrize("cycle", [math.inf, -math.inf, math.nan])
    def test_cycle_must_be_finite(self, params, cycle):
        # a ValueError, as for any other bad cycle, not _ns's OverflowError
        with pytest.raises(ValueError, match="cycle must be positive and finite"):
            tune_default_gains(params, cycle)
        with pytest.raises(ValueError, match="cycle must be positive and finite"):
            closed_loop_matrix(params, DEFAULT_GAINS, cycle)

    @pytest.mark.parametrize("plant", sorted(GRID_PLANTS))
    def test_picks_the_scales_scipy_expm_picked(self, plant):
        for ms, scale in zip(GRID_CYCLES_MS, SCIPY_EXPM_SCALES[plant]):
            gains = tune_default_gains(GRID_PLANTS[plant], ms * 1e-3)
            assert gains.kp_tilt == DEFAULT_GAINS.kp_tilt * scale, ms

    def test_shipped_gains_converge_in_time_domain(self):
        # 2 deg initial tilt, noiseless, on the ideal link at the tuning
        # cycle: |tilt| < 0.2 deg within 3 s and never near the fall threshold
        trace, m = run_episode(ideal_scenario(noise=SensorNoise(),
                                              episode_duration=4.0))
        records = trace.records
        assert not m.fell
        assert len(records) == 800
        assert m.max_abs_tilt < 4.0
        converged_at = None
        for r in records:
            if abs(r.tilt) >= 0.2:
                converged_at = None
            elif converged_at is None:
                converged_at = r.t
        assert converged_at is not None and converged_at <= 3.0


# spans below, at and across one substep, and the grid's BLE and longest cycles
SPANS_NS = (1, 499_999, 500_000, 1_143_106, 7_500_000, 30_000_000)


def row_error(got, ref):
    """The largest error in any row, relative to that row's largest entry."""
    return (np.abs(got - ref).max(axis=1) / np.abs(ref).max(axis=1)).max()


class TestSpanMatrix:
    """span_matrix composes one probed substep by squaring; stepping the
    kernel's probes over the whole span (oracles.probed_span) is its
    reference, and the plant's matrix exponential bounds it to RK4 accuracy."""

    @pytest.mark.parametrize("plant", sorted(GRID_PLANTS))
    def test_matches_stepping_the_kernel(self, plant):
        params = GRID_PLANTS[plant]
        for span_ns in SPANS_NS:
            ref = probed_span(_rk4_span, params, span_ns)
            assert row_error(span_matrix(params, span_ns), ref) <= 1e-13, span_ns

    @pytest.mark.parametrize("plant", sorted(GRID_PLANTS))
    def test_matches_the_matrix_exponential_to_rk4_accuracy(self, plant):
        # tolerance set from RK4's error before measuring: the fastest mode is
        # the 10 ms motor lag, whose global error peaks near
        # (h / tm)^4 / (120 e) ~ 2e-8 at h = 0.5 ms; 1e-6 leaves a 50x margin
        params = GRID_PLANTS[plant]
        A4, B4 = wip_linear_system(params)
        tm = params.motor_time_constant
        # (state..., tau_cmd): the lagged torque is a state unless tm is 0
        keep = [0, 1, 2, 3, 4, 5] if tm > 0 else [0, 1, 2, 3, 5]
        blk = np.zeros((len(keep), len(keep)))
        blk[:4, :4] = A4
        blk[:4, 4] = B4[:, 0]  # from the lagged torque, or from tau_cmd
        if tm > 0:
            blk[4, 4:] = -1.0 / tm, 1.0 / tm
        for span_ns in SPANS_NS:
            ref = expm_taylor(blk * span_ns * 1e-9)
            got = span_matrix(params, span_ns)[np.ix_(keep, keep)]
            assert row_error(got, ref) <= 1e-6, span_ns


def scaled(gains, scale, **fields):
    """gains with every loop gain times scale, then fields set."""
    return replace(gains, kp_tilt=gains.kp_tilt * scale,
                   kd_tilt=gains.kd_tilt * scale, ki_tilt=gains.ki_tilt * scale,
                   kp_position=gains.kp_position * scale,
                   kd_position=gains.kd_position * scale, **fields)


class TestClosedLoopMatrix:
    """The loop model runs the controller; the same law written as row
    algebra (oracles.loop_matrix_rows) is its reference, to rounding."""

    @staticmethod
    def assert_matches_rows(params, gains, cycle):
        # the plant's one-cycle map from stepping the closure-form kernel
        # over the whole cycle, independent of span_matrix's squaring
        P = probed_span(rk4_span_closure, params, _ns(cycle))
        n = 5 if params.motor_time_constant > 0 else 4
        ref = loop_matrix_rows(P[:n, :n], P[:n, 5] * params.motor_max_torque,
                               gains, cycle, DEFAULT_FILTER_ALPHA,
                               WHEEL_RATE_SMOOTHING)
        got = closed_loop_matrix(params, gains, cycle)
        assert got.shape == ref.shape
        # row by row, relative to the row's largest entry
        err = np.abs(got - ref).max(axis=1) / np.abs(ref).max(axis=1)
        assert err.max() <= 1e-13, (cycle, gains)

    @pytest.mark.parametrize("cycle", [1e-6, 0.002, 0.0075])
    def test_controller_map_is_the_row_algebra(self, cycle):
        # a 3-state plant that holds nothing and takes the command into
        # state 0: the row algebra's rows 0 and 3-6 are then the update on
        # (accel_tilt, gyro_pitch_rate, wheel_angle, memory)
        gains = replace(DEFAULT_GAINS, ki_tilt=0.5)
        ref = loop_matrix_rows(np.zeros((3, 3)), np.array([1.0, 0.0, 0.0]),
                               gains, cycle, DEFAULT_FILTER_ALPHA,
                               WHEEL_RATE_SMOOTHING)[[0, 3, 4, 5, 6]]
        got = controller_map(gains, cycle)
        assert got.shape == (5, 7)
        assert row_error(got, ref) <= 1e-13

    @pytest.mark.parametrize("plant", sorted(GRID_PLANTS))
    @pytest.mark.parametrize("ki_tilt", [0.0, 0.5])
    def test_matches_row_algebra_on_grid(self, plant, ki_tilt):
        gains = replace(DEFAULT_GAINS, ki_tilt=ki_tilt)
        for ms in GRID_CYCLES_MS:
            self.assert_matches_rows(GRID_PLANTS[plant], gains, ms * 1e-3)

    @pytest.mark.parametrize("scale", [1e-10, 1.0, 1e10])
    @pytest.mark.parametrize("cycle", [1e-9, 1e-6, 0.03])
    @pytest.mark.parametrize("limit", [None, 1e-12])
    def test_matches_row_algebra_at_extremes(self, params, scale, cycle, limit):
        # the model leaves the clamps out whatever the gains' limits are
        limits = {} if limit is None else {"integral_limit": limit,
                                           "command_limit": limit}
        for ki_tilt in (0.0, 0.5):
            gains = scaled(replace(DEFAULT_GAINS, ki_tilt=ki_tilt), scale,
                           **limits)
            self.assert_matches_rows(params, gains, cycle)


class TestLiftedLoop:
    """oracles.lifted_loop_matrix adds the link's latency to the loop model;
    each tolerance was fixed before the value it bounds was measured."""

    @pytest.mark.parametrize("plant", sorted(GRID_PLANTS))
    @pytest.mark.parametrize("ki_tilt", [0.0, 0.5])
    def test_at_zero_latency_it_is_the_loop_model(self, plant, ki_tilt):
        gains = replace(DEFAULT_GAINS, ki_tilt=ki_tilt)
        for ms in GRID_CYCLES_MS:
            cycle = ms * 1e-3
            got = lifted_loop_matrix(GRID_PLANTS[plant], gains, cycle,
                                     DEFAULT_FILTER_ALPHA, 0)
            ref = closed_loop_matrix(GRID_PLANTS[plant], gains, cycle)
            assert got.shape == ref.shape
            assert row_error(got, ref) <= 1e-13, ms

    @pytest.mark.parametrize("cycle, latency_ns, scale, radius, tol", [
        (0.002, 2_000_000, 1.0, 0.99799, 5e-6),     # gallop
        (0.0075, 16_000_000, 1.0, 1.3413, 5e-5),    # BLE at its mean latency
        (0.0075, 16_000_000, 0.15, 0.9868, 5e-5),   # BLE at the scale that holds
    ])
    def test_radius_at_the_link_latency(self, params, cycle, latency_ns, scale,
                                        radius, tol):
        gains = scaled(DEFAULT_GAINS, scale)
        M = lifted_loop_matrix(params, gains, cycle, DEFAULT_FILTER_ALPHA,
                               latency_ns)
        assert abs(spectral_radius(M) - radius) <= tol

    def test_stability_edge_on_the_gallop_cycle(self, params):
        def radius(latency_ns):
            return spectral_radius(lifted_loop_matrix(
                params, DEFAULT_GAINS, 0.002, DEFAULT_FILTER_ALPHA, latency_ns))
        assert radius(3_250_000) < 1.0 < radius(3_500_000)

    # start: where the fit begins, once the modes below the dominant pair
    # have died out; the decaying gallop loop's next mode (0.979) is close
    @pytest.mark.parametrize("mac, start_s", [
        (MacConfig(), 1.0),
        (MacConfig(extra_delay=1e-3), 0.1),
        (MacConfig(variant=BLE, ble_jitter_max=0.0), 0.15),
    ], ids=["gallop", "gallop_plus_1ms", "ble_no_jitter"])
    def test_engine_decays_at_the_lifted_radius(self, mac, start_s):
        # a noise-free episode from a tilt small enough for the linear model,
        # with an encoder fine enough to leave its quantization out
        plant = PlantParams(encoder_counts_per_rev=10**12)
        cfg = ScenarioConfig(mac=mac, plant=plant, noise=SensorNoise(),
                             initial_tilt=1e-7, episode_duration=3.0)
        cycle = cfg.resolved_cycle()
        low, high = latency_interval(mac, cycle)
        assert low == high
        radius = spectral_radius(lifted_loop_matrix(
            plant, tune_default_gains(plant, cycle), cycle,
            DEFAULT_FILTER_ALPHA, low))

        # the tilt from start_s to the first clamped command, fitted as a
        # damped sinusoid x[k+2] = a1 x[k+1] + a2 x[k] by least squares:
        # its envelope changes by sqrt(-a2) per cycle
        records = run_episode(cfg)[0].records
        tilt = []
        for r in records:
            if abs(r.command) >= 1.0:
                break
            if r.t >= start_s:
                tilt.append(r.tilt)
        tilt = np.array(tilt)
        assert len(tilt) >= 20
        (a1, a2), *_ = np.linalg.lstsq(np.column_stack([tilt[1:-1], tilt[:-2]]),
                                       tilt[2:], rcond=None)
        assert abs(math.sqrt(-a2) - radius) <= 1e-3, (math.sqrt(-a2), radius)
