import math
import time
import warnings
from dataclasses import fields, replace

import numpy as np
from numpy.linalg import _umath_linalg
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (
    expm_taylor,
    loop_matrix_rows,
    probed_span,
    rk4_span_closure,
    spectral_radius,
    wip_linear_system,
)
from telebalance.control import (
    _SEARCH_SCALES,
    FILTER_ALPHA,
    WHEEL_RATE_SMOOTHING,
    ControllerGains,
    TuningFailureError,
    closed_loop_matrix,
    compute_command,
    controller_map,
    ControllerState,
    estimate_tilt,
    tune_default_gains,
)
from telebalance import control
from telebalance.config import ScenarioConfig, ideal_scenario, load_scenario
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
from telebalance.sim import compare_scenarios, run_episode, run_sweep
from telebalance.wireless import BLE, MacConfig, latency_interval

# the cycles and plants over which the loop model and the tuner are checked
GRID_CYCLES_MS = (0.5, 1, 2, 3, 4, 5, 7.5, 10, 12.5, 15, 20, 25, 30)
GRID_PLANTS = {
    "default": PlantParams(),
    "heavy": PlantParams(body_mass=0.6, com_distance=0.08),
}
# the ControllerGains() scale tune_default_gains picked at each of those cycles
# while closed_loop_matrix still called scipy.linalg.expm
SCIPY_EXPM_SCALES = {
    "default": (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.75, 0.5, 0.5, 0.35, 0.35, 0.25),
    "heavy": (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.75, 0.5, 0.5, 0.35, 0.35, 0.25, 0.25),
}


def frame(gyro=0.0, accel=0.0, enc=0):
    """A frame whose wheel angle reads enc counts, as sample_sensors gives it."""
    angle = enc / PlantParams().encoder_counts_per_rev * TWO_PI
    return SensorFrame(gyro_pitch_rate=gyro, accel_tilt=accel, wheel_angle=angle)


class TestEstimateTilt:
    def test_tracks_true_tilt_on_noiseless_trajectory(self, params):
        # closed loop against plant ground truth: estimate within 5 mrad after
        # 1 s; the plant takes the engine's RK4 substeps under each command
        th, w, phi, v, tau = math.radians(2), 0.0, 0.0, 0.0, 0.0
        cs = ControllerState()
        rng = np.random.default_rng(0)
        cycle = 0.005
        for k in range(400):
            f = sample_sensors(th, w, phi, SensorNoise(0.0, 0.0), params, rng)
            cs = estimate_tilt(cs, f, cycle)
            cs, command = compute_command(cs, ControllerGains(), f, cycle)
            torque = command * params.motor_max_torque
            th, w, phi, v, tau, _ = _rk4_span(th, w, phi, v, tau, torque, params,
                                              round(cycle * 1e9))
            if k * cycle > 1.0:
                assert abs(cs.tilt_estimate - th) < 0.005


class TestComputeCommand:
    def test_all_zero_gives_zero_command(self):
        cs = ControllerState()
        cs = estimate_tilt(cs, frame(), dt=0.002)
        zero = ControllerGains(0.0, 0.0, 0.0, 0.0)
        cs, command = compute_command(cs, zero, frame(), dt=0.002)
        assert command == 0.0

    def test_p_only_tilt_term(self):
        gains = ControllerGains(kp_tilt=1.0, kd_tilt=0.0, kp_position=0.0,
                                kd_position=0.0)
        cs = ControllerState(tilt_estimate=0.1)
        cs, command = compute_command(cs, gains, frame(), dt=0.002)
        assert command == pytest.approx(0.1, rel=1e-12)

    def test_saturation_at_command_limit(self):
        # the clamp is the motor's maximum torque, +-1 exactly (the trace
        # prints repr(command))
        gains = ControllerGains(kp_tilt=20.0)
        for tilt, clamped in ((0.1, "1.0"), (-0.1, "-1.0")):
            cs = ControllerState(tilt_estimate=tilt)
            cs, command = compute_command(cs, gains, frame(), dt=0.002)
            assert repr(command) == clamped
        # a command of -0.0 or nan passes the clamp unchanged: every term of
        # the law is -0.0 here, and nan in the tilt estimate
        f = SensorFrame(gyro_pitch_rate=-0.0, accel_tilt=0.0, wheel_angle=-0.0)
        cs = ControllerState(tilt_estimate=-0.0, wheel_rate_estimate=-0.0, primed=True)
        assert repr(compute_command(cs, ControllerGains(), f, dt=0.002)[1]) == "-0.0"
        cs = ControllerState(tilt_estimate=math.nan)
        assert math.isnan(compute_command(cs, ControllerGains(), frame(), dt=0.002)[1])

    def test_one_float_drives_both_wheels(self):
        cs = ControllerState()
        f = frame(accel=0.05)
        cs = estimate_tilt(cs, f, dt=0.002)
        cs, command = compute_command(cs, ControllerGains(), f, dt=0.002)
        # one command, which the planar model applies to both wheels
        assert type(command) is float

    def test_identical_frame_sequences_give_identical_commands(self):
        def run():
            cs = ControllerState()
            out = []
            rng = np.random.default_rng(11)
            for k in range(50):
                f = frame(gyro=rng.normal(), accel=rng.normal() * 0.1,
                          enc=int(rng.integers(-500, 500)))
                cs2 = estimate_tilt(cs, f, 0.002)
                cs, command = compute_command(cs2, ControllerGains(), f, 0.002)
                out.append(command)
            return out

        assert run() == run()

    @settings(max_examples=200, deadline=None)
    @given(gyro=st.floats(-1e6, 1e6), accel=st.floats(-1e6, 1e6),
           enc=st.integers(-10**9, 10**9))
    def test_commands_always_clamped(self, gyro, accel, enc):
        params = PlantParams()
        gains = ControllerGains(kp_tilt=50.0, kd_tilt=5.0,
                                kp_position=2.0, kd_position=1.0)
        cs = ControllerState()
        f = frame(gyro=gyro, accel=accel, enc=enc)
        cs = estimate_tilt(cs, f, dt=0.002)
        cs, command = compute_command(cs, gains, f, dt=0.002)
        assert -1.0 <= command <= 1.0

    def test_every_gain_moves_a_command(self):
        # five frames the defaults answer inside the limit, then one they
        # saturate on; a [gains] key that moves none of these commands is
        # dead weight in the law
        frames = [frame(gyro=0.01 * k, accel=0.002, enc=k) for k in range(1, 6)]
        frames.append(frame(gyro=5.0, accel=0.2, enc=6))

        def commands(gains):
            cs, out = ControllerState(), []
            for f in frames:
                cs = estimate_tilt(cs, f, dt=0.002)
                cs, command = compute_command(cs, gains, f, dt=0.002)
                out.append(command)
            return out

        base = commands(ControllerGains())
        assert all(abs(u) < 1.0 for u in base[:-1]) and abs(base[-1]) == 1.0
        for name in [f.name for f in fields(ControllerGains)]:
            value = getattr(ControllerGains(), name) * 2
            assert commands(replace(ControllerGains(), **{name: value})) != base, name


class TestTuning:
    def test_default_gains_stabilize_default_cycle(self, params):
        gains = tune_default_gains(params, 0.005)
        assert gains == ControllerGains()
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
            assert tune_default_gains(PlantParams(), cycle) == ControllerGains()
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
        zero = ControllerGains(0.0, 0.0, 0.0, 0.0)
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
            closed_loop_matrix(params, ControllerGains(), cycle)

    @pytest.mark.parametrize("plant", sorted(GRID_PLANTS))
    def test_picks_the_scales_scipy_expm_picked(self, plant):
        for ms, scale in zip(GRID_CYCLES_MS, SCIPY_EXPM_SCALES[plant]):
            gains = tune_default_gains(GRID_PLANTS[plant], ms * 1e-3)
            assert gains.kp_tilt == ControllerGains().kp_tilt * scale, ms

    def test_shipped_gains_converge_in_time_domain(self):
        # 2 deg initial tilt, noiseless, on the ideal link at the tuning
        # cycle: |tilt| < 0.2 deg within 3 s and never near the fall threshold
        trace, m = run_episode(ideal_scenario(noise=SensorNoise(0.0, 0.0),
                                              episode_duration=4.0))
        assert not m.fell
        assert len(trace.t) == 800
        assert m.max_abs_tilt < 4.0
        converged_at = None
        for t, tilt in zip(trace.t, trace.tilt):
            if abs(tilt) >= 0.2:
                converged_at = None
            elif converged_at is None:
                converged_at = t
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
        # on (state..., motor_torque, tau_cmd)
        blk = np.zeros((6, 6))
        blk[:4, :4] = A4
        blk[:4, 4] = B4[:, 0]
        blk[4, 4:] = -1.0 / tm, 1.0 / tm
        for span_ns in SPANS_NS:
            ref = expm_taylor(blk * span_ns * 1e-9)
            got = span_matrix(params, span_ns)
            assert row_error(got, ref) <= 1e-6, span_ns


def scaled(gains, scale):
    """gains with every loop gain times scale."""
    return replace(gains, kp_tilt=gains.kp_tilt * scale,
                   kd_tilt=gains.kd_tilt * scale,
                   kp_position=gains.kp_position * scale,
                   kd_position=gains.kd_position * scale)


class TestClosedLoopMatrix:
    """The loop model runs the controller; the same law written as row
    algebra (oracles.loop_matrix_rows) is its reference, to rounding."""

    @staticmethod
    def assert_matches_rows(params, gains, cycle):
        # the plant's one-cycle map from stepping the closure-form kernel
        # over the whole cycle, independent of span_matrix's squaring
        P = probed_span(rk4_span_closure, params, _ns(cycle))
        n = 5
        ref = loop_matrix_rows(P[:n, :n], P[:n, 5] * params.motor_max_torque,
                               gains, cycle, FILTER_ALPHA, WHEEL_RATE_SMOOTHING)
        got = closed_loop_matrix(params, gains, cycle)
        assert got.shape == ref.shape
        # row by row, relative to the row's largest entry
        err = np.abs(got - ref).max(axis=1) / np.abs(ref).max(axis=1)
        assert err.max() <= 1e-13, (cycle, gains)

    @pytest.mark.parametrize("cycle", [1e-6, 0.002, 0.0075])
    def test_controller_map_is_the_row_algebra(self, cycle):
        # a 3-state plant that holds nothing and takes the command into
        # state 0: the row algebra's rows 0 and 3-5 are then the update on
        # (accel_tilt, gyro_pitch_rate, wheel_angle, memory)
        ref = loop_matrix_rows(np.zeros((3, 3)), np.array([1.0, 0.0, 0.0]),
                               ControllerGains(), cycle, FILTER_ALPHA,
                               WHEEL_RATE_SMOOTHING)[[0, 3, 4, 5]]
        got = controller_map(ControllerGains(), cycle)
        assert got.shape == (4, 6)
        assert row_error(got, ref) <= 1e-13

    @pytest.mark.parametrize("plant", sorted(GRID_PLANTS))
    def test_matches_row_algebra_on_grid(self, plant):
        for ms in GRID_CYCLES_MS:
            self.assert_matches_rows(GRID_PLANTS[plant], ControllerGains(), ms * 1e-3)

    @pytest.mark.parametrize("scale", [1e-10, 1.0, 1e10])
    @pytest.mark.parametrize("cycle", [1e-9, 1e-6, 0.03])
    def test_matches_row_algebra_at_extremes(self, params, scale, cycle):
        self.assert_matches_rows(params, scaled(ControllerGains(), scale), cycle)


class TestLiftedLoop:
    """closed_loop_matrix adds the link's latency to the loop model; each
    tolerance was fixed before the value it bounds was measured."""

    @pytest.mark.parametrize("cycle, latency_ns, scale, radius, tol", [
        (0.002, 2_000_000, 1.0, 0.99799, 5e-6),     # gallop
        (0.0075, 16_000_000, 1.0, 1.3413, 5e-5),    # BLE at its mean latency
        (0.0075, 16_000_000, 0.15, 0.9868, 5e-5),   # BLE at the scale that holds
    ])
    def test_radius_at_the_link_latency(self, params, cycle, latency_ns, scale,
                                        radius, tol):
        gains = scaled(ControllerGains(), scale)
        M = closed_loop_matrix(params, gains, cycle, latency_ns)
        assert abs(spectral_radius(M) - radius) <= tol

    def test_stability_edge_on_the_gallop_cycle(self, params):
        def radius(latency_ns):
            return spectral_radius(closed_loop_matrix(
                params, ControllerGains(), 0.002, latency_ns))
        assert radius(3_250_000) < 1.0 < radius(3_500_000)

    # start: where the fit begins, once the modes below the dominant pair
    # have died out; the decaying gallop loop's next mode (0.979) is close.
    # The last two start where the model's next mode has fallen 1e-3 behind
    # its dominant pair, rounded up to 50 ms: after 1.919 s on three slots
    # (2 ms latency on their 3 ms cycle), 2.295 s at 4 ms (2 ms)
    @pytest.mark.parametrize("mac, control_cycle, start_s", [
        (MacConfig(), None, 1.0),
        (MacConfig(extra_delay=1e-3), None, 0.1),
        (MacConfig(variant=BLE, ble_jitter_max=0.0), None, 0.15),
        (MacConfig(slots_per_superframe=3), None, 1.95),
        (MacConfig(), 0.004, 2.3),
    ], ids=["gallop", "gallop_plus_1ms", "ble_no_jitter", "three_slots",
            "gallop_4ms_cycle"])
    def test_engine_decays_at_the_lifted_radius(self, mac, control_cycle,
                                                start_s):
        # a noise-free episode from a tilt small enough for the linear model,
        # with an encoder fine enough to leave its quantization out
        plant = PlantParams(encoder_counts_per_rev=10**12)
        cfg = ScenarioConfig(mac=mac, plant=plant, noise=SensorNoise(0.0, 0.0),
                             initial_tilt=1e-7, episode_duration=3.0,
                             control_cycle=control_cycle)
        cycle = cfg.resolved_cycle()
        low, high = latency_interval(mac, cycle)
        assert low == high
        radius = spectral_radius(closed_loop_matrix(
            plant, tune_default_gains(plant, cycle), cycle, low))

        # the tilt from start_s to the first clamped command, fitted as a
        # damped sinusoid x[k+2] = a1 x[k+1] + a2 x[k] by least squares:
        # its envelope changes by sqrt(-a2) per cycle
        trace = run_episode(cfg)[0]
        tilt = []
        for t, tilt_deg, command in zip(trace.t, trace.tilt, trace.command):
            if abs(command) >= 1.0:
                break
            if t >= start_s:
                tilt.append(tilt_deg)
        tilt = np.array(tilt)
        assert len(tilt) >= 20
        (a1, a2), *_ = np.linalg.lstsq(np.column_stack([tilt[1:-1], tilt[:-2]]),
                                       tilt[2:], rcond=None)
        assert abs(math.sqrt(-a2) - radius) <= 1e-3, (math.sqrt(-a2), radius)


def is_stable(M: np.ndarray) -> bool:
    """control._is_stable under the np.errstate tune_default_gains calls it
    in: the powers of an unstable M may overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        return control._is_stable(M)


class TestIsStable:
    """_is_stable decides rho(M) < 1 by squaring; the eigenvalues
    (oracles.spectral_radius) are its reference."""

    @settings(max_examples=300, deadline=None)
    @given(M=st.integers(2, 10).flatmap(
               lambda n: arrays(np.float64, (n, n), elements=st.floats(-10, 10))),
           radius=st.one_of(st.floats(0.5, 1 - 1e-6), st.floats(1 + 1e-6, 2.0)))
    def test_agrees_with_the_eigenvalues(self, M, radius):
        w, V = np.linalg.eig(M)
        rho = float(np.abs(w).max())
        # a radius to rescale by, and eigenvalues both sides resolve to well
        # inside the 1e-6 margin: an eigenvector basis of condition number
        # below 1e3 (Bauer-Fike); near-defective draws are out of reach of
        # the oracle and of the squaring alike
        sv = np.linalg.svd(V, compute_uv=False)
        assume(rho > 0 and math.isfinite(radius / rho) and sv[-1] * 1e3 > sv[0])
        M = M * (radius / rho)
        assert is_stable(M) == (spectral_radius(M) < 1.0)

    @pytest.mark.parametrize("M, stable", [
        (np.zeros((3, 3)), True),
        (np.eye(3), False),
        # a quarter turn, exact in floats: cos 0.3 and sin 0.3 round to a
        # matrix of radius 1 - 5e-17, which is stable
        (np.array([[0.0, -1.0], [1.0, 0.0]]), False),
        # nilpotent: M^4 = 0 however large the block
        (np.diag([10.0, 10.0, 10.0], k=1), True),
        (np.array([[0.5, math.nan], [0.0, 0.5]]), False),
        (np.array([[0.5, 0.0], [math.inf, 0.5]]), False),
    ], ids=["zero", "identity", "rotation", "nilpotent", "nan", "inf"])
    def test_edge_cases(self, M, stable):
        assert is_stable(M) is stable

    @pytest.mark.parametrize("plant", sorted(GRID_PLANTS))
    def test_agrees_with_the_eigenvalues_on_the_tuning_grid(self, plant):
        for ms in GRID_CYCLES_MS:
            for scale in _SEARCH_SCALES:
                M = closed_loop_matrix(GRID_PLANTS[plant],
                                       scaled(ControllerGains(), scale), ms * 1e-3)
                assert is_stable(M) == (spectral_radius(M) < 1.0), (ms, scale)

    @pytest.mark.parametrize("latency_ns, stable", [(3_250_000, True),
                                                    (3_500_000, False)])
    def test_agrees_on_both_sides_of_the_gallop_edge(self, params, latency_ns,
                                                     stable):
        M = closed_loop_matrix(params, ControllerGains(), 0.002, latency_ns)
        assert is_stable(M) is stable
        assert (spectral_radius(M) < 1.0) is stable


def test_a_run_calls_no_lapack_routine(monkeypatch, config_dir):
    # LAPACK's code, paged in at its first call, stays in the process's
    # resident memory; matrix_power only multiplies. Every numpy.linalg
    # routine that reaches LAPACK does so through a _umath_linalg gufunc,
    # so refusing those catches calls from inside numpy too
    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"numpy.linalg.{name} called")
        return call
    for name in np.linalg.__all__:
        routine = getattr(np.linalg, name)
        if name != "matrix_power" and callable(routine) and not isinstance(routine, type):
            monkeypatch.setattr(np.linalg, name, refuse(name))
    for name, gufunc in vars(_umath_linalg).items():
        if isinstance(gufunc, np.ufunc):
            monkeypatch.setattr(_umath_linalg, name, refuse(f"_umath_linalg.{name}"))
    with pytest.raises(AssertionError, match="eigvals"):
        spectral_radius(np.eye(2))
    with pytest.raises(AssertionError, match="_umath_linalg.solve"):
        np.linalg._linalg.solve(np.eye(2), np.ones(2))

    for plant in GRID_PLANTS.values():
        for ms in GRID_CYCLES_MS:
            tune_default_gains(plant, ms * 1e-3)
    cfgs = {name: replace(load_scenario(config_dir / name), episode_duration=1.0)
            for name in ("gallop_default.cfg", "ble_default.cfg", "delay_sweep.cfg")}
    for cfg in cfgs.values():
        run_episode(cfg)
    run_sweep(cfgs["delay_sweep.cfg"], "mac.extra_delay", [0.0, 0.016],
              seeds_per_point=3, workers=1)
    compare_scenarios([cfgs["gallop_default.cfg"], cfgs["ble_default.cfg"]],
                      [1, 2], workers=1)
