import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from telebalance.cli import main
from telebalance.config import ideal_scenario
from telebalance.control import ControllerGains
from telebalance.plant import (
    SUBSTEP_NS,
    TWO_PI,
    PlantParams,
    SensorNoise,
    linear_map,
    sample_sensors,
    _rk4_span,
)
from telebalance.sim import run_episode

from oracles import (
    expm_taylor,
    lagrangian_energy,
    linear_fall_time,
    rk4_span_closure,
    wip_linear_system,
)

# rad; a fall threshold the open-loop plant never reaches in these episodes
OUT_OF_REACH = 1e3


def open_loop_episode(initial_tilt, duration, plant=PlantParams(),
                      fall_threshold=OUT_OF_REACH):
    """The engine's plant under zero torque: zero gains on the ideal link.

    Records come every 5 ms; between them the engine integrates whole
    0.5 ms substeps plus remainders up to the 1 ns link events.
    """
    return run_episode(ideal_scenario(
        plant=plant, gains=ControllerGains(), initial_tilt=initial_tilt,
        episode_duration=duration, fall_threshold=fall_threshold))


def recorded_state(r):
    """(tilt, tilt_rate, wheel_rate) of a record, back in rad and rad/s."""
    return math.radians(r.tilt), math.radians(r.tilt_rate), math.radians(r.wheel_rate)


class TestFixedPointAndValidation:
    def test_upright_rest_is_fixed_point(self):
        trace, m = open_loop_episode(0.0, 1.0)
        records = trace.records
        assert not m.fell
        assert len(records) == 200
        assert all(r.tilt == 0.0 and r.tilt_rate == 0.0 and r.wheel_rate == 0.0
                   for r in records)

    def test_rejects_non_finite_state(self, params):
        rng = np.random.default_rng(0)
        for state in ((math.nan, 0.0, 0.0), (0.0, math.inf, 0.0),
                      (0.0, 0.0, -math.inf)):
            with pytest.raises(ValueError, match="non-finite"):
                sample_sensors(*state, SensorNoise(), params, rng)

    def test_params_must_be_positive(self):
        with pytest.raises(ValueError):
            PlantParams(body_mass=0.0)
        with pytest.raises(ValueError):
            PlantParams(wheel_radius=-0.04)


class TestLinearizedOracle:
    def test_small_tilt_trajectory_matches_matrix_exponential(self, params):
        # 100 ms from 0.01 rad, zero torque, vs exp(A t) x0 at each record
        A, _ = wip_linear_system(params)
        x0 = np.array([0.01, 0.0, 0.0, 0.0])
        records = open_loop_episode(0.01, 0.1)[0].records
        assert len(records) == 20
        worst = 0.0
        for r in records:
            x_lin = expm_taylor(A * r.t) @ x0
            worst = max(worst, abs(recorded_state(r)[0] - x_lin[0]) / abs(x_lin[0]))
        assert worst < 1e-4

    def test_one_step_error_shrinks_at_least_quadratically(self, params):
        # the model is odd-symmetric, so the leading error is cubic and
        # halving the state size cuts the error by ~8x; assert the weaker
        # quadratic bound (4x) that the linearization argument guarantees
        A, _ = wip_linear_system(params)
        direction = np.array([0.7, 0.5, 0.3, 0.4])

        def one_step_error(scale):
            x0 = scale * direction
            th, w, phi, v, _, _ = _rk4_span(*x0, 0.0, 0.0, params, 2 * SUBSTEP_NS)
            x_lin = expm_taylor(A * 2 * SUBSTEP_NS / 1e9) @ x0
            return float(np.linalg.norm(np.array([th, w, phi, v]) - x_lin))

        err_small = one_step_error(0.01)
        err_big = one_step_error(0.02)
        assert err_big / err_small >= 3.9

    def test_open_loop_fall_time_matches_oracle(self, params):
        A, _ = wip_linear_system(params)
        for tilt0 in (0.01, math.radians(2.0)):
            t_ref = linear_fall_time(A, [tilt0, 0, 0, 0], 0.6)
            trace, m = open_loop_episode(tilt0, 5.0, fall_threshold=0.6)
            assert m.fell, "never fell"
            assert abs(trace.fall_time - t_ref) / t_ref < 0.05

    def test_uncontrolled_tilt_eventually_diverges(self):
        _, m = open_loop_episode(1e-3, 1.0, fall_threshold=0.6)
        assert m.fell


class TestRk4Kernel:
    @settings(max_examples=300, deadline=None)
    @given(x=st.tuples(st.floats(-0.7, 0.7), st.floats(-20.0, 20.0),
                       st.floats(-100.0, 100.0), st.floats(-200.0, 200.0),
                       st.floats(-0.1, 0.1)),
           tau_cmd=st.floats(-0.1, 0.1),
           # spans below, at and across whole substeps
           span_ns=st.one_of(st.integers(1, SUBSTEP_NS - 1),
                             st.integers(1, 5).map(lambda n: n * SUBSTEP_NS),
                             st.integers(SUBSTEP_NS + 1, 5 * SUBSTEP_NS)),
           tm=st.sampled_from([0.0, 0.01]), friction=st.sampled_from([0.0, 1e-5, 1e-3]),
           fall_threshold=st.sampled_from([0.1, 0.6, math.inf]))
    def test_unrolled_kernel_gives_the_closure_forms_floats(
            self, x, tau_cmd, span_ns, tm, friction, fall_threshold):
        params = PlantParams(motor_time_constant=tm, viscous_friction=friction)
        args = (*x, tau_cmd, params, span_ns, fall_threshold)
        assert _rk4_span(*args) == rk4_span_closure(*args)


class TestLinearMap:
    @settings(max_examples=50, deadline=None)
    @given(A=arrays(np.int64, st.tuples(st.integers(1, 8), st.integers(1, 8)),
                    elements=st.integers(-2**40, 2**40)))
    def test_recovers_an_integer_matrix_exactly(self, A):
        # the 2**-80 probe, and each entry's product with it, are exact
        got = linear_map(lambda x: A @ x, A.shape[1])
        assert got.shape == A.shape
        assert np.array_equal(got, A)


class TestEnergyAndSymmetry:
    def test_energy_conserved_without_friction_and_torque(self):
        params = PlantParams(viscous_friction=0.0)
        records = open_loop_episode(0.02, 1.0, plant=params)[0].records
        assert len(records) == 200
        e0 = lagrangian_energy(0.02, 0.0, 0.0, params)
        for r in records:
            e = lagrangian_energy(*recorded_state(r), params)
            assert abs(e - e0) / e0 < 1e-6

    @settings(max_examples=100, deadline=None)
    @given(x=st.tuples(st.floats(-0.5, 0.5), st.floats(-5.0, 5.0),
                       st.floats(-10.0, 10.0), st.floats(-50.0, 50.0),
                       st.floats(-0.1, 0.1)),
           tau_cmd=st.floats(-0.1, 0.1), n_steps=st.integers(1, 400))
    def test_trajectory_is_odd_symmetric(self, x, tau_cmd, n_steps):
        params = PlantParams()
        pos = _rk4_span(*x, tau_cmd, params, n_steps * SUBSTEP_NS)
        neg = _rk4_span(*(-c for c in x), -tau_cmd, params, n_steps * SUBSTEP_NS)
        assert neg[:5] == tuple(-c for c in pos[:5])
        assert neg[5] == pos[5] == n_steps


class TestMotor:
    def test_torque_relaxes_toward_clamped_command(self, params):
        # first-order lag toward the limit: tau(t) = tau_max * (1 - exp(-t/tm))
        tau_max = params.motor_max_torque
        *_, tau, _ = _rk4_span(0.0, 0.0, 0.0, 0.0, 0.0, tau_max, params,
                               4 * SUBSTEP_NS)
        expected = tau_max * (1 - math.exp(-4 * SUBSTEP_NS / 1e9 / 0.01))
        assert tau == pytest.approx(expected, rel=1e-6)

    def test_command_limit_beyond_the_motor_limit_rejected(self, tmp_path,
                                                          capsys):
        # a command is a fraction of the motor's torque, so a limit above 1
        # would ask for torque the motor cannot give; the config is refused
        with pytest.raises(ValueError, match="command_limit"):
            ControllerGains(command_limit=10.0)
        cfg = tmp_path / "limit.cfg"
        cfg.write_text("[gains]\ncommand_limit = 10\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "command_limit must be in (0, 1]" in err
        assert "Traceback" not in err
        assert ControllerGains(command_limit=1.0).command_limit == 1.0

    def test_zero_time_constant_is_instant(self):
        params = PlantParams(motor_time_constant=0.0)
        *_, tau, _ = _rk4_span(0.0, 0.0, 0.0, 0.0, 0.0, 0.03, params, 2 * SUBSTEP_NS)
        assert tau == 0.03


class TestSensors:
    def test_noiseless_sensors_are_exact(self, params):
        f = sample_sensors(0.1, 0.2, 0.0, SensorNoise(), params,
                           np.random.default_rng(0))
        assert f.gyro_pitch_rate == 0.2
        assert f.accel_tilt == 0.1

    def test_encoder_quantization(self, params):
        rng = np.random.default_rng(0)
        f = sample_sensors(0.0, 0.0, math.pi, SensorNoise(), params, rng)
        assert f.wheel_angle == 660 / 1320 * TWO_PI
        f = sample_sensors(0.0, 0.0, -0.001, SensorNoise(), params, rng)
        assert f.wheel_angle == -1 / 1320 * TWO_PI  # floor, not truncation

    def test_golden_trace_seed_42(self, params):
        # frozen from the first verified run; must stay bit-identical
        rng = np.random.default_rng(42)
        noise = SensorNoise(gyro_noise_std=0.01, accel_noise_std=0.002,
                            gyro_bias=0.001)
        golden = [
            (-0.2959528292024557, 0.04792003178751901, 420),
            (-0.2914954880419354, 0.05188112943278243, 420),
            (-0.31851035188653837, 0.04739564098627537, 420),
        ]
        for seq, (gyro, accel, enc) in enumerate(golden):
            f = sample_sensors(0.05, -0.3, 2.0, noise, params, rng, seq=seq)
            assert f.gyro_pitch_rate == gyro
            assert f.accel_tilt == accel
            assert f.wheel_angle == enc / 1320 * TWO_PI
            assert f.seq == seq
