import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telebalance.plant import (
    PlantParams,
    PlantState,
    SensorNoise,
    linearized_matrices,
    sample_sensors,
    _rk4_span,
    step_dynamics,
)

from oracles import (
    expm_taylor,
    lagrangian_energy,
    linear_fall_time,
    rk4_span_closure,
    wip_linear_system,
)


def run_open_loop(state, params, duration, dt=1e-3, torque=0.0):
    n = round(duration / dt)
    for _ in range(n):
        state = step_dynamics(state, params, torque, dt)
    return state


class TestFixedPointAndValidation:
    def test_upright_rest_is_fixed_point(self, params):
        s0 = PlantState(tilt=0.0, tilt_rate=0.0, wheel_angle=1.3, wheel_rate=0.0)
        for dt in (1e-4, 1e-3, 2e-3):
            s1 = step_dynamics(s0, params, 0.0, dt)
            assert s1.tilt == 0.0
            assert s1.tilt_rate == 0.0
            assert s1.wheel_angle == 1.3
            assert s1.wheel_rate == 0.0
            assert s1.sim_time == pytest.approx(s0.sim_time + dt)

    def test_rejects_bad_dt(self, params):
        s = PlantState()
        with pytest.raises(ValueError):
            step_dynamics(s, params, 0.0, 0.0)
        with pytest.raises(ValueError):
            step_dynamics(s, params, 0.0, -1e-3)
        with pytest.raises(ValueError):
            step_dynamics(s, params, 0.0, 3e-3)

    def test_rejects_non_finite_state(self, params):
        s = PlantState(tilt=float("nan"))
        with pytest.raises(ValueError):
            step_dynamics(s, params, 0.0, 1e-3)
        with pytest.raises(ValueError):
            step_dynamics(PlantState(), params, float("inf"), 1e-3)

    def test_params_must_be_positive(self):
        with pytest.raises(ValueError):
            PlantParams(body_mass=0.0)
        with pytest.raises(ValueError):
            PlantParams(wheel_radius=-0.04)


class TestLinearizedOracle:
    def test_matches_independent_linear_derivation(self, params):
        A, B = linearized_matrices(params)
        A_ref, B_ref = wip_linear_system(params)
        assert np.allclose(A, A_ref, rtol=1e-12, atol=1e-12)
        assert np.allclose(B, B_ref, rtol=1e-12, atol=1e-12)

    def test_small_tilt_trajectory_matches_matrix_exponential(self, params):
        # 100 steps of 1 ms from 0.01 rad, zero torque, vs exp(A t) x0
        A, _ = wip_linear_system(params)
        x0 = np.array([0.01, 0.0, 0.0, 0.0])
        s = PlantState(tilt=0.01)
        worst = 0.0
        for k in range(1, 101):
            s = step_dynamics(s, params, 0.0, 1e-3)
            x_lin = expm_taylor(A * (k * 1e-3)) @ x0
            worst = max(worst, abs(s.tilt - x_lin[0]) / abs(x_lin[0]))
        assert worst < 1e-4

    def test_one_step_error_shrinks_at_least_quadratically(self, params):
        # the model is odd-symmetric, so the leading error is cubic and
        # halving the state size cuts the error by ~8x; assert the weaker
        # quadratic bound (4x) that the linearization argument guarantees
        A, _ = wip_linear_system(params)
        direction = np.array([0.7, 0.5, 0.3, 0.4])

        def one_step_error(scale):
            x0 = scale * direction
            s = PlantState(tilt=x0[0], tilt_rate=x0[1],
                           wheel_angle=x0[2], wheel_rate=x0[3])
            s1 = step_dynamics(s, params, 0.0, 1e-3)
            x_lin = expm_taylor(A * 1e-3) @ x0
            x_nl = np.array([s1.tilt, s1.tilt_rate, s1.wheel_angle, s1.wheel_rate])
            return float(np.linalg.norm(x_nl - x_lin))

        err_small = one_step_error(0.01)
        err_big = one_step_error(0.02)
        assert err_big / err_small >= 3.9

    def test_open_loop_fall_time_matches_oracle(self, params):
        A, _ = wip_linear_system(params)
        for tilt0 in (0.01, math.radians(2.0)):
            t_ref = linear_fall_time(A, [tilt0, 0, 0, 0], 0.6)
            s = PlantState(tilt=tilt0)
            t = 0.0
            while abs(s.tilt) <= 0.6:
                s = step_dynamics(s, params, 0.0, 5e-4)
                t += 5e-4
                assert t < 5.0, "never fell"
            assert abs(t - t_ref) / t_ref < 0.05

    def test_uncontrolled_tilt_eventually_diverges(self, params):
        s = PlantState(tilt=1e-3)
        s = run_open_loop(s, params, 1.0)
        assert abs(s.tilt) > 0.6


class TestRk4Kernel:
    @settings(max_examples=300, deadline=None)
    @given(x=st.tuples(st.floats(-0.7, 0.7), st.floats(-20.0, 20.0),
                       st.floats(-100.0, 100.0), st.floats(-200.0, 200.0),
                       st.floats(-0.1, 0.1)),
           tau_cmd=st.floats(-0.1, 0.1), h=st.floats(1e-9, 5e-4),
           n_steps=st.integers(1, 5),
           tm=st.sampled_from([0.0, 0.01]), friction=st.sampled_from([0.0, 1e-5, 1e-3]),
           fall_threshold=st.sampled_from([0.1, 0.6, math.inf]))
    def test_unrolled_kernel_gives_the_closure_forms_floats(
            self, x, tau_cmd, h, n_steps, tm, friction, fall_threshold):
        params = PlantParams(motor_time_constant=tm, viscous_friction=friction)
        args = (*x, tau_cmd, params, h, n_steps, fall_threshold)
        assert _rk4_span(*args) == rk4_span_closure(*args)


class TestEnergyAndSymmetry:
    def test_energy_conserved_without_friction_and_torque(self):
        params = PlantParams(viscous_friction=0.0)
        s = PlantState(tilt=0.02)
        e0 = lagrangian_energy(s.tilt, s.tilt_rate, s.wheel_rate, params)
        for _ in range(1000):
            s = step_dynamics(s, params, 0.0, 1e-3)
            e = lagrangian_energy(s.tilt, s.tilt_rate, s.wheel_rate, params)
            assert abs(e - e0) / e0 < 1e-6

    def test_trajectory_is_odd_symmetric(self, params):
        sp = PlantState(tilt=0.05, tilt_rate=-0.2, wheel_angle=0.4, wheel_rate=1.0)
        sn = PlantState(tilt=-0.05, tilt_rate=0.2, wheel_angle=-0.4, wheel_rate=-1.0)
        for k in range(200):
            torque = 0.05 * math.sin(0.03 * k)
            sp = step_dynamics(sp, params, torque, 1e-3)
            sn = step_dynamics(sn, params, -torque, 1e-3)
            assert sn.tilt == -sp.tilt
            assert sn.tilt_rate == -sp.tilt_rate
            assert sn.wheel_angle == -sp.wheel_angle
            assert sn.wheel_rate == -sp.wheel_rate


class TestMotor:
    def test_torque_relaxes_toward_clamped_command(self, params):
        s = PlantState()
        s = step_dynamics(s, params, 10.0, 2e-3)  # way beyond the 0.1 clamp
        assert s.motor_torque_actual <= params.motor_max_torque
        # first-order lag: tau(t) = tau_max * (1 - exp(-t/tm))
        expected = params.motor_max_torque * (1 - math.exp(-2e-3 / 0.01))
        assert s.motor_torque_actual == pytest.approx(expected, rel=1e-6)

    def test_zero_time_constant_is_instant(self):
        params = PlantParams(motor_time_constant=0.0)
        s = step_dynamics(PlantState(), params, 0.03, 1e-3)
        assert s.motor_torque_actual == 0.03


class TestSensors:
    def test_noiseless_sensors_are_exact(self, params):
        s = PlantState(tilt=0.1, tilt_rate=0.2)
        f = sample_sensors(s, SensorNoise(), params, np.random.default_rng(0))
        assert f.gyro_pitch_rate == 0.2
        assert f.accel_tilt == 0.1

    def test_encoder_quantization(self, params):
        s = PlantState(wheel_angle=math.pi)
        f = sample_sensors(s, SensorNoise(), params, np.random.default_rng(0))
        assert f.encoder_left == 660
        assert f.encoder_right == 660
        s = PlantState(wheel_angle=-0.001)
        f = sample_sensors(s, SensorNoise(), params, np.random.default_rng(0))
        assert f.encoder_left == -1  # floor, not truncation

    def test_golden_trace_seed_42(self, params):
        # frozen from the first verified run; must stay bit-identical
        rng = np.random.default_rng(42)
        noise = SensorNoise(gyro_noise_std=0.01, accel_noise_std=0.002,
                            gyro_bias=0.001)
        s = PlantState(tilt=0.05, tilt_rate=-0.3, wheel_angle=2.0,
                       wheel_rate=1.5, sim_time=0.25)
        golden = [
            (-0.2959528292024557, 0.04792003178751901, 420),
            (-0.2914954880419354, 0.05188112943278243, 420),
            (-0.31851035188653837, 0.04739564098627537, 420),
        ]
        for seq, (gyro, accel, enc) in enumerate(golden):
            f = sample_sensors(s, noise, params, rng, seq=seq)
            assert f.gyro_pitch_rate == gyro
            assert f.accel_tilt == accel
            assert f.encoder_left == enc
            assert f.seq == seq

    def test_sample_time_comes_from_state(self, params):
        s = PlantState(sim_time=1.25)
        f = sample_sensors(s, SensorNoise(), params, np.random.default_rng(0))
        assert f.sample_time == 1.25

