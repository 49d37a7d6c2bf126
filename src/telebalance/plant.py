"""Planar wheeled-inverted-pendulum plant with sensors and a lagged motor.

The robot is modeled as a rigid body pivoting about the wheel axle, with
both wheels aggregated into a single wheel rolling without slip:

    state = (tilt, tilt_rate, wheel_angle, wheel_rate)

tilt is the body pitch from upright (rad, 0 = balanced), wheel_angle the
wheel rotation (rad). The input is the total motor torque applied at the
axle between body and wheel; the actual torque follows the command through
a first-order lag and saturates at +/- motor_max_torque. Bearing friction
acts on the relative rotation (wheel_rate - tilt_rate).

Equations of motion come from the Lagrangian of the two-body system:

    M(tilt) * [wheel_acc; tilt_acc] = [Q_w + m_b r L sin(tilt) tilt_rate^2;
                                       Q_t + m_b g L sin(tilt)]

with M11 = (m_b + m_w) r^2 + I_w, M12 = m_b r L cos(tilt),
M22 = m_b L^2 + I_b, and Q_w = -Q_t = tau - b * (wheel_rate - tilt_rate)
the net axle torque on the wheel (equal and opposite on the body).
Integration is fixed-step RK4 with internal substeps of at most 0.5 ms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi

# internal RK4 substep cap, independent of the caller's step size
SUBSTEP_S = 5.0e-4
# largest step a single step_dynamics call accepts
MAX_STEP_S = 2.0e-3

DEFAULT_FALL_THRESHOLD = 0.6  # rad


@dataclass(frozen=True)
class PlantParams:
    """Mechanical and sensor constants of the robot.

    Only the wheel radius (80 mm wheels -> 0.04 m) is tied to the target
    hardware; the remaining defaults are plausible stand-ins for a ~300 g
    balancing robot and are fully overridable.
    """

    body_mass: float = 0.3            # kg
    wheel_mass_total: float = 0.04    # kg, both wheels
    com_distance: float = 0.05        # m, axle to body center of mass
    wheel_radius: float = 0.04        # m
    body_inertia: float = 1.0e-3      # kg m^2, about body CoM
    wheel_inertia: float = 3.2e-5     # kg m^2, both wheels about axle
    gravity: float = 9.81             # m/s^2
    motor_max_torque: float = 0.1     # N m, total at axle
    motor_time_constant: float = 0.01  # s, first-order torque lag
    viscous_friction: float = 1.0e-5  # N m s/rad, axle bearing
    encoder_counts_per_rev: int = 1320

    def __post_init__(self) -> None:
        positive = (
            ("body_mass", self.body_mass),
            ("wheel_mass_total", self.wheel_mass_total),
            ("com_distance", self.com_distance),
            ("wheel_radius", self.wheel_radius),
            ("body_inertia", self.body_inertia),
            ("wheel_inertia", self.wheel_inertia),
            ("gravity", self.gravity),
            ("motor_max_torque", self.motor_max_torque),
            ("encoder_counts_per_rev", self.encoder_counts_per_rev),
        )
        for name, value in positive:
            if not value > 0:
                raise ValueError(f"{name} must be strictly positive, got {value}")
        if self.motor_time_constant < 0 or self.viscous_friction < 0:
            raise ValueError("motor_time_constant and viscous_friction must be >= 0")
        # (m11, m12_coeff, m22, m_b g L), cached for the RK4 hot path
        object.__setattr__(self, "_rk4_terms", _mass_terms(self) + (
            self.body_mass * self.gravity * self.com_distance,))


@dataclass(frozen=True)
class PlantState:
    """Mechanical state plus the lagged actual motor torque."""

    tilt: float = 0.0                 # rad, 0 = upright
    tilt_rate: float = 0.0            # rad/s
    wheel_angle: float = 0.0          # rad
    wheel_rate: float = 0.0           # rad/s
    motor_torque_actual: float = 0.0  # N m
    sim_time: float = 0.0             # s

    def is_finite(self) -> bool:
        isfinite = math.isfinite
        return (isfinite(self.tilt) and isfinite(self.tilt_rate)
                and isfinite(self.wheel_angle) and isfinite(self.wheel_rate)
                and isfinite(self.motor_torque_actual) and isfinite(self.sim_time))


@dataclass(frozen=True)
class SensorNoise:
    gyro_noise_std: float = 0.0   # rad/s
    gyro_bias: float = 0.0        # rad/s
    accel_noise_std: float = 0.0  # rad

    def __post_init__(self) -> None:
        if self.gyro_noise_std < 0 or self.accel_noise_std < 0:
            raise ValueError("noise standard deviations must be >= 0")


class SensorFrame(NamedTuple):
    """Forward-channel payload: pitch-relevant IMU readings plus encoders."""

    gyro_pitch_rate: float  # rad/s
    accel_tilt: float       # rad, tilt inferred from the gravity vector
    encoder_left: int       # counts
    encoder_right: int      # counts
    sample_time: float      # s
    seq: int


def _mass_terms(params: PlantParams) -> tuple[float, float, float]:
    """Constant parts of the mass matrix: (m11, m12_coeff, m22).

    m12 = m12_coeff * cos(tilt).
    """
    m11 = (params.body_mass + params.wheel_mass_total) * params.wheel_radius ** 2 \
        + params.wheel_inertia
    m12c = params.body_mass * params.wheel_radius * params.com_distance
    m22 = params.body_mass * params.com_distance ** 2 + params.body_inertia
    return m11, m12c, m22


def _rk4_span(th: float, w: float, phi: float, v: float, tau: float,
              tau_cmd: float, params: PlantParams, h: float, n_steps: int,
              fall_threshold: float = math.inf) -> tuple[float, float, float, float, float, int]:
    """n_steps RK4 substeps of size h on raw floats; hot path.

    Stops early once |tilt| exceeds fall_threshold. Returns the state
    variables plus the number of substeps actually taken.
    """
    m11, m12c, m22, g_l = params._rk4_terms
    b = params.viscous_friction
    tm = params.motor_time_constant
    inv_tm = 1.0 / tm if tm > 0 else 0.0
    if tm <= 0:
        tau = tau_cmd
    sin, cos = math.sin, math.cos

    def deriv(th_, w_, v_, tau_):
        s = sin(th_)
        m12 = m12c * cos(th_)
        q = tau_ - b * (v_ - w_)
        rhs_w = q + m12c * s * w_ * w_
        rhs_t = -q + g_l * s
        det = m11 * m22 - m12 * m12
        return (w_, (m11 * rhs_t - m12 * rhs_w) / det, v_,
                (m22 * rhs_w - m12 * rhs_t) / det,
                (tau_cmd - tau_) * inv_tm)

    half = 0.5 * h
    sixth = h / 6.0
    done = n_steps
    for i in range(n_steps):
        a1, b1, c1, d1, e1 = deriv(th, w, v, tau)
        a2, b2, c2, d2, e2 = deriv(th + half * a1, w + half * b1,
                                   v + half * d1, tau + half * e1)
        a3, b3, c3, d3, e3 = deriv(th + half * a2, w + half * b2,
                                   v + half * d2, tau + half * e2)
        a4, b4, c4, d4, e4 = deriv(th + h * a3, w + h * b3,
                                   v + h * d3, tau + h * e3)
        th += sixth * (a1 + 2.0 * (a2 + a3) + a4)
        w += sixth * (b1 + 2.0 * (b2 + b3) + b4)
        phi += sixth * (c1 + 2.0 * (c2 + c3) + c4)
        v += sixth * (d1 + 2.0 * (d2 + d3) + d4)
        tau += sixth * (e1 + 2.0 * (e2 + e3) + e4)
        if th > fall_threshold or -th > fall_threshold:
            done = i + 1
            break
    return th, w, phi, v, tau, done


def step_dynamics(state: PlantState, params: PlantParams,
                  torque_command: float, dt: float) -> PlantState:
    """Advance the plant by dt seconds under a constant torque command.

    RK4 with internal substeps of at most 0.5 ms; the actual torque relaxes
    toward the clamped command with the motor time constant. dt must be in
    (0, 2 ms].
    """
    if not state.is_finite():
        raise ValueError("plant state contains non-finite values")
    if not math.isfinite(torque_command):
        raise ValueError("torque command must be finite")
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if dt > MAX_STEP_S * (1 + 1e-9):
        raise ValueError(f"dt must be <= {MAX_STEP_S} s, got {dt}")

    tau_max = params.motor_max_torque
    tau_cmd = min(max(torque_command, -tau_max), tau_max)
    n_sub = max(1, math.ceil(dt / SUBSTEP_S - 1e-12))

    th, w, phi, v, tau, _ = _rk4_span(
        state.tilt, state.tilt_rate, state.wheel_angle, state.wheel_rate,
        state.motor_torque_actual, tau_cmd, params, dt / n_sub, n_sub)

    return PlantState(
        tilt=th, tilt_rate=w, wheel_angle=phi, wheel_rate=v,
        motor_torque_actual=tau,
        sim_time=state.sim_time + dt,
    )


def sample_sensors(state: PlantState, noise: SensorNoise, params: PlantParams,
                   rng: np.random.Generator, seq: int = 0) -> SensorFrame:
    """Read the IMU and encoders; the caller supplies the frame counter.

    Draws exactly two normals per call (gyro first, then accelerometer) so
    the noise stream stays aligned across runs.
    """
    if not state.is_finite():
        raise ValueError("plant state contains non-finite values")
    n_gyro = rng.normal()
    n_accel = rng.normal()
    gyro = state.tilt_rate + noise.gyro_bias + noise.gyro_noise_std * n_gyro
    accel = state.tilt + noise.accel_noise_std * n_accel
    counts = math.floor(state.wheel_angle / TWO_PI * params.encoder_counts_per_rev)
    return SensorFrame(gyro, accel, counts, counts, state.sim_time, seq)


def is_fallen(state: PlantState, threshold: float = DEFAULT_FALL_THRESHOLD) -> bool:
    """True once |tilt| exceeds the fall threshold."""
    if not threshold > 0:
        raise ValueError("fall threshold must be positive")
    return abs(state.tilt) > threshold


def mechanical_energy(state: PlantState, params: PlantParams) -> float:
    """Total mechanical energy (kinetic + potential) of the model."""
    m11, m12c, m22 = _mass_terms(params)
    m12 = m12c * math.cos(state.tilt)
    v = state.wheel_rate
    w = state.tilt_rate
    kinetic = 0.5 * m11 * v * v + m12 * v * w + 0.5 * m22 * w * w
    potential = params.body_mass * params.gravity * params.com_distance \
        * math.cos(state.tilt)
    return kinetic + potential


def linearized_matrices(params: PlantParams) -> tuple[np.ndarray, np.ndarray]:
    """Linearization about upright: x = (tilt, tilt_rate, wheel_angle, wheel_rate).

    Returns (A, B) with xdot = A x + B * torque. The motor lag is not part
    of this system; callers needing it augment separately.
    """
    m11, m12c, m22 = _mass_terms(params)
    m12 = m12c  # cos(0)
    det = m11 * m22 - m12 * m12
    g_term = params.body_mass * params.gravity * params.com_distance
    b = params.viscous_friction

    # tilt_acc  = c_t*q + m11*g_term*tilt/det
    # wheel_acc = c_w*q - m12*g_term*tilt/det
    # with q = torque - b*(wheel_rate - tilt_rate)
    c_t = -(m11 + m12) / det   # d(tilt_acc)/d(q)
    c_w = (m22 + m12) / det    # d(wheel_acc)/d(q)

    A = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [m11 * g_term / det, c_t * b, 0.0, -c_t * b],
        [0.0, 0.0, 0.0, 1.0],
        [-m12 * g_term / det, c_w * b, 0.0, -c_w * b],
    ])
    B = np.array([[0.0], [c_t], [0.0], [c_w]])
    return A, B
