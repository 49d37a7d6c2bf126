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
Integration is fixed-step RK4 on raw floats: the four state variables
plus the lagged motor torque. The advance rule: _rk4_span takes the plant
over the span to the next event in whole SUBSTEP_NS (0.5 ms) substeps,
then one remainder substep, and stops at the first substep that ends past
the fall threshold, skipping the rest. span_matrix is the linear map that
rule applies near upright, probed from _rk4_span itself, which is how the
tuner's loop model sees the plant. sample_sensors reads a noisy IMU and
the one wheel angle, floored to whole encoder counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi

SUBSTEP_NS = 500_000  # RK4 substep, in the engine's whole-ns event time

# a config field's annotation gives its key's unit: Seconds and Radians are
# plain floats that the config file writes with a duration or angle unit
Seconds = float
Radians = float

DEFAULT_FALL_THRESHOLD = 0.6  # rad


# bound on every number a config holds: far beyond any quantity of this
# model, and small enough that durations in ns, squares and the products
# the plant forms stay finite
MAX_MAGNITUDE = 1e12


def check_finite(cfg) -> None:
    """Reject a config dataclass whose int or float fields hold inf, nan or
    a magnitude above MAX_MAGNITUDE."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, (int, float)) and not abs(value) <= MAX_MAGNITUDE:
            raise ValueError(f"{f.name} must be finite and within "
                             f"+/-{MAX_MAGNITUDE:g}, got {value!r}")


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
    motor_time_constant: Seconds = 0.01  # first-order torque lag
    viscous_friction: float = 1.0e-5  # N m s/rad, axle bearing
    encoder_counts_per_rev: int = 1320

    def __post_init__(self) -> None:
        check_finite(self)
        for name in ("body_mass", "wheel_mass_total", "com_distance", "wheel_radius",
                     "body_inertia", "wheel_inertia", "gravity", "motor_max_torque",
                     "encoder_counts_per_rev"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be strictly positive, got {value}")
        if self.motor_time_constant < 0 or self.viscous_friction < 0:
            raise ValueError("motor_time_constant and viscous_friction must be >= 0")
        # explicit RK4 at SUBSTEP_NS cannot follow a lag far shorter than that
        if 0 < self.motor_time_constant < SUBSTEP_NS * 1e-9:
            raise ValueError(
                f"motor_time_constant must be 0 (an instant motor) or at least "
                f"{SUBSTEP_NS / 1e6:g} ms, got {self.motor_time_constant!r} s")
        # (m11, m12c, m22, m_b g L, m11 m22, b, 1 / tm or 0 for an instant
        # motor), cached for the RK4 hot path; the mass matrix's m12 is
        # m12c cos(tilt)
        m11 = (self.body_mass + self.wheel_mass_total) * self.wheel_radius ** 2 \
            + self.wheel_inertia
        m12c = self.body_mass * self.wheel_radius * self.com_distance
        m22 = self.body_mass * self.com_distance ** 2 + self.body_inertia
        tm = self.motor_time_constant
        object.__setattr__(self, "_rk4_terms", (
            m11, m12c, m22, self.body_mass * self.gravity * self.com_distance,
            m11 * m22, self.viscous_friction, 1.0 / tm if tm > 0 else 0.0))


@dataclass(frozen=True)
class SensorNoise:
    gyro_noise_std: float = 0.0   # rad/s
    gyro_bias: float = 0.0        # rad/s
    accel_noise_std: float = 0.0  # rad

    def __post_init__(self) -> None:
        check_finite(self)
        if self.gyro_noise_std < 0 or self.accel_noise_std < 0:
            raise ValueError("noise standard deviations must be >= 0")


class SensorFrame(NamedTuple):
    """Forward-channel payload: pitch-relevant IMU readings and the wheel
    angle; built per sample by tuple.__new__ (no Python-level __new__)."""

    gyro_pitch_rate: float  # rad/s
    accel_tilt: float       # rad, tilt inferred from the gravity vector
    wheel_angle: float      # rad, quantized down to whole encoder counts
    seq: int


def _rk4_span(th: float, w: float, phi: float, v: float, tau: float,
              tau_cmd: float, params: PlantParams, span_ns: int,
              fall_threshold: float = math.inf) -> tuple[float, float, float, float, float, int]:
    """The advance rule above over span_ns: the state, then the substeps taken."""
    m11, m12c, m22, g_l, m11_m22, b, inv_tm = params._rk4_terms
    if not inv_tm:  # an instant motor
        tau = tau_cmd
    sin, cos = math.sin, math.cos
    n_full, rem = divmod(span_ns, SUBSTEP_NS)

    # Each stage writes the derivative out inline, in one operation order
    # that every trace depends on (the tests hold it to a closure form):
    #   q = tau - b (v - w), s = sin(th), m12 = m12c cos(th),
    #   det = m11 m22 - m12^2, tau' = (tau_cmd - tau) / tm,
    #   w' = (m11 (g_l s - q) - m12 (q + m12c s w^2)) / det,
    #   v' = (m22 (q + m12c s w^2) - m12 (g_l s - q)) / det;
    # th' and phi' are the stage's own w and v.
    done = 0
    whole = (n_full, SUBSTEP_NS * 1e-9)
    for n_steps, h in ((whole, (1, rem * 1e-9)) if rem else (whole,)):
        half, sixth = 0.5 * h, h / 6.0
        for i in range(n_steps):
            s = sin(th)
            m12 = m12c * cos(th)
            q = tau - b * (v - w)
            rhs_w = q + m12c * s * w * w
            rhs_t = g_l * s - q
            det = m11_m22 - m12 * m12
            b1 = (m11 * rhs_t - m12 * rhs_w) / det
            d1 = (m22 * rhs_w - m12 * rhs_t) / det
            e1 = (tau_cmd - tau) * inv_tm

            th2 = th + half * w
            w2 = w + half * b1
            v2 = v + half * d1
            tau2 = tau + half * e1
            s = sin(th2)
            m12 = m12c * cos(th2)
            q = tau2 - b * (v2 - w2)
            rhs_w = q + m12c * s * w2 * w2
            rhs_t = g_l * s - q
            det = m11_m22 - m12 * m12
            b2 = (m11 * rhs_t - m12 * rhs_w) / det
            d2 = (m22 * rhs_w - m12 * rhs_t) / det
            e2 = (tau_cmd - tau2) * inv_tm

            th3 = th + half * w2
            w3 = w + half * b2
            v3 = v + half * d2
            tau3 = tau + half * e2
            s = sin(th3)
            m12 = m12c * cos(th3)
            q = tau3 - b * (v3 - w3)
            rhs_w = q + m12c * s * w3 * w3
            rhs_t = g_l * s - q
            det = m11_m22 - m12 * m12
            b3 = (m11 * rhs_t - m12 * rhs_w) / det
            d3 = (m22 * rhs_w - m12 * rhs_t) / det
            e3 = (tau_cmd - tau3) * inv_tm

            th4 = th + h * w3
            w4 = w + h * b3
            v4 = v + h * d3
            tau4 = tau + h * e3
            s = sin(th4)
            m12 = m12c * cos(th4)
            q = tau4 - b * (v4 - w4)
            rhs_w = q + m12c * s * w4 * w4
            rhs_t = g_l * s - q
            det = m11_m22 - m12 * m12
            b4 = (m11 * rhs_t - m12 * rhs_w) / det
            d4 = (m22 * rhs_w - m12 * rhs_t) / det
            e4 = (tau_cmd - tau4) * inv_tm

            th += sixth * (w + 2.0 * (w2 + w3) + w4)
            w += sixth * (b1 + 2.0 * (b2 + b3) + b4)
            phi += sixth * (v + 2.0 * (v2 + v3) + v4)
            v += sixth * (d1 + 2.0 * (d2 + d3) + d4)
            tau += sixth * (e1 + 2.0 * (e2 + e3) + e4)
            if th > fall_threshold or -th > fall_threshold:
                return th, w, phi, v, tau, done + i + 1
        done += n_steps
    return th, w, phi, v, tau, done


def sample_sensors(tilt: float, tilt_rate: float, wheel_angle: float,
                   noise: SensorNoise, params: PlantParams,
                   rng: np.random.Generator, seq: int = 0) -> SensorFrame:
    """Read the IMU and the encoder; the caller supplies the frame counter.

    Draws exactly two normals per call (gyro first, then accelerometer) so
    the noise stream stays aligned across runs.
    """
    isfinite = math.isfinite
    if not (isfinite(tilt) and isfinite(tilt_rate) and isfinite(wheel_angle)):
        raise ValueError("plant state contains non-finite values")
    n_gyro = rng.normal()
    n_accel = rng.normal()
    gyro = tilt_rate + noise.gyro_bias + noise.gyro_noise_std * n_gyro
    accel = tilt + noise.accel_noise_std * n_accel
    cpr = params.encoder_counts_per_rev
    angle = math.floor(wheel_angle / TWO_PI * cpr) / cpr * TWO_PI
    return tuple.__new__(SensorFrame, (gyro, accel, angle, seq))


def linear_map(step, n: int) -> np.ndarray:
    """The matrix of step, a map of n floats to a sequence of floats that is
    linear near zero: column j is step run from a 2**-80 input in place j.
    The probe is too small to reach a nonlinear term or a clamp, and as a
    power of two it divides out exactly."""
    probe = 2.0 ** -80
    return np.array([step([probe if i == j else 0.0 for i in range(n)])
                     for j in range(n)]).T / probe


def span_matrix(params: PlantParams, span_ns: int) -> np.ndarray:
    """The linear map _rk4_span applies over span_ns near upright, as the
    6x6 [[Phi, Gamma], [0, 1]] on (tilt, tilt_rate, wheel_angle, wheel_rate,
    motor_torque, tau_cmd).

    One whole substep's map, and the remainder's, is the linear_map of
    _rk4_span over it. The whole substeps compose by repeated squaring,
    then the remainder follows, as in the advance rule; a long span costs
    a few dozen 6x6 products.
    """
    def probed(ns: int) -> np.ndarray:
        M = np.eye(6)
        M[:5] = linear_map(lambda x: _rk4_span(*x, params, ns)[:5], 6)
        return M

    n_full, rem = divmod(span_ns, SUBSTEP_NS)
    return probed(rem) @ np.linalg.matrix_power(probed(SUBSTEP_NS), n_full)
