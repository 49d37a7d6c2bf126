"""Remote balancing controller: tilt estimation plus a PID-like law.

The controller is a pure update, (state, frame, dt) -> (state, command),
run once per received sensor frame. The engine alone decides which frames
reach it and with what dt: only a frame newer than the last one used, dt
the positive gap since the previous arrival. A complementary filter fuses
integrated gyro rate with the accelerometer tilt; the command law is PD on
tilt, I on tilt with anti-windup, and PD on the wheel angle the frame
carries, already quantized to encoder counts (station keeping). The
planar robot takes one command for both wheels, normalized to [-1, 1];
the plant scales it by its maximum motor torque.

Default gains were derived once for the default plant at a 5 ms control
cycle (discrete LQR seed, then checked against the linear closed loop) and
are shipped as constants; tune_default_gains() verifies a requested cycle
against the closed loop of the engine's own RK4 plant, linearized at
upright, and rescales if needed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .plant import (MAX_MAGNITUDE, PlantParams, SensorFrame, _ns, check_finite,
                    linear_map, span_matrix)

DEFAULT_FILTER_ALPHA = 0.98

# one-pole smoothing on the encoder-differenced wheel rate; raw differences
# are dominated by quantization at millisecond cycles
WHEEL_RATE_SMOOTHING = 0.9


class TuningFailureError(ValueError):
    """Raised when no searched gain set stabilizes the requested cycle."""


@dataclass(frozen=True)
class ControllerGains:
    kp_tilt: float = 0.0        # command/rad
    kd_tilt: float = 0.0        # command/(rad/s)
    ki_tilt: float = 0.0        # command/(rad s)
    kp_position: float = 0.0    # command/rad of wheel angle
    kd_position: float = 0.0    # command/(rad/s)
    integral_limit: float = 0.5   # command
    command_limit: float = 1.0    # command, in (0, 1]

    def __post_init__(self) -> None:
        check_finite(self)
        if not self.integral_limit > 0:
            raise ValueError(
                f"integral_limit must be positive, got {self.integral_limit!r}")
        # at most 1, so a command never asks for more than the motor's torque
        if not 0 < self.command_limit <= 1:
            raise ValueError(
                f"command_limit must be in (0, 1], got {self.command_limit!r}")


# Shipped defaults for the default PlantParams, derived from a discrete LQR
# on the 5 ms zero-delay linearized loop and verified by eigenvalue check
# (see tune_default_gains). ki_tilt is zero: a tilt integrator combined
# with wheel-position feedback adds a neutral mode (any wheel offset
# canceled by an integral offset) whose radius is 1 up to rounding, so the
# strict check passes or rejects it by rounding noise, cycle by cycle; the
# integral path stays available for configurations that accept that mode.
DEFAULT_GAINS = ControllerGains(
    kp_tilt=20.0,
    kd_tilt=1.5,
    ki_tilt=0.0,
    kp_position=0.45,
    kd_position=0.28,
    integral_limit=0.5,
    command_limit=1.0,
)


class ControllerState(NamedTuple):
    """Filter and integrator memory; one instance per controlled robot.

    A tuple because every update builds one; the per-frame updates build
    it, and ActuationFrame, by tuple.__new__ in field order (no Python __new__).
    """

    tilt_estimate: float = 0.0       # rad
    integral_accum: float = 0.0      # rad s, clamped
    last_wheel_angle: float = 0.0    # rad, from the last frame
    wheel_rate_estimate: float = 0.0  # rad/s, smoothed angle difference
    primed: bool = False             # False until the first frame arrives


class ActuationFrame(NamedTuple):
    """Feedback-channel payload: the normalized command for both wheels."""

    motor_command: float  # [-1, 1]
    seq: int              # echoes the sensor frame it answers


def estimate_tilt(cstate: ControllerState, frame: SensorFrame, dt: float,
                  alpha: float = DEFAULT_FILTER_ALPHA) -> ControllerState:
    """Complementary-filter update; returns the new controller state.

    estimate <- alpha*(estimate + gyro*dt) + (1-alpha)*accel_tilt
    """
    est = alpha * (cstate.tilt_estimate + frame.gyro_pitch_rate * dt) \
        + (1.0 - alpha) * frame.accel_tilt
    return tuple.__new__(ControllerState, (
        est, cstate.integral_accum, cstate.last_wheel_angle,
        cstate.wheel_rate_estimate, cstate.primed))


def compute_command(cstate: ControllerState, gains: ControllerGains,
                    frame: SensorFrame,
                    dt: float) -> tuple[ControllerState, ActuationFrame]:
    """PID-like command from the frame estimate_tilt has just taken.

    The one command drives both wheels of the planar model. The integral
    accumulates the tilt estimate with an anti-windup clamp.
    """
    angle = frame.wheel_angle
    if cstate.primed:
        raw_rate = (angle - cstate.last_wheel_angle) / dt
        wheel_rate = WHEEL_RATE_SMOOTHING * cstate.wheel_rate_estimate \
            + (1.0 - WHEEL_RATE_SMOOTHING) * raw_rate
    else:
        wheel_rate = 0.0

    # each clamp passes a nan and a -0.0 through, as min(max(x, -lim), lim) does
    tilt = cstate.tilt_estimate
    lim = gains.integral_limit
    integral = cstate.integral_accum + tilt * dt
    integral = -lim if integral < -lim else lim if integral > lim else integral

    u = (gains.kp_tilt * tilt
         + gains.kd_tilt * frame.gyro_pitch_rate
         + gains.ki_tilt * integral
         + gains.kp_position * angle
         + gains.kd_position * wheel_rate)
    lim = gains.command_limit
    u = -lim if u < -lim else lim if u > lim else u

    new_state = tuple.__new__(ControllerState, (
        tilt, integral, angle, wheel_rate, True))
    return new_state, tuple.__new__(ActuationFrame, (u, frame.seq))


# ControllerState fields carried across cycles: controller_map's memory
_LOOP_MEMORY = ("tilt_estimate", "integral_accum", "last_wheel_angle",
                "wheel_rate_estimate")


def controller_map(gains: ControllerGains, dt: float,
                   alpha: float = DEFAULT_FILTER_ALPHA) -> np.ndarray:
    """One controller update as a linear map, clamps left out: the 5x7
    matrix from (accel_tilt, gyro_pitch_rate, wheel_angle, _LOOP_MEMORY) to
    (command, _LOOP_MEMORY after the update), the linear_map of one
    estimate_tilt and compute_command with no clamp to engage."""
    unclamped = replace(gains, integral_limit=MAX_MAGNITUDE, command_limit=1.0)

    def update(x: list) -> list:
        cstate = ControllerState(**dict(zip(_LOOP_MEMORY, x[3:])), primed=True)
        frame = SensorFrame(gyro_pitch_rate=x[1], accel_tilt=x[0],
                            wheel_angle=x[2], seq=1)
        cstate = estimate_tilt(cstate, frame, dt, alpha)
        cstate, command = compute_command(cstate, unclamped, frame, dt)
        return [command.motor_command, *(getattr(cstate, name) for name in _LOOP_MEMORY)]
    return linear_map(update, 7)


def _loop_model(params: PlantParams, cycle: float, alpha: float):
    """closed_loop_matrix at this cycle as a function of the gains, all on
    one plant block."""
    if not 0 < cycle < float("inf"):
        raise ValueError("cycle must be positive and finite")
    P = span_matrix(params, _ns(cycle))
    # the lagged torque is a plant state unless the motor is instant
    n = 5 if params.motor_time_constant > 0 else 4
    Ad, Bd = P[:n, :n], P[:n, 5] * params.motor_max_torque
    m = n + len(_LOOP_MEMORY)
    # the controller reads the frame (plant states 0-2: tilt, tilt_rate and
    # wheel_angle) and its memory; its command drives the plant through Bd
    reads = [0, 1, 2, *range(n, m)]

    def loop(gains: ControllerGains) -> np.ndarray:
        M = np.zeros((m, m))
        M[:n, :n] = Ad
        K = controller_map(gains, cycle, alpha)
        M[:, reads] += np.vstack([np.outer(Bd, K[0]), K[1:]])
        if gains.ki_tilt == 0.0:
            # the accumulator is then decoupled bookkeeping with a unit
            # eigenvalue; drop it so the radius reflects the actual loop
            i_i = n + _LOOP_MEMORY.index("integral_accum")
            M = np.delete(np.delete(M, i_i, axis=0), i_i, axis=1)
        return M
    return loop


def closed_loop_matrix(params: PlantParams, gains: ControllerGains, cycle: float,
                       alpha: float = DEFAULT_FILTER_ALPHA) -> np.ndarray:
    """One-cycle transition matrix of the zero-delay loop, linearized at upright.

    State: [tilt, tilt_rate, wheel_angle, wheel_rate, motor_torque] (no
    motor_torque for an instant motor), then the controller memory, named
    as in _LOOP_MEMORY. It composes controller_map with the plant block,
    span_matrix over the cycle: the engine's own RK4 advance under the
    held command. Sensors are noiseless and unquantized, clamps inactive;
    sampling, control, and held actuation all happen each `cycle`.
    """
    return _loop_model(params, cycle, alpha)(gains)


def spectral_radius(M: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(M))))


# the gains the search scales, together
_SCALED_GAINS = ("kp_tilt", "kd_tilt", "ki_tilt", "kp_position", "kd_position")
# scale factors tried, in order, when the shipped gains do not already
# stabilize the requested cycle
_SEARCH_SCALES = (1.0, 0.75, 0.5, 1.5, 0.35, 2.0, 0.25, 3.0, 0.15, 0.1)


def tune_default_gains(params: PlantParams, cycle: float,
                       alpha: float = DEFAULT_FILTER_ALPHA) -> ControllerGains:
    """Gains that stabilize the linearized zero-delay loop at this cycle.

    Starts from the shipped defaults and tries a fixed grid of uniform
    scalings, returning the first set whose closed-loop spectral radius is
    strictly inside the unit circle. Raises TuningFailureError when the
    whole grid fails (long cycles: the loop cannot be stabilized).
    """
    base = DEFAULT_GAINS
    # one plant block for every scale; a long cycle overflows it, and that
    # loop is not stable
    with np.errstate(over="ignore", invalid="ignore"):
        loop = _loop_model(params, cycle, alpha)
        for scale in _SEARCH_SCALES:
            cand = replace(base, **{name: getattr(base, name) * scale
                                    for name in _SCALED_GAINS})
            M = loop(cand)
            if np.isfinite(M).all() and spectral_radius(M) < 1.0:
                return cand
    raise TuningFailureError(
        f"no searched gain set stabilizes a {cycle * 1e3:.1f} ms cycle")
