"""Remote balancing controller: tilt estimation plus a PID-like law.

The controller runs once per received sensor frame. A complementary
filter fuses integrated gyro rate with the accelerometer tilt; the
command law is PD on tilt, I on tilt with anti-windup, and PD on wheel
position reconstructed from the encoders (station keeping). Commands are
normalized to [-1, 1]; the plant scales them by its maximum motor torque.

Default gains were derived once for the default plant at a 5 ms control
cycle (discrete LQR seed, then checked against the discretized linear
closed loop) and are shipped as constants; tune_default_gains() verifies
a requested cycle against that closed-loop map and rescales if needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .plant import TWO_PI, PlantParams, SensorFrame, linearized_matrices

DEFAULT_FILTER_ALPHA = 0.98
DEFAULT_TUNE_CYCLE = 0.005  # s

# one-pole smoothing on the encoder-differenced wheel rate; raw differences
# are dominated by quantization at millisecond cycles
WHEEL_RATE_SMOOTHING = 0.9


class StaleFrameError(ValueError):
    """Raised when a sensor frame does not advance the sequence counter."""


class TuningFailureError(RuntimeError):
    """Raised when no searched gain set stabilizes the requested cycle."""


@dataclass(frozen=True)
class ControllerGains:
    kp_tilt: float = 0.0        # command/rad
    kd_tilt: float = 0.0        # command/(rad/s)
    ki_tilt: float = 0.0        # command/(rad s)
    kp_position: float = 0.0    # command/rad of wheel angle
    kd_position: float = 0.0    # command/(rad/s)
    integral_limit: float = 0.5   # command
    command_limit: float = 1.0    # command, <= 1

    def __post_init__(self) -> None:
        if not (self.integral_limit > 0 and self.command_limit > 0):
            raise ValueError("integral_limit and command_limit must be positive")
        for name in ("kp_tilt", "kd_tilt", "ki_tilt", "kp_position", "kd_position"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


# Shipped defaults for the default PlantParams, derived from a discrete LQR
# on the 5 ms zero-delay linearized loop and verified by eigenvalue check
# (see tune_default_gains). ki_tilt is zero: a tilt integrator combined
# with wheel-position feedback adds a neutral closed-loop mode (any wheel
# offset canceled by an integral offset), which the strict stability check
# rejects; the integral path stays available for configurations that
# accept that mode.
DEFAULT_GAINS = ControllerGains(
    kp_tilt=20.0,
    kd_tilt=1.5,
    ki_tilt=0.0,
    kp_position=0.45,
    kd_position=0.28,
    integral_limit=0.5,
    command_limit=1.0,
)


@dataclass(frozen=True)
class ControllerState:
    """Filter and integrator memory; one instance per controlled robot.

    The per-frame updates build it positionally, in this field order.
    """

    tilt_estimate: float = 0.0       # rad
    integral_accum: float = 0.0      # rad s, clamped
    last_frame_seq: int = -1
    last_update_time: float = 0.0    # s, arrival time of the last frame
    last_wheel_angle: float = 0.0    # rad, reconstructed from encoders
    wheel_rate_estimate: float = 0.0  # rad/s, smoothed encoder difference
    encoder_counts_per_rev: int = 1320
    primed: bool = False             # False until the first frame arrives


class ActuationFrame(NamedTuple):
    """Feedback-channel payload: updated normalized motor commands."""

    motor_command_left: float   # [-1, 1]
    motor_command_right: float  # [-1, 1]
    seq: int                    # echoes the sensor frame it answers
    issue_time: float           # s


def make_controller_state(params: PlantParams) -> ControllerState:
    return ControllerState(encoder_counts_per_rev=params.encoder_counts_per_rev)


def _wheel_angle(frame: SensorFrame, counts_per_rev: int) -> float:
    counts = 0.5 * (frame.encoder_left + frame.encoder_right)
    return counts / counts_per_rev * TWO_PI


def estimate_tilt(cstate: ControllerState, frame: SensorFrame, dt: float,
                  alpha: float = DEFAULT_FILTER_ALPHA) -> ControllerState:
    """Complementary-filter update; returns the new controller state.

    estimate <- alpha*(estimate + gyro*dt) + (1-alpha)*accel_tilt
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    if not dt > 0:
        raise ValueError("dt must be positive")
    if frame.seq <= cstate.last_frame_seq:
        raise StaleFrameError(
            f"frame seq {frame.seq} not newer than {cstate.last_frame_seq}")
    est = alpha * (cstate.tilt_estimate + frame.gyro_pitch_rate * dt) \
        + (1.0 - alpha) * frame.accel_tilt
    return ControllerState(est, cstate.integral_accum, frame.seq,
                           cstate.last_update_time, cstate.last_wheel_angle,
                           cstate.wheel_rate_estimate,
                           cstate.encoder_counts_per_rev, cstate.primed)


def compute_command(cstate: ControllerState, gains: ControllerGains,
                    frame: SensorFrame, dt: float,
                    now: float | None = None) -> tuple[ControllerState, ActuationFrame]:
    """PID-like command from the current frame; estimate_tilt must have run.

    Both wheels receive the same command in the planar model. The integral
    accumulates the tilt estimate with an anti-windup clamp. `now` is the
    controller-side arrival time stamped on the actuation frame; when
    omitted it is reconstructed from the previous update plus dt.
    """
    if frame.seq != cstate.last_frame_seq:
        raise StaleFrameError(
            f"frame seq {frame.seq} was not the last estimated ({cstate.last_frame_seq})")
    if not dt > 0:
        raise ValueError("dt must be positive")
    arrival = now if now is not None else cstate.last_update_time + dt

    angle = _wheel_angle(frame, cstate.encoder_counts_per_rev)
    if cstate.primed:
        raw_rate = (angle - cstate.last_wheel_angle) / dt
        wheel_rate = WHEEL_RATE_SMOOTHING * cstate.wheel_rate_estimate \
            + (1.0 - WHEEL_RATE_SMOOTHING) * raw_rate
    else:
        wheel_rate = 0.0

    lim = gains.integral_limit
    integral = cstate.integral_accum + cstate.tilt_estimate * dt
    integral = min(max(integral, -lim), lim)

    u = (gains.kp_tilt * cstate.tilt_estimate
         + gains.kd_tilt * frame.gyro_pitch_rate
         + gains.ki_tilt * integral
         + gains.kp_position * angle
         + gains.kd_position * wheel_rate)
    u = min(max(u, -gains.command_limit), gains.command_limit)

    new_state = ControllerState(cstate.tilt_estimate, integral,
                                cstate.last_frame_seq, arrival, angle, wheel_rate,
                                cstate.encoder_counts_per_rev, True)
    return new_state, ActuationFrame(u, u, frame.seq, arrival)


def closed_loop_matrix(params: PlantParams, gains: ControllerGains, cycle: float,
                       alpha: float = DEFAULT_FILTER_ALPHA) -> np.ndarray:
    """One-cycle transition matrix of the linearized zero-delay loop.

    State: [tilt, tilt_rate, wheel_angle, wheel_rate, motor_torque,
            tilt_estimate, integral, prev_wheel_angle, wheel_rate_estimate].
    Sensors are noiseless and unquantized, clamps inactive; sampling,
    control, and zero-order-hold actuation all happen each `cycle`.
    """
    if not cycle > 0:
        raise ValueError("cycle must be positive")
    A4, B4 = linearized_matrices(params)
    tm = params.motor_time_constant
    tau_max = params.motor_max_torque

    # continuous plant + motor lag, input = normalized command u
    if tm > 0:
        Ac = np.zeros((5, 5))
        Ac[:4, :4] = A4
        Ac[:4, 4] = B4[:, 0]
        Ac[4, 4] = -1.0 / tm
        Bc = np.zeros((5, 1))
        Bc[4, 0] = tau_max / tm
    else:
        Ac = A4
        Bc = B4 * tau_max

    n = Ac.shape[0]
    blk = np.zeros((n + 1, n + 1))
    blk[:n, :n] = Ac * cycle
    blk[:n, n] = Bc[:, 0] * cycle
    disc = scipy.linalg.expm(blk)
    Ad = disc[:n, :n]
    Bd = disc[:n, n]

    dt = cycle
    beta = WHEEL_RATE_SMOOTHING
    m = n + 4  # + tilt_estimate, integral, prev_wheel_angle, wheel_rate_estimate
    i_e, i_i, i_p, i_w = n, n + 1, n + 2, n + 3

    def unit(i):
        v = np.zeros(m)
        v[i] = 1.0
        return v

    # controller update rows as linear maps of the pre-update state
    e_row = alpha * unit(i_e) + alpha * dt * unit(1) + (1.0 - alpha) * unit(0)
    i_row = unit(i_i) + dt * e_row
    w_row = beta * unit(i_w) + (1.0 - beta) / dt * (unit(2) - unit(i_p))
    u_row = (gains.kp_tilt * e_row + gains.kd_tilt * unit(1)
             + gains.ki_tilt * i_row + gains.kp_position * unit(2)
             + gains.kd_position * w_row)

    M = np.zeros((m, m))
    M[:n, :n] = Ad
    M[:n, :] += np.outer(Bd, u_row)
    M[i_e, :] = e_row
    M[i_i, :] = i_row
    M[i_p, :] = unit(2)
    M[i_w, :] = w_row
    if gains.ki_tilt == 0.0:
        # the accumulator is then decoupled bookkeeping with a unit
        # eigenvalue; drop it so the radius reflects the actual loop
        M = np.delete(np.delete(M, i_i, axis=0), i_i, axis=1)
    return M


def spectral_radius(M: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(M))))


# scale factors tried, in order, when the shipped gains do not already
# stabilize the requested cycle
_SEARCH_SCALES = (1.0, 0.75, 0.5, 1.5, 0.35, 2.0, 0.25, 3.0, 0.15, 0.1)


def tune_default_gains(params: PlantParams, cycle: float = DEFAULT_TUNE_CYCLE,
                       alpha: float = DEFAULT_FILTER_ALPHA) -> ControllerGains:
    """Gains that stabilize the linearized zero-delay loop at this cycle.

    Starts from the shipped defaults and tries a fixed grid of uniform
    scalings, returning the first set whose closed-loop spectral radius is
    strictly inside the unit circle. Raises TuningFailureError when the
    whole grid fails (long cycles: the loop cannot be stabilized).
    """
    if not cycle > 0:
        raise ValueError("cycle must be positive")
    base = DEFAULT_GAINS
    for scale in _SEARCH_SCALES:
        cand = replace(
            base,
            kp_tilt=base.kp_tilt * scale,
            kd_tilt=base.kd_tilt * scale,
            ki_tilt=base.ki_tilt * scale,
            kp_position=base.kp_position * scale,
            kd_position=base.kd_position * scale,
        )
        if spectral_radius(closed_loop_matrix(params, cand, cycle, alpha)) < 1.0:
            return cand
    raise TuningFailureError(
        f"no searched gain set stabilizes a {cycle * 1e3:.1f} ms cycle")
