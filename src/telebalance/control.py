"""Remote balancing controller: tilt estimation plus a PD law.

The controller is a pure update, (state, frame, dt) -> (state, command),
run once per received sensor frame. The engine alone decides which frames
reach it and with what dt: only a frame newer than the last one used, dt
the positive gap since the previous arrival. A complementary filter fuses
integrated gyro rate with the accelerometer tilt; the command law is PD on
tilt and PD on the wheel angle the frame carries, already quantized to
encoder counts (station keeping). The planar robot takes one command for
both wheels, clamped to [-1, 1]; the plant scales it by its maximum motor
torque. The four gains are the law's only keys; FILTER_ALPHA is a constant.

The shipped gains, ControllerGains(), were derived once for the default
plant at a 5 ms control cycle (discrete LQR seed, then checked against the
linear closed loop); tune_default_gains() verifies a requested cycle
against the closed loop of the engine's own RK4 plant, linearized at
upright, and rescales if needed. Stability is decided by _is_stable, which
squares the loop matrix until its norm proves the spectral radius below 1,
so tuning calls no LAPACK routine.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import NamedTuple

import numpy as np

from .plant import PlantParams, SensorFrame, _ns, check_finite, linear_map, span_matrix

# complementary-filter weight of the integrated gyro, per update
FILTER_ALPHA = 0.98

# one-pole smoothing on the encoder-differenced wheel rate; raw differences
# are dominated by quantization at millisecond cycles
WHEEL_RATE_SMOOTHING = 0.9


class TuningFailureError(ValueError):
    """Raised when no searched gain set stabilizes the requested cycle."""


@dataclass(frozen=True)
class ControllerGains:
    """The law's four keys. The defaults are the shipped gains for the
    default PlantParams, derived from a discrete LQR on the 5 ms zero-delay
    linearized loop and verified stable by _is_stable (see
    tune_default_gains). The law is PD: a tilt integrator next to the
    wheel-position feedback would add a neutral mode of radius 1."""

    kp_tilt: float = 20.0       # command/rad
    kd_tilt: float = 1.5        # command/(rad/s)
    kp_position: float = 0.45   # command/rad of wheel angle
    kd_position: float = 0.28   # command/(rad/s)

    def __post_init__(self) -> None:
        check_finite(self)


class ControllerState(NamedTuple):
    """Filter memory; one instance per controlled robot.

    A tuple because every update builds one, by tuple.__new__ in field
    order (no Python __new__).
    """

    tilt_estimate: float = 0.0       # rad
    last_wheel_angle: float = 0.0    # rad, from the last frame
    wheel_rate_estimate: float = 0.0  # rad/s, smoothed angle difference
    primed: bool = False             # False until the first frame arrives


def estimate_tilt(cstate: ControllerState, frame: SensorFrame, dt: float) -> ControllerState:
    """Complementary-filter update; returns the new controller state.

    estimate <- FILTER_ALPHA*(estimate + gyro*dt) + (1-FILTER_ALPHA)*accel_tilt
    """
    est = FILTER_ALPHA * (cstate.tilt_estimate + frame.gyro_pitch_rate * dt) \
        + (1.0 - FILTER_ALPHA) * frame.accel_tilt
    return tuple.__new__(ControllerState, (
        est, cstate.last_wheel_angle,
        cstate.wheel_rate_estimate, cstate.primed))


def compute_command(cstate: ControllerState, gains: ControllerGains,
                    frame: SensorFrame,
                    dt: float) -> tuple[ControllerState, float]:
    """PD command from the frame estimate_tilt has just taken: the
    feedback-channel payload, one float in [-1, 1] that drives both wheels
    of the planar model.
    """
    angle = frame.wheel_angle
    if cstate.primed:
        raw_rate = (angle - cstate.last_wheel_angle) / dt
        wheel_rate = WHEEL_RATE_SMOOTHING * cstate.wheel_rate_estimate \
            + (1.0 - WHEEL_RATE_SMOOTHING) * raw_rate
    else:
        wheel_rate = 0.0

    tilt = cstate.tilt_estimate
    u = (gains.kp_tilt * tilt
         + gains.kd_tilt * frame.gyro_pitch_rate
         + gains.kp_position * angle
         + gains.kd_position * wheel_rate)
    # ±1 is the motor's maximum torque; nan and -0.0 pass, as in min(max(u, -1.0), 1.0)
    u = -1.0 if u < -1.0 else 1.0 if u > 1.0 else u

    return tuple.__new__(ControllerState, (tilt, angle, wheel_rate, True)), u


# ControllerState fields carried across cycles: controller_map's memory
_LOOP_MEMORY = ("tilt_estimate", "last_wheel_angle", "wheel_rate_estimate")


def controller_map(gains: ControllerGains, dt: float) -> np.ndarray:
    """One controller update as a linear map, clamp left out: the 4x6
    matrix from (accel_tilt, gyro_pitch_rate, wheel_angle, _LOOP_MEMORY) to
    (command, _LOOP_MEMORY after the update), the linear_map of one
    estimate_tilt and compute_command. check_finite bounds every gain, so
    linear_map's probe never reaches the clamp."""
    def update(x: list) -> list:
        cstate = ControllerState(**dict(zip(_LOOP_MEMORY, x[3:])), primed=True)
        frame = SensorFrame(gyro_pitch_rate=x[1], accel_tilt=x[0], wheel_angle=x[2])
        cstate = estimate_tilt(cstate, frame, dt)
        cstate, command = compute_command(cstate, gains, frame, dt)
        return [command, *(getattr(cstate, name) for name in _LOOP_MEMORY)]
    return linear_map(update, 6)


def _loop_model(params: PlantParams, cycle: float, latency_ns: int):
    """closed_loop_matrix at this cycle and latency as a function of the
    gains, all on one pair of plant blocks."""
    if not 0 < cycle < float("inf"):
        raise ValueError("cycle must be positive and finite")
    h = _ns(cycle)
    q, r = divmod(latency_ns, h)
    d = q + (r > 0)  # the commands still pending at a sample
    n = 5  # plant states: tilt, tilt_rate, wheel_angle, wheel_rate, torque
    late, torque = span_matrix(params, h - r), params.motor_max_torque
    Ad, gamma0 = late[:n, :n], late[:n, 5] * torque
    if r:
        early = span_matrix(params, r)
        gamma1 = Ad @ early[:n, 5] * torque
        Ad = Ad @ early[:n, :n]
    mem = n + len(_LOOP_MEMORY)  # the first shift state
    m = mem + d
    # the controller reads the frame (plant states 0-2: tilt, tilt_rate and
    # wheel_angle) and its memory
    reads = [0, 1, 2, *range(n, mem)]

    def loop(gains: ControllerGains) -> np.ndarray:
        K = controller_map(gains, cycle)
        # row j gives u[k - j]: the command from the state, then the shift
        pending = np.vstack([np.zeros(m), np.eye(m)[mem:]])
        pending[0, reads] = K[0]
        M = np.zeros((m, m))
        M[:n, :n] = Ad
        M[:n] += np.outer(gamma0, pending[q])
        if r:
            M[:n] += np.outer(gamma1, pending[q + 1])
        M[n:mem, reads] = K[1:]
        M[mem:] = pending[:d]  # u[k - j] becomes u[k + 1 - (j + 1)]
        return M
    return loop


def closed_loop_matrix(params: PlantParams, gains: ControllerGains, cycle: float,
                       latency_ns: int = 0) -> np.ndarray:
    """One-cycle transition matrix of the loop, linearized at upright, each
    command applied latency_ns after its sample (Cervin et al., IEEE Control
    Systems Magazine 2003).

    State: [tilt, tilt_rate, wheel_angle, wheel_rate, motor_torque], the
    controller memory named as in _LOOP_MEMORY, then the pending commands
    u[k-1] ... u[k-d]: with
    latency_ns = q h + r, 0 <= r < h = cycle, d = q + (r > 0), u[k-q-1]
    holds for the first r of cycle k and u[k-q] for the rest, each over
    span_matrix, the engine's own RK4 advance. Sensors are noiseless and
    unquantized, clamp inactive."""
    return _loop_model(params, cycle, latency_ns)(gains)


def _is_stable(M: np.ndarray) -> bool:
    """Whether every eigenvalue of M lies strictly inside the unit circle,
    decided by squaring M: rho(M) <= ||M^k||^(1/k) for every k (Gelfand),
    so an infinity-norm below 1 proves rho(M) < 1, and a radius of 1 or
    more never shows one. Not stable when M turns non-finite or 64
    squarings go by. Rounding in the squares can misjudge a strongly
    non-normal M whose radius is within about 1e-6 of 1; on the tuner's
    loops it agrees with the eigenvalues."""
    for _ in range(64):
        norm = np.abs(M).sum(axis=1).max()
        if norm < 1.0:
            return True
        if not np.isfinite(norm):
            return False
        M = M @ M
    return False


# scale factors tried, in order, when the shipped gains do not already
# stabilize the requested cycle
_SEARCH_SCALES = (1.0, 0.75, 0.5, 1.5, 0.35, 2.0, 0.25, 3.0, 0.15, 0.1)


def tune_default_gains(params: PlantParams, cycle: float) -> ControllerGains:
    """Gains that stabilize the linearized zero-delay loop at this cycle.

    Starts from the shipped gains, ControllerGains(), and tries a fixed
    grid of uniform scalings of all four gains, returning the first set
    whose closed loop _is_stable proves stable. Raises TuningFailureError
    when the whole grid fails (long cycles: the loop cannot be stabilized).
    """
    # one plant block for every scale; a long cycle overflows it, and that
    # loop is not stable
    with np.errstate(over="ignore", invalid="ignore"):
        loop = _loop_model(params, cycle, 0)
        for scale in _SEARCH_SCALES:
            cand = ControllerGains(*(gain * scale for gain in astuple(ControllerGains())))
            M = loop(cand)
            if _is_stable(M):
                return cand
    raise TuningFailureError(
        f"no searched gain set stabilizes a {cycle * 1e3:.1f} ms cycle")
