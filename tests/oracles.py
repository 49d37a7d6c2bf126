"""Independent reference computations used to check the simulator.

These deliberately avoid the library code paths they validate: the matrix
exponential is a truncated Taylor series with scaling-and-squaring, the
linearized model and the energy are re-derived here from the Lagrangian,
and fall times come from scanning the series solution. Four exceptions
restate a library computation in a plainer form: rk4_span_closure is the
RK4 kernel with one derivative function called per stage, so that the
unrolled kernel the simulator runs can be required to give the same
floats; probed_span steps a kernel's probes over a whole span, so that
plant.span_matrix, which composes one substep's map by squaring, can be
required to match it (it keeps a probe loop of its own rather than call
plant.linear_map, since it is the reference span_matrix is checked
against); loop_matrix_rows writes the controller's update
out as row algebra, so that the loop model built by running the
controller can be required to match it; record_metrics aggregates a
trace one CycleRecord at a time, so that sim.compute_metrics, which reads
the trace's columns as arrays, can be required to give the same floats.

Two more stand on the library's own probes and restate no law:
lifted_loop_matrix lifts control.controller_map and plant.span_matrix to
a loop whose commands act a latency after their sample, and
latency_interval finds a link's sample-to-actuation latency by calling
wireless.transmit itself. No library code reads a latency yet, so they
live here; the tests hold them to the engine's recorded latencies and
its decay rate.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from telebalance.control import _LOOP_MEMORY, controller_map
from telebalance.plant import SUBSTEP_NS, span_matrix
from telebalance.sim import EpisodeMetrics
from telebalance.wireless import (
    FEEDBACK, FORWARD, ChannelModel, ChannelProcess, _ns, transmit)


def expm_taylor(M: np.ndarray, order: int = 40) -> np.ndarray:
    """exp(M) by truncated series; scaled and squared for convergence."""
    norm = np.max(np.sum(np.abs(M), axis=1))
    squarings = max(0, int(math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0)
    A = M / (2 ** squarings)
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, order + 1):
        term = term @ A / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def wip_linear_system(params) -> tuple[np.ndarray, np.ndarray]:
    """Linearized upright dynamics, derived here from the mass matrix.

    Coordinates (wheel_angle, tilt); generalized force +q on the wheel,
    -q on the body with q = torque - b*(wheel_rate - tilt_rate); gravity
    term m_b g L tilt on the body row. State (tilt, tilt_rate,
    wheel_angle, wheel_rate), input torque.
    """
    m_b, m_w = params.body_mass, params.wheel_mass_total
    L, r = params.com_distance, params.wheel_radius
    I_b, I_w = params.body_inertia, params.wheel_inertia
    g, b = params.gravity, params.viscous_friction

    M = np.array([[(m_b + m_w) * r * r + I_w, m_b * r * L],
                  [m_b * r * L, m_b * L * L + I_b]])
    Minv = np.linalg.inv(M)
    grav = np.array([0.0, m_b * g * L])  # d(rhs)/d(tilt)
    force = np.array([1.0, -1.0])        # d(rhs)/d(q)

    acc_tilt = Minv @ grav      # accelerations per unit tilt
    acc_q = Minv @ force        # accelerations per unit q
    # q = torque - b*(wheel_rate - tilt_rate)
    A = np.zeros((4, 4))
    A[0, 1] = 1.0
    A[2, 3] = 1.0
    for row, acc_idx in ((1, 1), (3, 0)):  # tilt_rate row, wheel_rate row
        A[row, 0] = acc_tilt[acc_idx]
        A[row, 1] = acc_q[acc_idx] * b
        A[row, 3] = -acc_q[acc_idx] * b
    B = np.array([[0.0], [acc_q[1]], [0.0], [acc_q[0]]])
    return A, B


def lagrangian_energy(tilt: float, tilt_rate: float, wheel_rate: float,
                      params) -> float:
    """Kinetic + potential energy of the two-body model, from scratch."""
    m_b, m_w = params.body_mass, params.wheel_mass_total
    L, r = params.com_distance, params.wheel_radius
    I_b, I_w = params.body_inertia, params.wheel_inertia

    # wheel: translation r*wheel_rate plus spin
    T = 0.5 * m_w * (r * wheel_rate) ** 2 + 0.5 * I_w * wheel_rate ** 2
    # body CoM velocity components
    vx = r * wheel_rate + L * tilt_rate * math.cos(tilt)
    vy = -L * tilt_rate * math.sin(tilt)
    T += 0.5 * m_b * (vx * vx + vy * vy) + 0.5 * I_b * tilt_rate ** 2
    V = m_b * params.gravity * L * math.cos(tilt)
    return T + V


def linear_fall_time(A: np.ndarray, x0: np.ndarray, threshold: float,
                     dt: float = 1e-4, t_max: float = 10.0) -> float:
    """First time |tilt| of the series solution exceeds the threshold."""
    Phi = expm_taylor(A * dt)
    x = np.array(x0, dtype=float)
    t = 0.0
    while t < t_max:
        x = Phi @ x
        t += dt
        if abs(x[0]) > threshold:
            return t
    raise AssertionError("linear model never crossed the fall threshold")


def rk4_span_closure(th, w, phi, v, tau, tau_cmd, params, span_ns,
                     fall_threshold=math.inf):
    """plant._rk4_span written with a derivative closure, same operand
    order: the whole substeps, then the remainder one unless a fall came
    first."""
    m11, m12c, m22, g_l = params._rk4_terms[:4]
    b = params.viscous_friction
    tm = params.motor_time_constant
    inv_tm = 1.0 / tm if tm > 0 else 0.0
    if tm <= 0:
        tau = tau_cmd

    def deriv(th_, w_, v_, tau_):
        s = math.sin(th_)
        m12 = m12c * math.cos(th_)
        q = tau_ - b * (v_ - w_)
        rhs_w = q + m12c * s * w_ * w_
        rhs_t = -q + g_l * s
        det = m11 * m22 - m12 * m12
        return (w_, (m11 * rhs_t - m12 * rhs_w) / det, v_,
                (m22 * rhs_w - m12 * rhs_t) / det, (tau_cmd - tau_) * inv_tm)

    n_full, rem = divmod(span_ns, SUBSTEP_NS)
    steps = [SUBSTEP_NS * 1e-9] * n_full + ([rem * 1e-9] if rem else [])
    for i, h in enumerate(steps):
        half, sixth = 0.5 * h, h / 6.0
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
            return th, w, phi, v, tau, i + 1
    return th, w, phi, v, tau, len(steps)


def probed_span(kernel, params, span_ns: int) -> np.ndarray:
    """The linear map of an RK4 span kernel (plant._rk4_span or
    rk4_span_closure) near upright, as the 6x6 [[Phi, Gamma], [0, 1]] on
    (tilt, tilt_rate, wheel_angle, wheel_rate, motor_torque, tau_cmd):
    column j is a 2**-80 probe in place j, stepped over the whole span."""
    probe = 2.0 ** -80
    M = np.eye(6)
    for j in range(6):
        x = [probe if i == j else 0.0 for i in range(6)]
        M[:5, j] = np.array(kernel(*x, params, span_ns)[:5]) / probe
    return M


def loop_matrix_rows(Ad: np.ndarray, Bd: np.ndarray, gains, cycle: float,
                     alpha: float, beta: float) -> np.ndarray:
    """control.closed_loop_matrix from the plant's one-cycle map under a
    held command, x+ = Ad x + Bd u (Bd per unit of normalized command),
    with the controller update written as linear maps of the pre-update
    state [plant..., tilt_estimate, integral, prev_wheel_angle,
    wheel_rate_estimate]; beta is the wheel-rate smoothing. Clamps are
    left out, and the integral state is dropped when ki_tilt is 0."""
    n = Ad.shape[0]
    m = n + 4
    i_e, i_i, i_p, i_w = n, n + 1, n + 2, n + 3
    dt = cycle

    def unit(i):
        v = np.zeros(m)
        v[i] = 1.0
        return v

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
        M = np.delete(np.delete(M, i_i, axis=0), i_i, axis=1)
    return M


def gallop_slot_search(layout, direction: str, ready_ns: int,
                       guard_ns: int, channel_count: int,
                       hop_increment: int, extra_ns: int, lost, rng):
    """Gallop delivery by brute force over slot occurrences.

    layout is the (direction, start_s, duration_s) slot list; forward
    frames use FDD band 0 (channels 0 to channel_count - 1), feedback
    frames band 1 (the next channel_count). A slot occurrence is
    admissible when it starts no earlier than ready_ns - guard_ns; the
    frame tries the earliest admissible one of its direction and every
    later one of that direction in the same superframe, with one
    lost(channel, slot_index, rng) call per try. Returns
    (deliver_ns, slot_index, channel_used), with None for what the outcome
    lacks.
    """
    slots = sorted(((round(start * 1e9), round(start * 1e9) + round(dur * 1e9), d)
                    for d, start, dur in layout), key=lambda s: s[0])
    if all(d != direction for _, _, d in slots):
        return None, None, None
    span = max(end for _, end, _ in slots)
    n = len(slots)
    earliest = ready_ns - guard_ns
    tries = []
    band = 0 if direction == "forward" else 1
    sf = math.floor(earliest / span) - 2   # safely before any admissible slot
    while not tries:
        tries = [(sf * n + pos, sf * span + end)
                 for pos, (start, end, d) in enumerate(slots)
                 if d == direction and sf * span + start >= earliest]
        sf += 1
    for index, end in tries:
        channel = band * channel_count + (index * hop_increment) % channel_count
        if not lost(channel, index, rng):
            return end + extra_ns, index, channel
    return None, index, channel


def lifted_loop_matrix(params, gains, cycle: float, alpha: float,
                       latency_ns: int) -> np.ndarray:
    """control.closed_loop_matrix with each command applied latency_ns
    after its sample, lifted to one cycle h (Cervin et al., IEEE Control
    Systems Magazine 2003).

    With latency_ns = q h + r, 0 <= r < h, the command of sample k - q - 1
    holds for the first r of cycle k and that of sample k - q for the rest:
    x+ = Phi(h - r) Phi(r) x + Gamma1 u[k-q-1] + Gamma0 u[k-q], with
    Gamma0 = Gamma(h - r) and Gamma1 = Phi(h - r) Gamma(r), all from
    plant.span_matrix. State: closed_loop_matrix's, then the pending
    commands u[k-1] ... u[k-d] as shift states, d = q + (r > 0); at latency
    0 it is closed_loop_matrix's matrix."""
    h = _ns(cycle)
    q, r = divmod(latency_ns, h)
    d = q + (r > 0)
    n = 5 if params.motor_time_constant > 0 else 4
    late, early = span_matrix(params, h - r), span_matrix(params, r)
    torque = params.motor_max_torque
    gamma0 = late[:n, 5] * torque
    gamma1 = late[:n, :n] @ early[:n, 5] * torque

    K = controller_map(gains, cycle, alpha)
    mem = n + len(_LOOP_MEMORY)  # index of the first shift state
    m = mem + d
    u = np.zeros(m)  # the row giving u[k] from the state
    u[:3], u[n:mem] = K[0, :3], K[0, 3:]
    # pending[j] gives u[k - j]
    pending = [u] + [np.eye(m)[mem + i] for i in range(d)]
    M = np.zeros((m, m))
    M[:n, :n] = late[:n, :n] @ early[:n, :n]
    M[:n] += np.outer(gamma0, pending[q])
    if r:
        M[:n] += np.outer(gamma1, pending[q + 1])
    M[n:mem, :3], M[n:mem, n:mem] = K[1:, :3], K[1:, 3:]
    for i in range(d):  # the shift: u[k - i] becomes u[(k + 1) - (i + 1)]
        M[mem + i] = pending[i]
    if gains.ki_tilt == 0.0:
        i_i = n + _LOOP_MEMORY.index("integral_accum")
        M = np.delete(np.delete(M, i_i, axis=0), i_i, axis=1)
    return M


def latency_interval(mac, cycle: float) -> tuple[int, int]:
    """(min, max) sample-to-actuation latency in ns of frames sampled every
    cycle on the idealized clock, from wireless.transmit itself on a
    lossless channel: the forward frame ready at the sample, the feedback
    frame at its delivery. The samples run over one hyperperiod of the
    cycle against the link's period (at most 10 000 of them), each with
    every BLE jitter draw at its least, then at its greatest."""
    lossless = ChannelProcess(ChannelModel())
    h = _ns(cycle)
    period = mac.superframe.span_ns if mac.superframe else mac.ble_interval_ns
    latencies = []
    for k in range(min(period // math.gcd(h, period), 10_000)):
        # a jitter stream whose uniform(lo, hi) is min, then max: lo, then hi
        for jitter in (SimpleNamespace(uniform=min), SimpleNamespace(uniform=max)):
            ready = transmit(mac, lossless, FORWARD, k * h, None, jitter)[0]
            latencies.append(
                transmit(mac, lossless, FEEDBACK, ready, None, jitter)[0] - k * h)
    return min(latencies), max(latencies)


def record_metrics(records, fall_time: float | None, cfg) -> EpisodeMetrics:
    """sim.compute_metrics of a trace with these CycleRecords and fall
    time, one list per statistic built record by record."""
    fell = fall_time is not None
    balanced = fall_time if fell else cfg.episode_duration
    if not records:
        return EpisodeMetrics(balanced, fell, math.nan,
                              abs(cfg.initial_tilt) * (180.0 / math.pi),
                              math.nan, math.nan, math.nan, 0.0)
    rates = np.array([r.tilt_rate for r in records if r.t <= balanced])
    tilts = np.array([abs(r.tilt) for r in records])
    lat = np.array([r.cycle_latency for r in records
                    if not math.isnan(r.cycle_latency)])
    dropped = np.array([r.forward_dropped or r.feedback_dropped for r in records])
    if lat.size:
        lat_mean = float(lat.mean())
        lat_var = float(np.mean((lat - lat_mean) ** 2))
        lat_p99 = float(np.percentile(lat, 99))
    else:
        lat_mean = lat_var = lat_p99 = math.nan
    return EpisodeMetrics(
        balanced_duration=balanced,
        fell=fell,
        rms_tilt_rate=float(np.sqrt(np.mean(rates ** 2))) if rates.size
        else math.nan,
        max_abs_tilt=float(tilts.max()),
        latency_mean=lat_mean,
        latency_variance=lat_var,
        latency_p99=lat_p99,
        drop_rate=float(dropped.mean()),
    )
