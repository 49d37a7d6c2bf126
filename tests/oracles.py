"""Independent reference computations used to check the simulator.

These deliberately avoid the library code paths they validate: the matrix
exponential is a truncated Taylor series with scaling-and-squaring, the
linearized model and the energy are re-derived here from the Lagrangian,
and fall times come from scanning the series solution.
"""

from __future__ import annotations

import math

import numpy as np


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


def gallop_slot_search(custom_slots, direction: str, ready_ns: int,
                       guard_ns: int, band: int, channel_count: int,
                       hop_increment: int, extra_ns: int, loss_probability, rng):
    """Gallop delivery by brute force over slot occurrences.

    custom_slots is the (direction, start_s, duration_s, band) layout. A
    slot occurrence is admissible when it starts no earlier than
    ready_ns - guard_ns; the frame tries the earliest admissible one of its
    direction and every later one of that direction in the same superframe,
    two uniforms per try (channel advance + loss). Returns (deliver_ns,
    slot_index, channel_used), with None for what the outcome lacks.
    """
    slots = sorted(((round(start * 1e9), round(start * 1e9) + round(dur * 1e9), d)
                    for d, start, dur, _ in custom_slots), key=lambda s: s[0])
    if all(d != direction for _, _, d in slots):
        return None, None, None
    span = max(end for _, end, _ in slots)
    n = len(slots)
    earliest = ready_ns - guard_ns
    tries = []
    sf = math.floor(earliest / span) - 2   # safely before any admissible slot
    while not tries:
        tries = [(sf * n + pos, sf * span + end)
                 for pos, (start, end, d) in enumerate(slots)
                 if d == direction and sf * span + start >= earliest]
        sf += 1
    for index, end in tries:
        channel = band * channel_count + (index * hop_increment) % channel_count
        p = loss_probability(channel, index, rng)
        if not rng.random() < p:
            return end + extra_ns, index, channel
    return None, index, channel
