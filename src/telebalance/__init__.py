"""Co-simulation of a two-wheeled balancing robot closed over wireless.

A planar wheeled-inverted-pendulum plant is balanced by a remote
controller across simulated links: a deterministic TDMA/FDD/hopping link,
a BLE-style connection-interval baseline, or an ideal pass-through. The
discrete-event engine measures loop stability and cycle latency.
"""

from .config import ble_scenario, gallop_scenario
from .sim import run_episode

__version__ = "0.1.0"
