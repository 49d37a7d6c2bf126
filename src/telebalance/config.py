"""Experiment config files: flat sectioned text with explicit units.

Format example::

    # comment lines start with '#'
    [scenario]
    label = gallop
    episode_duration = 60 s
    initial_tilt = 2 deg
    seed = 1

    [mac]
    variant = gallop
    slot_duration = 1 ms

Every key is checked against a fixed schema; unknown sections, unknown or
duplicate keys, and missing/wrong unit suffixes are hard errors with a
line diagnostic, never silently ignored. Durations require an s/ms/us
suffix, angles rad/deg; plain numbers take no suffix.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

from .control import DEFAULT_GAINS
from .plant import PlantParams, SensorNoise
from .sim import ScenarioConfig
from .wireless import ChannelModel, MacConfig


class ConfigError(ValueError):
    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = f"{path}:{line}: " if path and line else (f"{path}: " if path else "")
        super().__init__(where + message)


_DURATION_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6}
_ANGLE_UNITS = {"rad": 1.0, "deg": math.pi / 180.0}


def parse_duration(text: str) -> float:
    parts = text.split()
    if len(parts) != 2 or parts[1] not in _DURATION_UNITS:
        raise ValueError(f"expected '<number> s|ms|us', got {text!r}")
    return float(parts[0]) * _DURATION_UNITS[parts[1]]


def parse_angle(text: str) -> float:
    parts = text.split()
    if len(parts) != 2 or parts[1] not in _ANGLE_UNITS:
        raise ValueError(f"expected '<number> rad|deg', got {text!r}")
    return float(parts[0]) * _ANGLE_UNITS[parts[1]]


def parse_number(text: str) -> float:
    if len(text.split()) != 1:
        raise ValueError(f"expected a bare number (no unit), got {text!r}")
    return float(text)


def parse_integer(text: str) -> int:
    if len(text.split()) != 1:
        raise ValueError(f"expected a bare integer, got {text!r}")
    return int(text)


def parse_slots(text: str) -> tuple:
    """Custom TDMA layout: 'direction, start, duration, band; ...'."""
    slots = []
    for entry in text.split(";"):
        fields = [f.strip() for f in entry.split(",")]
        if len(fields) != 4:
            raise ValueError(
                f"slot entry {entry.strip()!r} needs 'direction, start, duration, band'")
        direction, start, duration, band = fields
        slots.append((direction, parse_duration(start), parse_duration(duration),
                      int(band)))
    return tuple(slots)


def parse_per_channel(text: str) -> tuple:
    """Static loss overrides: 'channel:prob, channel:prob'."""
    out = []
    for entry in text.split(","):
        ch, _, p = entry.partition(":")
        if not p:
            raise ValueError(f"expected 'channel:probability', got {entry.strip()!r}")
        out.append((int(ch.strip()), float(p.strip())))
    return tuple(out)


# section -> key -> (parser, target field)
SCHEMA: dict[str, dict[str, tuple]] = {
    "scenario": {
        "label": (str, "label"),
        "episode_duration": (parse_duration, "episode_duration"),
        "control_cycle": (parse_duration, "control_cycle"),
        "initial_tilt": (parse_angle, "initial_tilt"),
        "fall_threshold": (parse_angle, "fall_threshold"),
        "seed": (parse_integer, "seed"),
        "filter_alpha": (parse_number, "filter_alpha"),
    },
    "plant": {
        "body_mass": (parse_number, "body_mass"),
        "wheel_mass_total": (parse_number, "wheel_mass_total"),
        "com_distance": (parse_number, "com_distance"),
        "wheel_radius": (parse_number, "wheel_radius"),
        "body_inertia": (parse_number, "body_inertia"),
        "wheel_inertia": (parse_number, "wheel_inertia"),
        "gravity": (parse_number, "gravity"),
        "motor_max_torque": (parse_number, "motor_max_torque"),
        "motor_time_constant": (parse_duration, "motor_time_constant"),
        "viscous_friction": (parse_number, "viscous_friction"),
        "encoder_counts_per_rev": (parse_integer, "encoder_counts_per_rev"),
    },
    "noise": {
        "gyro_noise_std": (parse_number, "gyro_noise_std"),
        "gyro_bias": (parse_number, "gyro_bias"),
        "accel_noise_std": (parse_number, "accel_noise_std"),
    },
    "gains": {
        "kp_tilt": (parse_number, "kp_tilt"),
        "kd_tilt": (parse_number, "kd_tilt"),
        "ki_tilt": (parse_number, "ki_tilt"),
        "kp_position": (parse_number, "kp_position"),
        "kd_position": (parse_number, "kd_position"),
        "integral_limit": (parse_number, "integral_limit"),
        "command_limit": (parse_number, "command_limit"),
    },
    "mac": {
        "variant": (str, "variant"),
        "slot_duration": (parse_duration, "slot_duration"),
        "slots_per_superframe": (parse_integer, "slots_per_superframe"),
        "forward_band": (parse_integer, "forward_band"),
        "feedback_band": (parse_integer, "feedback_band"),
        "channel_count": (parse_integer, "channel_count"),
        "hop_increment": (parse_integer, "hop_increment"),
        "sync_epoch_period": (parse_duration, "sync_epoch_period"),
        "sync_error_bound": (parse_duration, "sync_error_bound"),
        "clock_drift_ppm": (parse_number, "clock_drift_ppm"),
        "ble_connection_interval": (parse_duration, "ble_connection_interval"),
        "ble_jitter_max": (parse_duration, "ble_jitter_max"),
        "slot_guard": (parse_duration, "slot_guard"),
        "extra_delay": (parse_duration, "extra_delay"),
        "slots": (parse_slots, "custom_slots"),
    },
    "loss": {
        "default_loss": (parse_number, "default_loss"),
        "p_good_to_bad": (parse_number, "p_good_to_bad"),
        "p_bad_to_good": (parse_number, "p_bad_to_good"),
        "loss_good": (parse_number, "loss_good"),
        "loss_bad": (parse_number, "loss_bad"),
        "per_channel": (parse_per_channel, "per_channel_loss"),
    },
}


def _read_sections(path: Path) -> dict[str, dict[str, object]]:
    """Parse and type-check the file into {section: {field: value}}."""
    sections: dict[str, dict[str, object]] = {}
    seen: set[tuple[str, str]] = set()
    current: str | None = None
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", path=str(path)) from exc

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in SCHEMA:
                raise ConfigError(f"unknown section [{current}]",
                                  path=str(path), line=lineno)
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}",
                              path=str(path), line=lineno)
        if current is None:
            raise ConfigError("key outside of any [section]",
                              path=str(path), line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in SCHEMA[current]:
            raise ConfigError(f"unknown key {key!r} in [{current}]",
                              path=str(path), line=lineno)
        if (current, key) in seen:
            raise ConfigError(f"duplicate key {key!r} in [{current}]",
                              path=str(path), line=lineno)
        seen.add((current, key))
        parser, field = SCHEMA[current][key]
        try:
            sections[current][field] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}",
                              path=str(path), line=lineno) from exc
    return sections


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Build a validated ScenarioConfig from a config file.

    The scenario label defaults to the file stem. When no [gains] section
    is present the controller gains are tuned for the resolved control
    cycle at run time; when present, listed keys override the shipped
    defaults.
    """
    path = Path(path)
    sections = _read_sections(path)
    try:
        kwargs: dict[str, object] = {}
        if "plant" in sections:
            kwargs["plant"] = PlantParams(**sections["plant"])
        if "noise" in sections:
            kwargs["noise"] = SensorNoise(**sections["noise"])
        if "mac" in sections:
            kwargs["mac"] = MacConfig(**sections["mac"])
        if "loss" in sections:
            kwargs["channel"] = ChannelModel(**sections["loss"])
        if "gains" in sections:
            kwargs["gains"] = replace(DEFAULT_GAINS, **sections["gains"])
        kwargs.update(sections.get("scenario", {}))
        kwargs.setdefault("label", path.stem)
        return ScenarioConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc), path=str(path)) from exc
