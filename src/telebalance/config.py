"""Scenarios: what one is, how a config file writes it, and which
'section.key' paths a sweep may set.

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

SECTIONS gives the ScenarioConfig field each section fills; SCHEMA reads
each key off that field's dataclass, one key per field, and the key's kind
off the field's annotation: Seconds a duration, Radians an angle, int an
integer, float a number, str text, kept as written. Unknown sections,
unknown or duplicate keys and malformed values are hard errors with a line
diagnostic, never silently ignored. A quantity is a number, optional
whitespace, then a unit of the key's kind: s, ms or us for a duration, rad
or deg for an angle, none for a plain number or an integer. The config
file requires the unit on durations and angles. A sweep value (--values)
follows the same grammar, except that a bare number on a duration or
angle key means s or rad.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .control import ControllerGains
from .plant import (DEFAULT_FALL_THRESHOLD, PlantParams, Radians, Seconds, SensorNoise,
                    _ns, check_finite, check_range)
from .wireless import BLE, GALLOP, IDEAL, ChannelModel, MacConfig

# the engine keeps one trace row per cycle (10**6 are about 50 MB), one event per sync
MAX_CYCLES = 10**6


@dataclass(frozen=True)
class ScenarioConfig:
    plant: PlantParams = PlantParams()
    noise: SensorNoise = SensorNoise()
    mac: MacConfig = MacConfig()
    channel: ChannelModel = ChannelModel()
    gains: ControllerGains | None = None   # None -> tuned for the cycle
    initial_tilt: Radians = math.radians(2.0)
    episode_duration: Seconds = 60.0
    control_cycle: Seconds | None = None     # None -> derived from mac
    seed: int = 1
    fall_threshold: Radians = DEFAULT_FALL_THRESHOLD
    label: str = "scenario"

    def resolved_cycle(self) -> float:
        if self.control_cycle is not None:
            return self.control_cycle
        return self.mac.nominal_cycle

    def __post_init__(self) -> None:
        check_finite(self)
        if not self.episode_duration > 0:
            raise ValueError(f"episode_duration must be positive, got {self.episode_duration!r}")
        # the engine counts cycles in whole ns; a 0 ns cycle never advances
        if not _ns(self.resolved_cycle()) > 0:
            raise ValueError("control_cycle must be at least 1 ns, "
                             f"got {self.resolved_cycle()!r} s")
        for key, period, unit in (("control_cycle", self.resolved_cycle(), "cycles"),
                                  ("sync_epoch_period", self.mac.sync_epoch_period, "syncs")):
            if (count := self.episode_duration / period) > MAX_CYCLES:
                raise ValueError(f"episode_duration / {key} must be at most "
                                 f"{MAX_CYCLES} {unit}, got {count:.6g}")
        if not self.fall_threshold > 0:
            raise ValueError(f"fall_threshold must be positive, got {self.fall_threshold!r}")
        check_range(self, ("seed",), 0)
        # compare names a file in --out, a CSV field and a quoted gnuplot
        # string after the label
        if not self.label or re.search(r"[/\\,'\"\x00-\x1f\x7f-\x9f]", self.label):
            raise ValueError("label must be non-empty, without / \\ , ' \" or "
                             f"control characters, got {self.label!r}")


def gallop_scenario(**overrides) -> ScenarioConfig:
    """Deterministic-link default scenario (idealized clock sync)."""
    overrides.setdefault("mac", MacConfig(variant=GALLOP))
    overrides.setdefault("label", "gallop")
    return ScenarioConfig(**overrides)


def ble_scenario(**overrides) -> ScenarioConfig:
    """Connection-interval baseline scenario (idealized clock sync)."""
    overrides.setdefault("mac", MacConfig(variant=BLE))
    overrides.setdefault("label", "ble")
    return ScenarioConfig(**overrides)


def ideal_scenario(**overrides) -> ScenarioConfig:
    """Pass-through link: zero latency and loss, isolates the control loop."""
    overrides.setdefault("mac", MacConfig(variant=IDEAL))
    overrides.setdefault("label", "ideal")
    return ScenarioConfig(**overrides)


class ConfigError(ValueError):
    def __init__(self, message: str, path: str, line: int | None = None):
        self.path = path
        self.line = line
        super().__init__(f"{path}:{line}: {message}" if line else f"{path}: {message}")


# quantity kind -> unit -> factor to the kind's base unit (s, rad)
UNITS: dict[str, dict[str, float]] = {
    "duration": {"s": 1.0, "ms": 1e-3, "us": 1e-6},
    "angle": {"rad": 1.0, "deg": math.pi / 180.0},
    "number": {},
    "integer": {},
}
_QUANTITY_RE = {kind: re.compile(r"\s*(\S+?)\s*(%s)?\s*" % "|".join(units))
                for kind, units in UNITS.items()}


def parse_quantity(kind: str, text: str, bare_is_base: bool = False) -> float | int:
    """A quantity of a kind in UNITS, in the kind's base unit.

    A duration or angle needs its unit unless bare_is_base, which reads a
    bare number in s or rad. A unit of another kind is an error.
    """
    units = UNITS[kind]
    m = _QUANTITY_RE[kind].fullmatch(text)
    if m is not None and (m[2] is not None or not units or bare_is_base):
        try:
            if kind == "integer":
                return int(m[1])
            return float(m[1]) * units.get(m[2], 1.0)
        except ValueError:
            pass
    expected = f"'<number> {'|'.join(units)}'" if units else f"a bare {kind}"
    raise ValueError(f"expected {expected}, got {text!r}")


# section -> the ScenarioConfig field it fills; [scenario] keys are
# ScenarioConfig's own fields
SECTIONS: dict[str, str | None] = {"scenario": None, "plant": "plant", "noise": "noise",
                                   "gains": "gains", "mac": "mac", "loss": "channel"}


# a field's annotation, less any ' | None' -> its key's kind; an annotation
# outside this table fails the import
_ANNOTATION_KINDS = {"Seconds": "duration", "Radians": "angle", "int": "integer",
                     "float": "number", "str": "text"}


def _section_fields(field: str | None) -> tuple:
    """The fields a section's keys set: ScenarioConfig's own for
    [scenario], else those of the value _extend extends."""
    if field is None:
        return tuple(f for f in fields(ScenarioConfig) if f.name not in SECTIONS.values())
    default = getattr(ScenarioConfig, field)
    return fields(ControllerGains if default is None else default)


# section -> key -> kind, from the fields each section sets, each by its name
SCHEMA: dict[str, dict[str, str]] = {
    section: {f.name: _ANNOTATION_KINDS[f.type.removesuffix(" | None")]
              for f in _section_fields(field)}
    for section, field in SECTIONS.items()}


def _extend(value, keys: dict):
    """value with keys set, or ControllerGains() with them where value is None
    (gains tuned at run time): what a partial section or a sweep path sets."""
    return replace(ControllerGains() if value is None else value, **keys)


def _numeric_key(path: str) -> tuple[str, str, str]:
    """(section, key, kind) of a numeric 'section.key' path; a bare key is a
    [scenario] key."""
    section, key = path.split(".", 1) if "." in path else ("scenario", path)
    kind = SCHEMA.get(section, {}).get(key)
    if kind is None:
        raise ValueError(f"unknown parameter path {path!r}")
    if kind not in UNITS:
        raise ValueError(f"non-numeric parameter path {path!r}")
    return section, key, kind


def parse_sweep_values(path: str, text: str) -> list[float | int]:
    """The comma-separated --values of a sweep over the key at path."""
    kind = _numeric_key(path)[2]
    try:
        return [parse_quantity(kind, item, bare_is_base=True)
                for item in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"sweep value for {path}: {exc}") from None


def set_by_path(cfg: ScenarioConfig, path: str, value) -> ScenarioConfig:
    """Copy of cfg with the numeric key at a 'section.key' path set to value.

    Paths are the config file's names (mac.extra_delay, loss.default_loss,
    scenario.seed) or a bare [scenario] key. An integer key rejects a
    non-integral value, and the copy's own checks reject an invalid one.
    Setting a gain of a scenario whose gains are tuned at run time starts
    from the shipped defaults, as a partial [gains] section does.
    """
    section, key, kind = _numeric_key(path)
    if kind == "integer":
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(f"parameter {path!r} takes an integer, got {value!r}")
        value = int(value)
    else:
        value = float(value)
    field = SECTIONS[section]
    if field is None:
        return replace(cfg, **{key: value})
    return replace(cfg, **{field: _extend(getattr(cfg, field), {key: value})})


def _read_sections(path: Path) -> tuple[dict[str, dict[str, object]], dict]:
    """Parse and type-check the file into {section: {field: value}}, and
    {key: (line, value as written)}; SCHEMA's key names are distinct
    across sections, so a bare key names one line."""
    sections: dict[str, dict[str, object]] = {}
    written: dict[str, tuple[int, str]] = {}
    current: str | None = None
    try:
        # the BOM goes after decoding, so a bad byte's position is its file offset
        text = path.read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:  # name the line of the bad byte
        # by the parser's rule, str.splitlines, with "." for the bad byte
        lineno = len((exc.object[:exc.start].decode() + ".").splitlines())
        raise ConfigError(str(exc), path=str(path), line=lineno) from exc
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise ConfigError(f"cannot read config: {exc}", path=str(path)) from exc
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1].strip()
                if current not in SCHEMA:
                    raise ValueError(f"unknown section [{current}]")
                sections.setdefault(current, {})
                continue
            if "=" not in line:
                raise ValueError(f"expected 'key = value', got {line!r}")
            if current is None:
                raise ValueError("key outside of any [section]")
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in SCHEMA[current]:
                raise ValueError(f"unknown key {key!r} in [{current}]")
            if key in sections[current]:
                raise ValueError(f"duplicate key {key!r} in [{current}]")
            written[key] = lineno, value
            kind = SCHEMA[current][key]
            try:
                sections[current][key] = value if kind == "text" \
                    else parse_quantity(kind, value)
            except ValueError as exc:
                raise ValueError(f"bad value for {key!r}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc), path=str(path), line=lineno) from exc
    return sections, written


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Build a validated ScenarioConfig from a config file.

    The scenario label defaults to the file stem. When no [gains] section
    is present the controller gains are tuned for the resolved control
    cycle at run time; when present, listed keys override the shipped
    defaults.
    """
    path = Path(path)
    sections, written = _read_sections(path)
    try:
        kwargs = dict(sections.pop("scenario", {}))
        for section, values in sections.items():
            # a dataclass keeps a field's default as its class attribute
            field = SECTIONS[section]
            kwargs[field] = _extend(getattr(ScenarioConfig, field), values)
        kwargs.setdefault("label", path.stem)
        return ScenarioConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        # a rule on one key ("<key> must ...") names the line that set it
        spot = written.get(str(exc).partition(" must ")[0])
        if spot is None:
            raise ConfigError(str(exc), path=str(path)) from exc
        raise ConfigError(f"{exc} (written: {spot[1]})", path=str(path),
                          line=spot[0]) from exc
