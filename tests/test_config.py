"""The config schema: it covers every numeric field of the scenario
dataclasses, and no text, from a config file or a sweep's --values, gets
past the parser as anything but a value or a config error."""

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telebalance.config import (
    _ANNOTATION_KINDS,
    SCHEMA,
    SECTIONS,
    UNITS,
    ConfigError,
    ScenarioConfig,
    ble_scenario,
    gallop_scenario,
    load_scenario,
    parse_sweep_values,
)
from telebalance.control import ControllerGains
from telebalance.plant import PlantParams, SensorNoise
from telebalance.wireless import ChannelModel, MacConfig

NUMERIC_ANNOTATIONS = ("int", "float", "float | None", "Seconds", "Seconds | None",
                       "Radians")


def section_fields(section: str) -> tuple:
    """The fields of the value a section extends: ScenarioConfig's default
    for the field it fills, or the shipped gains."""
    field = SECTIONS[section]
    default = ScenarioConfig() if field is None else getattr(ScenarioConfig, field)
    return fields(ControllerGains if default is None else default)


@pytest.mark.parametrize("section", SECTIONS)
def test_numeric_fields_are_the_numeric_schema_keys(section):
    numeric = {f.name for f in section_fields(section)
               if f.type in NUMERIC_ANNOTATIONS}
    assert numeric
    assert numeric == {k for k, kind in SCHEMA[section].items() if kind in UNITS}


def test_duration_and_angle_keys_are_the_listed_twelve():
    # a key's kind is its field's annotation: Seconds or Radians (or
    # Seconds | None) reads the unit, float a bare number; a field given
    # either alias shows up here
    assert {(section, key): kind for section, keys in SCHEMA.items()
            for key, kind in keys.items() if kind in ("duration", "angle")} == {
        ("scenario", "episode_duration"): "duration",
        ("scenario", "control_cycle"): "duration",
        ("scenario", "initial_tilt"): "angle",
        ("scenario", "fall_threshold"): "angle",
        ("plant", "motor_time_constant"): "duration",
        ("mac", "slot_duration"): "duration",
        ("mac", "sync_epoch_period"): "duration",
        ("mac", "sync_error_bound"): "duration",
        ("mac", "ble_connection_interval"): "duration",
        ("mac", "ble_jitter_max"): "duration",
        ("mac", "slot_guard"): "duration",
        ("mac", "extra_delay"): "duration",
    }


EXTREME = st.sampled_from(["1e300", "-1e300", "1e-300", "-1e-300", "nan",
                           "inf", "-inf", "0", "-1", "1e999"])
NUMBER = st.one_of(EXTREME, st.floats().map(repr), st.integers().map(str))
ANY_UNIT = st.sampled_from(["", " "] + [u for units in UNITS.values() for u in units])


@st.composite
def quantity(draw, kind: str | None = None) -> str:
    """A number with a unit of the kind, or any unit when kind is None."""
    units = UNITS.get(kind) if kind else None
    unit = draw(st.sampled_from(sorted(units)) if units else ANY_UNIT)
    return f"{draw(NUMBER)} {unit}".strip()


@st.composite
def value_text(draw, kind: str) -> str:
    if kind == "text":
        return draw(st.sampled_from(["gallop", "ble_baseline", "ideal", "x"]))
    return draw(quantity(kind))


KEYS = [(section, key) for section, keys in SCHEMA.items() for key in keys]


@st.composite
def config_text(draw) -> str:
    """A few keys, so that one bad value is often the only one and reaches
    the checks behind the others."""
    chosen = draw(st.lists(st.sampled_from(KEYS), unique=True, min_size=1,
                           max_size=3))
    lines = []
    for section in SCHEMA:
        keys = [key for s, key in chosen if s == section]
        if keys:
            lines.append(f"[{section}]")
            lines += [f"{key} = {draw(value_text(SCHEMA[section][key]))}"
                      for key in keys]
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(text=config_text())
def test_load_scenario_returns_a_config_or_raises_config_error(
        tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_text(text, encoding="utf-8")
    try:
        assert isinstance(load_scenario(path), ScenarioConfig)
    except ConfigError:
        pass


SWEEP_PATHS = [f"{section}.{key}" for section, key in KEYS] \
    + ["episode_duration", "mac", "mac.nonsense", ""]


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(SWEEP_PATHS),
       items=st.lists(st.one_of(quantity(), st.text(max_size=8)), max_size=4))
def test_parse_sweep_values_returns_values_or_raises_value_error(path, items):
    try:
        values = parse_sweep_values(path, ",".join(items))
    except ValueError:
        return
    assert values and all(isinstance(v, (int, float)) for v in values)


def test_a_billion_cycles_rejected_at_construction_naming_both_keys():
    # one record per cycle: this episode would hold 1e9 of them
    with pytest.raises(ValueError,
                       match=r"episode_duration / control_cycle must be at most "
                             r"1000000 cycles, got 1e\+09"):
        ScenarioConfig(episode_duration=1.0, control_cycle=1e-9,
                       mac=MacConfig(variant="ideal"))


@pytest.mark.parametrize("section", SECTIONS)
def test_every_schema_key_is_its_field_name(section):
    # a key sets the field of its own name, and every field of a section's
    # value is a key, in field order: no layer renames one, and no field is
    # derived (only [scenario]'s fields that are whole sections are not keys)
    names = [f.name for f in section_fields(section)]
    if SECTIONS[section] is None:
        names = [name for name in names if name not in SECTIONS.values()]
    assert list(SCHEMA[section]) == names


def test_schema_key_names_are_distinct_across_sections():
    # load_scenario finds the line of a rule's key by its bare name
    names = [key for keys in SCHEMA.values() for key in keys]
    assert len(names) == len(set(names))


def test_every_parser_and_annotation_kind_is_some_key_kind():
    # SCHEMA reads each key's kind off _ANNOTATION_KINDS, and the reader
    # keeps a text value as written and parses any other as a UNITS
    # quantity: an entry that no key uses is grammar a deleted key left
    # behind, and a kind outside UNITS but text has no parser
    kinds = {kind for keys in SCHEMA.values() for kind in keys.values()}
    assert set(_ANNOTATION_KINDS.values()) == kinds
    assert kinds - set(UNITS) == {"text"}


def test_mac_without_clock_keys_loads_the_idealized_clock(tmp_path):
    # one default: a file that omits the clock keys gets the library's clock
    path = tmp_path / "bare.cfg"
    path.write_text("[mac]\nvariant = gallop\n", encoding="utf-8")
    mac = load_scenario(path).mac
    assert (mac.clock_drift_ppm, mac.sync_error_bound) == (0.0, 0.0)
    assert mac == MacConfig() == gallop_scenario().mac


@pytest.mark.parametrize("make, field", [(PlantParams, "plant"), (SensorNoise, "noise"),
                                         (MacConfig, "mac"), (ChannelModel, "channel")])
def test_each_config_object_defaults_to_the_scenarios_value(make, field):
    # one default per key: an object built in code holds what
    # ScenarioConfig(), and so a file that omits the key, holds
    assert make() == getattr(ScenarioConfig(), field)


@pytest.mark.parametrize("text, field, built", [
    ("[noise]\ngyro_noise_std = 0.001\n", "noise", SensorNoise(gyro_noise_std=0.001)),
    ("[gains]\nkp_tilt = 10\n", "gains", ControllerGains(kp_tilt=10.0))],
    ids=["noise", "gains"])
def test_partial_section_loads_as_the_object_built_with_its_keys(tmp_path, text,
                                                                 field, built):
    path = tmp_path / "partial.cfg"
    path.write_text(text, encoding="utf-8")
    assert getattr(load_scenario(path), field) == built


@pytest.mark.parametrize("make, name", [(gallop_scenario, "gallop_default.cfg"),
                                        (ble_scenario, "ble_default.cfg")])
def test_library_scenario_is_the_shipped_file(config_dir, make, name):
    # the tests run the library scenarios, the README and the CLI the files
    assert make() == load_scenario(config_dir / name)
