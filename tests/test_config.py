"""The config schema: it covers every numeric field of the scenario
dataclasses, and no text, from a config file or a sweep's --values, gets
past the parser as anything but a value or a config error."""

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telebalance.config import (
    _ANNOTATION_KINDS,
    _PARSERS,
    SCHEMA,
    SECTIONS,
    UNITS,
    ConfigError,
    ScenarioConfig,
    ble_scenario,
    gallop_scenario,
    ideal_scenario,
    load_scenario,
    parse_sweep_values,
)
from telebalance.control import DEFAULT_GAINS
from telebalance.wireless import ChannelModel, MacConfig

NUMERIC_ANNOTATIONS = ("int", "float", "float | None", "Seconds", "Seconds | None",
                       "Radians")


def section_fields(section: str) -> tuple:
    """The fields of the value a section extends: ScenarioConfig's default
    for the field it fills, or the shipped gains."""
    field = SECTIONS[section]
    default = ScenarioConfig() if field is None else getattr(ScenarioConfig, field)
    return fields(DEFAULT_GAINS if default is None else default)


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
    if kind == "per_channel":
        entries = draw(st.lists(st.tuples(NUMBER, NUMBER), min_size=1, max_size=3))
        return ", ".join(f"{ch}:{p}" for ch, p in entries)
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


@pytest.mark.parametrize("make, channel, used", [
    (gallop_scenario, 500, "gallop uses channels 0-36 and 37-73"),
    (gallop_scenario, -1, "gallop uses channels 0-36 and 37-73"),
    (ble_scenario, 40, "ble_baseline uses channels 0-36"),
    (ble_scenario, 37, "ble_baseline uses channels 0-36")])
def test_loss_floor_on_a_channel_the_link_never_uses_rejected(make, channel, used):
    # the floor could not take effect: no frame is ever sent on that channel
    with pytest.raises(ValueError, match=f"per_channel channel {channel} "
                                         f"is never used: {used}"):
        make(channel=ChannelModel(per_channel=((3, 0.1), (channel, 0.5))))


@pytest.mark.parametrize("make, channel", [
    (gallop_scenario, 0), (gallop_scenario, 40), (gallop_scenario, 73),
    (ble_scenario, 0), (ble_scenario, 36), (ideal_scenario, 500)])
def test_loss_floor_on_a_channel_the_link_uses_accepted(make, channel):
    # the ideal link reads no [loss] key, like any key a variant does not read
    floors = ((channel, 0.5),)
    assert make(channel=ChannelModel(per_channel=floors)).channel.per_channel \
        == floors


@pytest.mark.parametrize("channel, used", [(0, True), (37, True), (1, False),
                                           (36, False)])
def test_loss_floor_on_a_channel_the_hop_skips_rejected(channel, used):
    # 36 channels and a 2-slot superframe share the factor 2: forward frames
    # hop over 0, 2, ..., 34 only, feedback frames over 37, 39, ..., 71
    mac = MacConfig(channel_count=36, hop_increment=7)
    floors = ChannelModel(per_channel=((channel, 0.5),))
    if used:
        assert gallop_scenario(mac=mac, channel=floors).channel == floors
    else:
        with pytest.raises(ValueError, match=(
                f"per_channel channel {channel} is never used: gallop uses "
                r"channels 0-35 \(offset % 2 in \[0\]\) and 36-71 \(offset % 2 in \[1\]\)")):
            gallop_scenario(mac=mac, channel=floors)


def test_loss_floor_follows_the_gallop_bands():
    # FDD by construction: forward frames use channels 0 to channel_count - 1,
    # feedback frames the next channel_count
    mac = MacConfig(channel_count=5, hop_increment=2)
    floors = tuple((ch, 0.5) for ch in range(10))
    assert gallop_scenario(mac=mac, channel=ChannelModel(per_channel=floors))
    with pytest.raises(ValueError, match="per_channel channel 10 is never used: "
                                         "gallop uses channels 0-4 and 5-9"):
        gallop_scenario(mac=mac, channel=ChannelModel(per_channel=((10, 0.5),)))


@pytest.mark.parametrize("section", SECTIONS)
def test_every_schema_key_is_its_field_name(section):
    # a key sets the field of its own name, and every field of a section's
    # value is a key, in field order: no layer renames one, and no field is
    # derived (only [scenario]'s fields that are whole sections are not keys)
    names = [f.name for f in section_fields(section)]
    if SECTIONS[section] is None:
        names = [name for name in names if name not in SECTIONS.values()]
    assert list(SCHEMA[section]) == names


def test_every_parser_and_annotation_kind_is_some_key_kind():
    # SCHEMA reads each key's kind off _ANNOTATION_KINDS, and _PARSERS
    # reads the values of a kind: an entry that no key uses is grammar a
    # deleted key left behind
    kinds = {kind for keys in SCHEMA.values() for kind in keys.values()}
    assert set(_ANNOTATION_KINDS.values()) == kinds
    assert set(_PARSERS) <= kinds


def test_mac_without_clock_keys_loads_the_idealized_clock(tmp_path):
    # one default: a file that omits the clock keys gets the library's clock
    path = tmp_path / "bare.cfg"
    path.write_text("[mac]\nvariant = gallop\n", encoding="utf-8")
    mac = load_scenario(path).mac
    assert (mac.clock_drift_ppm, mac.sync_error_bound) == (0.0, 0.0)
    assert mac == MacConfig() == gallop_scenario().mac


@pytest.mark.parametrize("make, name", [(gallop_scenario, "gallop_default.cfg"),
                                        (ble_scenario, "ble_default.cfg")])
def test_library_scenario_is_the_shipped_file(config_dir, make, name):
    # the tests run the library scenarios, the README and the CLI the files
    assert make() == load_scenario(config_dir / name)
