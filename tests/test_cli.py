import hashlib
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import telebalance
from telebalance import cli, sim
from telebalance.cli import main
from telebalance.config import (
    DEFAULT_NOISE,
    ConfigError,
    load_scenario,
    parse_quantity,
    parse_sweep_values,
    set_by_path,
)

GALLOP_SHORT = """\
[scenario]
episode_duration = 1 s
initial_tilt = 2 deg
seed = 5

[mac]
variant = gallop
clock_drift_ppm = 0
sync_error_bound = 0 us
"""

BLE_SHORT = """\
[scenario]
episode_duration = 1 s
initial_tilt = 2 deg

[mac]
variant = ble_baseline
clock_drift_ppm = 0
sync_error_bound = 0 us
"""


def write_cfg(tmp_path: Path, text: str, name: str = "scenario.cfg") -> Path:
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this checkout's telebalance."""
    env = {**os.environ, "PYTHONPATH": str(Path(telebalance.__file__).parents[1])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


class TestConfigParsing:
    def test_duration_suffix_required(self):
        assert parse_quantity("duration", "2 ms") == pytest.approx(0.002)
        assert parse_quantity("duration", "1 s") == 1.0
        assert parse_quantity("duration", "250 us") == pytest.approx(250e-6)
        assert parse_quantity("duration", "2ms") == parse_quantity("duration", "2 ms")
        with pytest.raises(ValueError):
            parse_quantity("duration", "2")
        with pytest.raises(ValueError):
            parse_quantity("duration", "2 minutes")
        with pytest.raises(ValueError):
            parse_quantity("duration", "2 deg")

    def test_load_shipped_configs(self, config_dir):
        for name in ("gallop_default.cfg", "ble_default.cfg", "delay_sweep.cfg"):
            cfg = load_scenario(config_dir / name)
            assert cfg.episode_duration > 0
        gallop = load_scenario(config_dir / "gallop_default.cfg")
        assert gallop.label == "gallop"
        assert gallop.mac.variant == "gallop"
        assert gallop.mac.clock_drift_ppm == 0.0

    @pytest.mark.parametrize("name", ["gallop_default.cfg", "ble_default.cfg",
                                      "delay_sweep.cfg"])
    def test_shipped_config_with_bom_or_crlf_loads_the_same(
            self, tmp_path, config_dir, name):
        text = (config_dir / name).read_text(encoding="utf-8")
        plain = load_scenario(config_dir / name)
        for variant, content in (("bom", "\ufeff" + text),
                                 ("crlf", text.replace("\n", "\r\n"))):
            copy = tmp_path / variant / name
            copy.parent.mkdir()
            copy.write_bytes(content.encode("utf-8"))
            assert load_scenario(copy) == plain, variant
        if name == "gallop_default.cfg":
            assert main(["run", str(tmp_path / "bom" / name),
                         "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("text, line, message", [
        ("[radio]\n", 1, "unknown section [radio]"),
        ("[radio]\nvariant = gallop\n", 1, "unknown section [radio]"),
        ("[mac]\nvariant gallop\n", 2, "expected 'key = value', got 'variant gallop'"),
        ("seed = 1\n", 1, "key outside of any [section]"),
        ("[mac]\nsloot_duration = 1 ms\n", 2, "unknown key 'sloot_duration' in [mac]"),
        ("[scenario]\nseed = 1\nseed = 2\n", 3, "duplicate key 'seed' in [scenario]"),
        ("[scenario]\nseed = 1\nepisode_duration = 60\n", 3,
         "bad value for 'episode_duration': expected '<number> s|ms|us', got '60'"),
    ])
    def test_every_rejection_names_path_and_line(self, tmp_path, text, line, message):
        p = write_cfg(tmp_path, text)
        with pytest.raises(ConfigError) as info:
            load_scenario(p)
        assert (str(info.value), info.value.path, info.value.line) == (
            f"{p}:{line}: {message}", str(p), line)

    @pytest.mark.parametrize("data, line, offset", [
        (b"[scenario]\nlabel = caf\xe9\n", 2, 22),                   # Latin-1
        ("[scenario]\nlabel = caf\u00e9\n".encode("utf-16"), 1, 0),  # BOM ff fe
        (b"\xef\xbb\xbf[scenario]\nlabel = caf\xe9\n", 2, 25),       # UTF-8 BOM
    ], ids=["latin-1", "utf-16", "utf-8-bom-latin-1"])
    def test_non_utf8_file_exit_2_names_path_and_line(self, tmp_path, capsys,
                                                      data, line, offset):
        p = tmp_path / "scenario.cfg"
        p.write_bytes(data)
        assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        # the position is the bad byte's offset in the file, BOM included
        assert err.startswith(f"error: {p}:{line}: 'utf-8' codec can't decode "
                              f"byte {data[offset]:#04x} in position {offset}:")
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_path_with_a_nul_names_the_path_and_no_line(self):
        # reachable through the API only: argv cannot hold a NUL
        with pytest.raises(ConfigError) as info:
            load_scenario("a\x00b.cfg")
        assert (str(info.value), info.value.path, info.value.line) == (
            "a\x00b.cfg: cannot read config: embedded null byte", "a\x00b.cfg", None)

    def test_negative_config_seed_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, GALLOP_SHORT.replace("seed = 5", "seed = -1"))
        with pytest.raises(ConfigError, match="seed"):
            load_scenario(cfg)

    def test_label_defaults_to_file_stem(self, tmp_path):
        p = write_cfg(tmp_path, GALLOP_SHORT, name="my_experiment.cfg")
        assert load_scenario(p).label == "my_experiment"

    def test_partial_gains_extend_shipped_defaults(self, tmp_path):
        p = write_cfg(tmp_path, GALLOP_SHORT + "\n[gains]\nkp_tilt = 10\n")
        cfg = load_scenario(p)
        assert cfg.gains.kp_tilt == 10.0
        assert cfg.gains.kd_tilt == 1.5  # untouched shipped value

    def test_partial_noise_extends_scenario_default_as_a_sweep_does(self, tmp_path):
        partial = load_scenario(write_cfg(
            tmp_path, GALLOP_SHORT + "\n[noise]\ngyro_noise_std = 0.01\n"))
        swept = set_by_path(load_scenario(write_cfg(tmp_path, GALLOP_SHORT, "b.cfg")),
                            "noise.gyro_noise_std", 0.01)
        assert partial.noise == swept.noise
        assert partial.noise.accel_noise_std == DEFAULT_NOISE.accel_noise_std

    def test_custom_slot_layout_parses(self, tmp_path):
        text = GALLOP_SHORT + \
            "slots = forward, 0 ms, 1 ms; feedback, 1 ms, 1 ms\n"
        cfg = load_scenario(write_cfg(tmp_path, text))
        assert cfg.mac.slots == (("forward", 0.0, 1e-3), ("feedback", 1e-3, 1e-3))

    def test_slot_with_a_band_exit_2_shows_the_three_field_form(self, tmp_path,
                                                                 capsys):
        # a slot's direction picks its band: the old fourth field is an error
        cfg = write_cfg(tmp_path, GALLOP_SHORT +
                        "slots = forward, 0 ms, 1 ms, 0; feedback, 1 ms, 1 ms, 1\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "needs 'direction, start, duration'" in err
        assert "Traceback" not in err


class TestCmdRun:
    def test_valid_run_writes_artifacts(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, GALLOP_SHORT)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        trace = (out / "trace.csv").read_text()
        metrics = (out / "metrics.txt").read_text()
        assert trace.count("\n") == 1 + 500  # header + one row per 2 ms cycle
        assert "latency_variance_ms2=0.0" in metrics

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_cfg(tmp_path, GALLOP_SHORT)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", str(cfg), "--out", str(out_a), "--seed", "42"])
        main(["run", str(cfg), "--out", str(out_b)])
        assert (out_a / "trace.csv").read_bytes() != (out_b / "trace.csv").read_bytes()

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, GALLOP_SHORT)
        out = tmp_path / "out"
        main(["run", str(cfg), "--out", str(out)])
        h1 = hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest()
        main(["run", str(cfg), "--out", str(out)])
        h2 = hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest()
        assert h1 == h2

    def test_overlapping_slots_exit_2_names_slots(self, tmp_path, capsys):
        text = GALLOP_SHORT + \
            "slots = forward, 0 ms, 1 ms; feedback, 0.5 ms, 1 ms\n"
        cfg = write_cfg(tmp_path, text)
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "slots 0 and 1 overlap" in err

    def test_more_than_1000_slots_exit_2_names_slots(self, tmp_path, capsys):
        slots = "; ".join(f"{'feedback' if i % 2 else 'forward'}, {i} ms, 1 ms"
                          for i in range(1001))
        cfg = write_cfg(tmp_path, GALLOP_SHORT + f"slots = {slots}\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "slots must hold 1 to 1000 slots, got 1001" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("slots, message", [
        ("forward, -2 ms, 1 ms; feedback, 0 ms, 1 ms",
         "slot 0 starts before the superframe"),
        ("forward, 0 ms, 0.05 ms; feedback, 1 ms, 1 ms",
         "slot 0 duration must exceed slot_guard")])
    def test_slot_that_delivers_before_ready_exit_2_names_it(
            self, tmp_path, capsys, slots, message):
        cfg = write_cfg(tmp_path, GALLOP_SHORT + f"slots = {slots}\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("variant", ["ble_baseline", "ideal"])
    def test_slots_on_non_gallop_variant_exit_2(self, tmp_path, capsys, variant):
        # overlapping too: a layout the link would not use
        text = BLE_SHORT.replace("ble_baseline", variant) + \
            "slots = forward, 0 ms, 1 ms; feedback, 0 ms, 1 ms\n"
        cfg = write_cfg(tmp_path, text)
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "slots" in err and variant in err
        assert "Traceback" not in err

    def test_channel_listed_twice_exit_2_names_it(self, tmp_path, capsys):
        # one floor per channel: neither entry may win silently
        cfg = write_cfg(tmp_path, GALLOP_SHORT + "\n[loss]\nper_channel = 3:0.1, 3:0.5\n")
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "per_channel lists channel 3 twice" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("text, used", [
        (GALLOP_SHORT, "gallop uses channels 0-36 and 37-73"),
        (BLE_SHORT, "ble_baseline uses channels 0-36")])
    def test_loss_floor_on_an_unused_channel_exit_2_names_the_range(
            self, tmp_path, capsys, text, used):
        cfg = write_cfg(tmp_path, text + "\n[loss]\nper_channel = 3:0.1, 500:1.0\n")
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"per_channel channel 500 is never used: {used}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("channel", [1, 36])
    def test_loss_floor_on_a_channel_the_hop_skips_exit_2_names_it(
            self, tmp_path, capsys, channel):
        # on 36 channels the 2-slot gallop link hops over every other one
        cfg = write_cfg(tmp_path, GALLOP_SHORT + "channel_count = 36\n"
                        f"\n[loss]\nper_channel = 0:0.1, {channel}:1.0\n")
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"per_channel channel {channel} is never used" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_clock_a_million_times_fast_exit_2(self, tmp_path, capsys, monkeypatch):
        # rejected as the config loads: an episode at this drift would not finish
        def no_episode(cfg):
            raise AssertionError("episode started")
        monkeypatch.setattr(cli, "run_episode", no_episode)
        cfg = write_cfg(tmp_path, GALLOP_SHORT.replace(
            "clock_drift_ppm = 0", "clock_drift_ppm = 1e11"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "clock_drift_ppm must be in (-1e6, 1e6)" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("lag", ["1e-9 s", "1e-300 s"])
    def test_motor_lag_below_the_substep_exit_2_names_key(self, tmp_path, capsys,
                                                          lag):
        # RK4 at 0.5 ms cannot follow these lags: 1e-9 s fell at 0.5 ms, and
        # 1e-300 s left the plant state non-finite
        cfg = write_cfg(tmp_path, f"[plant]\nmotor_time_constant = {lag}\n\n"
                                  "[mac]\nvariant = ideal\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "motor_time_constant must be 0 (an instant motor)" in err
        assert "Traceback" not in err

    def test_billion_cycle_episode_exit_2_before_any_episode(self, tmp_path, capsys,
                                                             monkeypatch):
        # before the bound, this config reached 1.9 GB of records in 2 minutes
        def no_episode(cfg):
            raise AssertionError("episode started")
        monkeypatch.setattr(cli, "run_episode", no_episode)
        monkeypatch.setattr(sim, "run_episode", no_episode)
        cfg = write_cfg(tmp_path, "[scenario]\nepisode_duration = 1 s\n"
                                  "control_cycle = 1e-9 s\n\n[mac]\nvariant = ideal\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        ok = write_cfg(tmp_path, GALLOP_SHORT, "ok.cfg")
        assert main(["sweep", str(ok), "--param", "scenario.control_cycle",
                     "--values", "2ms,1e-9", "--out", str(tmp_path / "s")]) == 2
        err = capsys.readouterr().err
        assert err.count("episode_duration / control_cycle must be at most "
                         "1000000 cycles") == 2
        assert "Traceback" not in err

    def test_sync_every_ns_exit_2_within_a_second(self, tmp_path, capsys):
        # one event per sync: 6e10 of them would run for days
        cfg = write_cfg(tmp_path, GALLOP_SHORT.replace("episode_duration = 1 s",
                                                       "episode_duration = 60 s")
                        + "sync_epoch_period = 1e-9 s\n")
        start = time.perf_counter()
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "episode_duration / sync_epoch_period must be at most 1000000 syncs, " \
               "got 6e+10" in err
        assert "Traceback" not in err

    def test_overflowing_cycle_exit_2_with_one_stderr_line(self, tmp_path):
        # a 100 s cycle overflows the tuner's span map of the plant; numpy's
        # RuntimeWarnings would be further stderr lines
        cfg = write_cfg(tmp_path, "[scenario]\ncontrol_cycle = 100 s\n\n"
                                  "[mac]\nvariant = ideal\n")
        proc = run_python("-m", "telebalance.cli", "run", str(cfg),
                          "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert "Warning" not in proc.stderr
        assert proc.stderr.splitlines() == [
            "error: no searched gain set stabilizes a 100000.0 ms cycle"]

    def test_misspelled_key_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[mac]\nvariannt = gallop\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_fall_at_start_still_writes_all_artifacts(self, tmp_path):
        # robot starts beyond the fall threshold: falls at the first substep
        text = GALLOP_SHORT.replace("initial_tilt = 2 deg",
                                    "initial_tilt = 50 deg")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert (out / "trace.csv").exists()
        assert "fell=true" in (out / "metrics.txt").read_text()

    def test_negative_seed_flag_exit_2_names_flag(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, GALLOP_SHORT)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, GALLOP_SHORT)
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        rc = main(["run", str(cfg), "--out", str(blocker / "out")])
        assert rc == 1
        assert "i/o error" in capsys.readouterr().err


class TestCmdCompare:
    def test_two_scenarios_compare(self, tmp_path):
        a = write_cfg(tmp_path, GALLOP_SHORT, "gallop_s.cfg")
        b = write_cfg(tmp_path, BLE_SHORT, "ble_s.cfg")
        out = tmp_path / "cmp"
        rc = main(["compare", "--scenario", str(a), "--scenario", str(b),
                   "--seeds", "2", "--out", str(out)])
        assert rc == 0
        comparison = (out / "comparison.csv").read_text().splitlines()
        assert comparison[0].startswith("label,seeds,fall_fraction")
        assert len(comparison) == 3
        # each label's .dat: its first seed's t and tilt_rate, one cycle a line
        for cfg_path, label in ((a, "gallop_s"), (b, "ble_s")):
            cfg = replace(load_scenario(cfg_path), seed=0)
            records = sim.run_episode(cfg)[0].records
            assert (out / f"{label}_trace.dat").read_text() == "".join(
                f"{r.t!r} {r.tilt_rate!r}\n" for r in records)
        plot = (out / "plot.gp").read_text()
        assert "gallop_s_trace.dat" in plot and "ble_s_trace.dat" in plot
        # gallop variance column is exactly zero, ble strictly positive
        gallop_row = next(r for r in comparison[1:] if r.startswith("gallop_s"))
        ble_row = next(r for r in comparison[1:] if r.startswith("ble_s"))
        assert float(gallop_row.split(",")[7]) == 0.0
        assert float(ble_row.split(",")[7]) > 0.0

    def test_single_scenario_usage_error(self, tmp_path, capsys):
        a = write_cfg(tmp_path, GALLOP_SHORT)
        out = tmp_path / "o"
        assert main(["compare", "--scenario", str(a), "--out", str(out)]) == 2
        assert "comparison needs at least 2 scenarios" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_seeds_usage_error(self, tmp_path):
        a = write_cfg(tmp_path, GALLOP_SHORT, "a.cfg")
        b = write_cfg(tmp_path, BLE_SHORT, "b.cfg")
        assert main(["compare", "--scenario", str(a), "--scenario", str(b),
                     "--seeds", "0", "--out", str(tmp_path / "o")]) == 2

    def test_zero_workers_usage_error(self, tmp_path, capsys):
        a = write_cfg(tmp_path, GALLOP_SHORT, "a.cfg")
        b = write_cfg(tmp_path, BLE_SHORT, "b.cfg")
        assert main(["compare", "--scenario", str(a), "--scenario", str(b),
                     "--workers", "0", "--out", str(tmp_path / "o")]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_workers_flag_writes_identical_files(self, tmp_path):
        a = write_cfg(tmp_path, GALLOP_SHORT, "gallop_s.cfg")
        b = write_cfg(tmp_path, BLE_SHORT, "ble_s.cfg")
        outs = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            assert main(["compare", "--scenario", str(a), "--scenario", str(b),
                         "--seeds", "3", "--workers", workers,
                         "--out", str(out)]) == 0
            outs.append(out)
        for name in ("comparison.csv", "gallop_s_trace.dat", "ble_s_trace.dat"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    # a label names a file in --out, a comparison.csv field and a quoted
    # string in plot.gp: these would escape --out, split the row or end
    # the string early
    @pytest.mark.parametrize("label", [
        "../escaped", "sub/dir", "back\\slash", "x,y", "it's", 'say "hi"',
        "tab\there", ""])
    def test_label_that_breaks_an_artifact_exit_2_names_key(self, tmp_path,
                                                            capsys, label):
        a = write_cfg(tmp_path, GALLOP_SHORT.replace(
            "[scenario]\n", f"[scenario]\nlabel = {label}\n"), "a.cfg")
        b = write_cfg(tmp_path, BLE_SHORT, "b.cfg")
        assert main(["compare", "--scenario", str(a), "--scenario", str(b),
                     "--seeds", "1", "--out", str(tmp_path / "o" / "out")]) == 2
        assert "label" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["a.cfg", "b.cfg"]

    def test_duplicate_labels_exit_2_names_key(self, tmp_path, capsys,
                                               config_dir):
        # both would write gallop_trace.dat, the second over the first
        cfg = str(config_dir / "gallop_default.cfg")
        out = tmp_path / "out"
        assert main(["compare", "--scenario", cfg, "--scenario", cfg,
                     "--seeds", "1", "--out", str(out)]) == 2
        assert "label" in capsys.readouterr().err
        assert not out.exists()


class TestCmdSweep:
    def test_sweep_writes_table_and_threshold_line(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, GALLOP_SHORT)
        out = tmp_path / "swp"
        rc = main(["sweep", str(cfg), "--param", "mac.extra_delay",
                   "--values", "0ms,16ms", "--seeds", "3", "--out", str(out)])
        assert rc == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0] == "value,mean_rms_tilt_rate,fall_fraction,stderr"
        assert len(rows) == 3
        assert "fall fraction" in capsys.readouterr().out

    def test_empty_values_usage_error(self, tmp_path):
        cfg = write_cfg(tmp_path, GALLOP_SHORT)
        assert main(["sweep", str(cfg), "--param", "mac.extra_delay",
                     "--values", "zz", "--seeds", "3",
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("param, values", [
        ("mac.extra_delay", "2deg"),
        ("scenario.initial_tilt", "5ms"),
        ("loss.default_loss", "1ms"),
    ])
    def test_unit_of_wrong_kind_exit_2(self, tmp_path, capsys, param, values):
        cfg = write_cfg(tmp_path, GALLOP_SHORT)
        assert main(["sweep", str(cfg), "--param", param, "--values", values,
                     "--seeds", "3", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert param in err and values in err
        assert "Traceback" not in err

    def test_unresolvable_param_usage_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, GALLOP_SHORT)
        assert main(["sweep", str(cfg), "--param", "mac.nonsense",
                     "--values", "0,1", "--seeds", "3",
                     "--out", str(tmp_path / "o")]) == 2
        assert "parameter path" in capsys.readouterr().err

    def test_too_few_seeds_usage_error(self, tmp_path):
        cfg = write_cfg(tmp_path, GALLOP_SHORT)
        assert main(["sweep", str(cfg), "--param", "mac.extra_delay",
                     "--values", "0ms", "--seeds", "2",
                     "--out", str(tmp_path / "o")]) == 2

    def test_int_param_takes_integral_values(self, tmp_path):
        cfg = write_cfg(tmp_path, GALLOP_SHORT)
        out = tmp_path / "swp"
        assert main(["sweep", str(cfg), "--param", "mac.slots_per_superframe",
                     "--values", "2,4", "--seeds", "3", "--out", str(out)]) == 0
        assert len((out / "sweep.csv").read_text().splitlines()) == 3

    def test_non_integral_int_param_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, GALLOP_SHORT)
        assert main(["sweep", str(cfg), "--param", "mac.slots_per_superframe",
                     "--values", "2,2.5", "--seeds", "3",
                     "--out", str(tmp_path / "o")]) == 2
        assert "mac.slots_per_superframe" in capsys.readouterr().err

    def test_scenario_param_path(self, tmp_path):
        cfg = write_cfg(tmp_path, GALLOP_SHORT)
        assert main(["sweep", str(cfg), "--param", "scenario.episode_duration",
                     "--values", "0.5s", "--seeds", "3",
                     "--out", str(tmp_path / "o")]) == 0

    def test_workers_flag_writes_identical_table(self, tmp_path):
        cfg = write_cfg(tmp_path, GALLOP_SHORT)
        tables = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            assert main(["sweep", str(cfg), "--param", "mac.extra_delay",
                         "--values", "0ms,16ms", "--seeds", "3",
                         "--workers", workers, "--out", str(out)]) == 0
            tables.append((out / "sweep.csv").read_bytes())
        assert tables[0] == tables[1]

    def test_zero_workers_usage_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, GALLOP_SHORT)
        assert main(["sweep", str(cfg), "--param", "mac.extra_delay",
                     "--values", "0ms", "--workers", "0",
                     "--out", str(tmp_path / "o")]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_worker_error_exit_2_without_traceback(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, GALLOP_SHORT)
        assert main(["sweep", str(cfg), "--param", "mac.slot_guard",
                     "--values", "2ms", "--seeds", "3", "--workers", "2",
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "slot_guard" in err
        assert "Traceback" not in err

    def test_worker_tuning_failure_exit_2_without_traceback(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, GALLOP_SHORT)
        assert main(["sweep", str(cfg), "--param", "scenario.control_cycle",
                     "--values", "200ms", "--seeds", "3", "--workers", "2",
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "no searched gain set stabilizes" in err
        assert "Traceback" not in err

    def test_single_value_matches_averaged_runs(self, tmp_path):
        import numpy as np

        cfg_path = write_cfg(tmp_path, GALLOP_SHORT)
        out = tmp_path / "swp"
        main(["sweep", str(cfg_path), "--param", "mac.extra_delay",
              "--values", "0ms", "--seeds", "3", "--out", str(out)])
        row = (out / "sweep.csv").read_text().splitlines()[1].split(",")

        from dataclasses import replace
        from telebalance.sim import run_episode
        base = load_scenario(cfg_path)
        rms = [run_episode(replace(base, seed=base.seed + i))[1].rms_tilt_rate
               for i in range(3)]
        assert float(row[1]) == float(np.mean(rms))

    def test_gains_param_without_gains_section_matches_gains_config(self, tmp_path):
        from dataclasses import replace
        from telebalance.config import set_by_path
        from telebalance.sim import run_episode, run_sweep

        base = load_scenario(write_cfg(tmp_path, GALLOP_SHORT))
        explicit = load_scenario(write_cfg(
            tmp_path, GALLOP_SHORT + "\n[gains]\nkp_tilt = 10\n", "gains.cfg"))
        assert base.gains is None
        swept = set_by_path(base, "gains.kp_tilt", 10)
        assert swept.gains == explicit.gains
        runs = [run_episode(replace(explicit, seed=base.seed + i))[1]
                for i in range(3)]
        assert [run_episode(replace(swept, seed=base.seed + i))[1]
                for i in range(3)] == runs
        (point,) = run_sweep(base, "gains.kp_tilt", [10], seeds_per_point=3)
        assert point.mean_rms_tilt_rate == \
            float(np.mean([m.rms_tilt_rate for m in runs]))
        assert point.fall_fraction == float(np.mean([m.fell for m in runs]))

    def test_gains_param_on_shipped_config_exits_0(self, config_dir, tmp_path):
        out = tmp_path / "swp"
        assert main(["sweep", str(config_dir / "gallop_default.cfg"),
                     "--param", "gains.kp_tilt", "--values", "1,2",
                     "--out", str(out)]) == 0
        assert len((out / "sweep.csv").read_text().splitlines()) == 3


class TestNonFiniteValues:
    @pytest.mark.parametrize("variant, section, entry", [
        ("gallop", "mac", "extra_delay = inf s"),
        ("gallop", "mac", "extra_delay = nan s"),
        ("gallop", "mac", "sync_epoch_period = inf s"),
        ("gallop", "mac", "sync_error_bound = inf s"),
        ("gallop", "mac", "clock_drift_ppm = nan"),
        ("ble_baseline", "mac", "ble_jitter_max = inf s"),
        ("gallop", "scenario", "control_cycle = inf s"),
        ("gallop", "scenario", "episode_duration = inf s"),
        ("gallop", "plant", "body_mass = inf"),
        ("gallop", "noise", "gyro_noise_std = inf"),
        ("gallop", "gains", "integral_limit = inf"),
        ("gallop", "loss", "default_loss = nan"),
        ("gallop", "mac", "extra_delay = 1e300 s"),
        ("gallop", "mac", "sync_epoch_period = 1e300 s"),
        ("gallop", "scenario", "episode_duration = 1e300 s"),
        ("gallop", "plant", "wheel_radius = 1e300"),
    ])
    def test_config_value_exit_2_names_field(self, tmp_path, capsys,
                                             variant, section, entry):
        text = f"[mac]\nvariant = {variant}\n"
        text += f"{entry}\n" if section == "mac" else f"\n[{section}]\n{entry}\n"
        cfg = write_cfg(tmp_path, text)
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{entry.split(' = ')[0]} must be finite" in err
        assert "Traceback" not in err

    def test_sweep_value_exit_2_names_field(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, GALLOP_SHORT)
        assert main(["sweep", str(cfg), "--param", "mac.extra_delay",
                     "--values", "0,1e999", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "extra_delay must be finite" in err
        assert "Traceback" not in err

    def test_oversize_sweep_value_exit_2_names_field(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, GALLOP_SHORT)
        assert main(["sweep", str(cfg), "--param", "mac.extra_delay",
                     "--values", "0,1e300s", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "extra_delay must be finite" in err
        assert "Traceback" not in err

    def test_sub_ns_control_cycle_exit_2_names_field(self, tmp_path, capsys):
        # 1e-12 s is positive but rounds to a 0 ns cycle, which never advances
        cfg = write_cfg(tmp_path, GALLOP_SHORT.replace(
            "seed = 5", "seed = 5\ncontrol_cycle = 1e-12 s"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "control_cycle must be at least 1 ns" in err
        assert "Traceback" not in err


class TestParseValues:
    def test_unit_suffixes_and_bare_numbers(self):
        # one list per kind; a bare number is in the kind's base unit
        assert parse_sweep_values("mac.extra_delay", "2ms, 5 us,1.5s,3") == [
            2 * 1e-3, 5 * 1e-6, 1.5, 3.0]
        assert parse_sweep_values("scenario.initial_tilt", "90deg,0.5rad,3") == [
            90 * (3.141592653589793 / 180.0), 0.5, 3.0]
        assert parse_sweep_values("loss.default_loss", "0.5, 3") == [0.5, 3.0]
        assert parse_sweep_values("mac.slots_per_superframe", "2, 4") == [2, 4]

    def test_unknown_suffix_rejected(self):
        with pytest.raises(ValueError, match="sweep value"):
            parse_sweep_values("mac.extra_delay", "2 min")


def test_cli_and_tuning_leave_scipy_unimported():
    proc = run_python("-c", "import sys, telebalance.cli\n"
                      "from telebalance.control import tune_default_gains\n"
                      "from telebalance.plant import PlantParams\n"
                      "tune_default_gains(PlantParams(), 0.002)\n"
                      "print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_serial_sweep_leaves_the_pool_unimported():
    # concurrent.futures (and the logging it pulls in) is imported only by a
    # batch that starts a pool
    proc = run_python("-c", "import sys, telebalance\n"
                      "from telebalance.sim import run_sweep\n"
                      "run_sweep(telebalance.gallop_scenario(episode_duration=0.1),\n"
                      "          'mac.extra_delay', [0.0], 3)\n"
                      "print('concurrent.futures' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# argv fuzz: short episodes (0.2 s) and at most 2 workers keep it to seconds
FUZZ_CONFIGS = {
    "gallop.cfg": GALLOP_SHORT.replace("= 1 s", "= 0.2 s"),
    "ble.cfg": BLE_SHORT.replace("= 1 s", "= 0.2 s"),
    "bad.cfg": "[mac]\nvariant = nonsense\n",
}
# what a malformed argv puts in place of one token: bad numbers, bad
# paths and a bad key
FUZZ_BAD = ["-1", "0", "x", "1e999", "nan", "", "0.5ms", "1e-9", "missing.cfg",
            "a_file/out", "mac.nonsense"]


@st.composite
def cli_argv(draw, base: Path) -> list[str]:
    """A valid subcommand line, or one with a token replaced by a bad one
    or a stray token inserted."""
    configs = st.sampled_from([str(base / name) for name in FUZZ_CONFIGS])
    command = draw(st.sampled_from(["run", "compare", "sweep"]))
    argv = [command]
    if command == "run":
        argv += [draw(configs), "--seed", draw(st.sampled_from(["0", "3"]))]
    elif command == "compare":
        for _ in range(draw(st.integers(2, 3))):
            argv += ["--scenario", draw(configs)]
        argv += ["--seeds", draw(st.sampled_from(["1", "2"])),
                 "--workers", draw(st.sampled_from(["1", "2"]))]
    else:
        values = st.lists(st.sampled_from(["0", "1e-3", "0.02", "2"]),
                          min_size=1, max_size=2)
        argv += [draw(configs), "--param", draw(st.sampled_from(
            ["mac.extra_delay", "loss.default_loss", "scenario.initial_tilt",
             "mac.slots_per_superframe", "plant.motor_time_constant",
             "gains.kp_tilt"])),
            "--values", ",".join(draw(values)), "--seeds", "3",
            "--workers", draw(st.sampled_from(["1", "2"]))]
    argv += ["--out", str(base / "out")]
    fault = draw(st.sampled_from([None, None, "replace", "insert"]))
    if fault == "replace":
        bad = draw(st.sampled_from(FUZZ_BAD))
        argv[draw(st.integers(0, len(argv) - 1))] = \
            str(base / bad) if bad.endswith(("cfg", "out")) else bad
    elif fault == "insert":
        argv.insert(draw(st.integers(0, len(argv))), draw(st.text(max_size=6)))
    return argv


@pytest.fixture(scope="module")
def argv_base(tmp_path_factory):
    """The fuzz's directory, also the working one: a bad token taken as
    --out is a relative path, and lands here."""
    base = tmp_path_factory.mktemp("argv")
    for name, text in FUZZ_CONFIGS.items():
        write_cfg(base, text, name)
    (base / "a_file").write_text("not a directory\n", encoding="utf-8")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(base)
        yield base


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzzed_argv_returns_an_exit_code_and_never_raises(argv_base, data):
    argv = data.draw(cli_argv(argv_base), label="argv")
    assert main(argv) in (0, 1, 2)
