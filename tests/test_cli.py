import hashlib
from pathlib import Path

import numpy as np
import pytest

from telebalance.cli import _parse_values, main
from telebalance.config import ConfigError, load_scenario, parse_duration

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


class TestConfigParsing:
    def test_duration_suffix_required(self):
        assert parse_duration("2 ms") == pytest.approx(0.002)
        assert parse_duration("1 s") == 1.0
        assert parse_duration("250 us") == pytest.approx(250e-6)
        with pytest.raises(ValueError):
            parse_duration("2")
        with pytest.raises(ValueError):
            parse_duration("2 minutes")

    def test_load_shipped_configs(self, config_dir):
        for name in ("gallop_default.cfg", "ble_default.cfg", "delay_sweep.cfg"):
            cfg = load_scenario(config_dir / name)
            assert cfg.episode_duration > 0
        gallop = load_scenario(config_dir / "gallop_default.cfg")
        assert gallop.label == "gallop"
        assert gallop.mac.variant == "gallop"
        assert gallop.mac.clock_drift_ppm == 0.0

    def test_unknown_key_rejected_with_line(self, tmp_path):
        p = write_cfg(tmp_path, "[mac]\nsloot_duration = 1 ms\n")
        with pytest.raises(ConfigError, match=r":2: unknown key 'sloot_duration'"):
            load_scenario(p)

    def test_unknown_section_rejected(self, tmp_path):
        p = write_cfg(tmp_path, "[radio]\nvariant = gallop\n")
        with pytest.raises(ConfigError, match=r"unknown section"):
            load_scenario(p)

    def test_duplicate_key_rejected(self, tmp_path):
        p = write_cfg(tmp_path, "[scenario]\nseed = 1\nseed = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_scenario(p)

    def test_missing_unit_suffix_rejected(self, tmp_path):
        p = write_cfg(tmp_path, "[scenario]\nepisode_duration = 60\n")
        with pytest.raises(ConfigError, match="bad value"):
            load_scenario(p)

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

    def test_custom_slot_layout_parses(self, tmp_path):
        text = GALLOP_SHORT + \
            "slots = forward, 0 ms, 1 ms, 0; feedback, 1 ms, 1 ms, 1\n"
        cfg = load_scenario(write_cfg(tmp_path, text))
        assert len(cfg.mac.custom_slots) == 2


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
            "slots = forward, 0 ms, 1 ms, 0; feedback, 0.5 ms, 1 ms, 1\n"
        cfg = write_cfg(tmp_path, text)
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "slots 0 and 1 overlap" in err

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
        assert (out / "gallop_s_trace.dat").exists()
        assert (out / "ble_s_trace.dat").exists()
        plot = (out / "plot.gp").read_text()
        assert "gallop_s_trace.dat" in plot and "ble_s_trace.dat" in plot
        # gallop variance column is exactly zero, ble strictly positive
        gallop_row = next(r for r in comparison[1:] if r.startswith("gallop_s"))
        ble_row = next(r for r in comparison[1:] if r.startswith("ble_s"))
        assert float(gallop_row.split(",")[7]) == 0.0
        assert float(ble_row.split(",")[7]) > 0.0

    def test_single_scenario_usage_error(self, tmp_path, capsys):
        a = write_cfg(tmp_path, GALLOP_SHORT)
        assert main(["compare", "--scenario", str(a), "--out",
                     str(tmp_path / "o")]) == 2

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
        from telebalance.sim import _set_by_path, run_episode, run_sweep

        base = load_scenario(write_cfg(tmp_path, GALLOP_SHORT))
        explicit = load_scenario(write_cfg(
            tmp_path, GALLOP_SHORT + "\n[gains]\nkp_tilt = 10\n", "gains.cfg"))
        assert base.gains is None
        swept = _set_by_path(base, "gains.kp_tilt", 10)
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


class TestParseValues:
    def test_unit_suffixes_and_bare_numbers(self):
        assert _parse_values("2ms, 5 us,90deg,0.5rad,1.5s,3") == [
            2 * 1e-3, 5 * 1e-6, 90 * (3.141592653589793 / 180.0), 0.5, 1.5, 3.0]

    def test_unknown_suffix_rejected(self):
        with pytest.raises(ValueError, match="sweep value"):
            _parse_values("2 min")
