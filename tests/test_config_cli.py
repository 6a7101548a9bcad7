"""Config parsing, bundled scenarios, CLI behaviour, exit codes."""

import hashlib
import json
import math
from pathlib import Path

import pytest

from swarmpulse import cli
from swarmpulse.config import (
    ConfigError,
    QUINCUNX_POSITIONS,
    formation_positions,
    parse_config,
    validate_config,
)
from swarmpulse.engine import NumericBlowup, ScenarioEvent
from swarmpulse.scenarios import SCENARIO_NAMES, describe, list_scenarios, scenario_text
from swarmpulse.traces import compare_metrics

MINI_PULSE = """
model = pulse
duration = 2.0
dt = 0.1
seed = 1
trace_rate = 10.0
pulse.n = 3
pulse.k = 0.05
pulse.rate = 1.0
"""

MINI_DRONE = """
model = drone
duration = 2.0
dt = 0.01
seed = 1
trace_rate = 10.0
scenario.n = 3
scenario.formation = ring
drone.k_visible = 0.1
drone.k_hidden = -0.1
smoothing.mode = exponential
smoothing.alpha = 0.8
"""


class TestParsing:
    def test_defaults_and_overrides(self):
        cfg = parse_config(MINI_DRONE)
        assert cfg.model == "drone"
        assert cfg.n == 3
        assert cfg.formation == "ring"
        assert cfg.smoothing_mode == "exponential"
        assert cfg.drone_a == 0.1  # default untouched

    def test_unknown_key_reports_line(self):
        bad = "model = drone\nduration = 1.0\nwarp.factor = 9\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(bad)
        assert "line 3" in str(exc.value)
        assert "warp.factor" in str(exc.value)

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("model = drone\ndt = fast\n")
        assert "line 2" in str(exc.value)

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINI_DRONE.replace("dt = 0.01", "dt = 0"))

    def test_quincunx_needs_five(self):
        text = MINI_DRONE.replace("scenario.formation = ring", "scenario.formation = quincunx")
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_event_lines_accumulate(self):
        text = MINI_DRONE + (
            "scenario.events = 0.5 despawn nearest_centroid\n"
            "scenario.events = 1.0 spawn 1.5 0.0\n"
        )
        cfg = parse_config(text)
        assert len(cfg.events) == 2
        assert cfg.events[0].kind == "despawn"
        assert cfg.events[1].pos == (1.5, 0.0)

    def test_malformed_event_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINI_DRONE + "scenario.events = 0.5 teleport 1 2\n")

    def test_event_outside_run_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINI_DRONE + "scenario.events = 99.0 spawn 0 0\n")

    @pytest.mark.parametrize("time", ["nan", "inf", "-inf"])
    def test_non_finite_event_time_rejected_naming_line(self, time):
        # A nan time never compares <= the clock, so it would block every later event.
        text = MINI_DRONE + f"scenario.events = {time} spawn 0 0\nscenario.events = 1.0 spawn 0.3 0.3\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        line = len(MINI_DRONE.splitlines()) + 1
        assert f"line {line}: event time must be finite" in str(exc.value)

    def test_validate_rejects_nan_event_time(self):
        cfg = parse_config(MINI_DRONE)
        cfg.events = [ScenarioEvent(time=math.nan, kind="spawn", pos=(0.0, 0.0))]
        with pytest.raises(ConfigError, match="outside run"):
            validate_config(cfg)

    def test_positive_hidden_coupling_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINI_DRONE.replace("drone.k_hidden = -0.1", "drone.k_hidden = 0.2"))


class TestFormations:
    def test_quincunx_geometry(self):
        cfg = parse_config(MINI_DRONE.replace("scenario.n = 3", "scenario.n = 5").replace(
            "scenario.formation = ring", "scenario.formation = quincunx"))
        pos = formation_positions(cfg)
        assert [tuple(p) for p in pos] == [tuple(q) for q in QUINCUNX_POSITIONS]

    def test_random_reproducible_and_phase_independent(self):
        cfg = parse_config(MINI_DRONE.replace("scenario.formation = ring",
                                              "scenario.formation = random"))
        a = formation_positions(cfg)
        b = formation_positions(cfg)
        for x, y in zip(a, b):
            assert tuple(x) == tuple(y)

    def test_line_and_ring_counts(self):
        for formation in ("line", "ring"):
            cfg = parse_config(MINI_DRONE.replace("scenario.formation = ring",
                                                  f"scenario.formation = {formation}"))
            assert len(formation_positions(cfg)) == cfg.n


class TestScenarios:
    def test_registry_lists_all_bundled(self):
        names = list_scenarios()
        assert len(names) >= 11
        assert set(names) == set(SCENARIO_NAMES)

    def test_every_bundled_scenario_parses(self):
        for name in SCENARIO_NAMES:
            cfg = parse_config(scenario_text(name))
            assert cfg.duration > 0

    def test_describe_rainbow_shows_negative_coupling(self):
        assert "ref.k = -0.7" in describe("table2_rainbow")

    def test_describe_ma10_shows_window(self):
        assert "smoothing.window = 10" in describe("quincunx_ma10")

    def test_dropout_has_midrun_despawn(self):
        cfg = parse_config(scenario_text("dropout_mid"))
        assert len(cfg.events) == 1
        assert cfg.events[0].kind == "despawn"
        assert cfg.events[0].time == pytest.approx(cfg.duration / 2)


class TestCli:
    def test_list(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) >= 11

    def test_describe_unknown_exits_2(self, capsys):
        assert cli.main(["describe", "nope"]) == 2

    def test_run_unknown_scenario_exits_2(self, capsys):
        assert cli.main(["run", "not_a_scenario"]) == 2

    def test_run_invalid_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(MINI_PULSE.replace("dt = 0.1", "dt = -1"))
        assert cli.main(["run", str(bad)]) == 2
        assert "dt" in capsys.readouterr().err

    def test_run_writes_all_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "mini.cfg"
        cfg.write_text(MINI_PULSE)
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        base = tmp_path / "out" / "mini"
        for f in ("phases.csv", "positions.csv", "metrics.csv", "summary.json"):
            assert (base / f).is_file()
        summary = json.loads((base / "summary.json").read_text())
        assert summary["model"] == "pulse"
        assert summary["agents_final"] == 3

    def test_seed_override_changes_traces(self, tmp_path):
        cfg = tmp_path / "mini.cfg"
        cfg.write_text(MINI_PULSE)
        cli.main(["run", str(cfg), "--out", str(tmp_path / "a")])
        cli.main(["run", str(cfg), "--out", str(tmp_path / "b"), "--seed", "99"])
        a = (tmp_path / "a" / "mini" / "phases.csv").read_bytes()
        b = (tmp_path / "b" / "mini" / "phases.csv").read_bytes()
        assert a != b

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SWARMPULSE_OUT", str(tmp_path / "envout"))
        cfg = tmp_path / "mini.cfg"
        cfg.write_text(MINI_PULSE)
        assert cli.main(["run", str(cfg)]) == 0
        assert (tmp_path / "envout" / "mini" / "metrics.csv").is_file()

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = tmp_path / "mini.cfg"
        cfg.write_text(MINI_DRONE)
        cli.main(["run", str(cfg), "--out", str(tmp_path / "a")])
        cli.main(["run", str(cfg), "--out", str(tmp_path / "b")])
        for f in ("phases.csv", "positions.csv", "metrics.csv", "summary.json"):
            ha = hashlib.sha256((tmp_path / "a" / "mini" / f).read_bytes()).hexdigest()
            hb = hashlib.sha256((tmp_path / "b" / "mini" / f).read_bytes()).hexdigest()
            assert ha == hb, f

    def test_out_naming_an_existing_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "mini.cfg"
        cfg.write_text(MINI_PULSE)
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("")
        assert cli.main(["run", str(cfg), "--out", str(blocker)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and str(blocker) in err

    def test_despawn_of_unknown_agent_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad_event.cfg"
        cfg.write_text(MINI_DRONE + "scenario.events = 1.0 despawn 42\n")
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "unknown agent" in capsys.readouterr().err

    def test_blowup_exit_code(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "mini.cfg"
        cfg.write_text(MINI_PULSE)

        def explode(*args, **kwargs):
            raise NumericBlowup(7, 2)

        monkeypatch.setattr("swarmpulse.cli.run_config", explode)
        assert cli.main(["run", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "tick 7" in err and "agent 2" in err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_reference_blowup_exits_3_naming_tick(self, tmp_path, capsys):
        cfg = tmp_path / "blowup.cfg"
        cfg.write_text(scenario_text("table1_static_sync") + "ref.a = 1e308\nduration = 1.0\n")
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert "tick 1 for agent 0" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_reference_overflowing_distances_exit_3(self, tmp_path, capsys):
        # Positions near 1e158 are finite, but their pair distances overflow.
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(scenario_text("table1_static_sync") + "ref.a = 1e160\nduration = 1.0\n")
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 3
        assert "tick 1 for agent" in capsys.readouterr().err
        assert not (out / "overflow" / "metrics.csv").exists()

    def test_drone_overflow_exits_3_naming_tick(self, tmp_path, capsys):
        # Every coordinate stays finite, but from t = 0.28 s the speeds
        # and pair distances overflow when squared; nothing is written.
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(
            scenario_text("quincunx_ma10")
            + "duration = 2.0\ndrone.b = 1e308\ndrone.speed_cap = 1e308\n"
        )
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 3
        assert "tick 56 for agent 0" in capsys.readouterr().err
        assert not (out / "overflow").exists()

    def test_nan_event_time_exits_2(self, tmp_path, capsys):
        text = scenario_text("join_mid").replace(
            "scenario.events", "scenario.events = nan spawn 0 0\nscenario.events", 1
        )
        cfg = tmp_path / "nan_event.cfg"
        cfg.write_text(text)
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "event time must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("ref.k", "inf"),
            ("dt", "nan"),
            ("duration", "inf"),
            ("trace_rate", "inf"),
            ("drone.speed_cap", "inf"),
            ("medium.airtime", "-inf"),
        ],
    )
    def test_non_finite_float_exits_2_naming_line(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "nonfinite.cfg"
        cfg.write_text(MINI_DRONE + f"{key} = {value}\n")
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        line = len(MINI_DRONE.splitlines()) + 1
        assert f"line {line}: {key} must be finite" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "scenario, line",
        [
            ("quincunx_ma10", "drone.a = -1"),
            ("quincunx_ma10", "drone.b = 0"),
            ("quincunx_ma10", "drone.speed_cap = 0"),
            # A negative spread would hide a large drone.omega from the
            # wraps-per-tick cap: spawn reads it as no spread.
            ("quincunx_ma10", "drone.freq_var = -1"),
            ("table1_static_sync", "ref.a = -1"),
            ("table1_static_sync", "ref.b = 0"),
            ("table1_static_sync", "ref.freq_var = -1"),
            ("pulse_n9", "pulse.rate = 0"),
            ("pulse_n9", "pulse.k = -0.1"),
        ],
    )
    def test_out_of_range_constant_exits_2_naming_key(self, tmp_path, capsys, scenario, line):
        cfg = tmp_path / "range.cfg"
        cfg.write_text(scenario_text(scenario) + f"duration = 0.1\n{line}\n")
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert line.split()[0] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scenario, line",
        [("quincunx_ma10", "drone.omega = 1e9"), ("pulse_n9", "pulse.rate = 1e7")],
    )
    def test_too_many_wraps_per_tick_exits_2_without_stepping(
        self, tmp_path, monkeypatch, capsys, scenario, line
    ):
        def no_step(*args):
            raise AssertionError("stepped")

        monkeypatch.setattr("swarmpulse.engine.DroneSwarmEngine.step", no_step)
        monkeypatch.setattr("swarmpulse.pulse.PulsePopulation.advance", no_step)
        cfg = tmp_path / "wraps.cfg"
        cfg.write_text(scenario_text(scenario) + f"duration = 0.1\n{line}\n")
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert line.split()[0] in err and "wraps per tick" in err
        assert not out.exists()


class TestCompare:
    def _run_mini(self, tmp_path, name, text):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        cli.main(["run", str(cfg), "--out", str(tmp_path / "out")])
        return tmp_path / "out" / name / "metrics.csv"

    def test_trace_vs_itself_passes(self, tmp_path, capsys):
        m = self._run_mini(tmp_path, "mini", MINI_DRONE)
        assert cli.main(["compare", str(m), str(m), "--metric", "order_param", "--tol", "0"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_differing_traces_fail_exit_1(self, tmp_path, capsys):
        a = self._run_mini(tmp_path, "minia", MINI_DRONE)
        b = self._run_mini(tmp_path, "minib", MINI_DRONE.replace("seed = 1", "seed = 2"))
        assert cli.main(["compare", str(a), str(b), "--metric", "order_param", "--tol", "1e-12"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_unpopulated_metric_exits_2(self, tmp_path, capsys):
        m = self._run_mini(tmp_path, "minip", MINI_PULSE)
        assert cli.main(["compare", str(m), str(m), "--metric", "am", "--tol", "0"]) == 2

    def test_schema_mismatch_exits_2(self, tmp_path, capsys):
        m = self._run_mini(tmp_path, "minid", MINI_DRONE)
        bogus = tmp_path / "bogus.csv"
        bogus.write_text("a,b,c\n1,2,3\n")
        assert cli.main(["compare", str(m), str(bogus), "--metric", "am", "--tol", "0"]) == 2

    def test_non_numeric_cell_exits_2(self, tmp_path, capsys):
        m = self._run_mini(tmp_path, "minin", MINI_DRONE)
        lines = m.read_text().splitlines()
        lines[2] = "abc" + lines[2][lines[2].index(","):]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli.main(["compare", str(m), str(bad), "--metric", "order_param", "--tol", "1"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "line 3" in err and "abc" in err

    def test_directory_as_trace_exits_2(self, tmp_path, capsys):
        m = self._run_mini(tmp_path, "minidir", MINI_DRONE)
        capsys.readouterr()
        assert cli.main(["compare", str(m), str(tmp_path), "--metric", "order_param",
                         "--tol", "1"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and str(tmp_path) in err

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_bad_tolerance_exits_2(self, tmp_path, capsys, tol):
        m = self._run_mini(tmp_path, "minitol", MINI_DRONE)
        capsys.readouterr()
        assert cli.main(["compare", str(m), str(m), "--metric", "order_param", "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and "--tol" in captured.err
        assert "FAIL" not in captured.out

    def test_report_shows_final_third_stability(self, tmp_path):
        a = self._run_mini(tmp_path, "wa", MINI_DRONE)
        b = self._run_mini(tmp_path, "wb", MINI_DRONE.replace("seed = 1", "seed = 3"))
        report = compare_metrics(a, b, "order_param", tolerance=10.0)
        assert report.passed
        assert report.final_third_std[0] >= 0.0
