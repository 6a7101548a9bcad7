"""Config keys: each key's field and type, README's key table, and how a
run ends at each key's extreme values."""

import contextlib
import math
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from swarmpulse.config import ConfigError, ScenarioConfig, parse_config, validate_config
from swarmpulse.engine import NumericBlowup, ScenarioEvent, ScenarioEventError
from swarmpulse.runner import run_config

README = Path(__file__).resolve().parent.parent / "README.md"

# Every key `parse_config` accepts but `scenario.events`, with the
# ScenarioConfig field it sets and that field's type.
KEYS = {
    "model": ("model", str),
    "duration": ("duration", float),
    "dt": ("dt", float),
    "seed": ("seed", int),
    "trace_rate": ("trace_rate", float),
    "output.dir": ("out_dir", str),
    "scenario.n": ("n", int),
    "pulse.n": ("n", int),
    "ref.n": ("n", int),
    "scenario.formation": ("formation", str),
    "pulse.k": ("pulse_k", float),
    "pulse.rate": ("pulse_rate", float),
    "ref.k": ("ref_k", float),
    "ref.j": ("ref_j", float),
    "ref.a": ("ref_a", float),
    "ref.b": ("ref_b", float),
    "ref.omega": ("ref_omega", float),
    "ref.freq_var": ("ref_freq_var", float),
    "drone.k_visible": ("drone_k_visible", float),
    "drone.k_hidden": ("drone_k_hidden", float),
    "drone.j": ("drone_j", float),
    "drone.a": ("drone_a", float),
    "drone.b": ("drone_b", float),
    "drone.omega": ("drone_omega", float),
    "drone.freq_var": ("drone_freq_var", float),
    "drone.speed_cap": ("drone_speed_cap", float),
    "drone.hidden_phase_in_payload": ("drone_hidden_in_payload", bool),
    "smoothing.mode": ("smoothing_mode", str),
    "smoothing.window": ("smoothing_window", int),
    "smoothing.alpha": ("smoothing_alpha", float),
    "medium.airtime": ("medium_airtime", float),
    "medium.collision_policy": ("medium_collision_policy", str),
}

BASE = """
model = drone
duration = 2.0
dt = 0.01
trace_rate = 10.0
scenario.n = 3
scenario.formation = ring
"""

# A valid value for each key that differs from BASE and the defaults.
SAMPLES = {float: "0.25", int: "4", bool: "true"}
SAMPLE_OVERRIDES = {
    "drone.k_hidden": "-0.25",
    "model": "pulse",
    "output.dir": "elsewhere",
    "scenario.formation": "line",
    "smoothing.mode": "none",
    "medium.collision_policy": "deliver_all",
}


def test_thirty_two_keys_cover_every_field_but_events():
    assert len(KEYS) == 32
    set_fields = {name for name, _ in KEYS.values()}
    assert set_fields == {f.name for f in fields(ScenarioConfig)} - {"events"}


@pytest.mark.parametrize("key", KEYS)
def test_key_sets_its_field_alone_with_its_type(key):
    name, kind = KEYS[key]
    text = SAMPLE_OVERRIDES.get(key, SAMPLES.get(kind))
    base = parse_config(BASE)
    cfg = parse_config(BASE + f"{key} = {text}\n")
    value = getattr(cfg, name)
    assert type(value) is kind
    assert value == (text == "true" if kind is bool else kind(text))
    assert cfg == replace(base, **{name: value})
    assert getattr(base, name) != value


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", [key for key, (_, kind) in KEYS.items() if kind is float])
def test_in_code_non_finite_float_is_rejected_naming_key(key, value):
    # Config text cannot hold these (`parse_config` refuses them by line);
    # a config built in code meets only `validate_config`.
    cfg = replace(parse_config(BASE), **{KEYS[key][0]: value})
    named = f"{re.escape(key)} must be finite, got {value}"
    with pytest.raises(ConfigError, match=named):
        validate_config(cfg)
    with pytest.raises(ConfigError, match=named):
        run_config(cfg, write=False)


@pytest.mark.parametrize(
    "fields, named",
    [
        ({"drone_speed_cap": -1.0}, "drone.speed_cap must be > 0"),
        ({"drone_k_hidden": 0.1}, "drone.k_hidden must be <= 0"),
        ({"ref_a": -1.0}, "ref.a must be > 0"),
        ({"formation": "quincunx", "n": 3}, "quincunx formation needs exactly 5 agents"),
        ({"model": "reference_swarmalator", "n": 2}, "ref.n must be >= 3"),
        ({"dt": math.nan}, "dt must be finite"),
        ({"trace_rate": 0.0}, "trace_rate must be > 0"),
        ({"model": "bogus"}, "model must be one of"),
        ({"formation": "bogus"}, "formation must be one of"),
    ],
)
def test_run_config_refuses_an_in_code_config_writing_nothing(tmp_path, fields, named):
    # No text to parse: `run_config` is the only check such a config meets.
    cfg = ScenarioConfig(duration=0.5, **fields)
    with pytest.raises(ConfigError, match=named):
        run_config(cfg, write=False)
    with pytest.raises(ConfigError, match=named):
        run_config(cfg, out_dir=str(tmp_path), write=True)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "fields, named",
    [
        ({"n": "3"}, "scenario.n must be an integer, got '3'"),
        ({"dt": "0.01"}, "dt must be a real number, got '0.01'"),
        ({"events": [ScenarioEvent(time=None, kind="spawn", pos=(0.0, 0.0))]},
         "event time must be a real number, got None"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"smoothing_window": 2.5}, "smoothing.window must be an integer, got 2.5"),
        ({"drone_hidden_in_payload": "yes"},
         "drone.hidden_phase_in_payload must be true or false, got 'yes'"),
        ({"events": None}, "scenario.events must be a list of ScenarioEvent, got None"),
        ({"events": [(0.5, "spawn", (0.0, 0.0))]}, "scenario.events must be a list of"),
    ],
)
def test_run_config_refuses_an_in_code_field_of_the_wrong_type(fields, named):
    # Config text parses each key by its type; only code can set another.
    with pytest.raises(ConfigError, match=re.escape(named)) as exc:
        run_config(ScenarioConfig(duration=0.5, **fields), write=False)
    assert len(exc.value.problems) == 1


UNKNOWN = sorted(
    {"drone.hidden_in_payload"}
    | {f.name for f in fields(ScenarioConfig)} - set(KEYS)
)


def test_bare_field_names_are_listed():
    for name in ("n", "formation", "out_dir", "drone.hidden_in_payload"):
        assert name in UNKNOWN


@pytest.mark.parametrize("key", UNKNOWN)
def test_field_names_that_are_not_keys_are_unknown(key):
    with pytest.raises(ConfigError) as exc:
        parse_config(BASE + f"{key} = 4\n")
    line = len(BASE.splitlines()) + 1
    assert f"line {line}: unknown key {key!r}" in str(exc.value)


def test_readme_config_table_names_exactly_the_keys():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Config format\n", 1)[1].split("\n## ", 1)[0]
    first_cells = [line.split("|")[1] for line in section.splitlines() if line.startswith("|")]
    named = [key for cell in first_cells for key in re.findall(r"`([^`]+)`", cell)]
    assert len(named) == len(set(named))
    assert set(named) == set(KEYS) | {"scenario.events"}


# A short run of each model, to which the sweep adds one line.
SHORT = {
    "pulse": "model = pulse\nduration = 1.0\ndt = 0.01\ntrace_rate = 10.0\npulse.n = 3\n",
    "reference_swarmalator": (
        "model = reference_swarmalator\nduration = 1.0\ndt = 0.01\ntrace_rate = 10.0\n"
        "ref.n = 3\n"
    ),
    "drone": (
        "model = drone\nduration = 1.0\ndt = 0.01\ntrace_rate = 10.0\nscenario.n = 3\n"
        "scenario.formation = ring\n"
    ),
}
SECTION_MODELS = {
    "pulse": ("pulse",),
    "ref": ("reference_swarmalator",),
    "drone": ("drone",),
    "smoothing": ("drone",),
    "medium": ("drone",),
}
EXTREMES = {
    float: ("0", "-0.0", "5e-324", "-5e-324", "1e308", "-1e308"),
    int: ("-1", "0", str(2**63), str(2**64)),
    str: ("", "bogus"),
    bool: ("maybe",),
}
# Larger swarms are a question of memory, not of the values' range.
AGENT_COUNTS = ("-1", "0", "1", "2", "3")
SWEEP = [
    (key, model)
    for key in KEYS
    if key != "output.dir"
    for model in SECTION_MODELS.get(key.partition(".")[0], tuple(SHORT))
]
# Only the config errors, event errors and blow-ups that the CLI maps to
# exit 2 or 3 may end a run.
DOCUMENTED = (ConfigError, ScenarioEventError, NumericBlowup)


def extremes(key):
    return AGENT_COUNTS if KEYS[key][0] == "n" else EXTREMES[KEYS[key][1]]


def test_sweep_makes_220_runs():
    assert sum(len(extremes(key)) for key, _ in SWEEP) == 220


@pytest.mark.parametrize("key, model", SWEEP)
def test_extreme_values_end_in_a_run_or_a_documented_error(key, model):
    failures = []
    for value in extremes(key):
        try:
            cfg = parse_config(SHORT[model] + f"{key} = {value}\n")
        except ConfigError:
            continue
        # `run_reference` warns, as intended, when |ref.j| > ref.a.
        if cfg.model == "reference_swarmalator" and abs(cfg.ref_j) > cfg.ref_a:
            expected = pytest.warns(UserWarning, match="exceeds a=")
        else:
            expected = contextlib.nullcontext()
        try:
            with expected:
                run_config(cfg, write=False)
        except DOCUMENTED:
            pass
        except Exception as exc:  # every other exception is a finding
            failures.append(f"{key} = {value}: {type(exc).__name__}: {exc}")
    assert failures == []
