"""Scenario configuration: flat key-value text with dotted sections.

A config file is a sequence of `key = value` lines, with `#` comments
and blank lines ignored. Repeated `scenario.events` lines accumulate.
A config plus the build version fully determines every output byte of a
run.

Example::

    model = drone
    duration = 60.0
    dt = 0.005
    seed = 2
    trace_rate = 50.0

    scenario.n = 5
    scenario.formation = quincunx
    scenario.events = 30.0 despawn nearest_centroid

    drone.k_visible = 0.1
    drone.k_hidden = -0.1
    ...

Parse errors carry the offending line number so the CLI can print
line-level diagnostics and exit 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import ScenarioEvent
from .geometry import COORD_LIMIT
from .medium import COLLISION_POLICIES
from .smoothing import MODES as SMOOTHING_MODES

MODELS = ("pulse", "reference_swarmalator", "drone")
FORMATIONS = ("quincunx", "random", "line", "ring")

# The most phase wraps a rate may make in one tick. Each drone
# hidden-phase wrap is one broadcast, and each pulse-model wrap one
# firing pass, so the work per tick grows with this; the pinned
# several-wraps-per-tick drone run makes 1.6.
MAX_WRAPS_PER_TICK = 16.0

QUINCUNX_POSITIONS = (
    (0.5, 0.5),
    (0.5, -0.5),
    (-0.5, 0.5),
    (-0.5, -0.5),
    (0.0, 0.0),
)


class ConfigError(ValueError):
    """Invalid scenario config; message carries line-level diagnostics."""

    def __init__(self, problems: list[tuple[int | None, str]]):
        self.problems = problems
        lines = [
            f"line {ln}: {msg}" if ln is not None else msg for ln, msg in problems
        ]
        super().__init__("invalid config:\n  " + "\n  ".join(lines))


@dataclass
class ScenarioConfig:
    """Complete description of one deterministic run."""

    model: str = "drone"
    duration: float = 60.0
    dt: float = 0.005
    seed: int = 0
    trace_rate: float = 50.0
    out_dir: str | None = None

    n: int = 5
    formation: str = "random"
    events: list[ScenarioEvent] = field(default_factory=list)

    # pulse model
    pulse_k: float = 0.05
    pulse_rate: float = 1.0

    # reference swarmalator model
    ref_k: float = 0.7
    ref_j: float = 0.8
    ref_a: float = 1.0
    ref_b: float = 3.0
    ref_omega: float = 0.0
    ref_freq_var: float = 0.0

    # drone model
    drone_k_visible: float = 0.1
    drone_k_hidden: float = -0.1
    drone_j: float = 0.08
    drone_a: float = 0.1
    drone_b: float = 0.09
    drone_omega: float = 2.0 * math.pi
    drone_freq_var: float = 0.0
    drone_speed_cap: float = 0.3
    drone_hidden_in_payload: bool = False

    smoothing_mode: str = "moving_average"
    smoothing_window: int = 10
    smoothing_alpha: float = 0.8

    medium_airtime: float = 0.005
    medium_collision_policy: str = "drop_all"


_FLOAT_KEYS = {
    "duration": "duration",
    "dt": "dt",
    "trace_rate": "trace_rate",
    "pulse.k": "pulse_k",
    "pulse.rate": "pulse_rate",
    "ref.k": "ref_k",
    "ref.j": "ref_j",
    "ref.a": "ref_a",
    "ref.b": "ref_b",
    "ref.omega": "ref_omega",
    "ref.freq_var": "ref_freq_var",
    "drone.k_visible": "drone_k_visible",
    "drone.k_hidden": "drone_k_hidden",
    "drone.j": "drone_j",
    "drone.a": "drone_a",
    "drone.b": "drone_b",
    "drone.omega": "drone_omega",
    "drone.freq_var": "drone_freq_var",
    "drone.speed_cap": "drone_speed_cap",
    "smoothing.alpha": "smoothing_alpha",
    "medium.airtime": "medium_airtime",
}
_INT_KEYS = {
    "seed": "seed",
    "scenario.n": "n",
    "pulse.n": "n",
    "ref.n": "n",
    "smoothing.window": "smoothing_window",
}
_STR_KEYS = {
    "model": "model",
    "scenario.formation": "formation",
    "smoothing.mode": "smoothing_mode",
    "medium.collision_policy": "medium_collision_policy",
    "output.dir": "out_dir",
}
_BOOL_KEYS = {
    "drone.hidden_phase_in_payload": "drone_hidden_in_payload",
}


def _parse_event(value: str) -> ScenarioEvent:
    parts = value.split()
    if len(parts) < 2:
        raise ValueError(f"event needs '<time> spawn x y' or '<time> despawn <id>': {value!r}")
    t = float(parts[0])
    if not math.isfinite(t):
        raise ValueError(f"event time must be finite, got {parts[0]!r}")
    kind = parts[1]
    if kind == "spawn":
        if len(parts) != 4:
            raise ValueError(f"spawn event needs '<time> spawn <x> <y>': {value!r}")
        return ScenarioEvent(time=t, kind="spawn", pos=(float(parts[2]), float(parts[3])))
    if kind == "despawn":
        if len(parts) != 3:
            raise ValueError(f"despawn event needs '<time> despawn <id|nearest_centroid>': {value!r}")
        target = parts[2] if parts[2] == "nearest_centroid" else int(parts[2])
        return ScenarioEvent(time=t, kind="despawn", target=target)
    raise ValueError(f"unknown event kind {kind!r}")


def parse_config(text: str) -> ScenarioConfig:
    """Parse config text; raises ConfigError with line diagnostics."""
    cfg = ScenarioConfig()
    problems: list[tuple[int | None, str]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            problems.append((lineno, f"expected 'key = value', got {line!r}"))
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            if key == "scenario.events":
                cfg.events.append(_parse_event(value))
            elif key in _FLOAT_KEYS:
                number = float(value)
                if not math.isfinite(number):
                    raise ValueError(f"{key} must be finite, got {value!r}")
                setattr(cfg, _FLOAT_KEYS[key], number)
            elif key in _INT_KEYS:
                setattr(cfg, _INT_KEYS[key], int(value))
            elif key in _STR_KEYS:
                setattr(cfg, _STR_KEYS[key], value)
            elif key in _BOOL_KEYS:
                if value.lower() not in ("true", "false"):
                    raise ValueError(f"expected true/false, got {value!r}")
                setattr(cfg, _BOOL_KEYS[key], value.lower() == "true")
            else:
                problems.append((lineno, f"unknown key {key!r}"))
        except ValueError as exc:
            problems.append((lineno, str(exc)))

    if problems:
        raise ConfigError(problems)
    validate_config(cfg)
    return cfg


def validate_config(cfg: ScenarioConfig) -> None:
    """Semantic validation shared by file-based and in-code configs."""
    problems: list[tuple[int | None, str]] = []

    def bad(msg: str) -> None:
        problems.append((None, msg))

    if cfg.model not in MODELS:
        bad(f"model must be one of {MODELS}, got {cfg.model!r}")
    if cfg.duration <= 0.0:
        bad(f"duration must be > 0, got {cfg.duration}")
    if cfg.dt <= 0.0:
        bad(f"dt must be > 0, got {cfg.dt}")
    if cfg.trace_rate <= 0.0:
        bad(f"trace_rate must be > 0, got {cfg.trace_rate}")
    if not 0 <= cfg.seed < 2**64:
        bad(f"seed must be a 64-bit unsigned integer, got {cfg.seed}")
    if cfg.n < 1:
        bad(f"agent count must be >= 1, got {cfg.n}")
    if cfg.formation not in FORMATIONS:
        bad(f"formation must be one of {FORMATIONS}, got {cfg.formation!r}")
    if cfg.model == "drone" and cfg.formation == "quincunx" and cfg.n != 5:
        bad(f"quincunx formation needs exactly 5 agents, got {cfg.n}")
    if cfg.smoothing_mode not in SMOOTHING_MODES:
        bad(f"smoothing.mode must be one of {SMOOTHING_MODES}, got {cfg.smoothing_mode!r}")
    if cfg.smoothing_window < 1:
        bad(f"smoothing.window must be >= 1, got {cfg.smoothing_window}")
    if not 0.0 < cfg.smoothing_alpha <= 1.0:
        bad(f"smoothing.alpha must be in (0, 1], got {cfg.smoothing_alpha}")
    if cfg.medium_airtime < 0.0:
        bad(f"medium.airtime must be >= 0, got {cfg.medium_airtime}")
    if cfg.medium_collision_policy not in COLLISION_POLICIES:
        bad(f"medium.collision_policy must be one of {COLLISION_POLICIES}")
    if cfg.drone_k_hidden > 0.0:
        bad(f"drone.k_hidden must be <= 0, got {cfg.drone_k_hidden}")
    for key, value in (("drone.a", cfg.drone_a), ("drone.b", cfg.drone_b),
                       ("drone.speed_cap", cfg.drone_speed_cap), ("ref.a", cfg.ref_a),
                       ("ref.b", cfg.ref_b), ("pulse.rate", cfg.pulse_rate)):
        if value <= 0.0:
            bad(f"{key} must be > 0, got {value}")
    for key, value in (("drone.freq_var", cfg.drone_freq_var),
                       ("ref.freq_var", cfg.ref_freq_var), ("pulse.k", cfg.pulse_k)):
        if value < 0.0:
            bad(f"{key} must be >= 0, got {value}")
    if cfg.model == "drone":
        wraps = (cfg.drone_omega + cfg.drone_freq_var) * cfg.dt / (2.0 * math.pi)
        if wraps > MAX_WRAPS_PER_TICK:
            bad(f"drone.omega + drone.freq_var make {wraps:.3g} hidden-phase wraps "
                f"per tick of dt = {cfg.dt}; at most {MAX_WRAPS_PER_TICK:g} are allowed")
    if cfg.model == "pulse" and cfg.pulse_rate * cfg.dt > MAX_WRAPS_PER_TICK:
        bad(f"pulse.rate makes {cfg.pulse_rate * cfg.dt:.3g} phase wraps per tick "
            f"of dt = {cfg.dt}; at most {MAX_WRAPS_PER_TICK:g} are allowed")
    if cfg.model == "reference_swarmalator" and cfg.n < 3:
        bad(f"ref.n must be >= 3 (the summary reports the rainbow correlation), got {cfg.n}")
    for ev in cfg.events:
        if not 0.0 <= ev.time <= cfg.duration:
            bad(f"event time {ev.time} outside run [0, {cfg.duration}]")
        if ev.kind == "spawn" and not max(abs(c) for c in ev.pos) < COORD_LIMIT:
            bad(f"spawn at t={ev.time}: position {tuple(ev.pos)} must have every "
                f"coordinate below {COORD_LIMIT:.3g} in magnitude")

    if problems:
        raise ConfigError(problems)


def formation_positions(cfg: ScenarioConfig) -> list[np.ndarray]:
    """Initial positions for the configured formation.

    Placement draws come from a stream derived from (but distinct from)
    the scenario seed, so two configs differing only in formation still
    draw identical phases for their agents.
    """
    from .geometry import seeded_rng

    if cfg.formation == "quincunx":
        return [np.array(p, dtype=np.float64) for p in QUINCUNX_POSITIONS]
    if cfg.formation == "random":
        rng = seeded_rng(cfg.seed + 1000)
        return [rng.uniform(-1.0, 1.0, 2) for _ in range(cfg.n)]
    if cfg.formation == "line":
        offset = 0.5 * (cfg.n - 1) / 2.0
        return [np.array([0.5 * i - offset, 0.0]) for i in range(cfg.n)]
    if cfg.formation == "ring":
        return [
            np.array(
                [
                    0.5 * math.cos(2.0 * math.pi * i / cfg.n),
                    0.5 * math.sin(2.0 * math.pi * i / cfg.n),
                ]
            )
            for i in range(cfg.n)
        ]
    raise ConfigError([(None, f"unknown formation {cfg.formation!r}")])
