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

Every other key names a `ScenarioConfig` field and is parsed by its
type: `<section>.<rest>` is `<section>_<rest>` in the pulse, ref, drone,
smoothing and medium sections, other keys are field names, and
`_ALIASES` replaces four fields' keys. Parse errors carry the offending
line number so the CLI can print line-level diagnostics and exit 2.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .engine import ScenarioEvent
from .geometry import COORD_LIMIT, seeded_rng
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


def _bool(value: str) -> bool:
    if value.lower() not in ("true", "false"):
        raise ValueError(f"expected true/false, got {value!r}")
    return value.lower() == "true"


_SECTIONS = ("pulse", "ref", "drone", "smoothing", "medium")
_ALIASES = {
    "scenario.n": "n",
    "pulse.n": "n",
    "ref.n": "n",
    "scenario.formation": "formation",
    "output.dir": "out_dir",
    "drone.hidden_phase_in_payload": "drone_hidden_in_payload",
}
# `Field.type` is the annotation's text: this module postpones annotations.
# Each declared type -> (value parser, the types an in-code value may
# have, named); a bool is no number here.
_TYPES = {
    "float": (float, numbers.Real, "a real number"),
    "int": (int, numbers.Integral, "an integer"),
    "str": (str, str, "a string"),
    "str | None": (str, (str, type(None)), "a string or None"),
    "bool": (_bool, bool, "true or false"),
}
# Every key but `scenario.events`: key -> (field name, value parser,
# value types, their name).
_KEYS = {
    key: (f.name, *_TYPES[f.type])
    for f in fields(ScenarioConfig)
    if f.name != "events"
    for key in [alias for alias, name in _ALIASES.items() if name == f.name]
    or [f.name.replace("_", ".", 1) if f.name.split("_")[0] in _SECTIONS else f.name]
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
            elif key in _KEYS:
                name, parse, *_ = _KEYS[key]
                parsed = parse(value)
                if parse is float and not math.isfinite(parsed):
                    raise ValueError(f"{key} must be finite, got {value!r}")
                setattr(cfg, name, parsed)
            else:
                problems.append((lineno, f"unknown key {key!r}"))
        except ValueError as exc:
            problems.append((lineno, str(exc)))

    if problems:
        raise ConfigError(problems)
    validate_config(cfg)
    return cfg


def _typed(value, kind) -> bool:
    """Whether `value` is of `kind`, a bool counting only as a bool."""
    return isinstance(value, kind) and isinstance(value, bool) == (kind is bool)


def _is_point(pos) -> bool:
    """Whether `pos` is a sequence of two real numbers."""
    return (isinstance(pos, (tuple, list, np.ndarray)) and getattr(pos, "ndim", 1) == 1
            and len(pos) == 2 and all(_typed(c, numbers.Real) for c in pos))


def validate_config(cfg: ScenarioConfig) -> None:
    """The one check of a config's types, values and events, made by
    `parse_config` and by `runner.run_config` before every run; no model
    layer checks them again. Raises ConfigError listing every problem,
    or every wrong type before any value is read."""
    problems: list[tuple[int | None, str]] = []

    def bad(msg: str) -> None:
        problems.append((None, msg))

    def value(key: str):
        return getattr(cfg, _KEYS[key][0])

    mistyped = set()
    for key, (name, _, kind, what) in _KEYS.items():
        if name not in mistyped and not _typed(getattr(cfg, name), kind):
            mistyped.add(name)
            bad(f"{key} must be {what}, got {getattr(cfg, name)!r}")
    events = cfg.events
    if not (isinstance(events, list) and all(isinstance(ev, ScenarioEvent) for ev in events)):
        bad(f"scenario.events must be a list of ScenarioEvent, got {events!r}")
    else:
        for ev in events:
            if not _typed(ev.time, numbers.Real):
                bad(f"event time must be a real number, got {ev.time!r}")
    if problems:
        raise ConfigError(problems)

    if cfg.model not in MODELS:
        bad(f"model must be one of {MODELS}, got {cfg.model!r}")
    for key, (name, parse, *_) in _KEYS.items():
        if parse is float and not math.isfinite(getattr(cfg, name)):
            bad(f"{key} must be finite, got {getattr(cfg, name)}")
    for key in ("duration", "dt", "trace_rate", "pulse.rate", "ref.a", "ref.b", "drone.a",
                "drone.b", "drone.speed_cap"):
        if value(key) <= 0.0:
            bad(f"{key} must be > 0, got {value(key)}")
    for key in ("pulse.k", "ref.freq_var", "drone.freq_var", "medium.airtime"):
        if value(key) < 0.0:
            bad(f"{key} must be >= 0, got {value(key)}")
    # A run steps round(duration / dt) ticks and samples every
    # round(1 / (trace_rate * dt)) of them: both must be finite.
    ticks = cfg.duration / cfg.dt if cfg.dt > 0.0 else math.nan
    if ticks == math.inf:
        bad(f"duration = {cfg.duration} over dt = {cfg.dt} makes infinitely many ticks")
    per_tick = cfg.trace_rate * cfg.dt
    if min(cfg.trace_rate, cfg.dt) > 0.0 and (per_tick == 0.0 or 1.0 / per_tick == math.inf):
        bad(f"trace_rate = {cfg.trace_rate} at dt = {cfg.dt} makes infinitely many "
            "ticks between samples")
    for omega, spread in (("ref.omega", "ref.freq_var"), ("drone.omega", "drone.freq_var")):
        base, var = value(omega), value(spread)
        if not (base + var) - (base - var) < math.inf:
            bad(f"{omega} +/- {spread} must span a finite range, got {base} +/- {var}")
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
    elif cfg.smoothing_window > sys.maxsize:
        bad(f"smoothing.window must be <= {sys.maxsize}, got {cfg.smoothing_window}")
    if not 0.0 < cfg.smoothing_alpha <= 1.0:
        bad(f"smoothing.alpha must be in (0, 1], got {cfg.smoothing_alpha}")
    if cfg.medium_collision_policy not in COLLISION_POLICIES:
        bad(f"medium.collision_policy must be one of {COLLISION_POLICIES}")
    if cfg.drone_k_hidden > 0.0:
        bad(f"drone.k_hidden must be <= 0, got {cfg.drone_k_hidden}")
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
    if cfg.events and cfg.model != "drone":
        bad(f"scenario.events apply to the drone model only, not to {cfg.model!r}")
    # The engine applies events only after a tick, none later than the last one's end + 1e-12.
    end = round(ticks) * cfg.dt if math.isfinite(ticks) else math.inf
    for ev in cfg.events:
        if not 0.0 <= ev.time <= cfg.duration:
            bad(f"event time {ev.time} outside run [0, {cfg.duration}]")
        elif end == 0.0 or ev.time > end + 1e-12:
            bad(f"event time {ev.time} is never reached: the run's ticks end at t={end:.9g}")
        if ev.kind == "spawn":
            if not _is_point(ev.pos):
                bad(f"spawn at t={ev.time} needs a position of two coordinates, got {ev.pos!r}")
            elif not max(abs(c) for c in ev.pos) < COORD_LIMIT:
                bad(f"spawn at t={ev.time}: position {tuple(ev.pos)} must have every "
                    f"coordinate below {COORD_LIMIT:.3g} in magnitude")
        elif ev.kind == "despawn":
            if not (ev.target == "nearest_centroid" or _typed(ev.target, numbers.Integral)):
                bad(f"despawn at t={ev.time} needs an agent id or 'nearest_centroid', "
                    f"got {ev.target!r}")
        else:
            bad(f"event at t={ev.time}: kind must be 'spawn' or 'despawn', got {ev.kind!r}")

    if problems:
        raise ConfigError(problems)


def formation_positions(cfg: ScenarioConfig) -> list[np.ndarray]:
    """Initial positions for the configured formation.

    Placement draws come from a stream derived from (but distinct from)
    the scenario seed, so two configs differing only in formation still
    draw identical phases for their agents.
    """
    if cfg.formation == "quincunx":
        return [np.array(p, dtype=np.float64) for p in QUINCUNX_POSITIONS]
    if cfg.formation == "random":
        rng = seeded_rng(cfg.seed + 1000)
        return [rng.uniform(-1.0, 1.0, 2) for _ in range(cfg.n)]
    if cfg.formation == "line":
        offset = 0.5 * (cfg.n - 1) / 2.0
        return [np.array([0.5 * i - offset, 0.0]) for i in range(cfg.n)]
    # "ring", the one formation left.
    return [
        np.array(
            [
                0.5 * math.cos(2.0 * math.pi * i / cfg.n),
                0.5 * math.sin(2.0 * math.pi * i / cfg.n),
            ]
        )
        for i in range(cfg.n)
    ]
