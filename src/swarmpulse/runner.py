"""Deterministic run orchestration: config in, traces and summary out.

One call builds the configured model, simulates it on a single
timeline, and collects the three trace tables plus a summary dict. The
same config and seed always produce byte-identical trace files.

All three models share one sample path: a short driver per model steps
it and hands each sample, as it is taken, to `_Recorder.record`, which
appends the phase, position and metric rows; `_Recorder.finish` builds
the summary from the last metric row plus the driver's add-ons (pulse:
`fires_total`; reference: `max_speed`, `rainbow_correlation`; drone:
`max_speed`, `medium`, `broadcasts`).
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from .config import ScenarioConfig, formation_positions
from .drone import DroneParams
from .engine import DroneSwarmEngine
from .geometry import TAU, seeded_rng
from .medium import BroadcastMedium
from .pulse import PulsePopulation
from .reference import SwarmParams, run_reference
from .smoothing import make_filter
from .traces import (
    METRICS_HEADER,
    PHASE_HEADER,
    POSITION_HEADER,
    write_csv,
    write_summary,
)

DEFAULT_OUT = "runs"


@dataclass
class RunResult:
    name: str
    cfg: ScenarioConfig
    phase_rows: list[tuple]
    position_rows: list[tuple]
    metric_rows: list[tuple]
    fire_log: list[tuple[float, int]]
    summary: dict
    paths: dict[str, Path] | None = None


def resolve_out_dir(cfg: ScenarioConfig, out_opt: str | None) -> Path:
    """Precedence: --out flag, config output.dir, SWARMPULSE_OUT, ./runs."""
    if out_opt:
        return Path(out_opt)
    if cfg.out_dir:
        return Path(cfg.out_dir)
    env = os.environ.get("SWARMPULSE_OUT")
    if env:
        return Path(env)
    return Path(DEFAULT_OUT)


def _sample_every(cfg: ScenarioConfig) -> int:
    return max(1, round(1.0 / (cfg.trace_rate * cfg.dt)))


def run_config(
    cfg: ScenarioConfig,
    name: str = "run",
    out_dir: str | None = None,
    write: bool = True,
) -> RunResult:
    """Execute one scenario; optionally write its trace files."""
    if cfg.model == "pulse":
        result = _run_pulse(cfg, name)
    elif cfg.model == "reference_swarmalator":
        result = _run_reference(cfg, name)
    elif cfg.model == "drone":
        result = _run_drone(cfg, name)
    else:
        raise ValueError(f"unknown model {cfg.model!r}")

    if write:
        base = resolve_out_dir(cfg, out_dir) / name
        base.mkdir(parents=True, exist_ok=True)
        paths = {
            "phases": base / "phases.csv",
            "positions": base / "positions.csv",
            "metrics": base / "metrics.csv",
            "summary": base / "summary.json",
        }
        write_csv(paths["phases"], PHASE_HEADER, result.phase_rows)
        write_csv(paths["positions"], POSITION_HEADER, result.position_rows)
        write_csv(paths["metrics"], METRICS_HEADER, result.metric_rows)
        write_summary(paths["summary"], result.summary)
        result.paths = paths
    return result


class _Recorder:
    """Trace rows and metric rows of one run, built one sample at a time.

    `phase_scale` converts the phase column to radians for the metrics:
    1 for models that trace radians, TAU for the pulse model's unit phases.
    """

    def __init__(self, cfg: ScenarioConfig, name: str, phase_scale: float = 1.0):
        self.cfg = cfg
        self.name = name
        self.phase_scale = phase_scale
        self.phase_rows: list[tuple] = []
        self.position_rows: list[tuple] = []
        self.metric_rows: list[tuple] = []
        self.agents = 0

    def record(self, t, ids, theta, hidden=None, pos=None, vel=None, collisions=0) -> None:
        """Append the rows of one sample; `ids`, `theta`, `hidden`, `pos`
        and `vel` run over the same agents in the same order."""
        self.agents = len(ids)
        self.phase_rows.extend(
            zip(repeat(t), ids, theta, repeat(None) if hidden is None else hidden)
        )
        if self.phase_scale != 1.0:
            theta = [p * self.phase_scale for p in theta]
        spacing = (None,) * 4
        if pos is not None:
            self.position_rows.extend(
                (t, i, float(p[0]), float(p[1]), float(v[0]), float(v[1]))
                for i, p, v in zip(ids, pos, vel)
            )
            if len(ids) >= 2:
                s = metrics_mod.pairwise_spacing(pos, t)
                spacing = (s.am, s.gm, s.min, s.max)
        self.metric_rows.append((
            t, metrics_mod.order_parameter(theta), metrics_mod.max_pair_diff(theta),
            *spacing, collisions,
        ))

    def finish(self, fire_log=(), final=None, **extra) -> RunResult:
        """The run's result; `final` extends the summary's `final` block
        and `extra` adds top-level summary keys."""
        keys = METRICS_HEADER[:7] if self.position_rows else METRICS_HEADER[:3]
        cfg = self.cfg
        summary = {
            "scenario": self.name,
            "model": cfg.model,
            "seed": cfg.seed,
            "duration": cfg.duration,
            "dt": cfg.dt,
            "agents_final": self.agents,
            "final": {**dict(zip(keys, self.metric_rows[-1])), **(final or {})},
            **extra,
        }
        return RunResult(self.name, cfg, self.phase_rows, self.position_rows,
                         self.metric_rows, list(fire_log), summary)


# -- pulse ---------------------------------------------------------------


def _run_pulse(cfg: ScenarioConfig, name: str) -> RunResult:
    rng = seeded_rng(cfg.seed)
    pop = PulsePopulation(list(rng.uniform(0.0, 1.0, cfg.n)), cfg.pulse_k, cfg.pulse_rate)
    rec = _Recorder(cfg, name, phase_scale=TAU)
    ids = range(cfg.n)
    fire_log: list[tuple[float, int]] = []

    rec.record(pop.t, ids, pop.phases)
    steps = int(round(cfg.duration / cfg.dt))
    every = _sample_every(cfg)
    for step in range(1, steps + 1):
        fire_log.extend((event.time, event.osc_id) for event in pop.advance(cfg.dt))
        if step % every == 0 or step == steps:
            rec.record(pop.t, ids, pop.phases)
    return rec.finish(fire_log, fires_total=len(fire_log))


# -- reference swarmalator -------------------------------------------------


def _run_reference(cfg: ScenarioConfig, name: str) -> RunResult:
    params = SwarmParams(n=cfg.n, k=cfg.ref_k, j=cfg.ref_j, a=cfg.ref_a, b=cfg.ref_b,
                         freq_var=cfg.ref_freq_var)
    trace = run_reference(params, cfg.duration, cfg.dt, seeded_rng(cfg.seed),
                          base_omega=cfg.ref_omega, trace_every=_sample_every(cfg))
    rec = _Recorder(cfg, name)
    ids = range(cfg.n)
    for t, pos, theta, vel in zip(
        trace.times.tolist(), trace.positions, trace.thetas, trace.velocities
    ):
        rec.record(t, ids, theta.tolist(), pos=pos, vel=vel)
    return rec.finish(
        final={
            "max_speed": float(np.max(np.linalg.norm(trace.velocities[-1], axis=1))),
            "rainbow_correlation": metrics_mod.rainbow_correlation(
                trace.positions[-1], trace.thetas[-1]
            ),
        }
    )


# -- drone ----------------------------------------------------------------


def build_drone_engine(cfg: ScenarioConfig) -> DroneSwarmEngine:
    """Engine exactly as the bundled scenarios construct it."""
    params = DroneParams(
        k_visible=cfg.drone_k_visible,
        k_hidden=cfg.drone_k_hidden,
        j=cfg.drone_j,
        a=cfg.drone_a,
        b=cfg.drone_b,
        speed_cap=cfg.drone_speed_cap,
        freq_var=cfg.drone_freq_var,
    )
    medium = BroadcastMedium(
        airtime=cfg.medium_airtime, collision_policy=cfg.medium_collision_policy
    )
    engine = DroneSwarmEngine(
        params=params,
        medium=medium,
        rng=seeded_rng(cfg.seed),
        dt=cfg.dt,
        base_omega=cfg.drone_omega,
        hidden_in_payload=cfg.drone_hidden_in_payload,
        filter_factory=lambda: make_filter(
            cfg.smoothing_mode, cfg.smoothing_window, cfg.smoothing_alpha
        ),
        events=cfg.events,
    )
    for pos in formation_positions(cfg):
        engine.add_drone(pos)
    return engine


def _run_drone(cfg: ScenarioConfig, name: str) -> RunResult:
    engine = build_drone_engine(cfg)
    rec = _Recorder(cfg, name)

    def on_sample(eng: DroneSwarmEngine) -> None:
        alive = eng.alive_drones()
        rec.record(eng.t, [d.id for d in alive], [d.theta for d in alive],
                   hidden=[d.hidden for d in alive], pos=[d.pos for d in alive],
                   vel=[d.command for d in alive], collisions=eng.medium.collision_count())

    engine.run(cfg.duration, sample_every=_sample_every(cfg), on_sample=on_sample)

    final_speed = max(
        (float(np.linalg.norm(d.command)) for d in engine.alive_drones()), default=0.0
    )
    if len(engine.fire_log) >= 2:
        mean_gap, min_gap, jain = metrics_mod.broadcast_spacing_stats(
            [[t for t, _ in engine.fire_log]]
        )
    else:
        mean_gap = min_gap = jain = None
    return rec.finish(
        engine.fire_log,
        final={"max_speed": final_speed},
        medium={**asdict(engine.medium.stats), "in_flight": engine.medium.in_flight()},
        broadcasts={
            "total": len(engine.fire_log),
            "mean_gap": mean_gap,
            "min_gap": min_gap,
            "jain_fairness": jain,
        },
    )
