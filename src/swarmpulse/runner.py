"""Deterministic run orchestration: config in, traces and summary out.

One call builds the configured model, simulates it on a single
timeline, and collects the three trace tables plus a summary dict. The
same config and seed always produce byte-identical trace files.

All three models end in one function, `_result`, which takes a run's
trace columns (the sample times and agent counts, flat ids, phases and
hidden phases, the (rows, 2) position and velocity arrays, the
cumulative collision count per sample) and keeps them as they are: it
computes every sample's observables in one `metrics.sample_metrics`
call over them and joins them into one `traces.TraceTable` per trace
file, which `RunResult` exposes as `phase_rows`, `position_rows` and
`metric_rows`: views that give `len()` without building rows and yield
row tuples when iterated. Every driver hands it arrays: the reference
driver `run_reference`'s, reshaped to one row per agent per sample, so
no sample is copied; the pulse driver (samples, n) arrays it fills as it
steps; the drone driver the columns its engine kept while it ran
(`DroneSwarmEngine.trace_columns`). The summary holds the last
sample's observables plus the driver's add-ons (pulse: `fires_total`;
reference: `max_speed`, `rainbow_correlation`; drone: `max_speed`,
`medium`, `broadcasts`). `run_config` writes the tables through
`write_csv` and `write_summary`, looked up as this module's globals on
every call.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
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
    TraceTable,
    write_csv,
    write_summary,
)

DEFAULT_OUT = "runs"


@dataclass
class RunResult:
    name: str
    cfg: ScenarioConfig
    phase_rows: TraceTable
    position_rows: TraceTable
    metric_rows: TraceTable
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


def _result(cfg: ScenarioConfig, name: str, times, counts, ids, theta, hidden, pos, vel,
            collisions, *, phase_scale: float = 1.0, fire_log=(), final=None,
            **extra) -> RunResult:
    """The run's result from its trace columns, which it keeps as they are.

    Sample k covers `counts[k]` consecutive rows, all at time `times[k]`.
    `ids`, `theta` and `hidden` have one entry per row and `pos` and
    `vel` one (x, y) row per row; `hidden`, or `pos` and `vel`, may be
    None for a model that does not define them. `collisions` has one
    entry per sample. `phase_scale` converts `theta` to radians for the
    metrics: 1 for models that trace radians, TAU for the pulse model's
    unit phases. `final` extends the summary's `final` block and `extra`
    adds top-level summary keys.
    """
    phases = TraceTable(times, counts, [ids, theta, hidden])
    if pos is not None:
        positions = TraceTable(times, counts, [ids, *pos.T, *vel.T])
    else:
        positions = TraceTable(times, np.zeros(len(times)), [None] * 5)
    # A scale of 1 is skipped: multiplying would copy the phase column.
    radians = theta if phase_scale == 1.0 else theta * phase_scale
    observed = metrics_mod.sample_metrics(counts, radians, pos)
    metrics = TraceTable(times, np.ones(len(times)), [
        *(observed.get(key) for key in METRICS_HEADER[1:7]), collisions,
    ])
    last = {key: float(col[-1]) for key, col in observed.items()}

    summary = {
        "scenario": name,
        "model": cfg.model,
        "seed": cfg.seed,
        "duration": cfg.duration,
        "dt": cfg.dt,
        "agents_final": int(counts[-1]),
        "final": {
            "t": float(times[-1]),
            **{key: None if v != v else v for key, v in last.items()},
            **(final or {}),
        },
        **extra,
    }
    return RunResult(name, cfg, phases, positions, metrics, list(fire_log), summary)


# -- pulse ---------------------------------------------------------------


def _run_pulse(cfg: ScenarioConfig, name: str) -> RunResult:
    rng = seeded_rng(cfg.seed)
    pop = PulsePopulation(list(rng.uniform(0.0, 1.0, cfg.n)), cfg.pulse_k, cfg.pulse_rate)
    fire_log: list[tuple[float, int]] = []
    steps = int(round(cfg.duration / cfg.dt))
    every = _sample_every(cfg)
    samples = steps // every + 1 + (steps % every != 0)
    times, thetas = np.empty(samples), np.empty((samples, cfg.n))
    times[0], thetas[0], sample = pop.t, pop.phases, 1
    for step in range(1, steps + 1):
        fire_log.extend(pop.advance(cfg.dt))
        if step % every == 0 or step == steps:
            times[sample], thetas[sample] = pop.t, pop.phases
            sample += 1
    return _result(cfg, name, times, np.full(samples, cfg.n), np.tile(np.arange(cfg.n), samples),
                   thetas.reshape(-1), None, None, None, np.zeros(samples, dtype=np.int64),
                   phase_scale=TAU, fire_log=fire_log, fires_total=len(fire_log))


# -- reference swarmalator -------------------------------------------------


def _run_reference(cfg: ScenarioConfig, name: str) -> RunResult:
    params = SwarmParams(n=cfg.n, k=cfg.ref_k, j=cfg.ref_j, a=cfg.ref_a, b=cfg.ref_b,
                         freq_var=cfg.ref_freq_var)
    trace = run_reference(params, cfg.duration, cfg.dt, seeded_rng(cfg.seed),
                          base_omega=cfg.ref_omega, trace_every=_sample_every(cfg))
    samples, n = trace.thetas.shape
    return _result(
        cfg, name, trace.times, np.full(samples, n), np.tile(np.arange(n), samples),
        trace.thetas.reshape(-1), None, trace.positions.reshape(-1, 2),
        trace.velocities.reshape(-1, 2), np.zeros(samples, dtype=np.int64),
        final={
            "max_speed": float(np.max(np.linalg.norm(trace.velocities[-1], axis=1))),
            "rainbow_correlation": metrics_mod.rainbow_correlation(
                trace.positions[-1], trace.thetas[-1]
            ),
        },
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
    engine.run(cfg.duration, sample_every=_sample_every(cfg))
    columns = engine.trace_columns()
    counts, vel = columns[1], columns[6]
    final_speed = max(
        (float(np.linalg.norm(v)) for v in vel[len(vel) - counts[-1]:]), default=0.0
    )
    if len(engine.fire_log) >= 2:
        mean_gap, min_gap, jain = metrics_mod.broadcast_spacing_stats(
            [[t for t, _ in engine.fire_log]]
        )
    else:
        mean_gap = min_gap = jain = None
    return _result(
        cfg, name, *columns,
        fire_log=engine.fire_log,
        final={"max_speed": final_speed},
        medium={**asdict(engine.medium.stats), "in_flight": engine.medium.in_flight()},
        broadcasts={
            "total": len(engine.fire_log),
            "mean_gap": mean_gap,
            "min_gap": min_gap,
            "jain_fairness": jain,
        },
    )
