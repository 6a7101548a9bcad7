"""Golden pins: every bundled scenario, run at its own seed, must write
exactly the bytes recorded in `golden_hashes.json`.

c12 compares two runs in the same process, so a change that shifts
every run the same way passes it; these digests do not move with the
code. A deliberate change of output is re-pinned in its own commit:
copy the digests this test prints into `golden_hashes.json` and say why
in `CHANGES.md`.

`golden_variant_hashes.json` pins the same four files for drone runs
the bundled scenarios never reach: `quincunx_ma10` with a few override
lines each (a crowd, the deliver_all channel, exponential smoothing
with the hidden phase in the payload, negative rates, several hidden
wraps in one tick, a spawn on top of a live drone, a spawn and a
despawn with pulses in flight, slow clocks of unequal rates whose quiet
stretches span thousands of ticks, with a spawn and a despawn inside
them, and the same slow clocks sampled off the tick grid, so the run
ends on an extra final sample taken inside a glide), for a pulse run
that ends on an extra final sample, and for reference runs at sizes and
signs where numpy's reductions change their order: `table1_static_sync`
with a few override lines each (5 agents, below numpy's 8-way unrolled
sum; 150, above its 128-element pairwise block; spread frequencies
about a non-zero base; negative k and j; a step count that is not a
multiple of the sampling interval, so the run ends on an extra final
sample). Each variant's
`test_variant_reaches_its_path` shows the run really takes that path.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from swarmpulse import drone
from swarmpulse.config import parse_config
from swarmpulse.engine import DroneSwarmEngine
from swarmpulse.geometry import TAU, seeded_rng
from swarmpulse.reference import init_state
from swarmpulse.runner import _sample_every, build_drone_engine, run_config
from swarmpulse.scenarios import SCENARIO_NAMES, scenario_text

from helpers import drones

HERE = Path(__file__).parent
GOLDEN = json.loads((HERE / "golden_hashes.json").read_text())
GOLDEN_VARIANTS = json.loads((HERE / "golden_variant_hashes.json").read_text())
FILES = ("phases.csv", "positions.csv", "metrics.csv", "summary.json")

# name -> config lines appended to quincunx_ma10, or to table1_static_sync
# for a "ref_" name (a later line wins).
VARIANTS = {
    "crowd_n80_drop_all": [
        "duration = 2.0", "scenario.n = 80", "scenario.formation = random",
        "medium.collision_policy = drop_all",
    ],
    "deliver_all": [
        "duration = 3.0", "scenario.n = 20", "scenario.formation = random",
        "medium.airtime = 0.05", "medium.collision_policy = deliver_all",
    ],
    "exponential_payload": [
        "duration = 5.0", "smoothing.mode = exponential", "smoothing.alpha = 0.8",
        "drone.hidden_phase_in_payload = true",
    ],
    "negative_rates": ["duration = 10.0", "drone.freq_var = 10.0"],
    "multi_fire": ["duration = 1.0", "drone.omega = 2000.0", "medium.airtime = 0.0"],
    "spawn_on_drone": [
        # j = 0 makes a command independent of the phases, so the spawned
        # drone and the one under it move as one until either broadcasts;
        # with no airtime the pulse lands before either moves again.
        "duration = 5.0", "drone.j = 0.0", "medium.airtime = 0.0",
        "scenario.events = 0.0 spawn 0.0 0.0",
        "scenario.events = 3.0 despawn nearest_centroid",
    ],
    "churn_in_flight": [
        # A 0.05 s airtime keeps pulses in flight across both events.
        "duration = 3.0", "scenario.n = 12", "scenario.formation = random",
        "medium.airtime = 0.05", "medium.collision_policy = deliver_all",
        "scenario.events = 0.34 spawn 0.2 0.1",
        "scenario.events = 0.36 despawn 6",
    ],
    "slow_clocks": [
        # Rates of 0.15 to 0.45 rad/s, periods of 14 to 42 s: seconds pass
        # between pulses, and the trace samples, the spawn and the despawn
        # fall between them.
        "duration = 120.0", "trace_rate = 5.0", "drone.omega = 0.3",
        "drone.freq_var = 0.15", "scenario.events = 32.0 spawn 0.5 0.5",
        "scenario.events = 90.0 despawn 2",
    ],
    "ref_n5": ["duration = 30.0", "ref.n = 5"],
    "ref_n150": ["duration = 1.0", "ref.n = 150"],
    "ref_freq_var_omega": ["duration = 30.0", "ref.freq_var = 0.5", "ref.omega = 1.0"],
    "ref_negative_k_j": ["duration = 30.0", "ref.k = -0.5", "ref.j = -0.5"],
    # 3000 steps, one sample every 33: the last sample is the extra final one.
    "ref_partial_sample": ["duration = 30.0", "trace_rate = 3.0"],
    # 1000 steps, one sample every 17.
    "pulse_partial_sample": ["duration = 20.0", "trace_rate = 3.0"],
}
# 24000 ticks, one sample every 67; the last tick is glided.
VARIANTS["drone_partial_sample"] = [*VARIANTS["slow_clocks"], "trace_rate = 3.0"]


def variant_text(name: str) -> str:
    base = {"ref": "table1_static_sync", "pulse": "pulse_n9"}.get(name.split("_")[0],
                                                                 "quincunx_ma10")
    return scenario_text(base) + "\n".join(VARIANTS[name]) + "\n"


def digests(base: Path) -> dict[str, str]:
    return {f: hashlib.sha256((base / f).read_bytes()).hexdigest() for f in FILES}


def moved(name: str, got: dict[str, str], pinned: dict[str, str]) -> str:
    """A pin failure's message: the files whose digest moved, then every
    new digest of run `name`."""
    files = ", ".join(f for f in FILES if got[f] != pinned.get(f))
    return f"{name} output changed in {files}; new digests:\n" + json.dumps({name: got}, indent=2)


def test_every_bundled_scenario_is_pinned():
    assert sorted(GOLDEN) == sorted(SCENARIO_NAMES)


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_bundled_outputs_match_pins(name, tmp_path):
    run_config(parse_config(scenario_text(name)), name=name, out_dir=str(tmp_path))
    got = digests(tmp_path / name)
    assert got == GOLDEN[name], moved(name, got, GOLDEN[name])


def test_every_variant_is_pinned():
    assert sorted(GOLDEN_VARIANTS) == sorted(VARIANTS)


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_variant_outputs_match_pins(name, tmp_path):
    run_config(parse_config(variant_text(name)), name=name, out_dir=str(tmp_path))
    got = digests(tmp_path / name)
    assert got == GOLDEN_VARIANTS[name], moved(name, got, GOLDEN_VARIANTS[name])


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_variant_reaches_its_path(name, monkeypatch):
    cfg = parse_config(variant_text(name))
    if name.startswith("ref_"):
        assert cfg.model == "reference_swarmalator"
        if name == "ref_n5":
            assert cfg.n < 8
        elif name == "ref_n150":
            assert cfg.n > 128
        elif name == "ref_freq_var_omega":
            omega = init_state(cfg, seeded_rng(cfg.seed))[2]
            assert omega.min() < cfg.ref_omega < omega.max() and len(set(omega)) == cfg.n
        elif name == "ref_negative_k_j":
            assert cfg.ref_k < 0.0 and cfg.ref_j < 0.0
        elif name == "ref_partial_sample":
            assert round(cfg.duration / cfg.dt) % _sample_every(cfg) != 0
        return
    if name.startswith("pulse_"):
        assert cfg.model == "pulse"
        assert round(cfg.duration / cfg.dt) % _sample_every(cfg) != 0
        return
    engine = build_drone_engine(cfg)
    alive = drones(engine)
    if name == "crowd_n80_drop_all":
        engine.run(cfg.duration)
        assert len(alive) == 80 and engine.medium.stats.dropped > 0
    elif name == "deliver_all":
        engine.run(cfg.duration)
        assert engine.medium.stats.collisions > 0 and engine.medium.stats.dropped == 0
    elif name == "exponential_payload":
        assert cfg.drone_hidden_in_payload and cfg.smoothing_mode == "exponential"
    elif name == "negative_rates":
        rates = [r for d in alive for r in (d.omega, d.hidden_omega)]
        assert min(rates) < 0.0 < max(rates)
    elif name == "multi_fire":
        assert cfg.drone_omega * cfg.dt > TAU
        engine.run(cfg.dt)
        senders = [s for _, s in engine.fire_log]
        assert len(senders) > len(set(senders))
    elif name == "spawn_on_drone":
        fallbacks = []
        draw = drone.random_unit
        monkeypatch.setattr(drone, "random_unit", lambda rng: fallbacks.append(1) or draw(rng))
        engine.run(cfg.dt)
        *rest, spawned = drones(engine)
        assert any(math.dist(d.pos, spawned.pos) == 0.0 for d in rest)
        engine.run(cfg.duration)
        assert fallbacks and len(engine.state.ids) == len(alive)
    elif name == "churn_in_flight":
        for event in cfg.events:
            engine.run(event.time)
            pending = [s for t, s in engine.fire_log if t + cfg.medium_airtime > event.time]
            assert engine.medium.in_flight() == len(pending) > 0
        # The despawned drone 6 has a pulse of its own still in flight.
        assert 6 in pending and 6 not in engine.state.ids
    elif name == "slow_clocks":
        rates = [r for d in alive for r in (d.omega, d.hidden_omega)]
        assert min(rates) > 0.0 and len(set(rates)) == len(rates)
        engine.run(cfg.duration)
        times = sorted(t for t, _ in engine.fire_log)
        gaps = list(zip(times, times[1:]))
        assert max(b - a for a, b in gaps) > 2000 * cfg.dt
        # Each event is more than a second from the nearest pulse.
        for event in cfg.events:
            assert any(a + 1.0 < event.time < b - 1.0 for a, b in gaps)
    elif name == "drone_partial_sample":
        total = round(cfg.duration / cfg.dt)
        assert total % _sample_every(cfg) != 0
        stepped, step = [], DroneSwarmEngine.step
        monkeypatch.setattr(DroneSwarmEngine, "step",
                            lambda self: step(self) or stepped.append(self.tick))
        engine.run(cfg.duration)
        assert engine.tick == total and stepped and stepped[-1] < total
