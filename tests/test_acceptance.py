"""End-to-end acceptance checks over the bundled scenarios.

Each test evaluates one numbered behavioural guarantee at its stated
tolerance and prints a single PASS/FAIL line (run with `pytest -s` to
see them all). Check 3 currently fails and is deliberately left red:

* check 3: with strongly negative phase coupling (k = -0.7, j = 0.8)
  the reference model, which implements the O'Keeffe, Ha & Strogatz
  (2017) swarmalator equations exactly, sits in a moving phase-wave
  regime rather than a frozen ring. Over the final third of a 300 s run
  the mean speed stays near 0.1 and |rc| wanders widely within a single
  run (0.39 to 0.75 on seed 9); its time average is 0.57 to 0.77 across
  seeds, so the single final sample clears the > 0.7 bar on only some
  seeds. The final R is 0.01 to 0.05 on every seed (under 0.1 all
  through the final third), so the desynchronised half of the check
  holds. No program fault has been found; the bar is kept as it is.
* check 5: hidden-phase staggering must spread the five quincunx
  drones' broadcasts evenly over the period (gap fairness > 0.9) with no
  collisions once settled. It holds because every heard pulse repels
  the hidden phase through sin(psi) / (2 - cos(psi)), whose harmonics
  all repel (see `swarmpulse.drone`). A bare sin(psi) response fails
  this check: it leaves N-3 directions neutral for N >= 4, pulse kicks
  gather the drones into antiphase pairs, and fairness settles near
  0.65 to 0.72.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from swarmpulse import metrics
from swarmpulse.config import parse_config
from swarmpulse.drone import DroneParams
from swarmpulse.geometry import TAU, seeded_rng, vec
from swarmpulse.pulse import PulsePopulation
from swarmpulse.reference import SwarmParams, step_phases, step_positions
from swarmpulse.runner import build_drone_engine, run_config
from swarmpulse.scenarios import SCENARIO_NAMES, scenario_text
from swarmpulse.smoothing import ExponentialFilter, MovingAverageFilter

from helpers import (
    circ_diff,
    drones,
    formation_error,
    mean_phase,
    min_spread_over,
    run_to_sync,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"acceptance {num} ({name}) failed: {detail}"


def run_named(name: str, seed: int | None = None):
    cfg = parse_config(scenario_text(name))
    if seed is not None:
        cfg.seed = seed
    return run_config(cfg, name=name, write=False)


def metric_series(result, col: str):
    idx = {"t": 0, "order_param": 1, "max_pair_diff": 2, "am": 3, "gm": 4,
           "min": 5, "max": 6, "collisions_cum": 7}[col]
    ts = np.array([row[0] for row in result.metric_rows])
    vals = np.array([np.nan if row[idx] is None else row[idx]
                     for row in result.metric_rows])
    return ts, vals


def frames(rows, value_slice):
    """Group per-agent rows by sample time, preserving order."""
    out: dict[float, dict[int, tuple]] = {}
    for row in rows:
        out.setdefault(row[0], {})[row[1]] = row[value_slice]
    return sorted(out.items())


def thirds(ts, vals):
    n = len(ts)
    return vals[: n // 3], vals[-(n // 3):]


# -- fixtures ---------------------------------------------------------------


@pytest.fixture(scope="module")
def quincunx_runs():
    return {
        name: run_named(name)
        for name in ("quincunx_nosmooth", "quincunx_exp08", "quincunx_ma10", "quincunx_ma20")
    }


@pytest.fixture(scope="module")
def dropout_run():
    return run_named("dropout_mid")


@pytest.fixture(scope="module")
def join_run():
    return run_named("join_mid")


# -- 1: pulse-model synchronisation ----------------------------------------


def test_c01_pulse_synchronisation():
    started = time.perf_counter()
    successes = 0
    for seed in range(50):
        rng = seeded_rng(seed)
        pop = PulsePopulation(list(rng.uniform(0.0, 1.0, 9)), 0.05, rate=1.0)
        if run_to_sync(pop, 100.0, 0.01) is not None:
            successes += 1

    rng = seeded_rng(0)
    uncoupled = PulsePopulation(list(rng.uniform(0.0, 1.0, 9)), 0.0, rate=1.0)
    floor_start = uncoupled.spread()
    floor = min_spread_over(uncoupled, 100.0)
    elapsed = time.perf_counter() - started

    ok = successes >= 48 and floor >= floor_start - 1e-9 and elapsed < 5.0
    _report(1, "pulse synchronisation", ok,
            f"sync {successes}/50 seeds, uncoupled spread floor "
            f"{floor:.6f} vs {floor_start:.6f}, {elapsed:.2f}s")


# -- 2: static sync endpoint -------------------------------------------------


def test_c02_static_sync():
    worst_r, worst_speed, worst_min = 1.0, 0.0, math.inf
    for seed in range(10):
        final = run_named("table1_static_sync", seed=seed).summary["final"]
        worst_r = min(worst_r, final["order_param"])
        worst_speed = max(worst_speed, final["max_speed"])
        worst_min = min(worst_min, final["min"])
    ok = worst_r > 0.99 and worst_speed < 1e-3 and worst_min > 0.0
    _report(2, "static sync", ok,
            f"worst over 10 seeds: R={worst_r:.5f}, "
            f"max_speed={worst_speed:.2e}, min_dist={worst_min:.3f}")


# -- 3: rainbow desynchronisation --------------------------------------------


def test_c03_rainbow_desync():
    details = []
    ok = True
    for seed in range(10):
        final = run_named("table2_rainbow", seed=seed).summary["final"]
        rc = final["rainbow_correlation"]
        seed_ok = final["order_param"] < 0.5 and rc is not None and abs(rc) > 0.7
        ok = ok and seed_ok
        rc_text = "None" if rc is None else f"{rc:+.2f}"
        details.append(f"{seed}:R={final['order_param']:.2f},rc={rc_text}")
    _report(3, "rainbow desync", ok, " ".join(details))


# -- 4: coupling sweep ---------------------------------------------------------


def test_c04_coupling_sweep():
    # zero coupling: order parameter pinned to its initial value
    ts, rs = metric_series(run_named("sync_k000"), "order_param")
    drift = float(np.max(np.abs(rs - rs[0])))
    hold_ok = drift <= 0.05

    # moderate coupling: crosses 0.95 within 5 periods (1 s each)
    ts, rs = metric_series(run_named("sync_k005"), "order_param")
    crossed = ts[rs >= 0.95]
    cross_ok = len(crossed) > 0 and float(crossed[0]) <= 5.0
    t_cross = float(crossed[0]) if len(crossed) else math.inf

    # over-strong coupling: a newcomer yanks the synced group; the gap
    # between group phase and newcomer more than halves within 1 period
    run = run_named("sync_k025")
    gap_by_t = []
    for t, agents in frames(run.phase_rows, slice(2, 3)):
        if 5 in agents:
            group = mean_phase([agents[i][0] for i in range(5)])
            gap_by_t.append((t, abs(circ_diff(agents[5][0], group))))
    gap0 = gap_by_t[0][1]
    gap1 = next(g for t, g in gap_by_t if t >= gap_by_t[0][0] + 1.0)
    pull_ok = gap1 < 0.5 * gap0

    ok = hold_ok and cross_ok and pull_ok
    _report(4, "coupling sweep", ok,
            f"k=0 drift {drift:.2e}; k=0.05 crossed at {t_cross:.2f}s; "
            f"k=0.25 gap {gap0:.3f}->{gap1:.3f} within one period")


# -- 5: dual-phase medium access ----------------------------------------------


def test_c05_dual_phase_medium_access():
    cfg = parse_config(scenario_text("quincunx_ma10"))
    engine = build_drone_engine(cfg)
    engine.run(20.0)
    collisions_at_settle = engine.medium.stats.collisions
    engine.run(60.0)
    new_collisions = engine.medium.stats.collisions - collisions_at_settle

    per_agent = {}
    for t, aid in engine.fire_log:
        if t > 20.0:
            per_agent.setdefault(aid, []).append(t)
    _, _, jain = metrics.broadcast_spacing_stats(per_agent.values())

    control_cfg = parse_config(scenario_text("quincunx_ma10"))
    control_cfg.drone_k_hidden = 0.0
    control = build_drone_engine(control_cfg)
    for d in drones(control):
        d.hidden = 1.0
    control.run(60.0)
    control_collisions = control.medium.stats.collisions

    ok = new_collisions == 0 and jain > 0.9 and control_collisions >= 1
    _report(5, "dual-phase medium access", ok,
            f"collisions after settling {new_collisions}, gap fairness "
            f"{jain:.3f} (bar 0.9), control collisions {control_collisions}")


# -- 6: quincunx swarming with smoothing ---------------------------------------


def _am_stats(run):
    ts, am = metric_series(run, "am")
    first, last = thirds(ts, am)
    return {
        "am0": float(am[0]),
        "final_mean": float(np.mean(last)),
        "std_first": float(np.std(first)),
        "std_last": float(np.std(last)),
        "ts": ts,
        "am": am,
    }


def _formation_series(run, target):
    out = []
    for t, agents in frames(run.position_rows, slice(2, 4)):
        pos = np.array([agents[i] for i in sorted(agents)])
        out.append((t, formation_error(pos, target)))
    return out


def test_c06_quincunx_smoothing(quincunx_runs):
    stats = {name: _am_stats(run) for name, run in quincunx_runs.items()}
    details = []
    ok = True
    for name in ("quincunx_exp08", "quincunx_ma10", "quincunx_ma20"):
        s = stats[name]
        fes = _formation_series(quincunx_runs[name], "pentagon_ring")
        fe0 = fes[0][1]
        fe_last = float(np.mean([fe for _, fe in fes[-(len(fes) // 3):]]))
        settled = s["std_last"] < 0.25 * s["std_first"]
        contracted = s["final_mean"] < s["am0"]
        formed = fe_last < fe0
        ok = ok and settled and contracted and formed
        details.append(
            f"{name.removeprefix('quincunx_')}: am {s['am0']:.2f}->{s['final_mean']:.2f} "
            f"std {s['std_first']:.3f}->{s['std_last']:.4f} fe {fe0:.2f}->{fe_last:.2f}"
        )
    rough = stats["quincunx_nosmooth"]["std_last"]
    for name in ("quincunx_exp08", "quincunx_ma10", "quincunx_ma20"):
        ok = ok and rough > stats[name]["std_last"]
    details.append(f"nosmooth final-third std {rough:.4f} roughest")
    _report(6, "quincunx smoothing", ok, "; ".join(details))


# -- 7: responsiveness vs stability tradeoff ------------------------------------


def test_c07_window_tradeoff(quincunx_runs):
    def respond_time(run):
        ts, am = metric_series(run, "am")
        _, last = thirds(ts, am)
        target = float(np.mean(last))
        hit = ts[np.abs(am - target) <= 0.1 * target]
        return float(hit[0])

    t10 = respond_time(quincunx_runs["quincunx_ma10"])
    t20 = respond_time(quincunx_runs["quincunx_ma20"])
    s10 = _am_stats(quincunx_runs["quincunx_ma10"])["std_last"]
    s20 = _am_stats(quincunx_runs["quincunx_ma20"])["std_last"]
    ok = t10 < t20 and s20 < s10
    _report(7, "window tradeoff", ok,
            f"response {t10:.2f}s (10) vs {t20:.2f}s (20); "
            f"final-third std {s10:.5f} (10) vs {s20:.5f} (20)")


# -- 8: dropout healing -----------------------------------------------------------


def test_c08_dropout_healing(dropout_run):
    drop_t = 30.0
    fes = [
        (t, formation_error(np.array([a[i] for i in sorted(a)]), "square_ring"))
        for t, a in frames(dropout_run.position_rows, slice(2, 4))
        if len(a) == 4
    ]
    fe_at_drop = fes[0][1]
    window = [fe for t, fe in fes if t <= drop_t + 15.0]
    healed = min(window) < fe_at_drop

    ts, rs = metric_series(dropout_run, "order_param")
    r_window = rs[(ts > drop_t) & (ts <= drop_t + 15.0)]
    resynced = bool(np.max(r_window) > 0.95)

    ok = healed and resynced
    _report(8, "dropout healing", ok,
            f"square residual {fe_at_drop:.3f}->{min(window):.3f} within 15 periods; "
            f"best R after drop {np.max(r_window):.4f}")


# -- 9: join robustness ------------------------------------------------------------


def test_c09_join_robustness(join_run):
    spawn_t = 30.0
    ts, rs = metric_series(join_run, "order_param")
    window = (ts >= spawn_t) & (ts <= spawn_t + 10.0)
    recovered = ts[window & (rs > 0.95)]
    rec_ok = len(recovered) > 0 and bool(rs[ts >= spawn_t + 10.0][0] > 0.95)

    surv = [
        (t, np.array([a[i] for i in sorted(a) if i < 5]))
        for t, a in frames(join_run.position_rows, slice(2, 4))
        if t >= spawn_t
    ]
    am0 = metrics.pairwise_spacing(surv[0][1]).am
    worst = max(
        abs(metrics.pairwise_spacing(p).am - am0) / am0
        for t, p in surv
        if t <= spawn_t + 10.0
    )
    ok = rec_ok and worst < 0.5
    _report(9, "join robustness", ok,
            f"resynced by {recovered[0] if len(recovered) else math.inf:.2f}s; "
            f"survivor spacing change {worst * 100:.1f}%")


# -- 10: two-agent equilibrium cross-check -------------------------------------------


def test_c10_equilibrium_cross_check():
    # reference model at its analytic rest separation
    params = SwarmParams(n=2, k=0.7, j=0.8, a=1.0, b=3.0)
    d_star = params.b / (params.a + params.j)
    pos = np.array([[0.0, 0.0], [d_star, 0.0]])
    start = pos.copy()
    theta = np.array([0.8, 0.8])
    omega = np.zeros(2)
    for _ in range(1000):
        new_pos, _ = step_positions(pos, theta, params, 0.01)
        theta = step_phases(pos, theta, omega, params, 0.01)
        pos = new_pos
    ref_drift = float(np.max(np.abs(pos - start)))

    # drone model at the same analytic point, smoothing off. The visible
    # clock is frozen (as in the reference run above) so that pulse
    # staleness cannot masquerade as a phase gap; broadcasts still flow
    # at the hidden-phase rate, one per period.
    cfg = parse_config(scenario_text("quincunx_ma10"))
    cfg.smoothing_mode = "none"
    cfg.formation = "line"
    cfg.n = 2
    cfg.events = []
    engine = build_drone_engine(cfg)
    d_star_drone = cfg.drone_b / (cfg.drone_a + cfg.drone_j)
    d0, d1 = drones(engine)
    d0.pos = vec(-d_star_drone / 2, 0.0)
    d1.pos = vec(d_star_drone / 2, 0.0)
    d0.theta = d1.theta = 1.0
    d0.omega = d1.omega = 0.0
    starts = {d.id: d.pos.copy() for d in drones(engine)}
    engine.run(10.0)
    drone_drift = max(
        float(np.max(np.abs(d.pos - starts[d.id]))) for d in drones(engine)
    )

    ok = ref_drift < 1e-6 and drone_drift < 1e-6
    _report(10, "equilibrium cross-check", ok,
            f"reference drift {ref_drift:.2e}, drone drift {drone_drift:.2e} "
            f"over 10 periods (bar 1e-6)")


# -- 11: filter properties exhaustively ------------------------------------------------


def test_c11_filter_properties():
    rng = seeded_rng(42)
    streams = 0
    for _ in range(1000):
        kind = rng.integers(0, 2)
        length = int(rng.integers(5, 40))
        xs = rng.normal(size=(length, 2)) * float(rng.uniform(0.1, 4.0))
        ys = rng.normal(size=(length, 2)) * float(rng.uniform(0.1, 4.0))
        a, b = rng.uniform(-2.0, 2.0, 2)
        if kind == 0:
            window = int(rng.integers(1, 25))
            make = lambda: MovingAverageFilter(window)
        else:
            alpha = float(rng.uniform(0.05, 1.0))
            make = lambda: ExponentialFilter(alpha)
        f, fa, fb, fc = make(), make(), make(), make()
        lo = np.full(2, np.inf)
        hi = np.full(2, -np.inf)
        for x, y in zip(xs, ys):
            lo = np.minimum(lo, x)
            hi = np.maximum(hi, x)
            # Filters take and return (x, y) pairs.
            out = np.array(f.push(x))
            assert np.all(out >= lo - 1e-9) and np.all(out <= hi + 1e-9)
            assert np.allclose(
                fc.push(a * x + b * y),
                a * np.array(fa.push(x)) + b * np.array(fb.push(y)),
                atol=1e-9,
            )
        streams += 1

    # degenerate parameters reduce both filters to the identity
    ident_ma, ident_exp = MovingAverageFilter(1), ExponentialFilter(1.0)
    for _ in range(200):
        x = rng.normal(size=2)
        assert np.allclose(ident_ma.push(x), x)
        assert np.allclose(ident_exp.push(x), x)

    _report(11, "filter properties", True,
            f"hull+linearity on {streams} random streams; identity degenerate cases")


# -- 12: bundled-scenario determinism ----------------------------------------------------


def test_c12_determinism(tmp_path):
    mismatches = []
    for name in SCENARIO_NAMES:
        cfg = parse_config(scenario_text(name))
        a = run_config(cfg, name=name, out_dir=str(tmp_path / "a"), write=True)
        b = run_config(cfg, name=name, out_dir=str(tmp_path / "b"), write=True)
        for key in ("phases", "positions", "metrics", "summary"):
            ha = hashlib.sha256(a.paths[key].read_bytes()).hexdigest()
            hb = hashlib.sha256(b.paths[key].read_bytes()).hexdigest()
            if ha != hb:
                mismatches.append(f"{name}/{key}")
    _report(12, "determinism", not mismatches,
            f"{len(SCENARIO_NAMES)} scenarios, byte-identical reruns"
            + (f"; mismatches: {mismatches}" if mismatches else ""))
