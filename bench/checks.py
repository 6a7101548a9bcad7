"""Output checks for one run, computed apart from the program.

Nothing here imports swarmpulse. Each check reads what a run wrote (its
four trace files and its fire log) plus the config text it ran, and
returns a list of problems; an empty list means the check passed. The
checks either recompute a value with numpy code of their own or test a
property the method must have. None compares against stored output.

Traces print every float with 9 significant digits, so a printed value v
is off by at most EPS * |v|. Each tolerance below is twice the first-order
bound that this rounding of the inputs and of the printed result allows.
"""

from __future__ import annotations

import hashlib
import io
import math
from pathlib import Path

import numpy as np

TAU = 2.0 * math.pi
EPS = 5e-9
TRACE_FILES = ("phases.csv", "positions.csv", "metrics.csv", "summary.json")

# c02's static-sync endpoint and the scenario seeds it is stated for.
STATIC_SYNC_SEEDS = range(10)
STATIC_SYNC_MIN_R = 0.99
STATIC_SYNC_MAX_SPEED = 1e-3


# -- inputs ---------------------------------------------------------------


def read_config(text: str) -> dict:
    """The `key = value` pairs of a config; `scenario.events` is a list."""
    cfg: dict = {"scenario.events": []}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "scenario.events":
            cfg[key].append(value.split())
        else:
            cfg[key] = value
    return cfg


def agent_count(cfg: dict) -> int:
    for key in ("scenario.n", "pulse.n", "ref.n"):
        if key in cfg:
            return int(cfg[key])
    raise KeyError("config names no agent count")


def read_csv(path: Path) -> dict[str, np.ndarray]:
    """Columns of a trace CSV as float arrays; empty cells read as NaN."""
    header, _, body = Path(path).read_text().partition("\n")
    names = header.split(",")
    if not body:
        return {name: np.empty(0) for name in names}
    body = body.replace(",\n", ",nan\n")
    while ",," in body:
        body = body.replace(",,", ",nan,")
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    return {name: data[:, i] for i, name in enumerate(names)}


def digests(run_dir: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
        for name in TRACE_FILES
    }


def _samples(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start row and row count of each sample (rows of equal t, in order)."""
    starts = np.flatnonzero(np.r_[True, t[1:] != t[:-1]])
    counts = np.diff(np.r_[starts, t.size])
    return starts, counts


def _by_count(starts, counts):
    """For each distinct agent count c: the sample indices with c agents
    and their row indices as an (S, c) array."""
    for c in np.unique(counts):
        sel = np.flatnonzero(counts == c)
        yield int(c), sel, starts[sel][:, None] + np.arange(c)


def _mismatch(what: str, got, want, tol) -> list[str]:
    bad = ~(np.abs(np.asarray(got) - np.asarray(want)) <= tol)
    if not bad.any():
        return []
    i = int(np.flatnonzero(bad)[0])
    return [f"{what}: {int(bad.sum())} rows off, first at row {i}: "
            f"written {np.ravel(got)[i]!r}, recomputed {np.ravel(want)[i]!r}"]


# -- checks ---------------------------------------------------------------


def check_metrics(cfg: dict, phases, positions, metrics, fire_log) -> list[str]:
    """Recompute every metrics.csv column from phases.csv, positions.csv and
    the fire log."""
    model = cfg["model"]
    starts, counts = _samples(phases["t"])
    sample_t = phases["t"][starts]
    if not np.array_equal(sample_t, metrics["t"]):
        return ["metrics.csv times differ from the sample times in phases.csv"]

    theta = phases["theta"] * (TAU if model == "pulse" else 1.0)
    phase_err = 2.0 * EPS * float(np.max(np.abs(theta), initial=0.0))
    problems = []
    order = np.empty(sample_t.size)
    spread = np.empty(sample_t.size)
    for _, sel, rows in _by_count(starts, counts):
        th = theta[rows]
        order[sel] = np.abs(np.mean(np.exp(1j * th), axis=1))
        d = np.mod(th[:, :, None] - th[:, None, :], TAU)
        spread[sel] = np.max(np.minimum(d, TAU - d), axis=(1, 2))
    problems += _mismatch("order_param", metrics["order_param"], order,
                          2.0 * (phase_err + EPS * order))
    problems += _mismatch("max_pair_diff", metrics["max_pair_diff"], spread,
                          2.0 * (2.0 * phase_err + EPS * spread))

    spacing_cols = ("am", "gm", "min", "max")
    if model == "pulse":
        if not all(np.isnan(metrics[c]).all() for c in spacing_cols):
            problems.append("pulse model wrote spacing columns")
    else:
        xy = np.stack([positions["x"], positions["y"]], axis=1)
        pos_err = 2.0 * math.sqrt(2.0) * EPS * float(np.max(np.abs(xy), initial=0.0))
        want = {c: np.full(sample_t.size, np.nan) for c in spacing_cols}
        for c, sel, rows in _by_count(starts, counts):
            if c < 2:
                continue
            p = xy[rows]
            iu = np.triu_indices(c, k=1)
            dist = np.linalg.norm(p[:, :, None, :] - p[:, None, :, :], axis=-1)[:, iu[0], iu[1]]
            want["am"][sel] = dist.mean(axis=1)
            want["gm"][sel] = np.exp(np.log(dist).mean(axis=1))
            want["min"][sel] = dist.min(axis=1)
            want["max"][sel] = dist.max(axis=1)
        for c in spacing_cols:
            got, exp = metrics[c], want[c]
            if not np.array_equal(np.isnan(got), np.isnan(exp)):
                problems.append(f"{c}: empty cells do not match samples with < 2 agents")
                continue
            ok = ~np.isnan(exp)
            err = pos_err * (exp[ok] / want["min"][ok] if c == "gm" else 1.0)
            problems += _mismatch(c, got[ok], exp[ok], 2.0 * (err + EPS * exp[ok]))

    if model == "drone":
        collided = _collided(fire_log, float(cfg["medium.airtime"]))
        problems += _mismatch("collisions_cum", metrics["collisions_cum"],
                              collided(sample_t), 0)
    elif np.any(metrics["collisions_cum"] != 0):
        problems.append(f"{model} model wrote non-zero collisions_cum")
    return problems


def _collided(fire_log, airtime: float):
    """Collision recount by a sweep over the [sent, sent + airtime] intervals.

    Two pulses collide when their intervals overlap with positive measure,
    or start at the same instant. Returns a function of the sample times
    giving, at each, how many pulses sent by then overlap another pulse
    sent by then (a pulse is marked when the later of the two is sent).
    """
    s = np.sort(np.array([sent for sent, _ in fire_log], dtype=np.float64))
    # prev[i]: pulse i overlaps pulse i - 1. In sorted order the nearest
    # neighbours decide, since s[i+1] <= s[j] for every later j.
    prev = np.zeros(s.size + 1, dtype=bool)
    prev[1:s.size] = (s[1:] < s[:-1] + airtime) | (s[1:] == s[:-1])
    either = prev[:-1] | prev[1:]
    upto = np.r_[0, np.cumsum(either)]

    def count(times: np.ndarray) -> np.ndarray:
        k = np.searchsorted(s, times + 1e-11 * np.maximum(1.0, times), side="right")
        # Pulse k-1 overlaps only pulse k, which is not yet sent.
        tail = (k >= 1) & prev[k] & ~prev[np.maximum(k - 1, 0)]
        return upto[k] - tail

    return count


def count_collisions(fire_log, airtime: float) -> int:
    """Pulses that overlap another pulse on the channel over the whole run."""
    return int(_collided(fire_log, airtime)(np.array([np.inf]))[0])


def check_medium(cfg: dict, summary: dict, fire_log) -> list[str]:
    """Recount collisions from the fire log; check the medium's accounting."""
    m, b = summary["medium"], summary["broadcasts"]
    problems = []
    recount = count_collisions(fire_log, float(cfg["medium.airtime"]))
    if recount != m["collisions"]:
        problems.append(f"collisions: summary says {m['collisions']}, fire log sweep gives {recount}")
    if m["sent"] != m["delivered"] + m["dropped"] + m["in_flight"]:
        problems.append(f"medium: sent {m['sent']} != delivered {m['delivered']} "
                        f"+ dropped {m['dropped']} + in_flight {m['in_flight']}")
    if not m["sent"] == b["total"] == len(fire_log):
        problems.append(f"medium: sent {m['sent']}, broadcasts.total {b['total']}, "
                        f"fire log {len(fire_log)} differ")
    return problems


def check_speed_cap(cfg: dict, positions) -> list[str]:
    """Every written drone velocity is within speed_cap."""
    cap = float(cfg["drone.speed_cap"])
    speed = np.hypot(positions["vx"], positions["vy"])
    over = speed > cap * (1.0 + 2.0 * EPS)
    if over.any():
        return [f"speed cap {cap}: {int(over.sum())} velocities over, largest {speed.max()!r}"]
    return []


def check_agent_counts(cfg: dict, phases, positions) -> list[str]:
    """Agents per sample follow the configured count and spawn/despawn events."""
    starts, counts = _samples(phases["t"])
    t = phases["t"][starts]
    want = np.full(t.size, agent_count(cfg))
    for ev in cfg["scenario.events"]:
        at = float(ev[0])
        want += np.where(t + 1e-9 >= at, 1 if ev[1] == "spawn" else -1, 0)
    problems = _mismatch("agents per sample", counts, want, 0)
    if cfg["model"] != "pulse" and not np.array_equal(phases["t"], positions["t"]):
        problems.append("positions.csv rows do not match phases.csv rows")
    ids = phases["agent_id"]
    same_sample = np.r_[False, phases["t"][1:] == phases["t"][:-1]]
    if np.any(same_sample & (np.r_[0.0, ids[:-1]] >= ids)):
        problems.append("agent ids repeat or are out of order within a sample")
    return problems


def check_velocity_field(cfg: dict, phases, positions) -> list[str]:
    """Recompute the reference model's velocity field from the written state.

    v_i = (1/N) sum_{j != i} [ (A + J cos(theta_j - theta_i)) / d_ij
                               - B / d_ij**2 ] (x_j - x_i)
    which is the equation in reference.py's docstring with
    unit(x_j - x_i) = (x_j - x_i) / d_ij. Samples with a pair closer than
    1e-6 use a random direction in the program and are skipped.
    """
    a, b, j = (float(cfg[k]) for k in ("ref.a", "ref.b", "ref.j"))
    starts, counts = _samples(phases["t"])
    n = int(counts[0])
    if np.any(counts != n):
        return ["reference run changed its agent count"]
    rows = starts[:, None] + np.arange(n)
    xy = np.stack([positions["x"], positions["y"]], axis=1)
    vel = np.stack([positions["vx"], positions["vy"]], axis=1)
    dp = 2.0 * math.sqrt(2.0) * EPS * float(np.max(np.abs(xy)))
    dth = 2.0 * EPS * float(np.max(np.abs(phases["theta"])))
    problems, skipped = [], 0
    for lo in range(0, rows.shape[0], 500):
        r = rows[lo:lo + 500]
        p, th, v = xy[r], phases["theta"][r], vel[r]
        diff = p[:, None, :, :] - p[:, :, None, :]          # x_j - x_i
        dist = np.linalg.norm(diff, axis=-1)
        eye = np.eye(n, dtype=bool)
        dist[:, eye] = 1.0
        gain = a + j * np.cos(th[:, None, :] - th[:, :, None])
        coeff = gain / dist - b / dist**2
        coeff[:, eye] = 0.0
        want = np.einsum("sij,sijk->sik", coeff, diff) / n
        bound = ((2.0 * (a + abs(j)) / dist + 3.0 * b / dist**2) * dp + abs(j) * dth)
        bound[:, eye] = 0.0
        tol = 2.0 * (bound.sum(axis=2) / n)[:, :, None] + 2.0 * EPS * np.abs(want)
        good = ~np.any((dist < 1e-6) & ~eye, axis=(1, 2))
        skipped += int((~good).sum())
        problems += _mismatch(f"velocity field (samples {lo}+)", v[good], want[good], tol[good])
    if skipped == rows.shape[0]:
        problems.append("every sample had coincident agents; velocity field unchecked")
    return problems


def check_static_sync(cfg: dict, positions, metrics) -> list[str]:
    """c02's static-sync endpoint at the end of a full-length run:
    R > 0.99, every speed below 1e-3, and no two agents coincident.

    c02 states the speed bound for scenario seeds 0-9; it does not hold
    for every seed, so other seeds are held to R and spacing only."""
    problems = []
    if not metrics["order_param"][-1] > STATIC_SYNC_MIN_R:
        problems.append(f"static sync: final R {metrics['order_param'][-1]!r}")
    if not metrics["min"][-1] > 0.0:
        problems.append(f"static sync: final min spacing {metrics['min'][-1]!r}")
    if int(cfg["seed"]) in STATIC_SYNC_SEEDS:
        last = positions["t"] == positions["t"][-1]
        speed = float(np.max(np.hypot(positions["vx"][last], positions["vy"][last])))
        if not speed < STATIC_SYNC_MAX_SPEED:
            problems.append(f"static sync: final max speed {speed!r}")
    return problems


def check_run(run_dir: Path, config_text: str, fire_log, summary: dict,
              full_length: bool) -> list[str]:
    """Every check that applies to one run's outputs."""
    cfg = read_config(config_text)
    phases = read_csv(run_dir / "phases.csv")
    positions = read_csv(run_dir / "positions.csv")
    metrics = read_csv(run_dir / "metrics.csv")
    problems = check_agent_counts(cfg, phases, positions)
    problems += check_metrics(cfg, phases, positions, metrics, fire_log)
    if cfg["model"] == "drone":
        problems += check_medium(cfg, summary, fire_log)
        problems += check_speed_cap(cfg, positions)
    if cfg["model"] == "reference_swarmalator":
        problems += check_velocity_field(cfg, phases, positions)
        if full_length:
            problems += check_static_sync(cfg, positions, metrics)
    return problems
