"""Workload definitions: the scenario configs each workload runs.

A workload is a list of (name, config text) pairs made from the bundled
scenario files and the benchmark seed alone. The program under test only
ever sees the generated text, through `config.parse_config`.

This module does not import swarmpulse, so generating the configs costs
nothing that the set-up time would count.
"""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "src" / "swarmpulse" / "scenarios"

# Every bundled scenario except the two 300 s reference ones.
SMALL_SWARMS = (
    "pulse_n9",
    "sync_k000",
    "sync_k005",
    "sync_k025",
    "quincunx_nosmooth",
    "quincunx_exp08",
    "quincunx_ma10",
    "quincunx_ma20",
    "dropout_mid",
    "join_mid",
)

CROWD_N = 80
CROWD_DURATION = 20.0
CROWD_TRACE_RATE = 5.0
# How many pulses get through a crowd varies by about 15% with the seed,
# and its run time with it; three crowds per pass average that out.
CROWD_RUNS = 3

# name -> one line on why the workload is in the benchmark.
WORKLOADS = {
    "ref_sync_n20": (
        "table1_static_sync at full length (reference model, N=20, 300 s): "
        "the acceptance suite's heaviest run; observables and trace writing dominate"
    ),
    "drone_crowd_n80": (
        "quincunx_ma10's parameters on 80 random drones, three 20 s runs, traces at 5 Hz: "
        "a contended channel and the per-drone tick loop"
    ),
    "small_swarms": (
        "every bundled scenario but the two 300 s ones: many short runs of 5-9 agents, "
        "where per-call fixed costs dominate"
    ),
}


def bundled_text(name: str) -> str:
    return (SCENARIO_DIR / f"{name}.cfg").read_text(encoding="utf-8")


def with_values(text: str, **values) -> str:
    """Set `key = value` lines in config text; dots in keys are written `__`.

    A key already present is replaced in place, a new one is appended.
    """
    values = {key.replace("__", "."): str(v) for key, v in values.items()}
    lines = []
    for line in text.splitlines():
        key = line.partition("=")[0].strip()
        if "=" in line and not line.lstrip().startswith("#") and key in values:
            line = f"{key} = {values.pop(key)}"
        lines.append(line)
    lines.extend(f"{key} = {value}" for key, value in values.items())
    return "\n".join(lines) + "\n"


def configs(workload: str, seed: int) -> list[tuple[str, str]]:
    """The (run name, config text) pairs of one pass over a workload."""
    if workload == "ref_sync_n20":
        return [("table1_static_sync", with_values(bundled_text("table1_static_sync"), seed=seed))]
    if workload == "drone_crowd_n80":
        base = bundled_text("quincunx_ma10")
        return [
            (f"crowd_n80_{k}", with_values(
                base,
                seed=(CROWD_RUNS * seed + k) % 2**64,
                duration=CROWD_DURATION,
                trace_rate=CROWD_TRACE_RATE,
                scenario__n=CROWD_N,
                scenario__formation="random",
                medium__collision_policy="drop_all",
            ))
            for k in range(CROWD_RUNS)
        ]
    if workload == "small_swarms":
        return [(name, with_values(bundled_text(name), seed=seed)) for name in SMALL_SWARMS]
    raise KeyError(workload)
