"""Registry of bundled scenario configs.

Each scenario is a plain config file shipped with the package; `run`
accepts either a bundled name or a path to a user-written file.
"""

from __future__ import annotations

from importlib import resources

SCENARIO_NAMES = (
    "pulse_n9",
    "table1_static_sync",
    "table2_rainbow",
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


class UnknownScenario(KeyError):
    pass


def scenario_text(name: str) -> str:
    """Raw config text of a bundled scenario."""
    if name not in SCENARIO_NAMES:
        raise UnknownScenario(name)
    return (
        resources.files("swarmpulse")
        .joinpath("scenarios", f"{name}.cfg")
        .read_text(encoding="utf-8")
    )
