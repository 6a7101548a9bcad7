"""Every config key reaches its model: one changed value per key changes
what a short run gives.

The golden pins cannot see a model that reads the wrong field wherever
two keys share a value (in `quincunx_ma10`, `drone.k_visible` and
`drone.a` are both 0.1 and `medium.airtime` equals `dt`; in
`table1_static_sync`, `ref.omega` and `ref.freq_var` are both 0). Here
each key is changed alone, from a base where no two of them agree, and
the run's trace rows or summary must change with it.
"""

import json

import pytest

from swarmpulse.config import parse_config
from swarmpulse.runner import run_config
from swarmpulse.scenarios import scenario_text

BASES = {
    "drone": scenario_text("quincunx_ma10") + "duration = 4.0\n",
    "reference_swarmalator": scenario_text("table2_rainbow")
    + "duration = 2.0\nref.freq_var = 0.1\n",
    "pulse": scenario_text("pulse_n9") + "duration = 4.0\n",
}
COMMON = ("seed = 5", "dt = 0.004", "duration = 3.0", "trace_rate = 20.0")
# (model, lines added to the base of both runs, the changed key's line)
CASES = [
    *(("drone", "", line) for line in (
        "drone.k_visible = 0.2",
        "drone.k_hidden = -0.2",
        "drone.j = 0.05",
        "drone.a = 0.15",
        "drone.b = 0.12",
        "drone.omega = 6.0",
        "drone.freq_var = 0.3",
        "drone.speed_cap = 0.01",
        "drone.hidden_phase_in_payload = true",
        "smoothing.mode = none",
        "smoothing.window = 3",
        "medium.airtime = 0.02",
        "scenario.formation = ring",
        *COMMON,
    )),
    ("drone", "smoothing.mode = exponential\n", "smoothing.alpha = 0.3"),
    ("drone", "medium.airtime = 0.05\n", "medium.collision_policy = deliver_all"),
    ("drone", "scenario.formation = ring\n", "scenario.n = 6"),
    *(("reference_swarmalator", "", line) for line in (
        "ref.k = -0.3",
        "ref.j = 0.5",
        "ref.a = 1.5",
        "ref.b = 2.0",
        "ref.omega = 0.7",
        "ref.freq_var = 0.4",
        "scenario.n = 12",
        *COMMON,
    )),
    *(("pulse", "", line) for line in (
        "pulse.k = 0.2",
        "pulse.rate = 1.3",
        "scenario.n = 6",
        *COMMON,
    )),
]


def outcome(text):
    """Everything a run gives but its files: trace rows and summary."""
    result = run_config(parse_config(text), write=False)
    rows = [repr(list(t)) for t in (result.phase_rows, result.position_rows, result.metric_rows)]
    return rows, json.dumps(result.summary, sort_keys=True)


def test_every_model_key_is_changed():
    changed = {(model, line.partition(" = ")[0]) for model, _, line in CASES}
    for model, keys in (
        ("drone", {"drone.k_visible", "drone.k_hidden", "drone.j", "drone.a", "drone.b",
                   "drone.omega", "drone.freq_var", "drone.speed_cap",
                   "drone.hidden_phase_in_payload", "smoothing.mode", "smoothing.window",
                   "smoothing.alpha", "medium.airtime", "medium.collision_policy",
                   "scenario.formation"}),
        ("reference_swarmalator", {"ref.k", "ref.j", "ref.a", "ref.b", "ref.omega",
                                   "ref.freq_var"}),
        ("pulse", {"pulse.k", "pulse.rate"}),
    ):
        common = {"seed", "dt", "duration", "trace_rate", "scenario.n"}
        assert {key for m, key in changed if m == model} == keys | common


@pytest.mark.parametrize("model", sorted(BASES))
def test_a_base_run_repeats_exactly(model):
    assert outcome(BASES[model]) == outcome(BASES[model])


@pytest.mark.parametrize("model, extra, line", CASES)
def test_changed_key_changes_the_run(model, extra, line):
    base = BASES[model] + extra
    assert outcome(base + line + "\n") != outcome(base)
