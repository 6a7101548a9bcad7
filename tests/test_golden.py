"""Golden pins: every bundled scenario, run at its own seed, must write
exactly the bytes recorded in `golden_hashes.json`.

c12 compares two runs in the same process, so a change that shifts
every run the same way passes it; these digests do not move with the
code. A deliberate change of output is re-pinned in its own commit:
copy the digests this test prints into `golden_hashes.json` and say why
in `CHANGES.md`.
"""

import hashlib
import json
from pathlib import Path

import pytest

from swarmpulse.config import parse_config
from swarmpulse.runner import run_config
from swarmpulse.scenarios import SCENARIO_NAMES, scenario_text

GOLDEN = json.loads((Path(__file__).parent / "golden_hashes.json").read_text())
FILES = ("phases.csv", "positions.csv", "metrics.csv", "summary.json")


def test_every_bundled_scenario_is_pinned():
    assert sorted(GOLDEN) == sorted(SCENARIO_NAMES)


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_bundled_outputs_match_pins(name, tmp_path):
    run_config(parse_config(scenario_text(name)), name=name, out_dir=str(tmp_path))
    got = {
        f: hashlib.sha256((tmp_path / name / f).read_bytes()).hexdigest() for f in FILES
    }
    assert got == GOLDEN[name], (
        f"{name} output changed; new digests:\n"
        + json.dumps({name: got}, indent=2)
    )
