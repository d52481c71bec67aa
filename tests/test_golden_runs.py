"""Behaviour lock: every bundled scenario reproduces the SHA-256 of each
artifact it writes, frozen in vectors/runs.json from earlier runs."""

import hashlib
import json
from pathlib import Path

import pytest

from ivtp import scenario, sim

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "vectors" / "runs.json").read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifacts_match_golden_digests(name, tmp_path):
    sim.run(scenario.load_scenario(ROOT / "scenarios" / f"{name}.json"), out_dir=tmp_path)
    got = {
        artifact: hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest()
        for artifact in GOLDEN[name]
    }
    assert got == GOLDEN[name]
