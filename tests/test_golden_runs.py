"""Behaviour lock: every bundled scenario, and the synthetic wide fan-out
scenarios under vectors/, reproduces the SHA-256 of each artifact it
writes, frozen in vectors/runs.json from earlier runs."""

import hashlib
import json
from pathlib import Path

import pytest

from ivtp import ledger, scenario, sim
from conftest import read_chain, scenario_path
from synthetic import render, synthetic_scenario

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "vectors" / "runs.json").read_text())


SYNTHETIC_N = (4, 8, 16, 32, 64)


@pytest.mark.parametrize("n", SYNTHETIC_N)
def test_synthetic_vectors_come_from_the_generator(n):
    """tests/synthetic.py writes every synthetic scenario file byte for byte."""
    path = ROOT / "vectors" / f"synthetic_n{n}.json"
    assert render(synthetic_scenario(n)) == path.read_text()


def test_synthetic_scenarios_are_locked():
    assert {f"synthetic_n{n}" for n in SYNTHETIC_N} <= set(GOLDEN)
    for n in SYNTHETIC_N:
        cfg = scenario.load_scenario(scenario_path(f"synthetic_n{n}"))
        assert len(cfg.vehicles) == n
        assert len(cfg.comms) == n
        assert [len(x.participants) for x in cfg.intersections] == [min(n, 8)]
        assert (cfg.network.latency_ms, cfg.network.jitter_ms) == (1, 2)
        assert cfg.network.drop_probability == 0.1
        assert cfg.run.t_end_ms == 2000


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifacts_match_golden_digests(name, tmp_path, locked_run):
    """A run with an out dir writes the locked artifacts. Its trace.jsonl,
    streamed to the file during the run, is byte for byte what a run
    without an out dir holds in memory, and both report the same. Its
    chain.bin reads back as the run's chain."""
    cfg = scenario.load_scenario(scenario_path(name))
    streamed = sim.run(cfg, out_dir=tmp_path)
    got = {
        artifact: hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest()
        for artifact in GOLDEN[name]
    }
    assert got == GOLDEN[name]
    in_memory, _verifies, _signs = locked_run(name)
    assert (tmp_path / "trace.jsonl").read_bytes() == in_memory.net.trace.data
    assert streamed.report == in_memory.report
    assert in_memory.report["trace_digest"] == GOLDEN[name]["trace.jsonl"]

    loaded, chain = read_chain(tmp_path / "chain.bin"), streamed.chain
    assert len(loaded.blocks) == len(chain.blocks) > 1
    assert [b.block_hash for b in loaded.blocks] == [b.block_hash for b in chain.blocks]
    assert list(loaded.state.balances.items()) == list(chain.state.balances.items())
    assert list(loaded.state.registrations.items()) == list(chain.state.registrations.items())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_the_first_in_the_order_pays_the_proposer(name, locked_run):
    """The fee rule on every locked run: no vehicle submits a reward for
    a session it proposed, and each committed reward that names an
    intersection goes from the first vehicle in that intersection's
    committed ordering to its proposer."""
    handles, _verifies, _signs = locked_run(name)
    for veh in handles.vehicles.values():
        proposed = {tx.intersection_id for tx in veh.submitted if isinstance(tx, ledger.ArbitrationTx)}
        paid_for = {tx.reason for tx in veh.submitted if isinstance(tx, ledger.RewardTx)}
        assert not proposed & paid_for
    txs = [tx for block in handles.chain.blocks for tx in block.txs]
    outcomes = {tx.intersection_id: tx for tx in txs if isinstance(tx, ledger.ArbitrationTx)}
    for tx in txs:
        if isinstance(tx, ledger.RewardTx) and tx.reason in outcomes:
            arb = outcomes[tx.reason]
            assert (tx.from_id, tx.to_id) == (arb.ordering[0], arb.proposer)
