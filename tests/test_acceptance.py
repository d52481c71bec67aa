"""Acceptance gate: nine end-to-end criteria, one pass/fail line each.

Every expected value here is either produced by an independent oracle
coded in this file (hashlib, brute-force enumeration) or is an exact
constant the bundled scenarios must reproduce.
"""

import dataclasses
import hashlib
import io
import itertools
import pathlib
import random
from collections import Counter

from ivtp import consensus, identity, ledger, scenario, sim
from conftest import make_fleet, signed_comm

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
BUNDLED = ["intersection_table2.json", "broadcast_round.json", "lossy_total.json"]


def _signed(tx, kp):
    return dataclasses.replace(
        tx, signature=identity.sign(kp, ledger.tx_signing_bytes(tx))
    )


def test_criterion_1_intersection_reproduction(acceptance):
    """Four arrivals at 1000/1010/1030/1070 ms commit in arrival order,
    the fastest calculator proposes, and exactly one 500 milli-trust fee
    moves from the first vehicle to the proposer."""
    cfg = scenario.load_scenario(SCENARIOS / "intersection_table2.json")
    handles = sim.run(cfg)
    report = handles.report
    session = report["sessions"].get("crossing-1", {})
    ok = (
        session.get("outcome") == "committed"
        and session.get("ordering") == ["IV-1", "IV-2", "IV-3", "IV-4"]
        and session.get("proposer") == "IV-3"
        and report["rewards"]
        == [{"from": "IV-1", "to": "IV-3", "amount": 500, "reason": "crossing-1"}]
        and report["balances"]["IV-1"] == 99_500
        and report["balances"]["IV-3"] == 100_500
    )
    assert acceptance(1, "intersection ordering and reward", ok)


def test_criterion_2_broadcast_comm_table(acceptance):
    """A full broadcast round leaves every vehicle's on-chain peer set
    equal to the other three."""
    cfg = scenario.load_scenario(SCENARIOS / "broadcast_round.json")
    handles = sim.run(cfg)
    table = handles.report["comm_table"]
    aliases = ["IV-1", "IV-2", "IV-3", "IV-4"]
    ok = set(table) == set(aliases) and all(
        set(table[a]) == set(aliases) - {a} for a in aliases
    )
    assert acceptance(2, "broadcast comm table", ok)


def test_criterion_3_quorum_rule(acceptance):
    """Exhaustive n in 0..100: the threshold is the least strict
    majority of the other active vehicles (floor(n/2)+1 for n >= 1), a
    transaction one endorsement short never commits, and one at the
    threshold always commits. With nobody else active the commit is
    vacuously allowed with zero endorsements, so lone networks and the
    registration bootstrap still make progress."""
    _, chain, ids, keys = make_fleet(101)
    author, others = ids[0], ids[1:]
    ok = True
    now = 1000
    for n in range(0, 101):
        t = consensus.quorum_threshold(n)
        ok &= t == (n // 2 + 1 if n >= 1 else 0)
        ok &= 2 * t > n or n == 0  # strict majority
        ok &= 2 * (t - 1) <= n  # least such count

        active = {author} | set(others[:n])
        tx = signed_comm(keys[author], author, tf=now)
        item = consensus.PendingTx(tx=tx)
        for veh in others[: max(t - 1, 0)]:
            item.add(veh, consensus.VERDICT_VALID)
        if t >= 1:  # one short of quorum: must stay pending
            result = consensus.try_commit([item], active, chain, now=now)
            ok &= result.block is None and result.still_pending == [item]
            item.add(others[t - 1], consensus.VERDICT_VALID)
        result = consensus.try_commit([item], active, chain, now=now)
        ok &= result.block is not None and list(result.block.txs) == [tx]
        now += 1
    assert acceptance(3, "strict-majority quorum", ok)


def test_criterion_4_tamper_evidence(acceptance):
    """1000 random single-byte corruptions and 100 random truncations of
    an 11-block chain file: every one is caught, by the header check, by
    a fault raised while the blocks are read and replayed, by the
    replay's verdict, or by the file checksum."""
    _, chain, ids, keys = make_fleet(4)
    for i in range(9):
        tx = _signed(
            ledger.CommTx(
                author=ids[i % 4],
                tf=i + 1,
                signature=b"",
                sender=ids[i % 4],
                receivers=(ids[(i + 1) % 4],),
                message_hash=identity.sha256(bytes([i])),
                tf_sent=i + 1,
            ),
            keys[ids[i % 4]],
        )
        chain.append_block([tx], timestamp=i + 1)
    assert len(chain.blocks) == 11
    data = ledger.chain_to_bytes(chain)

    def caught_by(mutated: bytes) -> str | None:
        try:
            chain_file = ledger.parse_chain_bytes(io.BytesIO(mutated))
        except ValueError:  # CorruptChainFileError among them
            return "header"
        try:
            report = ledger.validate_blocks(chain_file.blocks(), chain_file.endowment)
        except ValueError:
            return "raised during replay"
        if not report.ok:
            return "replay"
        return None if chain_file.checksum_ok else "checksum"

    rng = random.Random(0)
    flips = Counter()
    for _ in range(1000):
        pos = rng.randrange(len(data))
        flip = rng.randrange(1, 256)
        mutated = data[:pos] + bytes([data[pos] ^ flip]) + data[pos + 1 :]
        flips[caught_by(mutated)] += 1
    cuts = Counter(caught_by(data[: rng.randrange(len(data))]) for _ in range(100))
    assert caught_by(data) is None
    # Structural faults past the header surface while earlier blocks replay.
    assert flips["raised during replay"] > 0 and cuts["raised during replay"] > 0
    ok = flips[None] == cuts[None] == 0
    assert acceptance(4, "tamper evidence 1000/1000 flips, 100/100 cuts", ok)


def test_criterion_5_conservation(acceptance):
    """At every height of every bundled scenario, the milli-trust supply
    equals registered vehicles times the endowment."""
    ok = True
    for name in BUNDLED:
        cfg = scenario.load_scenario(SCENARIOS / name)
        handles = sim.run(cfg)
        endow = cfg.ledger.endowment_millitrust
        replay = ledger.Chain.from_blocks(
            handles.chain.blocks[:1], handles.chain.state.endowment
        )
        for block in [None] + list(handles.chain.blocks[1:]):
            if block is not None:
                replay.append_block(list(block.txs), timestamp=block.timestamp)
            vehicles = len(replay.state.registrations) - 1  # dealer holds nothing
            ok &= ledger.total_supply(replay) == vehicles * endow
        ok &= len(replay.state.registrations) - 1 == len(cfg.vehicles)
    assert acceptance(5, "supply conservation per height", ok)


def test_criterion_6_determinism(acceptance):
    """Equal seeds reproduce byte-identical traces on every bundled
    scenario; a different seed under nonzero jitter diverges."""
    ok = True
    for name in BUNDLED:
        cfg = scenario.load_scenario(SCENARIOS / name)
        d1 = sim.run(cfg).report["trace_digest"]
        d2 = sim.run(cfg).report["trace_digest"]
        ok &= d1 == d2

    jittered = scenario.load_scenario(SCENARIOS / "broadcast_round.json")
    ok &= jittered.network.jitter_ms > 0
    reseeded = dataclasses.replace(
        jittered,
        network=dataclasses.replace(jittered.network, seed=jittered.network.seed + 1),
    )
    ok &= (
        sim.run(jittered).report["trace_digest"]
        != sim.run(reseeded).report["trace_digest"]
    )
    assert acceptance(6, "seeded determinism", ok)


def _fcfs_oracle(intents: dict) -> list:
    """Brute force: the unique permutation whose adjacent pairs are all
    strictly increasing by (arrival, id)."""
    for perm in itertools.permutations(intents):
        if all(
            (intents[a], a) < (intents[b], b)
            for a, b in zip(perm, perm[1:])
        ):
            return list(perm)
    raise AssertionError("no totally ordered permutation")


def test_criterion_7_fcfs_oracle(acceptance):
    """compute_order equals the brute-force oracle for every insertion
    order of every base case up to 5 vehicles, distinct and tied."""
    from ivtp.arbitration import compute_order

    ok = True
    for n in range(1, 6):
        ids = [bytes([i]) * 32 for i in range(1, n + 1)]
        cases = [
            {veh: 10 * (n - i) for i, veh in enumerate(ids)},  # distinct, reversed
            dict.fromkeys(ids, 7),  # all tied
        ]
        if n >= 3:
            mixed = {veh: (5 if i % 2 else 9) for i, veh in enumerate(ids)}
            cases.append(mixed)
        for base in cases:
            expected = _fcfs_oracle(base)
            for perm in itertools.permutations(base.items()):
                ok &= compute_order(dict(perm)) == expected
    assert acceptance(7, "first-come-first-serve oracle", ok)


def _reference_merkle(leaves: list) -> bytes:
    level = list(leaves)
    if len(level) == 1:
        return hashlib.sha256(level[0] + level[0]).digest()
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        level = [
            hashlib.sha256(level[i] + level[i + 1]).digest()
            for i in range(0, len(level), 2)
        ]
    return level[0]


def test_criterion_8_merkle_oracle(acceptance):
    """merkle_root matches an independent pairing reference on 1000
    random leaf lists of 1 to 64 leaves."""
    rng = random.Random(8)
    ok = True
    for _ in range(1000):
        leaves = [rng.randbytes(32) for _ in range(rng.randint(1, 64))]
        ok &= ledger.merkle_root(leaves) == _reference_merkle(leaves)
    assert acceptance(8, "merkle oracle 1000 lists", ok)


def _loss_scenario(drop: float) -> scenario.ScenarioConfig:
    aliases = ["IV-1", "IV-2", "IV-3", "IV-4"]
    intersections = []
    for k in range(100):
        base = 1000 + 50 * k
        intersections.append(
            {
                "id": f"x-{k:03d}",
                "participants": aliases,
                "arrival_ms": {
                    "IV-1": base, "IV-2": base + 10,
                    "IV-3": base + 30, "IV-4": base + 70,
                },
                "compute_delay_ms": {"IV-1": 9, "IV-2": 8, "IV-3": 5, "IV-4": 7},
                "collection_window_ms": 300,
            }
        )
    return scenario.scenario_from_dict(
        {
            "name": f"loss-{drop:g}",
            "network": {"drop_probability": drop, "seed": 11},
            "vehicles": [{"alias": a} for a in aliases],
            "intersections": intersections,
            "run": {"t_end_ms": 1000 + 50 * 99 + 800},
        }
    )


def test_criterion_9_loss_robustness(acceptance):
    """100 intersections: a lossless link commits them all; a link that
    drops everything commits none, yet the chain stays valid."""
    lossless = sim.run(_loss_scenario(0.0))
    sessions = lossless.report["sessions"]
    committed = sum(1 for s in sessions.values() if s["outcome"] == "committed")
    ok = len(sessions) == 100 and committed == 100
    ok &= ledger.validate_chain(lossless.chain).ok

    lossy = sim.run(_loss_scenario(1.0))
    sessions = lossy.report["sessions"]
    committed = sum(1 for s in sessions.values() if s["outcome"] == "committed")
    ok &= len(sessions) == 100 and committed == 0
    ok &= all(s["outcome"] == "aborted" for s in sessions.values())
    ok &= ledger.validate_chain(lossy.chain).ok
    assert acceptance(9, "loss robustness 0% and 100%", ok)
