"""Seeded workload generator for the ivtp benchmark.

Each workload is a pure function of its seed: the same seed gives a
byte-identical scenario JSON (``scenario_bytes``) or chain file
(``build_chain`` + ``ledger.save_chain``). The program under test only
ever sees these generated inputs.
"""

from __future__ import annotations

import dataclasses
import json
import random

ENDOWMENT = 100_000

# Why each workload exists, one line each; BENCHMARK.json repeats these.
WHY = {
    "town_n12": "widest fan-out: 12 vehicles verify every frame, so Ed25519 verify under handle_frame dominates host time",
    "churn_n6": "small fan-out, long chain and 5% loss: try_commit state copies, tx expiry and arbitration recovery",
    "chain_audit": "cold ivtp inspect of a generated chain: ledger replay only, no netsim, vehicle or consensus work",
}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"ivtp-bench/{workload}/{seed}")


def _sessions(rng, groups, first_ms, gap_ms):
    """Staggered intersections; group k opens around first_ms + k*gap_ms."""
    out = []
    for k, members in enumerate(groups):
        base = first_ms + k * gap_ms + rng.randrange(0, gap_ms // 4)
        out.append(
            {
                "id": f"crossing-{k + 1}",
                "participants": list(members),
                "arrival_ms": {a: base + rng.randrange(0, 60) for a in members},
                "compute_delay_ms": {a: rng.randrange(3, 13) for a in members},
                "collection_window_ms": 300,
            }
        )
    return out


def _comms(rng, aliases, per_vehicle, lo_ms, hi_ms):
    out = []
    for a in aliases:
        for j in range(per_vehicle):
            out.append(
                {
                    "sender": a,
                    "at_ms": rng.randrange(lo_ms, hi_ms),
                    "payload": f"report {a} #{j} {rng.getrandbits(32):08x}",
                }
            )
    out.sort(key=lambda c: (c["at_ms"], c["sender"]))
    return out


def _scenario(name, seed, rng, aliases, drop, comms, intersections, t_end_ms):
    return {
        "name": name,
        "network": {
            "latency_ms": 1,
            "jitter_ms": 2,
            "drop_probability": drop,
            "seed": rng.getrandbits(32),
        },
        "consensus": {
            "beacon_period_ms": 100,
            "beacon_window_ms": 500,
            "pending_ttl_ms": 2000,
            "agree_timeout_ms": 150,
        },
        "ledger": {"endowment_millitrust": ENDOWMENT},
        "vehicles": [{"alias": a, "seed": f"{name}/{seed}/{a}"} for a in aliases],
        "comms": comms,
        "intersections": intersections,
        "run": {"t_end_ms": t_end_ms},
    }


def town_n12(seed: int) -> dict:
    """Four staggered four-vehicle intersections over a lossless link:
    three cover the twelve vehicles once, the fourth picks any four.
    Nine comms per vehicle keep at least 100 submitted txs committing."""
    rng = _rng("town_n12", seed)
    aliases = [f"V{i:02d}" for i in range(1, 13)]
    order = aliases[:]
    rng.shuffle(order)
    groups = [order[0:4], order[4:8], order[8:12], sorted(rng.sample(aliases, 4))]
    t_end = 2600
    return _scenario(
        "town_n12",
        seed,
        rng,
        aliases,
        0.0,
        _comms(rng, aliases, 9, 300, t_end - 500),
        _sessions(rng, groups, 500, 450),
        t_end,
    )


def churn_n6(seed: int, comms_per_vehicle: int = 45, n_sessions: int = 12) -> dict:
    """Six vehicles, 5% channel loss, dense comms and many small
    sessions, so the chain grows to hundreds of blocks."""
    rng = _rng("churn_n6", seed)
    aliases = [f"V{i:02d}" for i in range(1, 7)]
    groups = [sorted(rng.sample(aliases, 3)) for _ in range(n_sessions)]
    t_end = 400 * n_sessions + 1200
    return _scenario(
        "churn_n6",
        seed,
        rng,
        aliases,
        0.05,
        _comms(rng, aliases, comms_per_vehicle, 300, t_end - 600),
        _sessions(rng, groups, 500, 400),
        t_end,
    )


SCENARIOS = {"town_n12": town_n12, "churn_n6": churn_n6}


def scenario_bytes(raw: dict) -> bytes:
    return (json.dumps(raw, sort_keys=True, indent=1) + "\n").encode()


@dataclasses.dataclass
class GeneratedChain:
    chain: object  # ivtp.ledger.Chain
    query_id: str  # hex id whose balance the audit asks for
    balances: dict  # hex id -> balance, tracked independently of the ledger
    n_txs: int


def build_chain(seed: int, n_txs: int = 2400) -> GeneratedChain:
    """A churn_n6-like chain: comms with receiver lists, and every so
    often a three-vehicle arbitration with agreement signatures and the
    first-to-proposer reward, in blocks of one to three transactions.

    Built only through public constructors and ``Chain.append_block``."""
    from ivtp import arbitration, identity, ledger

    rng = _rng("chain_audit", seed)
    dealer = identity.DealerAuthority.from_name("dealer")
    chain = ledger.Chain.create(dealer, endowment=ENDOWMENT, genesis_tf=0)
    keys, regs = {}, []
    for i in range(6):
        kp = identity.keygen(identity.sha256(f"chain_audit/{seed}/{i}".encode()))
        issuance = dealer.issue(kp.public_key)
        keys[issuance.ivtp_id] = kp
        regs.append(ledger.register_tx_from_issuance(issuance, dealer, tf=0))
    chain.append_block(regs, timestamp=0)
    ids = sorted(keys)
    balances = {v: ENDOWMENT for v in ids}

    def signed(tx):
        sig = identity.sign(keys[tx.author], ledger.tx_signing_bytes(tx))
        return dataclasses.replace(tx, signature=sig)

    t, ts, made, session = 100, 0, 0, 0
    block: list = []
    while made < n_txs:
        t += rng.randrange(1, 20)
        if made % 25 == 24 and n_txs - made >= 2:
            session += 1
            members = rng.sample(ids, 3)
            intents = {v: t - rng.randrange(0, 60) for v in members}
            ordering = tuple(arbitration.compute_order(intents))
            proposer = rng.choice(members)
            iid = f"crossing-{session}"
            agreements = tuple(
                sorted(
                    (v, arbitration.agreement_signature(keys[v], iid, ordering))
                    for v in members
                    if v != proposer
                )
            )
            txs = [
                signed(
                    ledger.ArbitrationTx(
                        author=proposer,
                        tf=t,
                        signature=b"",
                        intersection_id=iid,
                        ordering=ordering,
                        proposer=proposer,
                        agreements=agreements,
                    )
                )
            ]
            payer = ordering[0]
            if payer != proposer:
                amount = arbitration.REWARD_MILLI_TRUST
                txs.append(
                    signed(
                        ledger.RewardTx(
                            author=payer,
                            tf=t,
                            signature=b"",
                            from_id=payer,
                            to_id=proposer,
                            amount=amount,
                            reason=iid,
                        )
                    )
                )
                balances[payer] -= amount
                balances[proposer] += amount
        else:
            sender = rng.choice(ids)
            peers = [v for v in ids if v != sender]
            receivers = tuple(sorted(rng.sample(peers, rng.randrange(1, len(peers) + 1))))
            txs = [
                signed(
                    ledger.CommTx(
                        author=sender,
                        tf=t,
                        signature=b"",
                        sender=sender,
                        receivers=receivers,
                        message_hash=identity.sha256(f"{seed}/{made}".encode()),
                        tf_sent=t,
                    )
                )
            ]
        block.extend(txs)
        made += len(txs)
        if len(block) >= rng.randrange(1, 4) or made >= n_txs:
            ts = max(ts, t + rng.randrange(2, 6))
            chain.append_block(block, timestamp=ts)
            block = []
    query = max(ids, key=lambda v: (abs(balances[v] - ENDOWMENT), v))
    return GeneratedChain(
        chain=chain,
        query_id=query.hex(),
        balances={v.hex(): b for v, b in balances.items()},
        n_txs=made,
    )
