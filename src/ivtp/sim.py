"""Simulation runner: wires scenario, network, vehicles and the ledger.

The replicated ledger is modeled as one network participant (the
"host") that hears every broadcast, pools transactions and their
endorsements, and commits a block whenever a pending transaction
reaches its quorum. Vehicles share the host's chain object for key
lookups and balance checks, which stands in for every node holding a
synchronized replica.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import consensus, identity, ledger, netsim, vehicle
from .consensus import ConsensusConfig
from .identity import mutable, sha256
from .ledger import ArbitrationTx, RewardTx, TimeFlag, Transaction
from .scenario import DEALER_ALIAS, HOST_ALIAS, ScenarioConfig, seed_bytes
from .vehicle import Endpoint, Frame, Vehicle

HOST_ID = sha256(b"ivtp/ledger-host")

# perfbench's tracer wraps this name too; Endpoint.handle_frame calls it.
verify_frame = vehicle.verify_frame


class LedgerHost(Endpoint):
    """Network participant that turns broadcasts into chain state: it
    reads beacons, transactions and endorsements, and refuses one of
    those, with a drop row, for the reasons a vehicle would. Its table
    (Endpoint._DISPATCH) has no handler for the session kinds, so it
    skips a registered sender's session frame unchecked (heeds)."""

    def __init__(self, chain: ledger.Chain, config: ConsensusConfig = ConsensusConfig()):
        super().__init__(HOST_ID, HOST_ALIAS, chain, config)
        # tx_id -> its pooled tx, in arrival order.
        self.pending: dict[bytes, consensus.PendingTx] = {}
        # tx_id -> (arrival time, endorsement) for txs not heard yet;
        # sweep drops an entry pending_ttl_ms after it arrived.
        self.early_endorsements: dict[
            bytes, list[tuple[TimeFlag, consensus.Endorsement]]
        ] = {}

    def ingest_tx(self, tx: Transaction, now: TimeFlag) -> None:
        """Pool a transaction for quorum, unless its tf is ahead of the
        clock: no honest author sends a tx before its tf, and vehicles do
        not endorse one, so it could only sit in the pool."""
        tx_id = tx.tx_id
        if tx_id in self.pending or tx_id in self.chain.tx_by_id or tx.tf > now:
            return
        item = self.pending[tx_id] = consensus.PendingTx(tx=tx)
        for _arrived, e in self.early_endorsements.pop(tx_id, []):
            item.add(e)
        self.sweep(now)

    def ingest_endorsement(self, e: consensus.Endorsement, now: TimeFlag) -> None:
        """Pool an endorsement taken from an endorse frame the gate admitted:
        handle_frame checked its sender's key and signature, and heeds skipped
        it if it names a transaction already on the chain."""
        item = self.pending.get(e.tx_id)
        if item is not None:
            item.add(e)
        else:
            self.early_endorsements.setdefault(e.tx_id, []).append((now, e))
        self.sweep(now)

    def sweep(self, now: TimeFlag) -> None:
        """Reap expired transactions and early endorsements, then commit
        whatever has quorum. An honest endorser hears a tx no earlier than
        its tf, so a tx arriving pending_ttl_ms after its endorsements
        would be expired anyway."""
        ttl = self.config.pending_ttl_ms
        self.early_endorsements = {
            tx_id: kept
            for tx_id, entries in self.early_endorsements.items()
            if (kept := [(t, e) for t, e in entries if now - t <= ttl])
        }
        for tx_id, item in list(self.pending.items()):
            if now - item.tx.tf > ttl:
                del self.pending[tx_id]
                self._note(
                    now, "tx_expired", {"tx_id": tx_id.hex()[:16], "kind": type(item.tx).__name__}
                )

        result = consensus.try_commit(self.pending.values(), self.active(now), self.chain, now)
        self.pending = {item.tx.tx_id: item for item in result.still_pending}
        for item, cause in result.rejected:
            self._note(
                now,
                "tx_rejected",
                {"tx_id": item.tx.tx_id.hex()[:16], "cause": cause},
            )
        if result.block is not None:
            self._note(
                now,
                "block_committed",
                {
                    "height": result.block.height,
                    "txs": len(result.block.txs),
                    "hash": result.block.block_hash.hex()[:16],
                },
            )

    # -- netsim.Participant ---------------------------------------------------

    # Bound in the class itself: perfbench/spans.py wraps each class's own.
    handle_frame = Endpoint.handle_frame

    def _on_comm(self, f: Frame, now: TimeFlag) -> list:
        self.ingest_tx(f.body[-1], now)
        return []

    _on_reward_notice = _on_comm

    def _on_endorse(self, f: Frame, now: TimeFlag) -> list:
        tx_id, verdict = f.body
        self.ingest_endorsement(consensus.Endorsement(tx_id, f.sender, verdict), now)
        return []

    def handle_timer(self, tag, now: TimeFlag) -> list:
        return []


@mutable
class RunHandles:
    """Everything a caller might want to poke at after a run."""

    chain: ledger.Chain
    vehicles: dict[str, Vehicle]
    net: netsim.Network
    report: dict


def _build_world(cfg: ScenarioConfig):
    dealer = identity.DealerAuthority.from_name("dealer")
    chain = ledger.Chain.create(
        dealer, endowment=cfg.ledger.endowment_millitrust, genesis_tf=0
    )
    net = netsim.Network(cfg.network)
    net.names[dealer.dealer_id] = DEALER_ALIAS
    host = LedgerHost(chain, cfg.consensus)

    vehicles: dict[str, Vehicle] = {}
    for entry in cfg.vehicles:
        kp = identity.keygen(seed_bytes(entry.seed))
        issuance = dealer.issue(kp.public_key)
        tx = ledger.register_tx_from_issuance(issuance, dealer, tf=0)
        host.pending[tx.tx_id] = consensus.PendingTx(tx=tx)
        vehicles[entry.alias] = Vehicle(
            issuance.ivtp_id, kp, chain, config=cfg.consensus, alias=entry.alias
        )
    for member in (host, *vehicles.values()):
        net.names[member.ivtp_id] = member.alias
        member.net = net
        net.join(member)

    # Bootstrap: registrations reach the chain before any frame flows.
    # With nobody active yet the quorum threshold is zero, so the batch
    # commits as one block at t=0.
    host.sweep(0)
    return chain, net, vehicles


def _schedule(cfg: ScenarioConfig, net: netsim.Network, vehicles: dict[str, Vehicle]):
    for veh in vehicles.values():
        net.set_timer(veh.ivtp_id, 0, ("beacon",))
    for entry in cfg.intersections:
        participants = frozenset(vehicles[a].ivtp_id for a in entry.participants)
        delays = {
            vehicles[a].ivtp_id: entry.compute_delay_ms[a] for a in entry.participants
        }
        deadline = max(entry.arrival_ms.values()) + entry.collection_window_ms
        for a in entry.participants:
            veh = vehicles[a]
            veh.open_session(entry.id, participants, delays, deadline)
            net.set_timer(veh.ivtp_id, entry.arrival_ms[a], ("arrive", entry.id))
    for comm in cfg.comms:
        veh = vehicles[comm.sender]
        net.set_timer(veh.ivtp_id, comm.at_ms, ("comm", comm.payload.encode()))


def run(cfg: ScenarioConfig, out_dir=None) -> RunHandles:
    """Execute one scenario; optionally persist chain, trace and report.
    With out_dir, trace.jsonl is written while the run goes. A run that
    raises leaves that partial trace.jsonl and no report.json."""
    chain, net, vehicles = _build_world(cfg)
    _schedule(cfg, net, vehicles)
    out = None if out_dir is None else Path(out_dir)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        net.trace.bind(out / "trace.jsonl")
    try:
        net.run_until(cfg.run.t_end_ms)
    finally:
        trace_digest = encode_trace(net.trace)
    report = build_report(cfg, chain, net.trace, net.names, trace_digest)

    if out is not None:
        ledger.save_chain(chain, out / "chain.bin")
        (out / "report.json").write_bytes(encode_report(report))

    return RunHandles(
        chain=chain,
        vehicles=vehicles,
        net=net,
        report=report,
    )


def encode_trace(trace: netsim.Trace) -> bytes:
    """Finish trace.jsonl, whose rows were encoded when their events
    happened: write what is left and return the SHA-256 of the whole
    trace, fed chunk by chunk as it was written."""
    return trace.close()


def encode_report(report: dict) -> bytes:
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()


def build_report(
    cfg: ScenarioConfig,
    chain: ledger.Chain,
    trace: netsim.Trace,
    aliases: netsim.Names,
    trace_digest: bytes,
) -> dict:
    """Deterministic run summary; rebuilding it from the persisted
    chain and trace (a Trace holding trace.jsonl's rows) yields
    identical bytes. Of the trace it reads only the row counts and the
    notes."""
    name = aliases.__getitem__

    blocks = [
        {
            "height": b.height,
            "hash": b.block_hash.hex(),
            "timestamp": b.timestamp,
            "txs": len(b.txs),
        }
        for b in chain.blocks
    ]
    balances = {
        name(veh): bal for veh, bal in sorted(chain.state.balances.items())
    }
    comm_table = {
        name(veh): [name(p) for p in peers]
        for veh, peers in sorted(ledger.comm_table(chain).items())
    }

    rewards_by_reason: dict[str, dict] = {}
    reward_list = []
    for block in chain.blocks:
        for tx in block.txs:
            if isinstance(tx, RewardTx):
                entry = {
                    "from": name(tx.from_id),
                    "to": name(tx.to_id),
                    "amount": tx.amount,
                    "reason": tx.reason,
                }
                reward_list.append(entry)
                rewards_by_reason[tx.reason] = entry

    sessions: dict[str, dict] = {}
    for block in chain.blocks:
        for tx in block.txs:
            if isinstance(tx, ArbitrationTx):
                sessions[tx.intersection_id] = {
                    "outcome": "committed",
                    "ordering": [name(v) for v in tx.ordering],
                    "proposer": name(tx.proposer),
                    "rounds": 1,
                    "reward": rewards_by_reason.get(tx.intersection_id),
                }
    for row in trace.notes:
        if row["kind"] == "session_committed":
            iid = row["detail"]["intersection"]
            if iid in sessions:
                sessions[iid]["rounds"] = row["detail"]["round"] + 1
        elif row["kind"] == "session_aborted":
            iid = row["detail"]["intersection"]
            sessions.setdefault(
                iid,
                {
                    "outcome": "aborted",
                    "ordering": None,
                    "fallback": row["detail"]["fallback"],
                    "proposer": None,
                    "rounds": 2,
                    "reward": None,
                },
            )

    return {
        "scenario": cfg.name,
        "seed": cfg.network.seed,
        "t_end_ms": cfg.run.t_end_ms,
        "chain": {
            "height": chain.height,
            "blocks": blocks,
            "total_supply": ledger.total_supply(chain),
        },
        "balances": balances,
        "comm_table": comm_table,
        "rewards": reward_list,
        "sessions": {k: sessions[k] for k in sorted(sessions)},
        "counts": {
            "frames_sent": trace.counts["send"],
            "frames_dropped": trace.counts["drop"],
        },
        "trace_digest": trace_digest.hex(),
    }
