"""Proof-of-Driving consensus: beacon freshness, endorsements, and the
strict-majority commit rule.

A transaction is only as good as the evidence that its author was
actually on the road: authors must hold a beacon no older than the
freshness window, and a pending transaction commits once strictly more
than half of the other active vehicles endorse it as valid. Vehicles
never count toward their own quorum.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import field

from . import ledger
from .identity import IvTpId, frozen, mutable
from .ledger import ArbitrationTx, Chain, RegisterTx, TimeFlag, Transaction

VERDICT_VALID = "valid"
VERDICT_INVALID = "invalid"


@frozen
class ConsensusConfig:
    """The protocol timings every participant follows."""

    beacon_period_ms: int = 100
    beacon_window_ms: int = 500
    pending_ttl_ms: int = 2000
    agree_timeout_ms: int = 150


def active_vehicles(now: TimeFlag, window_ms: int, beacons: dict[IvTpId, TimeFlag]) -> set[IvTpId]:
    """Vehicles whose beacon tf in the caller's table lies in the closed
    interval [now - window_ms, now]. Every id in the table passed the gate
    (Endpoint.handle_frame) or is the caller's own: no registration is read."""
    if window_ms <= 0:
        raise ValueError("window_ms must be positive")
    lo = now - window_ms
    return {veh for veh, tf in beacons.items() if lo <= tf <= now}


def pod_check(active_set: set[IvTpId], tx: Transaction, chain: Chain) -> str | None:
    """One vehicle's verdict on a pending transaction: the failure code,
    or None if it is valid. Valid means it would apply on top of the
    chain (the ledger's one rule set) and its author, and every member
    of an arbitration, is driving. Registrations are dealer business,
    not driving evidence, so they skip the liveness test."""
    cause = chain.state.check_tx(tx, chain.height + 1)
    if cause is not None or isinstance(tx, RegisterTx):
        return cause
    if tx.author not in active_set:
        return "not_driving"
    if isinstance(tx, ArbitrationTx) and not active_set.issuperset(tx.ordering):
        return "member_not_active"
    return None


def quorum_threshold(n_active_excluding_author: int) -> int:
    """Smallest endorsement count strictly above half of n. Zero when
    there is nobody else to ask, so lone networks still make progress."""
    n = n_active_excluding_author
    if n < 0:
        raise ValueError("active count cannot be negative")
    return 0 if n == 0 else n // 2 + 1


@mutable
class PendingTx:
    """A transaction in the pool with the verdicts of its endorsers."""

    tx: Transaction
    verdicts: dict[IvTpId, str] = field(default_factory=dict)  # VERDICT_VALID or VERDICT_INVALID

    def add(self, endorser: IvTpId, verdict: str) -> None:
        """Record an endorsement: an endorser's first verdict wins, and
        the author's own never counts."""
        if endorser != self.tx.author:
            self.verdicts.setdefault(endorser, verdict)

    def count(self, verdict: str) -> int:
        return sum(1 for v in self.verdicts.values() if v == verdict)


@mutable
class CommitResult:
    """What try_commit did: the new block, if any, and the pool's rest."""

    block: ledger.Block | None
    still_pending: list[PendingTx]
    rejected: list[tuple[Transaction, str]]  # each refused tx with its cause


def try_commit(
    pending: Collection[PendingTx], active_set: set[IvTpId], chain: Chain, now: TimeFlag
) -> CommitResult:
    """Select every pending tx that reached quorum, commit those that
    still apply as one block (ordered by tf then tx_id, each admitted
    against the state the ones before it left), and report the txs
    rejected by quorum or refused at commit.

    Endorsements are assumed authenticated (by their frame) and
    deduplicated on ingestion. A tx that would no longer apply (say its
    payer spent the balance since endorsement) is rejected with the
    ledger's cause, not committed.
    """
    committable: list[PendingTx] = []
    still_pending: list[PendingTx] = []
    rejected: list[tuple[Transaction, str]] = []
    for item in pending:
        others = active_set - {item.tx.author}
        needed = quorum_threshold(len(others))
        if item.count(VERDICT_VALID) >= needed:
            committable.append(item)
        elif needed > 0 and item.count(VERDICT_INVALID) >= needed:
            rejected.append((item.tx, "quorum_invalid"))
        else:
            still_pending.append(item)
    if not committable:
        return CommitResult(None, still_pending, rejected)

    committable.sort(key=lambda p: (p.tx.tf, p.tx.tx_id))
    block, refused = chain.append_block([item.tx for item in committable], timestamp=now)
    return CommitResult(block, still_pending, rejected + refused)
