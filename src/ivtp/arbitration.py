"""Intersection arbitration: first-come-first-serve crossing order.

Vehicles announce their arrival time, everyone sorts the announcements,
the fastest calculator proposes the order, and the proposal stands only
if every other participant independently recomputes the same order and
signs off. A committed session pays the proposer a fixed fee of 0.5
trust points (500 milli-trust) from the first vehicle in the order.

This module is the pure state machine; the vehicle agent drives it from
network events and timers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from . import identity
from .identity import IvTpId, KeyPair
from .ledger import TimeFlag, agree_message

REWARD_MILLI_TRUST = 500


class Phase(enum.Enum):
    COLLECTING = "collecting"
    PROPOSING = "proposing"
    AGREEING = "agreeing"
    COMMITTED = "committed"
    ABORTED = "aborted"


def compute_order(intents: Mapping[IvTpId, TimeFlag]) -> list[IvTpId]:
    """First come first serve: arrival time ascending, id ascending on
    ties, so every participant derives the identical order."""
    if not intents:
        raise ValueError("no intents to order")
    return sorted(intents, key=lambda veh: (intents[veh], veh))


def elect(
    participants: Iterable[IvTpId], compute_delays: Mapping[IvTpId, int], round_: int
) -> IvTpId:
    """The proposer of a session round, the same at every participant.

    Round 0: the vehicle that computes the order first, the least compute
    delay with ties to the lower id. A retry round: the lowest id, so a
    retry cannot stall on the same failure.
    """
    pool = list(participants)
    if not pool:
        raise ValueError("no participants to elect from")
    if round_ == 0:
        return min(pool, key=lambda veh: (compute_delays[veh], veh))
    return min(pool)


@dataclass
class IntersectionSession:
    """One vehicle's view of one intersection negotiation."""

    intersection_id: str
    participants: frozenset[IvTpId]
    compute_delays: dict[IvTpId, int]
    intents: dict[IvTpId, TimeFlag] = field(default_factory=dict)
    phase: Phase = Phase.COLLECTING
    round: int = 0
    proposer: IvTpId | None = None
    ordering: tuple[IvTpId, ...] | None = None  # the proposed order, once proposed or agreed to
    agreements: dict[IvTpId, bytes] = field(default_factory=dict)

    def add_intent(self, vehicle: IvTpId, tf: TimeFlag) -> bool:
        """Record an arrival announcement; re-broadcasts never overwrite
        the first recorded time. Returns True once all intents are in."""
        if vehicle not in self.participants:
            return False
        self.intents.setdefault(vehicle, tf)
        return self.is_complete()

    def is_complete(self) -> bool:
        return set(self.intents) == set(self.participants)

    def matches(self, ordering: tuple[IvTpId, ...]) -> bool:
        """True when this vehicle's own intent set is complete and
        reproduces the proposed ordering exactly: a vehicle cannot vouch
        for an order it cannot recompute."""
        return self.is_complete() and list(ordering) == compute_order(self.intents)

    def record_agreement(self, vehicle: IvTpId, sig: bytes) -> None:
        if vehicle in self.participants and vehicle != self.proposer:
            self.agreements.setdefault(vehicle, sig)

    def unanimous(self) -> bool:
        return set(self.agreements) == set(self.participants) - {self.proposer}

    def fallback_ordering(self) -> list[IvTpId]:
        """Safe deterministic order used when a session aborts."""
        return sorted(self.participants)


def agreement_signature(keypair: KeyPair, intersection_id: str, ordering) -> bytes:
    return identity.sign(keypair, agree_message(intersection_id, ordering))


def recover(session: IntersectionSession) -> Phase:
    """Bounded retry: first failure restarts collection for one more
    round (lowest id will re-propose); a second failure aborts, leaving
    the id-sorted fallback ordering as the crossing rule."""
    if session.phase in (Phase.COMMITTED, Phase.ABORTED):
        return session.phase
    session.round += 1
    session.agreements.clear()
    session.ordering = None
    session.proposer = None
    if session.round >= 2:
        session.phase = Phase.ABORTED
    else:
        session.phase = Phase.COLLECTING
    return session.phase


def reward_parties(ordering, proposer: IvTpId) -> tuple[IvTpId, IvTpId]:
    """(payer, payee) of a committed ordering's fee: the first vehicle in
    the order pays the proposer. Equal payer and payee means no reward
    changes hands (no self-payment)."""
    return ordering[0], proposer
