"""Intersection arbitration: first-come-first-serve crossing order.

Vehicles announce their arrival time, everyone sorts the announcements,
the fastest calculator proposes the order, and the proposal stands only
if every other participant independently recomputes the same order and
signs off. A committed session pays the proposer a fixed fee of 0.5
trust points (500 milli-trust) from the first vehicle in the order.

This module is the protocol with no network and no cryptography: step is
every transition of a session. The vehicle agent turns frames and timers
into step's events, and its actions into frames, signatures, timers and
trace rows.
"""

from __future__ import annotations

import enum
from dataclasses import field
from typing import Iterable, Mapping

from . import ledger
from .consensus import ConsensusConfig
from .identity import IvTpId, mutable
from .ledger import TimeFlag

REWARD_MILLI_TRUST = 500

# perfbench/gen.py signs the agreements of the chains it generates by this name.
agreement_signature = ledger.agreement_signature


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


@mutable
class IntersectionSession:
    """One participant's view of one intersection negotiation: owner's."""

    intersection_id: str
    participants: frozenset[IvTpId]
    compute_delays: dict[IvTpId, int]
    owner: IvTpId
    intents: dict[IvTpId, TimeFlag] = field(default_factory=dict)
    phase: Phase = Phase.COLLECTING
    round: int = 0
    proposer: IvTpId | None = None
    ordering: tuple[IvTpId, ...] | None = None  # the proposed order, once proposed or agreed to
    agreements: dict[IvTpId, bytes] = field(default_factory=dict)
    paid: bool = False  # the owner has paid a fee for this intersection

    def fallback_ordering(self) -> list[IvTpId]:
        """Safe deterministic order used when a session aborts."""
        return sorted(self.participants)


def step(
    session: IntersectionSession, event: tuple, now: TimeFlag, config: ConsensusConfig
) -> list[tuple]:
    """What event does to session at now: the owner's actions, in the
    order it takes them. Events and actions are tuples headed by a name.

    Events:
      ("open", deadline)                     collection ends at deadline
      ("arrive",)                            the owner reaches the intersection
      ("intent", sender, tf)
      ("schedule", sender, round, ordering)
      ("agree", sender, round, sig, signed)  signed() checks sig
      ("disagree", sender, round)
      ("outcome", ordering, proposer, applies)  applies() checks the ArbitrationTx
      (timer, round)                         "propose", "collect_deadline" or "agree_deadline"
    A verdict is called only once its event has passed every other guard.

    Actions:
      ("intent", tf), ("schedule", round, ordering), ("disagree", round): that frame
      ("agree", round, ordering)  the frame of the owner's agreement to ordering
      ("author", tx_cls, fields)  the owner's transaction, announced
      ("timer", fire_at, tag)     tag is (timer, intersection id, round)
      ("note", kind, detail)      a trace note; ids in detail are named
      ("drop", reason)            drop the event's frame
    """
    s, (head, *args) = session, event
    if head == "open":
        return [_timer(s, args[0], "collect_deadline")]
    if head == "arrive":
        s.intents.setdefault(s.owner, now)
        elect_now = s.phase is Phase.COLLECTING and s.intents.keys() == s.participants
        return [("intent", now)] + (_election(s, now, config) if elect_now else [])
    if head == "intent":
        sender, tf = args
        if s.phase is not Phase.COLLECTING or sender not in s.participants:
            return []
        s.intents.setdefault(sender, tf)  # a re-broadcast never moves the first time
        return _election(s, now, config) if s.intents.keys() == s.participants else []
    if head == "outcome":
        # Only an outcome ordering exactly the participants, that check_tx
        # would apply: the proposer as author, every other member's agreement.
        ordering, proposer, applies = args
        if set(ordering) != s.participants or not applies():
            return []
        if s.phase not in (Phase.COMMITTED, Phase.ABORTED):
            s.phase, s.proposer = Phase.COMMITTED, proposer
        # The first in the order pays the proposer, once per intersection.
        payer, payee = reward_parties(ordering, proposer)
        if payer != s.owner or payer == payee or s.paid:
            return []
        s.paid = True
        fee = dict(from_id=payer, to_id=payee, amount=REWARD_MILLI_TRUST, reason=s.intersection_id)
        return [("author", ledger.RewardTx, fee)]
    if s.phase in (Phase.COMMITTED, Phase.ABORTED):
        return []
    if head == "disagree":
        sender, round_ = args
        if sender not in s.participants or round_ < s.round:
            return []
        return _retry(s, now, config)
    if head == "schedule":
        # Only the round's elected proposer steers the session, whether or
        # not this participant holds every intent yet.
        sender, round_, ordering = args
        if round_ != s.round or sender != elect(s.participants, s.compute_delays, round_):
            return []
        # A participant cannot vouch for an order it cannot recompute.
        if s.intents.keys() == s.participants and list(ordering) == compute_order(s.intents):
            s.phase, s.ordering = Phase.AGREEING, ordering
            return [("agree", round_, ordering)]
        return [("disagree", round_)] + _retry(s, now, config)
    if head == "agree":
        sender, round_, sig, signed = args
        if s.phase is not Phase.AGREEING or s.proposer != s.owner or round_ != s.round:
            return []
        if sender == s.owner or sender not in s.participants:
            return []
        if not signed():
            return [("drop", "bad_agreement_sig")]
        s.agreements.setdefault(sender, sig)
        return _commit(s)
    if args[0] != s.round:
        return []  # a timer of a round the session has left
    if head == "propose" and s.phase is Phase.PROPOSING and s.proposer == s.owner:
        s.phase = Phase.AGREEING
        s.ordering = tuple(compute_order(s.intents))
        return [("schedule", s.round, s.ordering)] + _commit(s)  # a lone participant commits
    # Each deadline acts in its own phase: collect_deadline while an intent
    # is missing (one that holds them all has elected), agree_deadline after.
    if head == ("collect_deadline" if s.phase is Phase.COLLECTING else "agree_deadline"):
        return _retry(s, now, config)
    return []


def _timer(s: IntersectionSession, fire_at: TimeFlag, kind: str) -> tuple:
    return ("timer", fire_at, (kind, s.intersection_id, s.round))


def _election(s: IntersectionSession, now: TimeFlag, config: ConsensusConfig) -> list[tuple]:
    """All intents are in: every participant knows who proposes, and when
    to stop waiting for the outcome. The proposer proposes once it has
    computed the order, its compute delay from now."""
    s.phase = Phase.PROPOSING
    s.proposer = elect(s.participants, s.compute_delays, s.round)
    out = [_timer(s, now + s.compute_delays[s.owner], "propose")] if s.proposer == s.owner else []
    return out + [_timer(s, now + config.agree_timeout_ms, "agree_deadline")]


def _retry(s: IntersectionSession, now: TimeFlag, config: ConsensusConfig) -> list[tuple]:
    """Bounded retry: the first failure restarts collection for one more
    round (the lowest id will propose); a second failure aborts, leaving
    the id-sorted fallback ordering as the crossing rule."""
    s.round += 1
    s.agreements.clear()
    s.ordering = s.proposer = None
    if s.round >= 2:
        s.phase = Phase.ABORTED
        detail = {"intersection": s.intersection_id, "fallback": s.fallback_ordering()}
        return [("note", "session_aborted", detail)]
    s.phase = Phase.COLLECTING
    out = [("note", "session_retry", {"intersection": s.intersection_id, "round": s.round})]
    if s.owner in s.intents:
        out.append(("intent", s.intents[s.owner]))
    out.append(_timer(s, now + config.agree_timeout_ms, "collect_deadline"))
    # A participant that already holds every intent re-elects at once; the
    # others wait for the re-broadcasts.
    return out + _election(s, now, config) if s.intents.keys() == s.participants else out


def _commit(s: IntersectionSession) -> list[tuple]:
    """The proposer announces the outcome once it holds every agreement."""
    if s.agreements.keys() != s.participants - {s.owner}:
        return []
    s.phase = Phase.COMMITTED
    iid, ordering = s.intersection_id, s.ordering
    agreements = tuple(sorted(s.agreements.items()))
    outcome = dict(intersection_id=iid, ordering=ordering, proposer=s.owner, agreements=agreements)
    detail = {"intersection": iid, "ordering": ordering, "proposer": s.owner, "round": s.round}
    return [("author", ledger.ArbitrationTx, outcome), ("note", "session_committed", detail)]


def reward_parties(ordering, proposer: IvTpId) -> tuple[IvTpId, IvTpId]:
    """(payer, payee) of a committed ordering's fee: the first vehicle in
    the order pays the proposer. Equal payer and payee means no reward
    changes hands (no self-payment)."""
    return ordering[0], proposer
