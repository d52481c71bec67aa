"""Vehicle agent: frame signing bytes, verification pipeline, protocol
handlers.

Every message on the air is a broadcast Frame: a kind tag, the sender's
trust-point id, a time flag and a kind-specific payload, signed by the
sender. Frames travel between participants as objects; their only byte
form is the signing bytes. A receiver verifies the signature against the
sender's on-chain key before any handler sees the content; frames that
fail are dropped and counted, never raised.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from dataclasses import dataclass

from . import arbitration, consensus, identity, ledger
from .arbitration import IntersectionSession, Phase, Schedule
from .consensus import ConsensusConfig
from .identity import IvTpId, KeyPair, sha256, short_id
from .ledger import (
    ArbitrationTx,
    CommTx,
    FieldOverflowError,
    RewardTx,
    TimeFlag,
    Transaction,
    agree_message,
    canonical_decode,
    canonical_encode,
    sign_tx,
)

KIND_BEACON = 1
KIND_COMM = 2
KIND_INTENT = 3
KIND_SCHEDULE = 4
KIND_AGREE = 5
KIND_DISAGREE = 6
KIND_ENDORSE = 7
KIND_REWARD_NOTICE = 8

KIND_LABELS = {
    KIND_BEACON: "beacon",
    KIND_COMM: "comm",
    KIND_INTENT: "intent",
    KIND_SCHEDULE: "schedule",
    KIND_AGREE: "agree",
    KIND_DISAGREE: "disagree",
    KIND_ENDORSE: "endorse",
    KIND_REWARD_NOTICE: "reward_notice",
}

class NotRegisteredError(ValueError):
    """Action requires the vehicle to be registered on the chain."""


class SessionExistsError(ValueError):
    """A vehicle runs at most one session per intersection at a time."""


@dataclass(frozen=True)
class Frame:
    """One broadcast message, heard by every participant in range."""

    kind: int
    sender: IvTpId
    tf: TimeFlag
    payload: bytes
    signature: bytes = b""

    # Each cached property below, and the signature check (verify_frame), is
    # made once per frame object, however many receivers read it. The caches
    # live in __dict__, so ==, hash and repr see only the fields. A property
    # that raises caches nothing: every receiver re-raises, and drops alike.

    @functools.cached_property
    def kind_label(self) -> str:
        label = KIND_LABELS.get(self.kind)
        return f"kind-{self.kind}" if label is None else label

    @functools.cached_property
    def signing_bytes(self) -> bytes:
        """What the sender signs. Raises FieldOverflowError on a malformed
        frame."""
        return _signing_bytes(self.kind, self.sender, self.tf, self.payload)

    @functools.cached_property
    def body(self):
        """The parsed JSON payload. Read it only after the signature
        check, and never change it: every receiver shares it."""
        return json.loads(self.payload.decode())

    @functools.cached_property
    def tx(self) -> Transaction:
        """The transaction carried hex-encoded under the payload's "tx"
        key (comm and reward_notice frames), decoded once and shared."""
        return canonical_decode(bytes.fromhex(self.body["tx"]))


def _signing_bytes(kind: int, sender: IvTpId, tf: TimeFlag, payload: bytes) -> bytes:
    """The ledger's envelope (kind as the tag, sender, tf), then the
    length-prefixed payload."""
    if not 0 < kind < 256:
        raise FieldOverflowError(f"frame kind out of range: {kind}")
    return ledger.envelope(kind, sender, tf) + ledger.BLOB.encode(payload, "payload")


def make_frame(
    kind: int, keypair: KeyPair, sender: IvTpId, tf: TimeFlag, payload: bytes
) -> Frame:
    body = _signing_bytes(kind, sender, tf, payload)
    signed = Frame(kind, sender, tf, payload, identity.sign(keypair, body))
    # The signature is not part of the signing bytes: keep the encoding.
    vars(signed)["signing_bytes"] = body
    return signed


def verify_frame(f: Frame, sender_pk: bytes) -> bool:
    return identity.verify_once(f, "_sig_verdict", sender_pk, lambda: _signed_by(f, sender_pk))


def _signed_by(f: Frame, public_key: bytes) -> bool:
    try:
        return identity.verify(public_key, f.signing_bytes, f.signature)
    except FieldOverflowError:
        return False


# One encoder for every payload; json.dumps with options builds one per call.
_encode_payload = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _compact(obj) -> bytes:
    return _encode_payload(obj).encode()


# Every beacon carries the same payload: one network, one zone.
_BEACON_PAYLOAD = _compact({"network_id": "net-0", "position_zone": "zone-0"})


# ---------------------------------------------------------------------------
# The agent
# ---------------------------------------------------------------------------

class Endpoint:
    """A network participant that names itself in the trace by its
    alias: it writes a drop row for each frame it refuses, counted by
    reason, and note rows for what it does."""

    def __init__(self, ivtp_id: IvTpId, alias: str):
        self.ivtp_id = ivtp_id
        self.alias = alias
        self.net = None  # netsim.Network, set when joining
        self.drops: Counter[str] = Counter()  # reason -> frames dropped

    @property
    def drop_count(self) -> int:
        """Frames dropped, whatever the reason."""
        return self.drops.total()

    def _drop(self, f: Frame, now: TimeFlag, reason: str) -> list[Frame]:
        self.drops[reason] += 1
        if self.net is not None:
            self.net.trace.drop(now, self.alias, f.kind_label, self.net.names[f.sender], reason)
        return []

    def _note(self, now: TimeFlag, kind: str, detail) -> None:
        if self.net is not None:
            self.net.trace.note(now, self.alias, kind, detail)


class Vehicle(Endpoint):
    """Protocol endpoint driven by the event loop.

    Handlers take a verified frame (or a timer tag) plus the current
    time and return the frames to broadcast in response. All chain
    access goes through the shared replicated ledger object.
    """

    def __init__(
        self,
        ivtp_id: IvTpId,
        keypair: KeyPair,
        chain: ledger.Chain,
        config: ConsensusConfig = ConsensusConfig(),
        alias: str | None = None,
    ):
        super().__init__(ivtp_id, alias or short_id(ivtp_id))
        self.keypair = keypair
        self.chain = chain
        self.config = config
        self.peer_beacons: dict[IvTpId, TimeFlag] = {}
        # tx_id -> tf of each transaction endorsed, oldest first (see _endorse_tx).
        self.endorsed: dict[bytes, TimeFlag] = {}
        self.paid_for: set[str] = set()  # intersection ids this vehicle paid a fee for
        self.sessions: dict[str, IntersectionSession] = {}
        self.submitted: list[Transaction] = []

    # -- plumbing -----------------------------------------------------------

    def _frame(self, kind: int, obj, now: TimeFlag) -> Frame:
        return make_frame(kind, self.keypair, self.ivtp_id, now, _compact(obj))

    def _set_timer(self, fire_at: TimeFlag, tag) -> None:
        if self.net is not None:
            self.net.set_timer(self.ivtp_id, fire_at, tag)

    def active_peers(self, now: TimeFlag) -> set[IvTpId]:
        """Registered vehicles heard beaconing within the window,
        excluding this one."""
        active = consensus.active_vehicles(
            self.chain, now, self.config.beacon_window_ms, self.peer_beacons
        )
        return active - {self.ivtp_id}

    # -- sending ------------------------------------------------------------

    def emit_beacon(self, now: TimeFlag) -> Frame:
        """Liveness announcement, authenticated by the frame signature
        alone; also refreshes our own entry in the local freshness table
        so we count ourselves active."""
        self.peer_beacons[self.ivtp_id] = now
        return make_frame(KIND_BEACON, self.keypair, self.ivtp_id, now, _BEACON_PAYLOAD)

    def send_comm(self, payload: bytes, now: TimeFlag) -> tuple[Frame, CommTx]:
        """Broadcast a message and the matching on-chain record. The
        record's receivers are the peers active right now."""
        if not self.chain.is_registered(self.ivtp_id):
            raise NotRegisteredError(self.alias)
        receivers = tuple(sorted(self.active_peers(now)))
        tx = sign_tx(
            CommTx(
                author=self.ivtp_id,
                tf=now,
                signature=b"",
                sender=self.ivtp_id,
                receivers=receivers,
                message_hash=sha256(payload),
                tf_sent=now,
            ),
            self.keypair,
        )
        self.submitted.append(tx)
        frame = self._frame(
            KIND_COMM, {"body": payload.hex(), "tx": canonical_encode(tx).hex()}, now
        )
        return frame, tx

    # -- sessions -----------------------------------------------------------

    def open_session(
        self,
        intersection_id: str,
        participants: frozenset[IvTpId],
        compute_delays: dict[IvTpId, int],
        collection_deadline: TimeFlag,
    ) -> IntersectionSession:
        if intersection_id in self.sessions:
            raise SessionExistsError(intersection_id)
        session = IntersectionSession(
            intersection_id=intersection_id,
            participants=participants,
            compute_delays=dict(compute_delays),
            collection_deadline=collection_deadline,
        )
        self.sessions[intersection_id] = session
        if self.ivtp_id in participants:
            self._set_timer(collection_deadline, ("collect_deadline", intersection_id, 0))
        return session

    def announce_arrival(self, intersection_id: str, now: TimeFlag) -> list[Frame]:
        """Called at this vehicle's arrival time: broadcast the intent
        and record it locally."""
        session = self.sessions[intersection_id]
        out = [
            self._frame(
                KIND_INTENT, {"intersection": intersection_id, "tf": now}, now
            )
        ]
        if session.add_intent(self.ivtp_id, now) and session.phase is Phase.COLLECTING:
            out.extend(self._enter_election(session, now))
        return out

    def _enter_election(self, session: IntersectionSession, now: TimeFlag) -> list[Frame]:
        """All intents are in: everyone knows who will propose, and when
        to give up waiting for the outcome."""
        session.phase = Phase.PROPOSING
        scheduler, t_prop = session.elect(now)
        session.proposer = scheduler
        iid = session.intersection_id
        if scheduler == self.ivtp_id:
            self._set_timer(t_prop, ("propose", iid, session.round))
        self._set_timer(now + self.config.agree_timeout_ms, ("agree_deadline", iid, session.round))
        return []

    def _propose(self, session: IntersectionSession, now: TimeFlag) -> list[Frame]:
        session.phase = Phase.AGREEING
        schedule = session.make_schedule(self.ivtp_id)
        session.schedule = schedule
        payload = {
            "intersection": session.intersection_id,
            "ordering": [veh.hex() for veh in schedule.ordering],
            "basis": [[veh.hex(), tf] for veh, tf in schedule.basis],
            "round": session.round,
        }
        out = [self._frame(KIND_SCHEDULE, payload, now)]
        if session.unanimous():  # single-participant session
            out.extend(self._commit(session, now))
        return out

    def _commit(self, session: IntersectionSession, now: TimeFlag) -> list[Frame]:
        """Proposer side: unanimity reached, publish the outcome."""
        session.phase = Phase.COMMITTED
        arb = sign_tx(
            ArbitrationTx(
                author=self.ivtp_id,
                tf=now,
                signature=b"",
                intersection_id=session.intersection_id,
                ordering=session.schedule.ordering,
                proposer=self.ivtp_id,
                agreements=tuple(sorted(session.agreements.items())),
            ),
            self.keypair,
        )
        self.submitted.append(arb)
        self._note(
            now,
            "session_committed",
            {
                "intersection": session.intersection_id,
                "ordering": [self._name_of(v) for v in session.schedule.ordering],
                "proposer": self.alias,
                "round": session.round,
            },
        )
        out = [
            self._frame(
                KIND_REWARD_NOTICE,
                {"intersection": session.intersection_id, "tx": canonical_encode(arb).hex()},
                now,
            )
        ]
        out.extend(self._maybe_pay_reward(arb, now))
        return out

    def _maybe_pay_reward(self, arb: ArbitrationTx, now: TimeFlag) -> list[Frame]:
        """Whoever owes the fee signs and announces its own transfer."""
        payer, payee = arbitration.reward_parties(
            arb.ordering, arb.proposer, self.config.reward_direction
        )
        if payer != self.ivtp_id or payer == payee or arb.intersection_id in self.paid_for:
            return []
        self.paid_for.add(arb.intersection_id)
        reward = sign_tx(
            RewardTx(
                author=self.ivtp_id,
                tf=now,
                signature=b"",
                from_id=self.ivtp_id,
                to_id=payee,
                amount=arbitration.REWARD_MILLI_TRUST,
                reason=arb.intersection_id,
            ),
            self.keypair,
        )
        self.submitted.append(reward)
        return [
            self._frame(
                KIND_REWARD_NOTICE,
                {"intersection": arb.intersection_id, "tx": canonical_encode(reward).hex()},
                now,
            )
        ]

    def _enter_recovery(self, session: IntersectionSession, now: TimeFlag) -> list[Frame]:
        phase = arbitration.recover(session)
        iid = session.intersection_id
        if phase is Phase.ABORTED:
            self._note(
                now,
                "session_aborted",
                {
                    "intersection": iid,
                    "fallback": [self._name_of(v) for v in session.fallback_ordering()],
                },
            )
            return []
        self._note(now, "session_retry", {"intersection": iid, "round": session.round})
        out = []
        own_tf = session.intents.get(self.ivtp_id)
        if own_tf is not None:
            out.append(self._frame(KIND_INTENT, {"intersection": iid, "tf": own_tf}, now))
        self._set_timer(
            now + self.config.agree_timeout_ms, ("collect_deadline", iid, session.round)
        )
        # A vehicle that already holds every intent re-elects right away;
        # the ones that were missing intents wait for the re-broadcasts.
        if session.is_complete():
            out.extend(self._enter_election(session, now))
        return out

    def _name_of(self, veh: IvTpId) -> str:
        if self.net is not None:
            return self.net.names[veh]
        return short_id(veh)

    # -- receiving ----------------------------------------------------------

    # Kind -> name of its handler method, looked up on the instance.
    _HANDLERS = {kind: f"_on_{label}" for kind, label in KIND_LABELS.items()}

    def on_receive(self, f: Frame, now: TimeFlag) -> list[Frame]:
        """Verification pipeline: on-chain key lookup, signature check,
        then kind dispatch. A bad frame is dropped with a trace row."""
        pk = self.chain.public_key_of(f.sender)
        if pk is None:
            return self._drop(f, now, "unknown_sender")
        if not verify_frame(f, pk):
            return self._drop(f, now, "bad_signature")
        handler = self._HANDLERS.get(f.kind)
        if handler is None:
            return self._drop(f, now, "unknown_kind")
        try:
            return getattr(self, handler)(f, now)
        except (ValueError, KeyError, TypeError) as exc:
            return self._drop(f, now, f"bad_payload:{exc}")

    # netsim.Participant protocol
    handle_frame = on_receive

    def handle_timer(self, tag, now: TimeFlag) -> list[Frame]:
        kind = tag[0]
        if kind == "beacon":
            self._set_timer(now + self.config.beacon_period_ms, ("beacon",))
            return [self.emit_beacon(now)]
        if kind == "comm":
            frame, _tx = self.send_comm(bytes.fromhex(tag[1]), now)
            return [frame]
        if kind == "arrive":
            return self.announce_arrival(tag[1], now)
        # A session timer of a round or phase the session has left does nothing.
        session = self.sessions.get(tag[1])
        if session is None or session.round != tag[2]:
            return []
        phase = session.phase
        if kind == "propose" and phase is Phase.PROPOSING and session.proposer == self.ivtp_id:
            return self._propose(session, now)
        if kind == "collect_deadline" and phase is Phase.COLLECTING and not session.is_complete():
            return self._enter_recovery(session, now)
        if kind == "agree_deadline" and phase in (Phase.PROPOSING, Phase.AGREEING):
            return self._enter_recovery(session, now)
        return []

    # -- kind handlers ------------------------------------------------------

    def _on_beacon(self, f: Frame, now: TimeFlag) -> list[Frame]:
        if f.tf > self.peer_beacons.get(f.sender, -1):
            self.peer_beacons[f.sender] = f.tf
        return []

    def _endorse_tx(self, tx: Transaction, verdict_override: str | None, now: TimeFlag):
        """One endorsement per transaction id, ever. Only a tx whose tf
        lies in [now - pending_ttl_ms, now] is endorsed: the ledger host
        expires it after that, so `endorsed` forgets it then and a replay
        finds it stale. The frame signature is the endorsement's only
        signature: it binds the endorser to tx_id and verdict."""
        endorsed, ttl = self.endorsed, self.config.pending_ttl_ms
        while endorsed:
            oldest = next(iter(endorsed))
            if now - endorsed[oldest] <= ttl:
                break
            del endorsed[oldest]
        tx_id = tx.tx_id
        if tx_id in endorsed or tx.author == self.ivtp_id or not now - ttl <= tx.tf <= now:
            return []
        endorsed[tx_id] = tx.tf
        if verdict_override is not None:
            verdict = verdict_override
        else:
            active = consensus.active_vehicles(
                self.chain, now, self.config.beacon_window_ms, self.peer_beacons
            )
            cause = consensus.pod_check(active, tx, self.chain)
            verdict = consensus.VERDICT_VALID if cause is None else consensus.VERDICT_INVALID
        return [self._frame(KIND_ENDORSE, {"tx_id": tx_id.hex(), "verdict": verdict}, now)]

    def _on_comm(self, f: Frame, now: TimeFlag) -> list[Frame]:
        tx = f.tx
        if not isinstance(tx, CommTx) or tx.author != f.sender:
            return self._drop(f, now, "tx_sender_mismatch")
        verdict = None
        if sha256(bytes.fromhex(f.body["body"])) != tx.message_hash:
            verdict = consensus.VERDICT_INVALID  # content does not match record
        return self._endorse_tx(tx, verdict, now)

    def _on_intent(self, f: Frame, now: TimeFlag) -> list[Frame]:
        body = f.body
        session = self.sessions.get(body["intersection"])
        if session is None or f.sender not in session.participants:
            return []
        if session.phase is not Phase.COLLECTING:
            return []
        if session.add_intent(f.sender, int(body["tf"])):
            return self._enter_election(session, now)
        return []

    def _on_schedule(self, f: Frame, now: TimeFlag) -> list[Frame]:
        body = f.body
        iid = body["intersection"]
        session = self.sessions.get(iid)
        if session is None or self.ivtp_id not in session.participants:
            return []
        if session.phase in (Phase.COMMITTED, Phase.ABORTED) or f.sender == self.ivtp_id:
            return []
        if int(body["round"]) != session.round:
            return []  # leftover from an already-failed round
        if session.proposer is not None and f.sender != session.proposer:
            return []
        schedule = Schedule(
            ordering=tuple(bytes.fromhex(v) for v in body["ordering"]),
            proposer=f.sender,
            basis=tuple((bytes.fromhex(v), int(tf)) for v, tf in body["basis"]),
        )
        if session.matches(schedule):
            session.phase = Phase.AGREEING
            session.proposer = f.sender
            session.schedule = schedule
            sig = arbitration.agreement_signature(self.keypair, iid, schedule.ordering)
            payload = {"intersection": iid, "sig": sig.hex(), "round": session.round}
            return [self._frame(KIND_AGREE, payload, now)]
        mine = []
        if session.intents:
            mine = [v.hex() for v in arbitration.compute_order(session.intents)]
        disagree = self._frame(
            KIND_DISAGREE,
            {"intersection": iid, "ordering": mine, "round": session.round},
            now,
        )
        return [disagree] + self._enter_recovery(session, now)

    def _on_agree(self, f: Frame, now: TimeFlag) -> list[Frame]:
        body = f.body
        session = self.sessions.get(body["intersection"])
        if (
            session is None
            or session.proposer != self.ivtp_id
            or session.phase is not Phase.AGREEING
            or f.sender not in session.participants
            or int(body["round"]) != session.round
        ):
            return []
        sig = bytes.fromhex(body["sig"])
        pk = self.chain.public_key_of(f.sender)
        msg = agree_message(session.intersection_id, session.schedule.ordering)
        if pk is None or not identity.verify(pk, msg, sig):
            return self._drop(f, now, "bad_agreement_sig")
        session.record_agreement(f.sender, sig)
        if session.unanimous():
            return self._commit(session, now)
        return []

    def _on_disagree(self, f: Frame, now: TimeFlag) -> list[Frame]:
        body = f.body
        session = self.sessions.get(body["intersection"])
        if (
            session is None
            or self.ivtp_id not in session.participants
            or f.sender not in session.participants
            or session.phase in (Phase.COMMITTED, Phase.ABORTED)
            or int(body["round"]) < session.round
        ):
            return []
        return self._enter_recovery(session, now)

    def _on_endorse(self, f: Frame, now: TimeFlag) -> list[Frame]:
        return []  # consensus metadata; the ledger host consumes these

    def _on_reward_notice(self, f: Frame, now: TimeFlag) -> list[Frame]:
        tx = f.tx
        out: list[Frame] = []
        if isinstance(tx, ArbitrationTx):
            session = self.sessions.get(tx.intersection_id)
            # Act only on an outcome announced by its proposer, for an
            # intersection this vehicle takes part in, that would apply:
            # check_tx wants every member's agreement, this vehicle's included.
            applies = (
                session is not None
                and self.ivtp_id in session.participants
                and tx.author == f.sender == tx.proposer
                and self.chain.state.check_tx(tx, self.chain.height + 1) is None
            )
            if applies and session.phase not in (Phase.COMMITTED, Phase.ABORTED):
                session.phase = Phase.COMMITTED
                session.proposer = tx.proposer
            out.extend(self._endorse_tx(tx, None, now))
            if applies:
                out.extend(self._maybe_pay_reward(tx, now))
        elif isinstance(tx, RewardTx):
            out.extend(self._endorse_tx(tx, None, now))
        return out
