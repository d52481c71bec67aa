"""Vehicle agent: frame signing bytes, verification pipeline, protocol
handlers.

Every message on the air is a broadcast Frame: a kind tag, the sender's
trust-point id, a time flag and a kind-specific payload, signed by the
sender when its signature is first read, in practice by the first
receiver that checks it: a frame nobody checks is never signed, and as
Ed25519 is deterministic the bytes are what an eager sign makes.
Frames travel between participants as objects; their only byte form is
the signing bytes. Each payload is the fields its kind's handler reads, in
wire order (PAYLOAD_FIELDS; a beacon's is empty), written and read by the
ledger's codecs, the same way for every kind. A receiver verifies the
signature against the sender's on-chain key, then reads the payload,
before any handler sees the content; frames that fail are dropped and
counted, never raised. A frame the receiver would not act on is ignored
unchecked (Endpoint.heeds): a registered sender's frame of a kind its
class's table (Endpoint._DISPATCH) has no handler for, and an endorsement
of a transaction already on the chain.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import arbitration, consensus, identity, ledger
from .arbitration import IntersectionSession, Phase
from .consensus import ConsensusConfig
from .identity import IvTpId, KeyPair, once, sha256, short_id
from .ledger import (
    BLOB,
    ID,
    IDS,
    SIGNATURE,
    TEXT,
    U64,
    ArbitrationTx,
    Codec,
    CommTx,
    CorruptChainFileError,
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


def _read_tx(data, pos: int) -> tuple:
    blob, end = BLOB.read(data, pos)
    return canonical_decode(blob), end


# A carried transaction: its canonical encoding as a blob, decoded on read.
TX = Codec(lambda tx, name: BLOB.encode(canonical_encode(tx), name), _read_tx)

# Each kind's payload: the fields its handler reads, in wire order, with a codec each.
PAYLOAD_FIELDS = {
    KIND_BEACON: (),
    KIND_COMM: (("message", BLOB), ("tx", TX)),
    KIND_INTENT: (("intersection", TEXT), ("tf", U64)),
    KIND_SCHEDULE: (("intersection", TEXT), ("round", U64), ("ordering", IDS)),
    KIND_AGREE: (("intersection", TEXT), ("round", U64), ("sig", SIGNATURE)),
    KIND_DISAGREE: (("intersection", TEXT), ("round", U64)),
    KIND_ENDORSE: (("tx_id", ID), ("verdict", TEXT)),
    KIND_REWARD_NOTICE: (("tx", TX),),
}
_PAYLOAD_PLANS = {k: ledger.Plan([c for _, c in fields]) for k, fields in PAYLOAD_FIELDS.items()}

# The transaction kinds a comm and a reward notice may carry, as their
# payload's last field. The frame's sender must be its author.
CARRIES = {KIND_COMM: CommTx, KIND_REWARD_NOTICE: (ArbitrationTx, RewardTx)}


class _SignOnRead:
    """A make_frame frame's signature: made by identity.sign on first read,
    then kept in __dict__ like a field's value. b"" on the class: the default."""

    def __get__(self, obj, owner=None):
        if obj is None:
            return b""
        sig = vars(obj)["signature"] = identity.sign(vars(obj).pop("_signer"), obj.signing_bytes)
        return sig


@dataclass(frozen=True)
class Frame:
    """One broadcast message, heard by every participant in range. One that
    make_frame built is signed on the first read of its signature."""

    kind: int
    sender: IvTpId
    tf: TimeFlag
    payload: bytes
    signature: bytes = _SignOnRead()

    # Each @once attribute below, and the signature check (verify_frame), is
    # made once per frame object, however many receivers read it. One that
    # raises stores nothing: every receiver re-raises, and drops alike.

    @once
    def kind_label(self) -> str:
        label = KIND_LABELS.get(self.kind)
        return f"kind-{self.kind}" if label is None else label

    @once
    def signing_bytes(self) -> bytes:
        """What the sender signs: the ledger's envelope (kind as the tag,
        sender, tf), then the length-prefixed payload. Raises
        FieldOverflowError on a malformed frame."""
        kind = self.kind
        if not 0 < kind < 256:
            raise FieldOverflowError(f"frame kind out of range: {kind}")
        return ledger.envelope(kind, self.sender, self.tf) + BLOB.encode(self.payload, "payload")

    @once
    def body(self) -> tuple:
        """The payload's field values in PAYLOAD_FIELDS order, a carried
        transaction decoded. Raises CorruptChainFileError unless the
        payload is exactly those fields. A function of the payload alone,
        shared by every receiver; Endpoint.heeds reads it unchecked."""
        return tuple(ledger.decode_exact(self.payload, _PAYLOAD_PLANS[self.kind], "payload"))


def make_frame(
    kind: int, keypair: KeyPair, sender: IvTpId, tf: TimeFlag, payload: bytes
) -> Frame:
    """A frame keypair signs on the first read of its signature (_SignOnRead)."""
    f = object.__new__(Frame)
    vars(f).update(kind=kind, sender=sender, tf=tf, payload=payload, _signer=keypair)
    f.signing_bytes  # encoded here, so a malformed frame raises here
    return f


def verify_frame(f: Frame, sender_pk: bytes) -> bool:
    return identity.verify_once(f, "_sig_verdict", sender_pk, lambda: _signed_by(f, sender_pk))


def _signed_by(f: Frame, public_key: bytes) -> bool:
    try:
        return identity.verify(public_key, f.signing_bytes, f.signature)
    except FieldOverflowError:
        return False


def encode_payload(kind: int, *values) -> bytes:
    """kind's payload: values in PAYLOAD_FIELDS order, each by its codec.
    Raises FieldOverflowError, naming the field, if a value does not fit."""
    fields = PAYLOAD_FIELDS[kind]
    return b"".join([codec.encode(v, name) for (name, codec), v in zip(fields, values, strict=True)])


# ---------------------------------------------------------------------------
# The agent
# ---------------------------------------------------------------------------

class Endpoint:
    """A network participant that names itself in the trace by its
    alias: it writes a drop row for each frame it refuses, counted by
    reason, and note rows for what it does. It keeps the freshest beacon
    it heard from each sender, and runs every frame it heeds through one
    pipeline, handle_frame. Which kinds it acts on is its class's
    _DISPATCH table, built from its _on_<label> methods; Endpoint itself
    is only the base of Vehicle and sim.LedgerHost."""

    def __init_subclass__(cls, **kwargs):
        # Each known kind -> the class's _on_<label> function, or None.
        super().__init_subclass__(**kwargs)
        cls._DISPATCH = {k: getattr(cls, f"_on_{label}", None) for k, label in KIND_LABELS.items()}

    def __init__(
        self, ivtp_id: IvTpId, alias: str, chain: ledger.Chain, config: ConsensusConfig
    ):
        self.ivtp_id = ivtp_id
        self.alias = alias
        self.chain = chain
        self.config = config
        self.net = None  # netsim.Network, set when joining
        self.drops: Counter[str] = Counter()  # reason -> frames dropped
        self.beacons: dict[IvTpId, TimeFlag] = {}  # sender -> freshest beacon tf

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

    def active(self, now: TimeFlag) -> set[IvTpId]:
        """Registered vehicles whose freshest beacon heard here is at most
        beacon_window_ms old."""
        return consensus.active_vehicles(
            self.chain, now, self.config.beacon_window_ms, self.beacons
        )

    # netsim.Participant protocol

    def heeds(self, f: Frame) -> bool:
        """False for a registered sender's frame that this endpoint would
        not act on: a known kind it has no handler for (vehicles: endorse;
        the ledger host: the session kinds), or an endorse frame whose
        payload reads and names a transaction already on the chain. Such a
        frame skips handle_frame, so a forged one leaves no drop row. An
        unregistered sender's frame, an unknown kind and an unreadable
        endorsement are heeded, and dropped by handle_frame."""
        handled = self._DISPATCH.get(f.kind, True) is not None  # an unknown kind is heeded
        if (handled and f.kind != KIND_ENDORSE) or not self.chain.is_registered(f.sender):
            return True
        if not handled:
            return False
        try:
            tx_id = f.body[0]
        except CorruptChainFileError:
            return True
        return tx_id not in self.chain.tx_by_id

    def handle_frame(self, f: Frame, now: TimeFlag) -> list[Frame]:
        """Verification pipeline: key lookup, signature check, kind (an
        unknown one drops; one without a handler, which heeds keeps off
        the network path, is ignored), payload read, carried transaction,
        then the handler. A bad frame is dropped with a trace row; a fault
        in a handler raises."""
        pk = self.chain.public_key_of(f.sender)
        if pk is None:
            return self._drop(f, now, "unknown_sender")
        if not verify_frame(f, pk):
            return self._drop(f, now, "bad_signature")
        if f.kind not in self._DISPATCH:
            return self._drop(f, now, "unknown_kind")
        handler = self._DISPATCH[f.kind]
        if handler is None:
            return []
        try:
            body = f.body
        except CorruptChainFileError as exc:
            return self._drop(f, now, f"bad_payload:{exc}")
        carries = CARRIES.get(f.kind)
        if carries is not None and not (
            isinstance(body[-1], carries) and body[-1].author == f.sender
        ):
            return self._drop(f, now, "tx_sender_mismatch")
        return handler(self, f, now)

    def _on_beacon(self, f: Frame, now: TimeFlag) -> list[Frame]:
        if f.tf > self.beacons.get(f.sender, -1):
            self.beacons[f.sender] = f.tf
        return []


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
        super().__init__(ivtp_id, alias or short_id(ivtp_id), chain, config)
        self.keypair = keypair
        # tx_id -> tf of each transaction endorsed, oldest first (see _endorse_tx).
        self.endorsed: dict[bytes, TimeFlag] = {}
        self.paid_for: set[str] = set()  # intersection ids this vehicle paid a fee for
        self.sessions: dict[str, IntersectionSession] = {}
        self.submitted: list[Transaction] = []

    # -- plumbing -----------------------------------------------------------

    def _frame(self, kind: int, now: TimeFlag, *values) -> Frame:
        return make_frame(kind, self.keypair, self.ivtp_id, now, encode_payload(kind, *values))

    def _author(self, tx_cls: type[Transaction], now: TimeFlag, **fields) -> Transaction:
        """A tx_cls this vehicle authors at now, signed and kept in submitted."""
        tx = sign_tx(tx_cls(author=self.ivtp_id, tf=now, signature=b"", **fields), self.keypair)
        self.submitted.append(tx)
        return tx

    def _set_timer(self, fire_at: TimeFlag, tag) -> None:
        if self.net is not None:
            self.net.set_timer(self.ivtp_id, fire_at, tag)

    # -- sending ------------------------------------------------------------

    def emit_beacon(self, now: TimeFlag) -> Frame:
        """Liveness announcement, authenticated by the frame signature
        alone; also refreshes our own entry in the local freshness table
        so we count ourselves active."""
        self.beacons[self.ivtp_id] = now
        return self._frame(KIND_BEACON, now)

    def send_comm(self, payload: bytes, now: TimeFlag) -> tuple[Frame, CommTx]:
        """Broadcast a message and the matching on-chain record. The
        record's receivers are the peers active right now."""
        if not self.chain.is_registered(self.ivtp_id):
            raise ValueError(f"{self.alias} is not registered")
        receivers = tuple(sorted(self.active(now) - {self.ivtp_id}))
        tx = self._author(
            CommTx, now, sender=self.ivtp_id, receivers=receivers,
            message_hash=sha256(payload), tf_sent=now,
        )
        return self._frame(KIND_COMM, now, payload, tx), tx

    # -- sessions -----------------------------------------------------------

    def open_session(
        self,
        intersection_id: str,
        participants: frozenset[IvTpId],
        compute_delays: dict[IvTpId, int],
        collection_deadline: TimeFlag,
    ) -> IntersectionSession:
        """This vehicle's session of an intersection it takes part in."""
        if self.ivtp_id not in participants:
            raise ValueError(f"{self.alias} is not a participant of {intersection_id}")
        if intersection_id in self.sessions:
            raise ValueError(f"{self.alias} already holds a session of {intersection_id}")
        session = IntersectionSession(
            intersection_id=intersection_id,
            participants=participants,
            compute_delays=dict(compute_delays),
        )
        self.sessions[intersection_id] = session
        self._set_timer(collection_deadline, ("collect_deadline", intersection_id, 0))
        return session

    def announce_arrival(self, intersection_id: str, now: TimeFlag) -> list[Frame]:
        """Called at this vehicle's arrival time: broadcast the intent
        and record it locally."""
        session = self.sessions[intersection_id]
        out = [self._frame(KIND_INTENT, now, intersection_id, now)]
        if session.add_intent(self.ivtp_id, now) and session.phase is Phase.COLLECTING:
            self._enter_election(session, now)
        return out

    def _enter_election(self, session: IntersectionSession, now: TimeFlag) -> None:
        """All intents are in: everyone knows who will propose, and when
        to give up waiting for the outcome. The proposer proposes once it
        has computed the order, its compute delay from now."""
        session.phase = Phase.PROPOSING
        proposer = session.proposer = arbitration.elect(
            session.participants, session.compute_delays, session.round
        )
        iid = session.intersection_id
        if proposer == self.ivtp_id:
            self._set_timer(now + session.compute_delays[proposer], ("propose", iid, session.round))
        self._set_timer(now + self.config.agree_timeout_ms, ("agree_deadline", iid, session.round))

    def _propose(self, session: IntersectionSession, now: TimeFlag) -> list[Frame]:
        session.phase = Phase.AGREEING
        ordering = session.ordering = tuple(arbitration.compute_order(session.intents))
        out = [self._frame(KIND_SCHEDULE, now, session.intersection_id, session.round, ordering)]
        if session.unanimous():  # single-participant session
            out.extend(self._commit(session, now))
        return out

    def _commit(self, session: IntersectionSession, now: TimeFlag) -> list[Frame]:
        """Proposer side: unanimity reached, publish the outcome."""
        session.phase = Phase.COMMITTED
        arb = self._author(
            ArbitrationTx, now, intersection_id=session.intersection_id,
            ordering=session.ordering, proposer=self.ivtp_id,
            agreements=tuple(sorted(session.agreements.items())),
        )
        self._note(
            now,
            "session_committed",
            {
                "intersection": session.intersection_id,
                "ordering": [self._name_of(v) for v in session.ordering],
                "proposer": self.alias,
                "round": session.round,
            },
        )
        return [self._frame(KIND_REWARD_NOTICE, now, arb)]

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
            out.append(self._frame(KIND_INTENT, now, iid, own_tf))
        self._set_timer(
            now + self.config.agree_timeout_ms, ("collect_deadline", iid, session.round)
        )
        # A vehicle that already holds every intent re-elects right away;
        # the ones that were missing intents wait for the re-broadcasts.
        if session.is_complete():
            self._enter_election(session, now)
        return out

    def _name_of(self, veh: IvTpId) -> str:
        if self.net is not None:
            return self.net.names[veh]
        return short_id(veh)

    # -- receiving ----------------------------------------------------------

    # netsim.Participant protocol

    # Bound in the class itself: perfbench/spans.py wraps each class's own.
    handle_frame = Endpoint.handle_frame

    def handle_timer(self, tag, now: TimeFlag) -> list[Frame]:
        kind = tag[0]
        if kind == "beacon":
            self._set_timer(now + self.config.beacon_period_ms, ("beacon",))
            return [self.emit_beacon(now)]
        if kind == "comm":
            frame, _tx = self.send_comm(tag[1], now)
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
            cause = consensus.pod_check(self.active(now), tx, self.chain)
            verdict = consensus.VERDICT_VALID if cause is None else consensus.VERDICT_INVALID
        return [self._frame(KIND_ENDORSE, now, tx_id, verdict)]

    def _on_comm(self, f: Frame, now: TimeFlag) -> list[Frame]:
        message, tx = f.body
        verdict = None
        if sha256(message) != tx.message_hash:
            verdict = consensus.VERDICT_INVALID  # content does not match record
        return self._endorse_tx(tx, verdict, now)

    def _on_intent(self, f: Frame, now: TimeFlag) -> list[Frame]:
        iid, tf = f.body
        session = self.sessions.get(iid)
        if session is None or session.phase is not Phase.COLLECTING:
            return []
        if session.add_intent(f.sender, tf):
            self._enter_election(session, now)
        return []

    def _on_schedule(self, f: Frame, now: TimeFlag) -> list[Frame]:
        iid, round_, ordering = f.body
        session = self.sessions.get(iid)
        if session is None or session.phase in (Phase.COMMITTED, Phase.ABORTED):
            return []
        if round_ != session.round:
            return []  # leftover from an already-failed round
        if session.proposer is not None and f.sender != session.proposer:
            return []
        if session.matches(ordering):
            session.phase = Phase.AGREEING
            session.ordering = ordering
            sig = arbitration.agreement_signature(self.keypair, iid, ordering)
            return [self._frame(KIND_AGREE, now, iid, session.round, sig)]
        disagree = self._frame(KIND_DISAGREE, now, iid, session.round)
        return [disagree] + self._enter_recovery(session, now)

    def _on_agree(self, f: Frame, now: TimeFlag) -> list[Frame]:
        iid, round_, sig = f.body
        session = self.sessions.get(iid)
        if (
            session is None
            or session.proposer != self.ivtp_id
            or session.phase is not Phase.AGREEING
            or f.sender not in session.participants
            or round_ != session.round
        ):
            return []
        pk = self.chain.public_key_of(f.sender)
        msg = agree_message(session.intersection_id, session.ordering)
        if pk is None or not identity.verify(pk, msg, sig):
            return self._drop(f, now, "bad_agreement_sig")
        session.record_agreement(f.sender, sig)
        if session.unanimous():
            return self._commit(session, now)
        return []

    def _on_disagree(self, f: Frame, now: TimeFlag) -> list[Frame]:
        iid, round_ = f.body
        session = self.sessions.get(iid)
        if (
            session is None
            or f.sender not in session.participants
            or session.phase in (Phase.COMMITTED, Phase.ABORTED)
            or round_ < session.round
        ):
            return []
        return self._enter_recovery(session, now)

    def _on_reward_notice(self, f: Frame, now: TimeFlag) -> list[Frame]:
        (tx,) = f.body
        out = self._endorse_tx(tx, None, now)
        if not isinstance(tx, ArbitrationTx):
            return out
        session = self.sessions.get(tx.intersection_id)
        # Act only on an outcome for an intersection this vehicle takes
        # part in, ordering exactly its participants, that would apply:
        # check_tx wants the proposer as author and the agreement of every
        # member of the order but the proposer.
        if (
            session is None
            or set(tx.ordering) != session.participants
            or self.chain.state.check_tx(tx, self.chain.height + 1) is not None
        ):
            return out
        if session.phase not in (Phase.COMMITTED, Phase.ABORTED):
            session.phase = Phase.COMMITTED
            session.proposer = tx.proposer
        # The first in the order, hearing the outcome, pays the proposer: it
        # signs and announces its own transfer, once per intersection.
        payer, payee = arbitration.reward_parties(tx.ordering, tx.proposer)
        if payer != self.ivtp_id or payer == payee or tx.intersection_id in self.paid_for:
            return out
        self.paid_for.add(tx.intersection_id)
        reward = self._author(
            RewardTx, now, from_id=self.ivtp_id, to_id=payee,
            amount=arbitration.REWARD_MILLI_TRUST, reason=tx.intersection_id,
        )
        return out + [self._frame(KIND_REWARD_NOTICE, now, reward)]
