"""Vehicle agent: frame signing bytes, verification pipeline, protocol
handlers.

Every message on the air is a broadcast Frame: a kind tag, the sender's
trust-point id, a time flag and a kind-specific payload, signed by the
sender. Frames travel between participants as objects; their only byte
form is the signing bytes. Each payload is its kind's fields in wire
order (PAYLOAD_FIELDS), written and read by the ledger's codecs. A
receiver verifies the signature against the sender's on-chain key, then
reads the payload, before any handler sees the content; frames that fail
are dropped and counted, never raised. Only an endorsement of a
transaction already on the chain is ignored unchecked (Endpoint.heeds).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import arbitration, consensus, identity, ledger
from .arbitration import IntersectionSession, Phase, Schedule
from .consensus import ConsensusConfig
from .identity import IvTpId, KeyPair, sha256, short_id
from .ledger import (
    BLOB,
    ID,
    IDS,
    SIGNATURE,
    STAMPED_IDS,
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

# A carried transaction: its canonical encoding as a blob, decoded on read.
TX = Codec(
    lambda tx, name: BLOB.encode(canonical_encode(tx), name),
    lambda r: canonical_decode(BLOB.decode(r)),
)

# Each kind's payload fields, in wire order, with the codec of each.
PAYLOAD_FIELDS = {
    KIND_BEACON: (("network_id", TEXT), ("position_zone", TEXT)),
    KIND_COMM: (("message", BLOB), ("tx", TX)),
    KIND_INTENT: (("intersection", TEXT), ("tf", U64)),
    KIND_SCHEDULE: (
        ("intersection", TEXT), ("round", U64), ("ordering", IDS), ("basis", STAMPED_IDS),
    ),
    KIND_AGREE: (("intersection", TEXT), ("round", U64), ("sig", SIGNATURE)),
    KIND_DISAGREE: (("intersection", TEXT), ("round", U64), ("ordering", IDS)),
    KIND_ENDORSE: (("tx_id", ID), ("verdict", TEXT)),
    KIND_REWARD_NOTICE: (("tx", TX),),
}
_PAYLOAD_CODECS = {kind: [codec for _, codec in fields] for kind, fields in PAYLOAD_FIELDS.items()}

# What decoding a payload raises; a frame whose payload raises it is dropped.
DECODE_ERRORS = (CorruptChainFileError, UnicodeDecodeError)

# The transaction kinds a comm and a reward notice may carry, as their
# payload's last field. The frame's sender must be its author.
CARRIES = {KIND_COMM: CommTx, KIND_REWARD_NOTICE: (ArbitrationTx, RewardTx)}


class NotRegisteredError(ValueError):
    """Action requires the vehicle to be registered on the chain."""


class SessionExistsError(ValueError):
    """A vehicle runs at most one session per intersection at a time."""


class _once:
    """functools.cached_property without the RLock CPython 3.11 takes on
    each first read: the value goes into the instance's __dict__."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = vars(obj)[self.name] = self.fn(obj)
        return value


@dataclass(frozen=True)
class Frame:
    """One broadcast message, heard by every participant in range."""

    kind: int
    sender: IvTpId
    tf: TimeFlag
    payload: bytes
    signature: bytes = b""

    # Each _once attribute below, and the signature check (verify_frame), is
    # made once per frame object, however many receivers read it. The values
    # live in __dict__, so ==, hash and repr see only the fields. One that
    # raises stores nothing: every receiver re-raises, and drops alike.

    @_once
    def kind_label(self) -> str:
        label = KIND_LABELS.get(self.kind)
        return f"kind-{self.kind}" if label is None else label

    @_once
    def signing_bytes(self) -> bytes:
        """What the sender signs. Raises FieldOverflowError on a malformed
        frame."""
        return _signing_bytes(self.kind, self.sender, self.tf, self.payload)

    @_once
    def body(self) -> tuple:
        """The payload's field values in PAYLOAD_FIELDS order, a carried
        transaction decoded. Raises one of DECODE_ERRORS unless the
        payload is exactly those fields. A function of the payload alone,
        shared by every receiver; Endpoint.heeds reads it unchecked."""
        return ledger.decode_exact(self.payload, _PAYLOAD_CODECS[self.kind], "payload")


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


def encode_payload(kind: int, *values) -> bytes:
    """kind's payload: values in PAYLOAD_FIELDS order, each by its codec.
    Raises FieldOverflowError, naming the field, if a value does not fit."""
    fields = PAYLOAD_FIELDS[kind]
    return b"".join([codec.encode(v, name) for (name, codec), v in zip(fields, values, strict=True)])


# Every beacon carries the same payload, which no receiver reads.
_BEACON_PAYLOAD = encode_payload(KIND_BEACON, "net-0", "zone-0")


# ---------------------------------------------------------------------------
# The agent
# ---------------------------------------------------------------------------

class Endpoint:
    """A network participant that names itself in the trace by its
    alias: it writes a drop row for each frame it refuses, counted by
    reason, and note rows for what it does. It keeps the freshest beacon
    it heard from each sender, and runs every frame it heeds through one
    pipeline: key lookup, signature check, then _receive."""

    # Kind -> name of its handler method; a subclass without one ignores the kind.
    _HANDLERS = {kind: f"_on_{label}" for kind, label in KIND_LABELS.items()}

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
        """False only for a registered sender's endorse frame whose payload
        reads and names a transaction already on the chain: nothing acts on
        it, so it skips handle_frame, and a forged one leaves no drop row."""
        if f.kind != KIND_ENDORSE or not self.chain.is_registered(f.sender):
            return True
        try:
            tx_id = f.body[0]
        except DECODE_ERRORS:
            return True
        return tx_id not in self.chain.tx_by_id

    def handle_frame(self, f: Frame, now: TimeFlag) -> list[Frame]:
        """Verification pipeline: on-chain key lookup, signature check,
        then _receive. A bad frame is dropped with a trace row."""
        pk = self.chain.public_key_of(f.sender)
        if pk is None:
            return self._drop(f, now, "unknown_sender")
        if not verify_frame(f, pk):
            return self._drop(f, now, "bad_signature")
        return self._receive(f, now)

    def _receive(self, f: Frame, now: TimeFlag) -> list[Frame]:
        """The pipeline past the key lookup and signature check: drop an
        unknown kind, ignore one this endpoint has no handler for, read
        the payload (a beacon's is never read) and check its carried
        transaction, then run the handler. Only the read can drop a frame
        as bad_payload: a fault in a handler raises."""
        name = self._HANDLERS.get(f.kind)
        if name is None:
            return self._drop(f, now, "unknown_kind")
        handler = getattr(self, name, None)
        if handler is None:
            return []
        if f.kind != KIND_BEACON:
            try:
                body = f.body
            except DECODE_ERRORS as exc:
                return self._drop(f, now, f"bad_payload:{exc}")
            carries = CARRIES.get(f.kind)
            if carries is not None and not (
                isinstance(body[-1], carries) and body[-1].author == f.sender
            ):
                return self._drop(f, now, "tx_sender_mismatch")
        return handler(f, now)

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

    def _set_timer(self, fire_at: TimeFlag, tag) -> None:
        if self.net is not None:
            self.net.set_timer(self.ivtp_id, fire_at, tag)

    # -- sending ------------------------------------------------------------

    def emit_beacon(self, now: TimeFlag) -> Frame:
        """Liveness announcement, authenticated by the frame signature
        alone; also refreshes our own entry in the local freshness table
        so we count ourselves active."""
        self.beacons[self.ivtp_id] = now
        return make_frame(KIND_BEACON, self.keypair, self.ivtp_id, now, _BEACON_PAYLOAD)

    def send_comm(self, payload: bytes, now: TimeFlag) -> tuple[Frame, CommTx]:
        """Broadcast a message and the matching on-chain record. The
        record's receivers are the peers active right now."""
        if not self.chain.is_registered(self.ivtp_id):
            raise NotRegisteredError(self.alias)
        receivers = tuple(sorted(self.active(now) - {self.ivtp_id}))
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
        return self._frame(KIND_COMM, now, payload, tx), tx

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
        )
        self.sessions[intersection_id] = session
        if self.ivtp_id in participants:
            self._set_timer(collection_deadline, ("collect_deadline", intersection_id, 0))
        return session

    def announce_arrival(self, intersection_id: str, now: TimeFlag) -> list[Frame]:
        """Called at this vehicle's arrival time: broadcast the intent
        and record it locally."""
        session = self.sessions[intersection_id]
        out = [self._frame(KIND_INTENT, now, intersection_id, now)]
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
        schedule = session.make_schedule()
        session.schedule = schedule
        out = [
            self._frame(
                KIND_SCHEDULE, now, session.intersection_id, session.round,
                schedule.ordering, schedule.basis,
            )
        ]
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
        out = [self._frame(KIND_REWARD_NOTICE, now, arb)]
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
        return [self._frame(KIND_REWARD_NOTICE, now, reward)]

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
            out.extend(self._enter_election(session, now))
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
        if session is None or f.sender not in session.participants:
            return []
        if session.phase is not Phase.COLLECTING:
            return []
        if session.add_intent(f.sender, tf):
            return self._enter_election(session, now)
        return []

    def _on_schedule(self, f: Frame, now: TimeFlag) -> list[Frame]:
        iid, round_, ordering, basis = f.body
        session = self.sessions.get(iid)
        if session is None or self.ivtp_id not in session.participants:
            return []
        if session.phase in (Phase.COMMITTED, Phase.ABORTED) or f.sender == self.ivtp_id:
            return []
        if round_ != session.round:
            return []  # leftover from an already-failed round
        if session.proposer is not None and f.sender != session.proposer:
            return []
        schedule = Schedule(ordering=ordering, basis=basis)
        if session.matches(schedule):
            session.phase = Phase.AGREEING
            session.proposer = f.sender
            session.schedule = schedule
            sig = arbitration.agreement_signature(self.keypair, iid, schedule.ordering)
            return [self._frame(KIND_AGREE, now, iid, session.round, sig)]
        mine = arbitration.compute_order(session.intents) if session.intents else ()
        disagree = self._frame(KIND_DISAGREE, now, iid, session.round, mine)
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
        msg = agree_message(session.intersection_id, session.schedule.ordering)
        if pk is None or not identity.verify(pk, msg, sig):
            return self._drop(f, now, "bad_agreement_sig")
        session.record_agreement(f.sender, sig)
        if session.unanimous():
            return self._commit(session, now)
        return []

    def _on_disagree(self, f: Frame, now: TimeFlag) -> list[Frame]:
        iid, round_, _ordering = f.body
        session = self.sessions.get(iid)
        if (
            session is None
            or self.ivtp_id not in session.participants
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
        # part in that would apply: check_tx wants the proposer as author
        # and every member's agreement, this vehicle's included.
        if (
            session is None
            or self.ivtp_id not in session.participants
            or self.chain.state.check_tx(tx, self.chain.height + 1) is not None
        ):
            return out
        if session.phase not in (Phase.COMMITTED, Phase.ABORTED):
            session.phase = Phase.COMMITTED
            session.proposer = tx.proposer
        return out + self._maybe_pay_reward(tx, now)
