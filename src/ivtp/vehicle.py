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

from . import arbitration, consensus, identity, ledger
from .arbitration import IntersectionSession
from .consensus import ConsensusConfig
from .identity import IvTpId, KeyPair, frozen, once, sha256, short_id
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
    agreement_signature,
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

# The frame kinds of arbitration.step's broadcast actions.
_SESSION_KINDS = {"intent": KIND_INTENT, "schedule": KIND_SCHEDULE, "disagree": KIND_DISAGREE}


class _SignOnRead:
    """A make_frame frame's signature: made by identity.sign on first read,
    then kept in __dict__ like a field's value. b"" on the class: the default."""

    def __get__(self, obj, owner=None):
        if obj is None:
            return b""
        sig = vars(obj)["signature"] = identity.sign(vars(obj).pop("_signer"), obj.signing_bytes)
        return sig


@frozen
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
        """Vehicles whose freshest beacon heard here is at most
        beacon_window_ms old: senders handle_frame admitted, and this
        endpoint if it beacons."""
        return consensus.active_vehicles(now, self.config.beacon_window_ms, self.beacons)

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
        if (handled and f.kind != KIND_ENDORSE) or f.sender not in self.chain.state.registrations:
            return True
        if not handled:
            return False
        try:
            tx_id = f.body[0]
        except CorruptChainFileError:
            return True
        return tx_id not in self.chain.tx_by_id

    def handle_frame(self, f: Frame, now: TimeFlag) -> list[Frame]:
        """Verification pipeline: key lookup (the gate: the one place a
        sender is checked against the chain's registrations), signature
        check, kind (an unknown one drops; one without a handler, which
        heeds keeps off the network path, is ignored), payload read,
        carried transaction, then the handler. A bad frame is dropped with
        a trace row; a fault in a handler raises."""
        pk = self.chain.state.registrations.get(f.sender)
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
        if self.ivtp_id not in self.chain.state.registrations:
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
        session = self.sessions[intersection_id] = IntersectionSession(
            intersection_id=intersection_id,
            participants=participants,
            compute_delays=dict(compute_delays),
            owner=self.ivtp_id,
        )
        self._step(session, ("open", collection_deadline), 0)  # opening reads no clock
        return session

    def _step(
        self, session: IntersectionSession, event: tuple, now: TimeFlag, f: Frame | None = None
    ) -> list[Frame]:
        """Feed event to session (arbitration.step) and carry out its
        actions in order: each becomes a frame to broadcast, an _author
        call, a timer, a note row or a drop row of f."""
        iid, out = session.intersection_id, []
        for act in arbitration.step(session, event, now, self.config):
            head = act[0]
            if head == "timer":
                self._set_timer(act[1], act[2])
            elif head == "note":
                self._note(now, act[1], {k: self._named(v) for k, v in act[2].items()})
            elif head == "drop":
                self._drop(f, now, act[1])
            elif head == "agree":
                sig = agreement_signature(self.keypair, iid, act[2])
                out.append(self._frame(KIND_AGREE, now, iid, act[1], sig))
            elif head == "author":  # an outcome or a fee, announced
                tx = self._author(act[1], now, **act[2])
                out.append(self._frame(KIND_REWARD_NOTICE, now, tx))
            else:  # intent, schedule or disagree: that frame
                out.append(self._frame(_SESSION_KINDS[head], now, iid, *act[1:]))
        return out

    def _named(self, value):
        """A note's value with each vehicle id in it named as in the trace."""
        if isinstance(value, (list, tuple)):
            return [self._named(v) for v in value]
        if not isinstance(value, bytes):
            return value
        return short_id(value) if self.net is None else self.net.names[value]

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
        # An arrival, or a session timer: (kind, intersection id, round).
        session = self.sessions.get(tag[1])
        return [] if session is None else self._step(session, (kind, *tag[2:]), now)

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

    def _on_session(self, f: Frame, now: TimeFlag) -> list[Frame]:
        """An intent, schedule, agree or disagree frame: an event of the
        session it names, if this vehicle holds one. An agreement's
        signature is checked only if step asks."""
        iid, *values = f.body
        session = self.sessions.get(iid)
        if session is None:
            return []
        event = (f.kind_label, f.sender, *values)
        if f.kind == KIND_AGREE:
            pk, sig = self.chain.state.registrations[f.sender], values[1]
            event += (lambda: identity.verify(pk, agree_message(iid, session.ordering), sig),)
        return self._step(session, event, now, f)

    _on_intent = _on_schedule = _on_agree = _on_disagree = _on_session

    def _on_reward_notice(self, f: Frame, now: TimeFlag) -> list[Frame]:
        (tx,) = f.body
        out = self._endorse_tx(tx, None, now)
        session = self.sessions.get(tx.intersection_id) if isinstance(tx, ArbitrationTx) else None
        if session is None:
            return out

        def applies() -> bool:
            return self.chain.state.check_tx(tx, self.chain.height + 1) is None

        return out + self._step(session, ("outcome", tx.ordering, tx.proposer, applies), now)
