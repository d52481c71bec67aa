"""The trust-point blockchain: transactions, Merkle roots, SHA-256
chained blocks, replayable ledger state, and queries over the blocks.

Transactions are canonically encoded to bytes (injective, self
delimiting), identified by the SHA-256 of that encoding, and grouped
into blocks whose Merkle root commits to the transaction list. Each byte
layout decodes through one Plan, compiled at import, which one loop
walks: a run of fixed-width fields is one struct call, each other field
a read that checks its bounds. A decoded transaction carries the bytes
it was read from until its signature is checked over them, and a decoded
block its header's hash, so replaying a loaded chain encodes nothing. A
chain file is read one block at a time, and each block is replayed
before the next is read. The blocks are the record. The ledger state
holds only what the validity rules read (registrations, balances,
applied tx ids); it is a pure function of the chain and is rebuilt by
replay during validation. An edit that leaves every hash as it was (a
flipped byte, a cut) is detected; one that recomputes the hashes can
pass, as blocks are unsigned: a file alone shows only that each
transaction was signed by its author and passes the replay rules. A
commit and a replay admit each transaction through one step,
LedgerState.admit, which changes the state only for a transaction that
passes. Who talked to whom and a vehicle's history are read off the
blocks when asked for.

Units: trust points are integers in milli-trust (1 IV-TP = 1000).
Registration grants each vehicle a configurable endowment; rewards are
transfers, so total supply only changes at registration.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import itertools
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from . import identity
from .identity import IvTpId, once, sha256

TimeFlag = int  # simulation milliseconds

HASH_LEN = 32
GENESIS_PREV_HASH = b"\x00" * 32
CHAIN_MAGIC = b"IVTP"
CHAIN_VERSION = 0x01

DEFAULT_ENDOWMENT = 100_000  # milli-trust granted at registration


class FieldOverflowError(ValueError):
    """A length or integer does not fit its fixed-width encoding."""


class CorruptChainFileError(ValueError):
    """Chain file or block list does not decode or does not replay."""


# ---------------------------------------------------------------------------
# Canonical encoding: field codecs and the layouts they make up
# ---------------------------------------------------------------------------

def _u32(n: int, name: str = "u32") -> bytes:
    if not 0 <= n < 2**32:
        raise FieldOverflowError(f"{name} out of u32 range: {n}")
    return struct.pack(">I", n)


def _u64(n: int, name: str = "u64") -> bytes:
    if not 0 <= n < 2**64:
        raise FieldOverflowError(f"{name} out of u64 range: {n}")
    return struct.pack(">Q", n)


def _blob(b: bytes, name: str = "blob") -> bytes:
    return _u32(len(b), name) + b


_COUNT = struct.Struct(">I")  # the u32 count before a list or blob


def _read_blob(data, pos: int, size: int = 1) -> tuple:
    """The u32-counted run of size-byte items at pos, a slice of data, and its end."""
    try:
        (n,) = _COUNT.unpack_from(data, pos)
    except struct.error:
        raise CorruptChainFileError("truncated encoding") from None
    end = pos + 4 + n * size
    if end > len(data):
        raise CorruptChainFileError("truncated encoding")
    return data[pos + 4 : end], end


def _read_text(data, pos: int) -> tuple:
    blob, end = _read_blob(data, pos)
    try:
        return str(blob, "utf-8"), end
    except UnicodeDecodeError:
        raise CorruptChainFileError("text is not UTF-8") from None


class Codec(NamedTuple):
    """One field's wire form. encode(value, name) raises FieldOverflowError,
    naming the field, if value does not fit. A fixed-width codec has a
    struct code, fmt; any other a read(data, pos) -> (value, end) that checks
    its bounds. intern(value, ids) swaps each vehicle id for ids' object."""

    encode: Callable[[object, str], bytes] | None
    read: Callable[[object, int], tuple] | None = None
    fmt: str = ""
    intern: Callable[[object, dict], object] | None = None


def _fixed_width(n: int) -> Codec:
    def encode(b: bytes, name: str) -> bytes:
        if len(b) != n:
            raise FieldOverflowError(f"{name} must be {n} bytes, got {len(b)}")
        return b

    return Codec(encode, fmt=f"{n}s")


def _list_of(*item: Codec) -> Codec:
    """u32 count, then each item: a value of the one fixed-width codec, or
    a tuple of one value per codec. All items are read through one struct."""
    each = "".join([c.fmt for c in item])
    size, one, first = struct.calcsize(">" + each), len(item) == 1, item[0].encode

    def encode(seq, name: str) -> bytes:
        if one:
            return _u32(len(seq), name) + b"".join([first(v, name) for v in seq])
        parts = [c.encode(v, name) for row in seq for c, v in zip(item, row)]
        return _u32(len(seq), name) + b"".join(parts)

    def read(data, pos: int) -> tuple:
        run, end = _read_blob(data, pos, size)
        flat = struct.unpack(">" + each * (len(run) // size), run)
        return (flat if one else tuple(zip(*[iter(flat)] * len(item)))), end

    return Codec(encode, read)


U32 = Codec(_u32, fmt="I")
ID = _fixed_width(HASH_LEN)
PUBLIC_KEY = _fixed_width(identity.PUBLIC_KEY_LEN)
SIGNATURE = _fixed_width(identity.SIGNATURE_LEN)
U64 = Codec(_u64, fmt="Q")
BLOB = Codec(_blob, _read_blob)
TEXT = Codec(lambda s, name: _blob(s.encode(), name), _read_text)
# Vehicle ids: the same few recur all through a chain file.
VEHICLE_ID = ID._replace(intern=lambda v, ids: ids.setdefault(v, v))
IDS = _list_of(ID)._replace(intern=lambda vs, ids: tuple([ids.setdefault(v, v) for v in vs]))
AGREEMENTS = _list_of(ID, SIGNATURE)._replace(  # (voter id, signature) pairs
    intern=lambda rows, ids: tuple([(ids.setdefault(v, v), sig) for v, sig in rows])
)


class Plan:
    """A byte layout compiled for reading: each run of adjacent
    fixed-width codecs is one struct, each other codec its own read."""

    def __init__(self, codecs):
        self.steps = []  # (unpack_from, size, None) of a run, or (None, 0, read)
        for fixed, run in itertools.groupby(codecs, key=lambda c: bool(c.fmt)):
            if fixed:
                run = struct.Struct(">" + "".join([c.fmt for c in run]))
                self.steps.append((run.unpack_from, run.size, None))
            else:
                self.steps += [(None, 0, c.read) for c in run]
        self.interns = [(i, c.intern) for i, c in enumerate(codecs) if c.intern]

    def read(self, data, ids: dict | None = None) -> tuple[list, int]:
        """The values data holds from its start, in codec order, vehicle
        ids interned in ids if given, and where the last one ends."""
        values, pos = [], 0
        for unpack, size, read in self.steps:
            if read is None:
                try:
                    values += unpack(data, pos)
                except struct.error:
                    raise CorruptChainFileError("truncated encoding") from None
                pos += size
            else:
                value, pos = read(data, pos)
                values.append(value)
        if ids is not None:
            for i, intern in self.interns:
                values[i] = intern(values[i], ids)
        return values, pos


def _wire(codec: Codec, default=dataclasses.MISSING):
    """A dataclass field on the wire: fields declared with _wire are
    encoded in declaration order, each by its codec."""
    return field(default=default, metadata={"codec": codec})


class _Layout(Plan):
    """The _wire fields of a dataclass in declaration order, written by
    encode, and read as one plan between head's codecs and tail's."""

    def __init__(self, cls, head=(), tail=()):
        wired = [f for f in dataclasses.fields(cls) if "codec" in f.metadata]
        self.encoders = [(f.name, f.metadata["codec"].encode) for f in wired]
        super().__init__([*head, *[f.metadata["codec"] for f in wired], *tail])

    def encode(self, obj) -> bytes:
        return b"".join([encode(getattr(obj, name), name) for name, encode in self.encoders])


def decode_exact(data, plan: Plan, what: str, ids: dict | None = None) -> list:
    """The values plan reads from data, which must end where the last does."""
    values, end = plan.read(data, ids)
    if end != len(data):
        raise CorruptChainFileError(f"trailing bytes after {what}")
    return values


def envelope(tag: int, author: IvTpId, tf: TimeFlag) -> bytes:
    """The head of every signed record, transaction or frame: tag (u8),
    author id (32 bytes), time flag (u64)."""
    return bytes([tag]) + ID.encode(author, "author") + _u64(tf, "tf")


# ---------------------------------------------------------------------------
# Transactions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Transaction:
    """Common envelope: author identity, time flag, author signature.

    Encoded as the envelope (TAG, author, tf), the variant's _wire fields
    in declaration order, then the signature, which covers the rest. For
    registrations the signer is the dealer, for everything else the
    author itself. Tag 2 is unassigned: liveness beacons are frames.
    A decoded tx keeps its bytes (_span) until its signature verdict is
    in: tx_id hashes them and the signature is checked over them.
    """

    author: IvTpId
    tf: TimeFlag
    signature: bytes

    TAG = 0  # overridden per variant

    def __post_init__(self):
        # The signature's verdict slot (identity.verify_once), made here: a
        # second key added after __init__ (tx_id is one) un-shares the dict.
        object.__setattr__(self, "_sig_verdict", None)

    @once
    def tx_id(self) -> bytes:
        """SHA-256 of the canonical encoding (the span, if any), hashed once
        per object (identity.once), out of ==, hash and repr."""
        return sha256(vars(self).get("_span") or canonical_encode(self))


@dataclass(frozen=True)
class RegisterTx(Transaction):
    """Binds a trust-point ID to a vehicle public key, signed by the
    issuing dealer. Carries dealer_id and counter so the ID derivation
    can be re-checked during replay."""

    ivtp_id: IvTpId = _wire(VEHICLE_ID, b"")
    vehicle_pk: bytes = _wire(PUBLIC_KEY, b"")
    dealer_id: bytes = _wire(VEHICLE_ID, b"")
    counter: int = _wire(U64, 0)
    dealer_sig: bytes = _wire(SIGNATURE, b"")  # over ivtp_id || vehicle_pk

    TAG = 1


@dataclass(frozen=True)
class CommTx(Transaction):
    """A broadcast message record: sender, intended receivers, and the
    hash of the payload (content stays off-chain)."""

    sender: IvTpId = _wire(VEHICLE_ID, b"")
    receivers: tuple[IvTpId, ...] = _wire(IDS, ())
    message_hash: bytes = _wire(ID, b"")
    tf_sent: TimeFlag = _wire(U64, 0)

    TAG = 3


@dataclass(frozen=True)
class RewardTx(Transaction):
    """Transfer of trust points. Author must equal the paying side."""

    from_id: IvTpId = _wire(VEHICLE_ID, b"")
    to_id: IvTpId = _wire(VEHICLE_ID, b"")
    amount: int = _wire(U64, 0)  # milli-trust, > 0
    reason: str = _wire(TEXT, "")

    TAG = 4


@dataclass(frozen=True)
class ArbitrationTx(Transaction):
    """A committed intersection crossing order plus every participant's
    signed agreement (proposer excluded, it authored the tx)."""

    intersection_id: str = _wire(TEXT, "")
    ordering: tuple[IvTpId, ...] = _wire(IDS, ())
    proposer: IvTpId = _wire(VEHICLE_ID, b"")
    agreements: tuple[tuple[IvTpId, bytes], ...] = _wire(AGREEMENTS, ())

    TAG = 5

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "_agreements_verdict", None)  # keyed by the voters' keys


_TX_HEAD = (Codec(None, fmt="B"), VEHICLE_ID, U64)  # tag, author, tf, as envelope writes them
_TX_LAYOUTS = {cls: _Layout(cls, _TX_HEAD, (SIGNATURE,)) for cls in Transaction.__subclasses__()}
_TX_BY_TAG = {cls.TAG: cls for cls in _TX_LAYOUTS}


def tx_signing_bytes(tx: Transaction) -> bytes:
    """Canonical encoding minus the trailing signature field."""
    layout = _TX_LAYOUTS.get(type(tx))
    if layout is None:
        raise TypeError(f"unknown transaction type {type(tx).__name__}")
    return envelope(tx.TAG, tx.author, tx.tf) + layout.encode(tx)


def canonical_encode(tx: Transaction) -> bytes:
    """Full injective encoding, signature included. tx_id hashes this."""
    return tx_signing_bytes(tx) + SIGNATURE.encode(tx.signature, "signature")


def canonical_decode(data, ids: dict | None = None) -> Transaction:
    """Inverse of canonical_encode; rejects trailing garbage. data, bytes
    or a memoryview into a chain file's block, becomes the tx's span.
    With ids, each vehicle id read is ids' one object for it."""
    cls = _TX_BY_TAG.get(data[0]) if data else None
    if cls is None:
        (tag, _, _), _ = Plan(_TX_HEAD).read(data)  # a cut envelope is truncated, whatever its tag
        raise CorruptChainFileError(f"unknown transaction tag {tag}")
    _, author, tf, *fields, signature = decode_exact(data, _TX_LAYOUTS[cls], "transaction", ids)
    tx = cls(author, tf, signature, *fields)
    object.__setattr__(tx, "_span", data)
    return tx


def _signature_holds(tx: Transaction, public_key: bytes) -> bool:
    def check() -> bool:
        if "_span" not in vars(tx):
            return identity.verify(public_key, tx_signing_bytes(tx), tx.signature)
        tx.tx_id  # hashed from the span, which goes now that the verdict is due
        signed = bytes(vars(tx).pop("_span")[: -identity.SIGNATURE_LEN])
        return identity.verify(public_key, signed, tx.signature)

    return identity.verify_once(tx, "_sig_verdict", public_key, check)


def agree_message(intersection_id: str, ordering) -> bytes:
    """Preimage each participant signs to endorse a crossing order."""
    body = TEXT.encode(intersection_id, "intersection_id") + IDS.encode(ordering, "ordering")
    return b"ivtp/agree" + body


def agreement_signature(keypair: identity.KeyPair, intersection_id: str, ordering) -> bytes:
    """A participant's agreement to a crossing order: its signature of agree_message."""
    return identity.sign(keypair, agree_message(intersection_id, ordering))


def sign_tx(tx: Transaction, keypair: identity.KeyPair) -> Transaction:
    """tx with its envelope signature made by keypair (the signature
    field of tx itself is not signed, so any placeholder will do), its
    tx_id hashed from the bytes signed. No span is kept: receivers check
    their own decoded copies."""
    signed = tx_signing_bytes(tx)
    tx = dataclasses.replace(tx, signature=identity.sign(keypair, signed))
    object.__setattr__(tx, "tx_id", sha256(signed + tx.signature))
    return tx


def register_tx_from_issuance(
    issuance: identity.Issuance, dealer: identity.DealerAuthority, tf: TimeFlag
) -> RegisterTx:
    """Build the dealer-signed registration for a fresh issuance."""
    tx = RegisterTx(
        author=issuance.ivtp_id, tf=tf, signature=b"", ivtp_id=issuance.ivtp_id,
        vehicle_pk=issuance.vehicle_pk, dealer_id=issuance.dealer_id,
        counter=issuance.counter, dealer_sig=issuance.binding_sig,
    )
    return sign_tx(tx, dealer.keypair)


# ---------------------------------------------------------------------------
# Merkle root
# ---------------------------------------------------------------------------

def merkle_root(tx_ids: list[bytes]) -> bytes:
    """Binary Merkle tree over 32-byte leaves; an odd node at any level
    is paired with itself. A single leaf therefore hashes with itself."""
    if not tx_ids:
        raise ValueError("merkle root needs at least one leaf")
    level = list(tx_ids)
    while True:
        if len(level) % 2 == 1:
            level.append(level[-1])
        level = [sha256(level[i] + level[i + 1]) for i in range(0, len(level), 2)]
        if len(level) == 1:
            return level[0]


# ---------------------------------------------------------------------------
# Blocks and chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Block:
    height: int = _wire(U64)
    prev_hash: bytes = _wire(ID)
    merkle_root: bytes = _wire(ID)
    timestamp: TimeFlag = _wire(U64)
    txs: tuple[Transaction, ...]

    def header_bytes(self) -> bytes:
        return _BLOCK_HEADER.encode(self)

    @once
    def block_hash(self) -> bytes:
        """SHA-256 of the header, once per block (decode_block's read)."""
        return sha256(self.header_bytes())


_BLOCK_HEADER = _Layout(Block, tail=(U32,))  # and the tx count: all one struct


def encode_block(block: Block) -> bytes:
    txs = [_blob(canonical_encode(tx)) for tx in block.txs]
    return b"".join([block.header_bytes(), _u32(len(txs)), *txs])


def decode_block(data, ids: dict | None = None) -> Block:
    """Inverse of encode_block; rejects trailing garbage. Presets block_hash."""
    (*header, count), pos = _BLOCK_HEADER.read(data)
    header_hash = sha256(data[: pos - _COUNT.size])
    txs = []
    for _ in range(count):
        blob, pos = _read_blob(data, pos)
        txs.append(canonical_decode(blob, ids))
    if pos != len(data):
        raise CorruptChainFileError("trailing bytes after block")
    block = Block(*header, tuple(txs))
    object.__setattr__(block, "block_hash", header_hash)
    return block


@dataclass
class ValidationReport:
    ok: bool
    height: int | None = None
    tx_id: bytes | None = None
    cause: str | None = None
    # The replayed state and blocks of a valid chain, for Chain.from_blocks.
    state: LedgerState | None = field(default=None, repr=False, compare=False)
    blocks: list[Block] | None = field(default=None, repr=False, compare=False)

    def describe(self) -> str:
        if self.ok:
            return "chain valid"
        if self.height is None:
            return f"chain INVALID: {self.cause}"
        where = f"block {self.height}"
        if self.tx_id is not None:
            where += f", tx {self.tx_id.hex()[:12]}"
        return f"chain INVALID at {where}: {self.cause}"


@dataclass
class LedgerState:
    """What check_tx reads, replayed from the chain. balances keeps
    registration order.

    admit is the one way the state changes: every transaction, whether
    committed to a new block or replayed from a file, goes through it,
    and check_tx is the one rule set it applies."""

    endowment: int
    balances: dict[IvTpId, int] = field(default_factory=dict)
    registrations: dict[IvTpId, bytes] = field(default_factory=dict)
    registered_pks: set[bytes] = field(default_factory=set)
    tx_by_id: dict[bytes, Transaction] = field(default_factory=dict)
    dealer_id: IvTpId | None = None  # its key is registrations[dealer_id]

    def check_tx(self, tx: Transaction, height: int) -> str | None:
        """Return a failure code, or None if tx can apply to this state.
        Signature checks live here too so replay is self-contained; the
        verdicts of the tx's own and agreement signatures stay on the tx."""
        if isinstance(tx, RegisterTx):
            if not identity.valid_public_key(tx.vehicle_pk):
                return "invalid_public_key"
            if height > 0:
                if tx.dealer_id != self.dealer_id:
                    return "unknown_dealer"
                if tx.ivtp_id != identity.ivtp_id_from(tx.dealer_id, tx.vehicle_pk, tx.counter):
                    return "bad_id_derivation"
                signer_pk = self.registrations[self.dealer_id]
            else:
                # Genesis self-registration is the trust root.
                signer_pk = tx.vehicle_pk
            if tx.author != tx.ivtp_id:
                return "author_not_registrant"
            if tx.ivtp_id in self.registrations:
                return "duplicate_id"
            if tx.vehicle_pk in self.registered_pks:
                return "duplicate_public_key"
            if not identity.verify(
                signer_pk, identity.binding_message(tx.ivtp_id, tx.vehicle_pk), tx.dealer_sig
            ):
                return "bad_binding_signature"
            if not _signature_holds(tx, signer_pk):
                return "bad_signature"
            return None

        pk = self.registrations.get(tx.author)
        if pk is None:
            return "not_registered"
        if not _signature_holds(tx, pk):
            return "bad_signature"

        if isinstance(tx, CommTx):
            if tx.sender != tx.author:
                return "sender_mismatch"
            for rcv in tx.receivers:
                if rcv not in self.registrations:
                    return "receiver_not_registered"
        elif isinstance(tx, RewardTx):
            if tx.author != tx.from_id:
                return "author_not_payer"
            if tx.amount <= 0:
                return "non_positive_amount"
            if tx.to_id not in self.registrations:
                return "recipient_not_registered"
            if self.balances.get(tx.from_id, 0) < tx.amount:
                return "insufficient_balance"
        elif isinstance(tx, ArbitrationTx):
            if len(set(tx.ordering)) != len(tx.ordering):
                return "duplicate_in_ordering"
            if tx.author != tx.proposer:
                return "author_not_proposer"
            if tx.proposer not in tx.ordering:
                return "proposer_not_in_ordering"
            for member in tx.ordering:
                if member not in self.registrations:
                    return "member_not_registered"
            voters = [v for v, _ in tx.agreements]
            if set(voters) != set(tx.ordering) - {tx.proposer} or len(voters) != len(set(voters)):
                return "agreements_incomplete"
            keys = tuple([self.registrations[v] for v in voters])
            statement = agree_message(tx.intersection_id, tx.ordering)
            if not identity.verify_once(tx, "_agreements_verdict", keys, lambda: all(
                identity.verify(pk, statement, sig) for pk, (_, sig) in zip(keys, tx.agreements)
            )):
                return "bad_agreement_signature"
        return None

    def admit(self, tx: Transaction, height: int, timestamp: TimeFlag) -> str | None:
        """The one admission step, for commit and replay alike: the cause
        tx is refused for in a block at height with timestamp (a time flag
        past it, a tx_id already applied, or check_tx's), or None once tx
        is applied. A refused tx changes nothing."""
        if tx.tf > timestamp:
            return "tx_after_block"
        if tx.tx_id in self.tx_by_id:
            return "duplicate_tx"
        cause = self.check_tx(tx, height)
        if cause is not None:
            return cause
        self.tx_by_id[tx.tx_id] = tx
        if isinstance(tx, RegisterTx):
            self.registrations[tx.ivtp_id] = tx.vehicle_pk
            self.registered_pks.add(tx.vehicle_pk)
            if height == 0:  # genesis registers the dealer
                self.dealer_id = tx.ivtp_id
            self.balances[tx.ivtp_id] = self.endowment if height else 0  # the dealer holds none
        elif isinstance(tx, RewardTx):
            self.balances[tx.from_id] -= tx.amount
            self.balances[tx.to_id] = self.balances.get(tx.to_id, 0) + tx.amount
        return None


def _header_fault(block: Block, prev: Block | None) -> str | None:
    if prev is None:
        if block.height != 0 or block.prev_hash != GENESIS_PREV_HASH:
            return "bad genesis header"
        if len(block.txs) != 1:
            # Each extra self-registration would take over dealer_id.
            return "genesis must hold exactly one transaction"
    else:
        if block.height != prev.height + 1:
            return "non-contiguous height"
        if block.prev_hash != prev.block_hash:
            return "prev_hash mismatch"
        if block.timestamp < prev.timestamp:
            return "timestamp not monotone"
    if not block.txs:
        return "empty block"
    if block.merkle_root != merkle_root([tx.tx_id for tx in block.txs]):
        return "merkle root mismatch"
    return None


class Chain:
    """Append-only block list plus its replayed state. Single owner;
    readers take snapshots via validate/replay, never mutate."""

    def __init__(self, blocks: list[Block], state: LedgerState):
        """Wrap blocks and the state replayed from them. Build a chain
        with create or from_blocks, which do the replay."""
        self.blocks = blocks
        self.state = state

    @classmethod
    def create(
        cls,
        dealer: identity.DealerAuthority,
        endowment: int = DEFAULT_ENDOWMENT,
        genesis_tf: TimeFlag = 0,
    ) -> "Chain":
        """New chain whose genesis block self-registers the dealer."""
        dealer_id, pk = dealer.dealer_id, dealer.keypair.public_key
        binding = identity.sign(dealer.keypair, identity.binding_message(dealer_id, pk))
        issuance = identity.Issuance(dealer_id, pk, dealer_id, 0, binding)
        tx = register_tx_from_issuance(issuance, dealer, genesis_tf)
        genesis = Block(
            height=0, prev_hash=GENESIS_PREV_HASH, merkle_root=merkle_root([tx.tx_id]),
            timestamp=genesis_tf, txs=(tx,),
        )
        return cls.from_blocks([genesis], endowment)

    @classmethod
    def from_blocks(cls, blocks: Iterable[Block], endowment: int) -> "Chain":
        """Replay blocks once, through validate_blocks; raises
        CorruptChainFileError naming the first failure."""
        report = validate_blocks(blocks, endowment)
        if not report.ok:
            raise CorruptChainFileError(report.describe())
        return cls(report.blocks, report.state)

    @property
    def height(self) -> int:
        return self.blocks[-1].height

    @property
    def tip(self) -> Block:
        return self.blocks[-1]

    @property
    def tx_by_id(self) -> dict[bytes, Transaction]:
        return self.state.tx_by_id

    def append_block(
        self, txs: list[Transaction], timestamp: TimeFlag
    ) -> tuple[Block | None, list[tuple[Transaction, str]]]:
        """Admit txs in order against the current state and append one
        block of those that applied. Returns that block, or None if none
        did, and each refused tx with its cause."""
        if timestamp < self.tip.timestamp:
            raise ValueError(f"timestamp {timestamp} precedes tip {self.tip.timestamp}")
        height, admitted, refused = self.height + 1, [], []
        for tx in txs:
            cause = self.state.admit(tx, height, timestamp)
            if cause is None:
                admitted.append(tx)
            else:
                refused.append((tx, cause))
        if not admitted:
            return None, refused
        root = merkle_root([tx.tx_id for tx in admitted])
        block = Block(height, self.tip.block_hash, root, timestamp, tuple(admitted))
        self.blocks.append(block)
        return block, refused

    def is_registered(self, ivtp_id: IvTpId) -> bool:
        return ivtp_id in self.state.registrations

    def public_key_of(self, ivtp_id: IvTpId) -> bytes | None:
        return self.state.registrations.get(ivtp_id)


def validate_chain(chain: Chain) -> ValidationReport:
    """Recompute every hash, Merkle root, link and signature, replaying
    all transactions from genesis. Reports the first failure."""
    return validate_blocks(chain.blocks, chain.state.endowment)


def validate_blocks(blocks: Iterable[Block], endowment: int) -> ValidationReport:
    """Replay blocks from genesis, each as it comes: check its header
    against the one before, then admit its transactions in order, up to
    the first failure. A valid chain's report carries the replayed state
    and the blocks; a failed replay's state is dropped unfinished."""
    state = LedgerState(endowment=endowment)
    replayed: list[Block] = []
    for block in blocks:
        cause = _header_fault(block, replayed[-1] if replayed else None)
        if cause is not None:
            return ValidationReport(False, block.height, None, cause)
        for tx in block.txs:
            cause = state.admit(tx, block.height, block.timestamp)
            if cause is not None:
                return ValidationReport(False, block.height, tx.tx_id, cause)
        replayed.append(block)
    if not replayed:
        return ValidationReport(ok=False, height=None, cause="empty chain")
    return ValidationReport(ok=True, state=state, blocks=replayed)


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

def comm_table(chain: Chain) -> dict[IvTpId, list[IvTpId]]:
    """Who communicated with whom, vehicles and their peers ordered by
    first contact: read off the committed CommTxs in commit order."""
    table: dict[IvTpId, dict[IvTpId, None]] = {}
    for block in chain.blocks:
        for tx in block.txs:
            if isinstance(tx, CommTx):
                for rcv in tx.receivers:
                    table.setdefault(tx.sender, {})[rcv] = None
                    table.setdefault(rcv, {})[tx.sender] = None
    return {veh: list(peers) for veh, peers in table.items()}


def balance(chain: Chain, ivtp_id: IvTpId) -> int:
    if ivtp_id not in chain.state.registrations:
        raise KeyError(f"{ivtp_id.hex()} is not registered on this chain")
    return chain.state.balances.get(ivtp_id, 0)


def _named(tx: Transaction) -> tuple[IvTpId, ...]:
    """The ids tx's fields name; a registration names only its registrant."""
    if isinstance(tx, RegisterTx):
        return (tx.ivtp_id,)
    if isinstance(tx, CommTx):
        return (tx.author, tx.sender, *tx.receivers)
    if isinstance(tx, RewardTx):
        return (tx.author, tx.from_id, tx.to_id)
    return (tx.author, tx.proposer, *tx.ordering, *[v for v, _ in tx.agreements])


def history(chain: Chain, ivtp_id: IvTpId) -> list[Transaction]:
    """Every committed tx the identity took part in, in commit order."""
    if ivtp_id not in chain.state.registrations:
        raise KeyError(f"{ivtp_id.hex()} is not registered on this chain")
    return [tx for block in chain.blocks for tx in block.txs if ivtp_id in _named(tx)]


def total_supply(chain: Chain) -> int:
    return sum(chain.state.balances.values())


# ---------------------------------------------------------------------------
# Chain file
# ---------------------------------------------------------------------------

def chain_to_bytes(chain: Chain) -> bytes:
    blocks = [_blob(encode_block(block)) for block in chain.blocks]
    body = b"".join([CHAIN_MAGIC, bytes([CHAIN_VERSION]), _u64(chain.state.endowment), *blocks])
    # Trailing whole-file digest: catches flips in the header fields
    # (magic aside, those are not covered by any block hash).
    return body + sha256(body)


_FILE_HEADER = struct.Struct(">4sBQ")  # magic, version, endowment
_HASH_READ = 1 << 16  # bytes per read of the digest pass


class ChainFile:
    """One read of a chain file (parse_chain_bytes opens it). Opening it
    hashes the body in bounded reads and compares the trailing digest,
    so checksum_ok is known before any block is parsed; then the body is
    read again, front to back: the header, then each block's length and
    blob (a file that cannot seek is read whole first). blocks() parses a
    block only when the next is asked for, so a replay of them checks
    each block, and lets go of its tx spans, before the next is read."""

    def __init__(self, f):
        if not f.seekable():  # a pipe, say: its size is known only once it is read
            f = io.BytesIO(f.read())
        self._f = f
        self._left = f.seek(0, io.SEEK_END) - HASH_LEN  # bytes before the digest
        f.seek(0)
        if self._left < _FILE_HEADER.size:
            raise CorruptChainFileError("truncated file")
        sha = hashlib.sha256()
        for at in range(0, self._left, _HASH_READ):
            sha.update(f.read(min(_HASH_READ, self._left - at)))
        self.checksum_ok = sha.digest() == f.read(HASH_LEN)
        f.seek(0)
        self.endowment = 0

    def _read(self, n: int) -> bytes:
        if n > self._left:
            raise CorruptChainFileError("truncated encoding")
        data = self._f.read(n)
        if len(data) != n:
            raise CorruptChainFileError("truncated file")
        self._left -= n
        return data

    def blocks(self) -> Iterator[Block]:
        """Each block in file order. Within the read each distinct vehicle
        id is one bytes object, and a block_hash is its successor's
        prev_hash object."""
        ids: dict[bytes, bytes] = {}
        prev = None
        while self._left:
            block = decode_block(memoryview(self._read(int.from_bytes(self._read(4), "big"))), ids)
            if prev is not None and block.prev_hash == prev.block_hash:
                object.__setattr__(prev, "block_hash", block.prev_hash)
            yield block
            prev = block

    def chain(self) -> Chain:
        """The chain, replayed as it is read. Raises CorruptChainFileError on
        a checksum mismatch before any replay, else on the first fault met."""
        if not self.checksum_ok:
            raise CorruptChainFileError("file checksum mismatch")
        return Chain.from_blocks(self.blocks(), self.endowment)


def parse_chain_bytes(f) -> ChainFile:
    """Open a read of the chain file f, opened binary, past its
    checked header. Replay validation is validate_blocks' job."""
    file = ChainFile(f)
    magic, version, file.endowment = _FILE_HEADER.unpack(file._read(_FILE_HEADER.size))
    if magic != CHAIN_MAGIC:
        raise CorruptChainFileError("bad magic")
    if version != CHAIN_VERSION:
        raise CorruptChainFileError("unsupported version")
    return file


def save_chain(chain: Chain, path) -> None:
    Path(path).write_bytes(chain_to_bytes(chain))
