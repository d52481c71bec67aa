"""The trust-point blockchain: transactions, Merkle roots, SHA-256
chained blocks, replayable ledger state, and the communication index.

Transactions are canonically encoded to bytes (injective, self
delimiting), identified by the SHA-256 of that encoding, and grouped
into blocks whose Merkle root commits to the transaction list. The
full ledger state (balances, registrations, who-talked-to-whom) is a
pure function of the chain and is rebuilt by replay during validation,
so any single-byte tamper anywhere is detected.

Units: trust points are integers in milli-trust (1 IV-TP = 1000).
Registration grants each vehicle a configurable endowment; rewards are
transfers, so total supply only changes at registration.
"""

from __future__ import annotations

import dataclasses
import struct
from dataclasses import dataclass, field
from functools import cached_property, partial

from . import identity
from .identity import IvTpId, sha256

TimeFlag = int  # simulation milliseconds

HASH_LEN = 32
GENESIS_PREV_HASH = b"\x00" * 32
CHAIN_MAGIC = b"IVTP"
CHAIN_VERSION = 0x01

DEFAULT_ENDOWMENT = 100_000  # milli-trust granted at registration

# Transaction variant tags (canonical encoding byte 0). Tag 2 is
# unassigned: liveness beacons are frames, never transactions.
TAG_REGISTER = 1
TAG_COMM = 3
TAG_REWARD = 4
TAG_ARBITRATION = 5

_U32_MAX = 2**32 - 1
_U64_MAX = 2**64 - 1


class FieldOverflowError(ValueError):
    """A length or integer does not fit its fixed-width encoding."""


class EmptyLeafListError(ValueError):
    """Merkle root of zero leaves is undefined."""


class InvalidTxError(ValueError):
    def __init__(self, tx_id: bytes, cause: str):
        super().__init__(f"invalid tx {tx_id.hex()[:12]}: {cause}")
        self.tx_id = tx_id
        self.cause = cause


class NonMonotonicTimestampError(ValueError):
    """Block timestamp went backwards."""


class InsufficientBalanceError(InvalidTxError):
    """Reward sender does not hold the transferred amount."""


class UnknownVehicleError(KeyError):
    """Queried identity is not registered on this chain."""


class CorruptChainFileError(ValueError):
    """Chain file or block list does not decode or does not replay."""


# ---------------------------------------------------------------------------
# Transactions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Transaction:
    """Common envelope: author identity, time flag, author signature.

    The signature covers the canonical encoding minus the trailing
    signature bytes. For registrations the signer is the dealer, for
    everything else the author itself.
    """

    author: IvTpId
    tf: TimeFlag
    signature: bytes

    TAG = 0  # overridden per variant

    @cached_property
    def tx_id(self) -> bytes:
        """SHA-256 of the canonical encoding, computed once per object;
        the cache lives in __dict__, so == and hash see only the fields."""
        return sha256(canonical_encode(self))


@dataclass(frozen=True)
class RegisterTx(Transaction):
    """Binds a trust-point ID to a vehicle public key, signed by the
    issuing dealer. Carries dealer_id and counter so the ID derivation
    can be re-checked during replay."""

    ivtp_id: IvTpId = b""
    vehicle_pk: bytes = b""
    dealer_id: bytes = b""
    counter: int = 0
    dealer_sig: bytes = b""  # over ivtp_id || vehicle_pk

    TAG = TAG_REGISTER


@dataclass(frozen=True)
class CommTx(Transaction):
    """A broadcast message record: sender, intended receivers, and the
    hash of the payload (content stays off-chain)."""

    sender: IvTpId = b""
    receivers: tuple[IvTpId, ...] = ()
    message_hash: bytes = b""
    tf_sent: TimeFlag = 0

    TAG = TAG_COMM


@dataclass(frozen=True)
class RewardTx(Transaction):
    """Transfer of trust points. Author must equal the paying side."""

    from_id: IvTpId = b""
    to_id: IvTpId = b""
    amount: int = 0  # milli-trust, > 0
    reason: str = ""

    TAG = TAG_REWARD


@dataclass(frozen=True)
class ArbitrationTx(Transaction):
    """A committed intersection crossing order plus every participant's
    signed agreement (proposer excluded, it authored the tx)."""

    intersection_id: str = ""
    ordering: tuple[IvTpId, ...] = ()
    proposer: IvTpId = b""
    agreements: tuple[tuple[IvTpId, bytes], ...] = ()

    TAG = TAG_ARBITRATION


# ---------------------------------------------------------------------------
# Canonical encoding
# ---------------------------------------------------------------------------

def _u32(n: int) -> bytes:
    if not 0 <= n <= _U32_MAX:
        raise FieldOverflowError(f"u32 out of range: {n}")
    return struct.pack(">I", n)


def _u64(n: int) -> bytes:
    if not 0 <= n <= _U64_MAX:
        raise FieldOverflowError(f"u64 out of range: {n}")
    return struct.pack(">Q", n)


def _blob(b: bytes) -> bytes:
    if len(b) > _U32_MAX:
        raise FieldOverflowError("byte field exceeds u32 length prefix")
    return _u32(len(b)) + b


def _fixed(b: bytes, n: int, name: str) -> bytes:
    if len(b) != n:
        raise FieldOverflowError(f"{name} must be {n} bytes, got {len(b)}")
    return b


def _id_list(ids) -> bytes:
    out = [_u32(len(ids))]
    for i in ids:
        out.append(_fixed(i, HASH_LEN, "ivtp id"))
    return b"".join(out)


def tx_signing_bytes(tx: Transaction) -> bytes:
    """Canonical encoding minus the trailing signature field."""
    parts = [bytes([tx.TAG]), _fixed(tx.author, HASH_LEN, "author"), _u64(tx.tf)]
    if isinstance(tx, RegisterTx):
        parts += [
            _fixed(tx.ivtp_id, HASH_LEN, "ivtp_id"),
            _fixed(tx.vehicle_pk, identity.PUBLIC_KEY_LEN, "vehicle_pk"),
            _fixed(tx.dealer_id, HASH_LEN, "dealer_id"),
            _u64(tx.counter),
            _fixed(tx.dealer_sig, identity.SIGNATURE_LEN, "dealer_sig"),
        ]
    elif isinstance(tx, CommTx):
        parts += [
            _fixed(tx.sender, HASH_LEN, "sender"),
            _id_list(tx.receivers),
            _fixed(tx.message_hash, HASH_LEN, "message_hash"),
            _u64(tx.tf_sent),
        ]
    elif isinstance(tx, RewardTx):
        parts += [
            _fixed(tx.from_id, HASH_LEN, "from_id"),
            _fixed(tx.to_id, HASH_LEN, "to_id"),
            _u64(tx.amount),
            _blob(tx.reason.encode()),
        ]
    elif isinstance(tx, ArbitrationTx):
        parts.append(_blob(tx.intersection_id.encode()))
        parts.append(_id_list(tx.ordering))
        parts.append(_fixed(tx.proposer, HASH_LEN, "proposer"))
        parts.append(_u32(len(tx.agreements)))
        for voter, sig in tx.agreements:
            parts.append(_fixed(voter, HASH_LEN, "agreement voter"))
            parts.append(_fixed(sig, identity.SIGNATURE_LEN, "agreement sig"))
    else:
        raise TypeError(f"unknown transaction type {type(tx).__name__}")
    return b"".join(parts)


def canonical_encode(tx: Transaction) -> bytes:
    """Full injective encoding, signature included. tx_id hashes this."""
    return tx_signing_bytes(tx) + _fixed(tx.signature, identity.SIGNATURE_LEN, "signature")


class _Reader:
    """Reads data[:end] (all of data by default) front to back."""

    def __init__(self, data: bytes, end: int | None = None):
        self.data = data
        self.end = len(data) if end is None else end
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > self.end:
            raise CorruptChainFileError("truncated encoding")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def blob(self) -> bytes:
        return self.take(self.u32())

    def done(self) -> bool:
        return self.pos == self.end


def canonical_decode(data: bytes) -> Transaction:
    """Inverse of canonical_encode. Rejects trailing garbage."""
    r = _Reader(data)
    tx = _decode_tx(r)
    if not r.done():
        raise CorruptChainFileError("trailing bytes after transaction")
    return tx


def _decode_tx(r: _Reader) -> Transaction:
    tag = r.take(1)[0]
    author = r.take(HASH_LEN)
    tf = r.u64()
    if tag == TAG_REGISTER:
        ivtp_id = r.take(HASH_LEN)
        vehicle_pk = r.take(identity.PUBLIC_KEY_LEN)
        dealer_id = r.take(HASH_LEN)
        counter = r.u64()
        dealer_sig = r.take(identity.SIGNATURE_LEN)
        sig = r.take(identity.SIGNATURE_LEN)
        return RegisterTx(author, tf, sig, ivtp_id, vehicle_pk, dealer_id, counter, dealer_sig)
    if tag == TAG_COMM:
        sender = r.take(HASH_LEN)
        receivers = tuple(r.take(HASH_LEN) for _ in range(r.u32()))
        message_hash = r.take(HASH_LEN)
        tf_sent = r.u64()
        sig = r.take(identity.SIGNATURE_LEN)
        return CommTx(author, tf, sig, sender, receivers, message_hash, tf_sent)
    if tag == TAG_REWARD:
        from_id = r.take(HASH_LEN)
        to_id = r.take(HASH_LEN)
        amount = r.u64()
        reason = r.blob().decode()
        sig = r.take(identity.SIGNATURE_LEN)
        return RewardTx(author, tf, sig, from_id, to_id, amount, reason)
    if tag == TAG_ARBITRATION:
        intersection_id = r.blob().decode()
        ordering = tuple(r.take(HASH_LEN) for _ in range(r.u32()))
        proposer = r.take(HASH_LEN)
        agreements = tuple(
            (r.take(HASH_LEN), r.take(identity.SIGNATURE_LEN)) for _ in range(r.u32())
        )
        sig = r.take(identity.SIGNATURE_LEN)
        return ArbitrationTx(author, tf, sig, intersection_id, ordering, proposer, agreements)
    raise CorruptChainFileError(f"unknown transaction tag {tag}")


def agree_message(intersection_id: str, ordering) -> bytes:
    """Preimage each participant signs to endorse a crossing order."""
    return b"ivtp/agree" + _blob(intersection_id.encode()) + _id_list(ordering)


def sign_tx(tx: Transaction, keypair: identity.KeyPair) -> Transaction:
    """tx with its envelope signature made by keypair (the signature
    field of tx itself is not signed, so any placeholder will do)."""
    return dataclasses.replace(tx, signature=identity.sign(keypair, tx_signing_bytes(tx)))


def register_tx_from_issuance(
    issuance: identity.Issuance, dealer: identity.DealerAuthority, tf: TimeFlag
) -> RegisterTx:
    """Build the dealer-signed registration for a fresh issuance."""
    tx = RegisterTx(
        author=issuance.ivtp_id,
        tf=tf,
        signature=b"",
        ivtp_id=issuance.ivtp_id,
        vehicle_pk=issuance.vehicle_pk,
        dealer_id=issuance.dealer_id,
        counter=issuance.counter,
        dealer_sig=issuance.binding_sig,
    )
    return sign_tx(tx, dealer.keypair)


# ---------------------------------------------------------------------------
# Merkle root
# ---------------------------------------------------------------------------

def merkle_root(tx_ids: list[bytes]) -> bytes:
    """Binary Merkle tree over 32-byte leaves; an odd node at any level
    is paired with itself. A single leaf therefore hashes with itself."""
    if not tx_ids:
        raise EmptyLeafListError("merkle root needs at least one leaf")
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
    height: int
    prev_hash: bytes
    merkle_root: bytes
    timestamp: TimeFlag
    txs: tuple[Transaction, ...]

    def header_bytes(self) -> bytes:
        return (
            _u64(self.height)
            + _fixed(self.prev_hash, HASH_LEN, "prev_hash")
            + _fixed(self.merkle_root, HASH_LEN, "merkle_root")
            + _u64(self.timestamp)
        )

    @property
    def block_hash(self) -> bytes:
        return sha256(self.header_bytes())


def encode_block(block: Block) -> bytes:
    parts = [block.header_bytes(), _u32(len(block.txs))]
    for tx in block.txs:
        parts.append(_blob(canonical_encode(tx)))
    return b"".join(parts)


def decode_block(r: _Reader) -> Block:
    height = r.u64()
    prev_hash = r.take(HASH_LEN)
    root = r.take(HASH_LEN)
    timestamp = r.u64()
    txs = tuple(canonical_decode(r.blob()) for _ in range(r.u32()))
    return Block(height, prev_hash, root, timestamp, txs)


@dataclass
class ValidationReport:
    ok: bool
    height: int | None = None
    tx_id: bytes | None = None
    cause: str | None = None
    # The replayed state of a valid chain, for Chain.from_blocks.
    state: LedgerState | None = field(default=None, repr=False, compare=False)

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
    """Replayed view of the chain. balances and comm_index preserve
    insertion order, which is first-contact / registration order.

    apply_block is the one way the state changes: every chain, whether
    built block by block or read back from a file, is replayed through
    it, and check_tx is the one rule set it applies."""

    endowment: int
    balances: dict[IvTpId, int] = field(default_factory=dict)
    registrations: dict[IvTpId, bytes] = field(default_factory=dict)
    registered_pks: set[bytes] = field(default_factory=set)
    comm_index: dict[IvTpId, dict[IvTpId, None]] = field(default_factory=dict)
    history: dict[IvTpId, list[bytes]] = field(default_factory=dict)
    tx_by_id: dict[bytes, Transaction] = field(default_factory=dict)
    dealer_id: IvTpId | None = None
    dealer_pk: bytes | None = None
    # Inverse of each change apply_tx made in the current apply_block.
    _undo: list = field(default_factory=list, repr=False, compare=False)

    def _put(self, d: dict, key, value) -> None:
        self._undo.append(
            partial(d.__setitem__, key, d[key]) if key in d else partial(d.__delitem__, key)
        )
        d[key] = value

    def _append(self, d: dict, key, item) -> None:
        if key not in d:
            self._put(d, key, [])
        d[key].append(item)
        self._undo.append(d[key].pop)

    def _touch_history(self, ids, tx_id: bytes) -> None:
        seen = set()
        for i in ids:
            if i in seen or i not in self.registrations:
                continue
            seen.add(i)
            self._append(self.history, i, tx_id)

    def _link(self, a: IvTpId, b: IvTpId) -> None:
        if a not in self.comm_index:
            self._put(self.comm_index, a, {})
        self._put(self.comm_index[a], b, None)

    def check_tx(self, tx: Transaction, height: int) -> str | None:
        """Return a failure code, or None if tx can apply to this state.
        Signature checks live here too so replay is self-contained."""
        if isinstance(tx, RegisterTx):
            if height > 0:
                if self.dealer_id is None:
                    return "no_dealer"
                if tx.dealer_id != self.dealer_id:
                    return "unknown_dealer"
                if tx.ivtp_id != identity.ivtp_id_from(tx.dealer_id, tx.vehicle_pk, tx.counter):
                    return "bad_id_derivation"
                signer_pk = self.dealer_pk
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
            if not identity.verify(signer_pk, tx_signing_bytes(tx), tx.signature):
                return "bad_signature"
            return None

        pk = self.registrations.get(tx.author)
        if pk is None:
            return "not_registered"
        if not identity.verify(pk, tx_signing_bytes(tx), tx.signature):
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
            if set(voters) != set(tx.ordering) - {tx.proposer} or len(voters) != len(
                set(voters)
            ):
                return "agreements_incomplete"
            statement = agree_message(tx.intersection_id, tx.ordering)
            for voter, sig in tx.agreements:
                if not identity.verify(self.registrations[voter], statement, sig):
                    return "bad_agreement_signature"
        return None

    def apply_tx(self, tx: Transaction, height: int) -> None:
        tx_id = tx.tx_id
        self._put(self.tx_by_id, tx_id, tx)
        if isinstance(tx, RegisterTx):
            self._put(self.registrations, tx.ivtp_id, tx.vehicle_pk)
            self.registered_pks.add(tx.vehicle_pk)
            self._undo.append(partial(self.registered_pks.discard, tx.vehicle_pk))
            if height == 0:
                # Not undoable, and need not be: genesis holds one tx.
                self.dealer_id = tx.ivtp_id
                self.dealer_pk = tx.vehicle_pk
                self._put(self.balances, tx.ivtp_id, 0)  # authority holds no endowment
            else:
                self._put(self.balances, tx.ivtp_id, self.endowment)
            self._append(self.history, tx.ivtp_id, tx_id)
            return
        if isinstance(tx, CommTx):
            for rcv in tx.receivers:
                self._link(tx.sender, rcv)
                self._link(rcv, tx.sender)
            self._touch_history([tx.author, tx.sender, *tx.receivers], tx_id)
            return
        if isinstance(tx, RewardTx):
            self._put(self.balances, tx.from_id, self.balances[tx.from_id] - tx.amount)
            self._put(self.balances, tx.to_id, self.balances.get(tx.to_id, 0) + tx.amount)
            self._touch_history([tx.author, tx.from_id, tx.to_id], tx_id)
            return
        if isinstance(tx, ArbitrationTx):
            voters = [v for v, _ in tx.agreements]
            self._touch_history([tx.author, tx.proposer, *tx.ordering, *voters], tx_id)
            return
        raise TypeError(f"unknown transaction type {type(tx).__name__}")

    def apply_block(self, block: Block, prev: Block | None) -> ValidationReport | None:
        """The replay step. Check block's header against prev (None for
        genesis), then check_tx and apply_tx each transaction in order,
        refusing a tx_id already applied in this block or before it.

        All or nothing: on failure the state is left exactly as it was
        and the returned report names the cause."""
        h = block.height
        cause = _header_fault(block, prev)
        if cause is not None:
            return ValidationReport(False, h, None, cause)
        self._undo.clear()
        for tx in block.txs:
            cause = "duplicate_tx" if tx.tx_id in self.tx_by_id else self.check_tx(tx, h)
            if cause is not None:
                while self._undo:
                    self._undo.pop()()
                return ValidationReport(False, h, tx.tx_id, cause)
            self.apply_tx(tx, h)
        self._undo.clear()
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
        pk = dealer.keypair.public_key
        issuance = identity.Issuance(
            ivtp_id=dealer.dealer_id,
            vehicle_pk=pk,
            dealer_id=dealer.dealer_id,
            counter=0,
            binding_sig=identity.sign(
                dealer.keypair, identity.binding_message(dealer.dealer_id, pk)
            ),
        )
        tx = register_tx_from_issuance(issuance, dealer, genesis_tf)
        genesis = Block(
            height=0,
            prev_hash=GENESIS_PREV_HASH,
            merkle_root=merkle_root([tx.tx_id]),
            timestamp=genesis_tf,
            txs=(tx,),
        )
        return cls.from_blocks([genesis], endowment)

    @classmethod
    def from_blocks(cls, blocks: list[Block], endowment: int) -> "Chain":
        """Replay blocks once, through validate_blocks; raises
        CorruptChainFileError naming the first failure."""
        report = validate_blocks(blocks, endowment)
        if not report.ok:
            raise CorruptChainFileError(report.describe())
        return cls(list(blocks), report.state)

    @property
    def height(self) -> int:
        return self.blocks[-1].height

    @property
    def tip(self) -> Block:
        return self.blocks[-1]

    @property
    def tx_by_id(self) -> dict[bytes, Transaction]:
        return self.state.tx_by_id

    def append_block(self, txs: list[Transaction], timestamp: TimeFlag) -> Block:
        """Validate txs against current state and append one new block.
        All or nothing: if any tx fails, the chain is left unchanged."""
        if not txs:
            raise ValueError("a block needs at least one transaction")
        if timestamp < self.tip.timestamp:
            raise NonMonotonicTimestampError(
                f"timestamp {timestamp} precedes tip {self.tip.timestamp}"
            )
        block = Block(
            height=self.height + 1,
            prev_hash=self.tip.block_hash,
            merkle_root=merkle_root([tx.tx_id for tx in txs]),
            timestamp=timestamp,
            txs=tuple(txs),
        )
        failure = self.state.apply_block(block, self.tip)
        if failure is not None:
            if failure.cause == "insufficient_balance":
                raise InsufficientBalanceError(failure.tx_id, failure.cause)
            raise InvalidTxError(failure.tx_id, failure.cause)
        self.blocks.append(block)
        return block

    def is_registered(self, ivtp_id: IvTpId) -> bool:
        return ivtp_id in self.state.registrations

    def public_key_of(self, ivtp_id: IvTpId) -> bytes | None:
        return self.state.registrations.get(ivtp_id)


def validate_chain(chain: Chain) -> ValidationReport:
    """Recompute every hash, Merkle root, link and signature, replaying
    all transactions from genesis. Reports the first failure."""
    return validate_blocks(chain.blocks, chain.state.endowment)


def validate_blocks(blocks: list[Block], endowment: int) -> ValidationReport:
    """Replay blocks from genesis through LedgerState.apply_block. A
    valid chain's report carries the replayed state."""
    if not blocks:
        return ValidationReport(ok=False, height=None, cause="empty chain")
    state = LedgerState(endowment=endowment)
    prev: Block | None = None
    for block in blocks:
        failure = state.apply_block(block, prev)
        if failure is not None:
            return failure
        prev = block
    return ValidationReport(ok=True, state=state)


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

def comm_table(chain: Chain) -> dict[IvTpId, list[IvTpId]]:
    """Who communicated with whom, peers ordered by first contact."""
    return {veh: list(peers) for veh, peers in chain.state.comm_index.items()}


def balance(chain: Chain, ivtp_id: IvTpId) -> int:
    if ivtp_id not in chain.state.registrations:
        raise UnknownVehicleError(ivtp_id.hex())
    return chain.state.balances.get(ivtp_id, 0)


def history(chain: Chain, ivtp_id: IvTpId) -> list[Transaction]:
    """Every committed tx the identity took part in, in commit order."""
    if ivtp_id not in chain.state.registrations:
        raise UnknownVehicleError(ivtp_id.hex())
    return [chain.tx_by_id[txid] for txid in chain.state.history.get(ivtp_id, [])]


def total_supply(chain: Chain) -> int:
    return sum(chain.state.balances.values())


# ---------------------------------------------------------------------------
# Chain file
# ---------------------------------------------------------------------------

def chain_to_bytes(chain: Chain) -> bytes:
    parts = [CHAIN_MAGIC, bytes([CHAIN_VERSION]), _u64(chain.state.endowment)]
    for block in chain.blocks:
        parts.append(_blob(encode_block(block)))
    body = b"".join(parts)
    # Trailing whole-file digest: catches flips in the header fields
    # (magic aside, those are not covered by any block hash).
    return body + sha256(body)


def chain_from_bytes(data: bytes) -> Chain:
    blocks, endowment, checksum_ok = parse_chain_bytes(data)
    if not checksum_ok:
        raise CorruptChainFileError("checksum mismatch")
    return Chain.from_blocks(blocks, endowment)


def parse_chain_bytes(data: bytes) -> tuple[list[Block], int, bool]:
    """Structural parse only: blocks, endowment, and whether the trailing
    digest matches. Replay validation is validate_blocks' job."""
    if len(data) < HASH_LEN + 13:
        raise CorruptChainFileError("truncated file")
    end = len(data) - HASH_LEN
    checksum_ok = sha256(memoryview(data)[:end]) == data[end:]
    r = _Reader(data, end)
    if r.take(4) != CHAIN_MAGIC:
        raise CorruptChainFileError("bad magic")
    if r.take(1)[0] != CHAIN_VERSION:
        raise CorruptChainFileError("unsupported version")
    endowment = r.u64()
    blocks = []
    while not r.done():
        blocks.append(decode_block(_Reader(r.blob())))
    return blocks, endowment, checksum_ok


def save_chain(chain: Chain, path) -> None:
    with open(path, "wb") as f:
        f.write(chain_to_bytes(chain))


def load_chain(path) -> Chain:
    with open(path, "rb") as f:
        return chain_from_bytes(f.read())


def load_blocks(path) -> tuple[list[Block], int, bool]:
    """Parse a chain file without validating; for the inspector, which
    must report tampering rather than refuse to read."""
    with open(path, "rb") as f:
        data = f.read()
    return parse_chain_bytes(data)
