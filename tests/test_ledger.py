"""Transactions, blocks, chain validation, balances, persistence."""

import ast
import dataclasses
import hashlib
import importlib.util
import io
import pathlib
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivtp import identity, ledger
from conftest import make_fleet, read_chain, signed_comm, tag2_tx_bytes


def _kp(tag: bytes) -> identity.KeyPair:
    return identity.keygen(identity.sha256(tag))


def _signed(tx, kp):
    import dataclasses

    return dataclasses.replace(
        tx, signature=identity.sign(kp, ledger.tx_signing_bytes(tx))
    )


def _assert_left_out(chain, refused):
    """No refused tx is on the chain, and the live state matches a replay."""
    assert not any(tx.tx_id in chain.tx_by_id for tx in refused)
    assert not any(tx in block.txs for block in chain.blocks for tx in refused)
    assert ledger.validate_chain(chain).state == chain.state


_ids = st.binary(min_size=32, max_size=32)
_sigs = st.binary(min_size=64, max_size=64)
_tf = st.integers(min_value=0, max_value=2**40)


def _tx_strategy():
    register = st.builds(
        ledger.RegisterTx,
        author=_ids,
        tf=_tf,
        signature=_sigs,
        ivtp_id=_ids,
        vehicle_pk=st.binary(min_size=32, max_size=32),
        dealer_id=_ids,
        counter=st.integers(min_value=0, max_value=2**64 - 1),
        dealer_sig=_sigs,
    )
    comm = st.builds(
        ledger.CommTx,
        author=_ids,
        tf=_tf,
        signature=_sigs,
        sender=_ids,
        receivers=st.lists(_ids, max_size=5).map(tuple),
        message_hash=_ids,
        tf_sent=_tf,
    )
    reward = st.builds(
        ledger.RewardTx,
        author=_ids,
        tf=_tf,
        signature=_sigs,
        from_id=_ids,
        to_id=_ids,
        amount=st.integers(min_value=1, max_value=2**32),
        reason=st.text(max_size=16),
    )
    arb = st.builds(
        ledger.ArbitrationTx,
        author=_ids,
        tf=_tf,
        signature=_sigs,
        intersection_id=st.text(max_size=16),
        ordering=st.lists(_ids, min_size=1, max_size=5).map(tuple),
        proposer=_ids,
        agreements=st.lists(st.tuples(_ids, _sigs), max_size=4).map(tuple),
    )
    return st.one_of(register, comm, reward, arb)


class TestCodec:
    @given(_tx_strategy())
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, tx):
        """decode(encode(tx)) == tx for every variant."""
        assert ledger.canonical_decode(ledger.canonical_encode(tx)) == tx

    @given(_tx_strategy())
    @settings(max_examples=50, deadline=None)
    def test_tx_id_is_sha256_of_encoding(self, tx):
        """Oracle: recompute the id with hashlib directly."""
        assert tx.tx_id == hashlib.sha256(ledger.canonical_encode(tx)).digest()

    @given(_tx_strategy())
    @settings(max_examples=50, deadline=None)
    def test_signing_bytes_drop_signature(self, tx):
        enc = ledger.canonical_encode(tx)
        assert ledger.tx_signing_bytes(tx) == enc[:-64]
        assert enc[-64:] == tx.signature

    @given(_tx_strategy(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_whatever_decodes_is_canonical(self, tx, data):
        """A byte changed anywhere either fails to decode or decodes to a
        tx that encodes back to exactly those bytes: the tx_id of what a
        chain file holds is the hash of the bytes it holds, and the
        signature verdict over those bytes is the one over the encoding."""
        kp = _kp(b"signer")
        raw = bytearray(ledger.canonical_encode(ledger.sign_tx(tx, kp)))
        raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
        try:
            decoded = ledger.canonical_decode(bytes(raw))
        except ValueError:
            return
        verdict = ledger._signature_holds(decoded, kp.public_key)
        assert "_span" not in vars(decoded)
        assert verdict == identity.verify(
            kp.public_key, ledger.tx_signing_bytes(decoded), decoded.signature
        )
        assert ledger.canonical_encode(decoded) == raw
        assert decoded.tx_id == hashlib.sha256(raw).digest()

    def test_trailing_bytes_rejected(self):
        tx = signed_comm(_kp(b"a"), b"\x01" * 32)
        with pytest.raises(ValueError):
            ledger.canonical_decode(ledger.canonical_encode(tx) + b"\x00")

    def test_truncation_rejected(self):
        tx = signed_comm(_kp(b"a"), b"\x01" * 32)
        with pytest.raises(ValueError):
            ledger.canonical_decode(ledger.canonical_encode(tx)[:-1])

    def test_tf_changes_bytes(self):
        a = signed_comm(_kp(b"a"), b"\x01" * 32, tf=1)
        b = dataclasses.replace(a, tf=2)
        assert ledger.canonical_encode(a) != ledger.canonical_encode(b)

    def test_tx_id_cached_outside_equality(self):
        """tx_id is computed once per object and lives in __dict__: it
        takes no part in ==, hash or repr, and a replaced tx hashes anew."""
        tx = signed_comm(_kp(b"a"), b"\x01" * 32)
        twin = dataclasses.replace(tx)
        assert tx.tx_id is tx.tx_id
        assert "tx_id" in vars(tx) and "tx_id" not in vars(twin)
        assert tx == twin and hash(tx) == hash(twin)
        assert "tx_id" not in repr(tx)
        later = dataclasses.replace(tx, tf=2)
        assert later.tx_id == hashlib.sha256(ledger.canonical_encode(later)).digest()
        assert later.tx_id != tx.tx_id

    def test_tx_id_hashed_once_per_object(self, monkeypatch):
        """identity.once: the first read hashes, later reads hash nothing,
        and the id stays out of ==, hash and repr."""
        raw = ledger.canonical_encode(signed_comm(_kp(b"a"), b"\x01" * 32))
        tx, twin = ledger.canonical_decode(raw), ledger.canonical_decode(raw)
        hashed = []
        monkeypatch.setattr(ledger, "sha256", lambda data: hashed.append(data) or b"\x07" * 32)
        assert [tx.tx_id for _ in range(3)] == [b"\x07" * 32] * 3
        assert hashed == [raw]
        assert tx == twin and hash(tx) == hash(twin) and repr(tx) == repr(twin)

    def test_decoded_block_hash_is_the_one_preset(self, monkeypatch):
        """decode_block presets block_hash from the header bytes it read,
        and identity.once reads a preset value: reading it hashes nothing."""
        tx = signed_comm(_kp(b"a"), b"\x01" * 32)
        block = ledger.Block(0, ledger.GENESIS_PREV_HASH, ledger.merkle_root([tx.tx_id]), 1, (tx,))
        decoded = ledger.decode_block(ledger.encode_block(block))
        monkeypatch.setattr(ledger, "sha256", None)
        assert decoded.block_hash == hashlib.sha256(block.header_bytes()).digest()

    def test_tag_2_is_unassigned(self):
        """Liveness beacons are frames: a well-formed, well-signed tag-2
        encoding is not a transaction."""
        kp = _kp(b"a")
        with pytest.raises(ledger.CorruptChainFileError, match="unknown transaction tag 2"):
            ledger.canonical_decode(tag2_tx_bytes(kp, b"\x01" * 32))

    def test_field_overflow(self):
        tx = ledger.RewardTx(
            author=b"\x01" * 32,
            tf=1,
            signature=b"\x02" * 64,
            from_id=b"\x03" * 32,
            to_id=b"\x04" * 32,
            amount=2**64,  # exceeds the u64 wire field
            reason="r",
        )
        with pytest.raises(ledger.FieldOverflowError):
            ledger.canonical_encode(tx)


def _b(n: int, size: int = 32) -> bytes:
    return bytes([n]) * size


_REASON = "péage ✓"
_CROSSING = "carrefour-é/東"


def _pinned_txs():
    """One fixed instance of every transaction kind and the signing bytes
    each must have, built with struct.pack straight from the layout."""
    register = ledger.RegisterTx(
        author=_b(1), tf=7, signature=_b(2, 64), ivtp_id=_b(1),
        vehicle_pk=_b(3), dealer_id=_b(4), counter=2**40 + 5, dealer_sig=_b(5, 64),
    )
    comm = ledger.CommTx(
        author=_b(6), tf=2**33, signature=_b(7, 64), sender=_b(6),
        receivers=(_b(8), _b(9), _b(10)), message_hash=_b(11), tf_sent=99,
    )
    reward = ledger.RewardTx(
        author=_b(12), tf=1_000, signature=_b(13, 64), from_id=_b(12),
        to_id=_b(14), amount=500, reason=_REASON,
    )
    arbitration = ledger.ArbitrationTx(
        author=_b(15), tf=3, signature=_b(16, 64), intersection_id=_CROSSING,
        ordering=(_b(17), _b(15), _b(18)), proposer=_b(15),
        agreements=((_b(17), _b(19, 64)), (_b(18), _b(20, 64))),
    )
    reason, crossing = _REASON.encode(), _CROSSING.encode()
    return [
        (register, struct.pack(
            ">B32sQ32s32s32sQ64s", 1, _b(1), 7, _b(1), _b(3), _b(4), 2**40 + 5, _b(5, 64)
        )),
        (comm, struct.pack(">B32sQ32sI", 3, _b(6), 2**33, _b(6), 3)
            + _b(8) + _b(9) + _b(10) + struct.pack(">32sQ", _b(11), 99)),
        (reward, struct.pack(">B32sQ32s32sQI", 4, _b(12), 1_000, _b(12), _b(14), 500, len(reason))
            + reason),
        (arbitration, struct.pack(">B32sQI", 5, _b(15), 3, len(crossing)) + crossing
            + struct.pack(">I", 3) + _b(17) + _b(15) + _b(18) + _b(15)
            + struct.pack(">I", 2) + _b(17) + _b(19, 64) + _b(18) + _b(20, 64)),
    ]


def _build_chain(seed: int, n_txs: int = 150):
    """perfbench's chain_audit generator, on a short chain."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(gen)
    return gen.build_chain(seed, n_txs=n_txs).chain


class TestReplayFromBytes:
    """A loaded chain is checked against the bytes it was read from: no
    transaction or block header is encoded again to hash or verify it."""

    # SHA-256 of chain_to_bytes(_build_chain(seed)), as written before
    # decoded transactions kept their bytes.
    CHAIN_DIGESTS = {
        1: "884efd81f7d86d810d93af1a3af2a43ec11301d17b66867e5cc90572d132d4a4",
        2: "c04c7a75be10665ae1d2cb51dea644c6047b6c2fd8160d50c0701102175eedaf",
        3: "13845ba52785edc7ce8de04517278568268a26a4222611f0fe60ff15eb6e6069",
    }

    @pytest.mark.parametrize("seed", sorted(CHAIN_DIGESTS))
    def test_cold_replay_encodes_nothing(self, seed, monkeypatch):
        chain = _build_chain(seed)
        data = ledger.chain_to_bytes(chain)
        assert hashlib.sha256(data).hexdigest() == self.CHAIN_DIGESTS[seed]
        calls = {"tx_signing_bytes": 0, "canonical_encode": 0, "header_bytes": 0}

        def counted(owner, name):
            real = getattr(owner, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(owner, name, wrapper)

        counted(ledger, "tx_signing_bytes")
        counted(ledger, "canonical_encode")
        counted(ledger.Block, "header_bytes")
        chain_file = ledger.parse_chain_bytes(io.BytesIO(data))
        report = ledger.validate_blocks(chain_file.blocks(), chain_file.endowment)
        assert chain_file.checksum_ok and report.ok
        assert calls == {"tx_signing_bytes": 0, "canonical_encode": 0, "header_bytes": 0}
        monkeypatch.undo()

        blocks = report.blocks
        txs = [tx for block in blocks for tx in block.txs]
        assert len(blocks) == len(chain.blocks)
        assert len(txs) == sum(len(block.txs) for block in chain.blocks) > 100
        assert not [tx for tx in txs if "_span" in vars(tx)]
        assert all(tx.tx_id == hashlib.sha256(ledger.canonical_encode(tx)).digest() for tx in txs)
        assert [b.block_hash for b in blocks] == [
            hashlib.sha256(b.header_bytes()).digest() for b in blocks
        ]
        assert ledger.chain_to_bytes(ledger.Chain(blocks, report.state)) == data

    def test_signed_tx_has_its_id_from_the_bytes_signed(self, monkeypatch):
        kp = _kp(b"a")
        tx = signed_comm(kp, b"\x01" * 32)
        assert "tx_id" in vars(tx) and "_span" not in vars(tx)
        monkeypatch.setattr(ledger, "canonical_encode", None)
        assert tx.tx_id == hashlib.sha256(ledger.tx_signing_bytes(tx) + tx.signature).digest()

    def test_span_released_on_a_failed_check_too(self):
        kp, other = _kp(b"a"), _kp(b"b")
        raw = ledger.canonical_encode(signed_comm(kp, b"\x01" * 32))
        decoded = ledger.canonical_decode(raw)
        assert vars(decoded)["_span"] is raw
        assert not ledger._signature_holds(decoded, other.public_key)
        assert "_span" not in vars(decoded)
        assert decoded.tx_id == hashlib.sha256(raw).digest()
        # Asked again under another key, the check re-encodes.
        assert ledger._signature_holds(decoded, kp.public_key)


class TestPinnedBytes:
    """The wire layouts, pinned byte for byte against struct.pack."""

    @pytest.mark.parametrize(
        "tx, signing", _pinned_txs(), ids=["register", "comm", "reward", "arbitration"]
    )
    def test_transaction_bytes(self, tx, signing):
        assert ledger.tx_signing_bytes(tx) == signing
        encoded = ledger.canonical_encode(tx)
        assert encoded == signing + tx.signature
        decoded = ledger.canonical_decode(encoded)
        assert decoded == tx and decoded.tx_id == hashlib.sha256(encoded).digest()
        for cut in range(len(encoded)):
            with pytest.raises(ledger.CorruptChainFileError, match="^truncated encoding$"):
                ledger.canonical_decode(encoded[:cut])
        with pytest.raises(ledger.CorruptChainFileError, match="^trailing bytes after transaction$"):
            ledger.canonical_decode(encoded + b"\x00")

    def test_block_header_bytes(self):
        block = ledger.Block(
            height=2**35 + 1, prev_hash=_b(21), merkle_root=_b(22), timestamp=4_321,
            txs=(_pinned_txs()[1][0],),
        )
        header = struct.pack(">Q32s32sQ", 2**35 + 1, _b(21), _b(22), 4_321)
        assert block.header_bytes() == header
        tx = ledger.canonical_encode(block.txs[0])
        encoded = ledger.encode_block(block)
        assert encoded == header + struct.pack(">II", 1, len(tx)) + tx
        assert ledger.decode_block(encoded) == block

    def test_every_cut_of_a_block_is_truncated(self):
        """A block of every transaction kind, cut anywhere: the read stops
        at the first field that runs past the end, with one message."""
        txs = tuple([tx for tx, _ in _pinned_txs()])
        block = ledger.Block(3, _b(21), ledger.merkle_root([tx.tx_id for tx in txs]), 9, txs)
        encoded = ledger.encode_block(block)
        assert ledger.decode_block(encoded) == block
        for cut in range(len(encoded)):
            with pytest.raises(ledger.CorruptChainFileError, match="^truncated encoding$"):
                ledger.decode_block(encoded[:cut])

    def test_agree_message_bytes(self):
        crossing = _CROSSING.encode()
        assert ledger.agree_message(_CROSSING, (_b(1), _b(2))) == (
            b"ivtp/agree" + struct.pack(">I", len(crossing)) + crossing
            + struct.pack(">I", 2) + _b(1) + _b(2)
        )


def _merkle_oracle(leaves):
    level = list(leaves)
    if len(level) == 1:
        h = hashlib.sha256(level[0] + level[0]).digest()
        return h
    while len(level) > 1:
        if len(level) % 2 == 1:
            level.append(level[-1])
        level = [
            hashlib.sha256(level[i] + level[i + 1]).digest()
            for i in range(0, len(level), 2)
        ]
    return level[0]


class TestMerkle:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one leaf"):
            ledger.merkle_root([])

    def test_single_leaf_pairs_with_itself(self):
        leaf = identity.sha256(b"x")
        assert ledger.merkle_root([leaf]) == hashlib.sha256(leaf + leaf).digest()

    @given(st.lists(_ids, min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle(self, leaves):
        assert ledger.merkle_root(leaves) == _merkle_oracle(leaves)

    def test_order_sensitive(self):
        a, b = identity.sha256(b"a"), identity.sha256(b"b")
        assert ledger.merkle_root([a, b]) != ledger.merkle_root([b, a])


class TestChain:
    def test_genesis_shape(self):
        dealer, chain, _, _ = make_fleet(0)
        genesis = chain.blocks[0]
        assert genesis.height == 0
        assert genesis.prev_hash == b"\x00" * 32
        assert len(genesis.txs) == 1
        assert isinstance(genesis.txs[0], ledger.RegisterTx)
        assert genesis.txs[0].ivtp_id == dealer.dealer_id

    def test_block_hash_covers_header_only(self):
        _, chain, _, _ = make_fleet(1)
        block = chain.tip
        manual = hashlib.sha256(
            block.height.to_bytes(8, "big")
            + block.prev_hash
            + block.merkle_root
            + block.timestamp.to_bytes(8, "big")
        ).digest()
        assert block.block_hash == manual

    def test_registration_grants_endowment(self):
        dealer, chain, ids, _ = make_fleet(3, endowment=42_000)
        for veh in ids:
            assert ledger.balance(chain, veh) == 42_000
        assert ledger.balance(chain, dealer.dealer_id) == 0

    @pytest.mark.parametrize("query", [ledger.balance, ledger.history], ids=lambda q: q.__name__)
    def test_unregistered_id_is_an_unknown_vehicle(self, query):
        """An id the chain never registered has neither a balance of 0 nor
        an empty history: the query raises a KeyError naming the id."""
        _, chain, ids, _ = make_fleet(1)
        stranger = identity.sha256(b"never registered")
        with pytest.raises(KeyError, match="is not registered") as err:
            query(chain, stranger)
        assert err.value.args == (f"{stranger.hex()} is not registered on this chain",)
        query(chain, ids[0])  # a registered one answers

    def test_duplicate_registration_rejected(self):
        dealer, chain, ids, keys = make_fleet(1)
        kp = keys[ids[0]]
        issuance = identity.Issuance(
            ivtp_id=ids[0],
            vehicle_pk=kp.public_key,
            dealer_id=dealer.dealer_id,
            counter=0,
            binding_sig=identity.sign(
                dealer.keypair, identity.binding_message(ids[0], kp.public_key)
            ),
        )
        tx = ledger.register_tx_from_issuance(issuance, dealer, tf=1)
        assert chain.append_block([tx], timestamp=1) == (None, [(tx, "duplicate_id")])
        assert chain.height == 1
        _assert_left_out(chain, [tx])

    def test_timestamps_monotonic(self):
        _, chain, ids, keys = make_fleet(2)
        tx = _signed(
            ledger.CommTx(
                author=ids[0],
                tf=5,
                signature=b"",
                sender=ids[0],
                receivers=(ids[1],),
                message_hash=identity.sha256(b"m"),
                tf_sent=5,
            ),
            keys[ids[0]],
        )
        with pytest.raises(ValueError, match="precedes tip"):
            chain.append_block([tx], timestamp=-1)

    def test_insufficient_balance_named_error(self):
        _, chain, ids, keys = make_fleet(2, endowment=100)
        tx = _signed(
            ledger.RewardTx(
                author=ids[0],
                tf=1,
                signature=b"",
                from_id=ids[0],
                to_id=ids[1],
                amount=101,
                reason="over",
            ),
            keys[ids[0]],
        )
        assert chain.append_block([tx], timestamp=1) == (None, [(tx, "insufficient_balance")])
        assert ledger.balance(chain, ids[0]) == ledger.balance(chain, ids[1]) == 100
        _assert_left_out(chain, [tx])

    def test_reward_moves_balance_and_conserves(self):
        _, chain, ids, keys = make_fleet(2)
        before = ledger.total_supply(chain)
        tx = _signed(
            ledger.RewardTx(
                author=ids[0],
                tf=1,
                signature=b"",
                from_id=ids[0],
                to_id=ids[1],
                amount=500,
                reason="fee",
            ),
            keys[ids[0]],
        )
        chain.append_block([tx], timestamp=1)
        assert ledger.balance(chain, ids[0]) == 99_500
        assert ledger.balance(chain, ids[1]) == 100_500
        assert ledger.total_supply(chain) == before

    def test_comm_table_symmetric(self):
        _, chain, ids, keys = make_fleet(3)
        tx = _signed(
            ledger.CommTx(
                author=ids[0],
                tf=1,
                signature=b"",
                sender=ids[0],
                receivers=(ids[1], ids[2]),
                message_hash=identity.sha256(b"m"),
                tf_sent=1,
            ),
            keys[ids[0]],
        )
        chain.append_block([tx], timestamp=1)
        table = ledger.comm_table(chain)
        assert set(table[ids[0]]) == {ids[1], ids[2]}
        assert table[ids[1]] == [ids[0]]
        assert table[ids[2]] == [ids[0]]

    def test_history_contains_touching_txs(self):
        """A vehicle's history lists every tx it authored or appears in."""
        _, chain, ids, keys = make_fleet(2)
        tx = _signed(
            ledger.RewardTx(
                author=ids[0],
                tf=1,
                signature=b"",
                from_id=ids[0],
                to_id=ids[1],
                amount=1,
                reason="r",
            ),
            keys[ids[0]],
        )
        chain.append_block([tx], timestamp=1)
        assert [type(t).__name__ for t in ledger.history(chain, ids[1])] == [
            "RegisterTx",
            "RewardTx",
        ]

    @pytest.mark.parametrize("cause", ["sender_mismatch", "insufficient_balance"])
    def test_failed_append_leaves_chain_unchanged(self, cause):
        """A refused tx leaves no trace: the txs before it commit as one
        block, and the live state and queries show exactly those."""
        dealer, chain, ids, keys = make_fleet(3, endowment=1000)
        newcomer = _kp(b"newcomer")
        applied = [
            ledger.register_tx_from_issuance(dealer.issue(newcomer.public_key), dealer, tf=1),
            signed_comm(keys[ids[2]], ids[2], receivers=(ids[1],)),
            _signed(
                ledger.CommTx(
                    author=ids[0], tf=1, signature=b"", sender=ids[0], receivers=(ids[1],),
                    message_hash=identity.sha256(b"m"), tf_sent=1,
                ),
                keys[ids[0]],
            ),
            _signed(
                ledger.RewardTx(
                    author=ids[0], tf=1, signature=b"", from_id=ids[0], to_id=ids[1],
                    amount=600, reason="first",
                ),
                keys[ids[0]],
            ),
        ]
        if cause == "sender_mismatch":
            bad = ledger.CommTx(
                author=ids[0], tf=1, signature=b"", sender=ids[1], receivers=(ids[2],),
                message_hash=identity.sha256(b"m"), tf_sent=1,
            )
        else:
            bad = ledger.RewardTx(
                author=ids[0], tf=1, signature=b"", from_id=ids[0], to_id=ids[2],
                amount=600, reason="second",
            )
        bad = _signed(bad, keys[ids[0]])
        before = [ledger.history(chain, i) for i in ids]
        block, refused = chain.append_block(applied + [bad], timestamp=1)
        assert block.txs == tuple(applied) and chain.tip is block
        assert refused == [(bad, cause)]
        assert all(tx.tx_id in chain.tx_by_id for tx in applied)
        _assert_left_out(chain, [bad])
        assert ledger.comm_table(chain) == {
            ids[2]: [ids[1]], ids[1]: [ids[2], ids[0]], ids[0]: [ids[1]]
        }
        touching = [applied[2:], applied[1:], applied[1:2]]
        assert [ledger.history(chain, i) for i in ids] == [
            was + txs for was, txs in zip(before, touching)
        ]

    def test_tx_after_its_block_rejected(self):
        """A tx's time flag may not be later than the block holding it."""
        _, chain, ids, keys = make_fleet(2)
        late = signed_comm(keys[ids[0]], ids[0], tf=10**12)
        assert chain.append_block([late], timestamp=5) == (None, [(late, "tx_after_block")])
        assert chain.height == 1
        _assert_left_out(chain, [late])
        chain.append_block([signed_comm(keys[ids[0]], ids[0], tf=5)], timestamp=5)
        assert ledger.validate_chain(chain).ok

    def test_repeated_tx_rejected(self):
        """A tx_id already on the chain cannot be committed again."""
        _, chain, ids, keys = make_fleet(2)
        tx = _signed(
            ledger.CommTx(
                author=ids[0], tf=1, signature=b"", sender=ids[0], receivers=(ids[1],),
                message_hash=identity.sha256(b"m"), tf_sent=1,
            ),
            keys[ids[0]],
        )
        chain.append_block([tx], timestamp=1)
        again = dataclasses.replace(tx)
        assert chain.append_block([again], timestamp=2) == (None, [(again, "duplicate_tx")])
        assert chain.height == 2
        # The refused copy shares its tx_id with the committed one, which
        # is the only one on the chain.
        assert [t for block in chain.blocks for t in block.txs].count(tx) == 1
        assert chain.tx_by_id[tx.tx_id] is tx
        assert ledger.validate_chain(chain).state == chain.state

    def test_one_merkle_root_per_block(self, monkeypatch):
        """append_block hashes the Merkle root of the txs it admitted
        once; no second header pass recomputes it."""
        _, chain, ids, keys = make_fleet(2)
        calls = []
        root = ledger.merkle_root
        monkeypatch.setattr(ledger, "merkle_root", lambda leaves: calls.append(1) or root(leaves))
        txs = [signed_comm(keys[v], v, receivers=ids) for v in ids]
        chain.append_block(txs, timestamp=1)
        assert len(calls) == 1
        assert chain.tip.txs == tuple(txs)
        assert chain.tip.merkle_root == root([tx.tx_id for tx in txs])


class TestValidation:
    def test_genesis_holds_exactly_one_tx(self):
        """A second self-registration in genesis would take over as dealer."""
        chain = ledger.Chain.create(identity.DealerAuthority.from_name("dealer"))
        rival = ledger.Chain.create(identity.DealerAuthority.from_name("rival"))
        txs = chain.blocks[0].txs + rival.blocks[0].txs
        genesis = dataclasses.replace(
            chain.blocks[0], txs=txs, merkle_root=ledger.merkle_root([t.tx_id for t in txs])
        )
        report = ledger.validate_blocks([genesis], chain.state.endowment)
        assert not report.ok
        assert report.height == 0
        with pytest.raises(ledger.CorruptChainFileError):
            ledger.Chain.from_blocks([genesis], chain.state.endowment)

    def test_fresh_chain_validates(self):
        _, chain, _, _ = make_fleet(4)
        assert ledger.validate_chain(chain).ok

    def test_forged_signature_detected(self):
        import dataclasses

        _, chain, ids, keys = make_fleet(2)
        tx = _signed(
            ledger.CommTx(
                author=ids[0],
                tf=1,
                signature=b"",
                sender=ids[0],
                receivers=(ids[1],),
                message_hash=identity.sha256(b"m"),
                tf_sent=1,
            ),
            keys[ids[0]],
        )
        chain.append_block([tx], timestamp=1)
        bad_tx = dataclasses.replace(tx, signature=b"\x00" * 64)
        bad_block = dataclasses.replace(
            chain.blocks[-1],
            txs=(bad_tx,),
            merkle_root=ledger.merkle_root([bad_tx.tx_id]),
        )
        report = ledger.validate_blocks(
            chain.blocks[:-1] + [bad_block], chain.state.endowment
        )
        assert not report.ok
        assert report.height == bad_block.height

    def test_a_small_order_key_signs_nothing(self):
        """The identity point as a vehicle key: no signature ever verifies
        under it, so its id could never act. The dealer refuses to issue it,
        and a registration of it that the dealer signed anyway is refused
        before any signature check, when admitted and when replayed. (Under
        OpenSSL's cofactorless check it would instead sign for anyone:
        TestAgainstCryptography's identity-point case.)"""
        dealer, chain, ids, keys = make_fleet(2)
        key = b"\x01" + bytes(31)
        with pytest.raises(ValueError, match="prime-order subgroup"):
            dealer.issue(key)
        register = _registration(dealer, key, dealer.issuance_counter)
        assert chain.append_block([register], timestamp=1) == (
            None, [(register, "invalid_public_key")]
        )
        _assert_left_out(chain, [register])

        honest = signed_comm(keys[ids[0]], ids[0], tf=1, receivers=(ids[1],))
        chain.append_block([honest], timestamp=1)
        spliced = dataclasses.replace(
            chain.blocks[-1], txs=(register,), merkle_root=ledger.merkle_root([register.tx_id])
        )
        report = ledger.validate_blocks(chain.blocks[:-1] + [spliced], chain.state.endowment)
        assert (report.ok, report.height, report.cause) == (
            False, spliced.height, "invalid_public_key"
        )

    def test_broken_link_detected(self):
        import dataclasses

        _, chain, _, _ = make_fleet(2)
        tampered = dataclasses.replace(chain.blocks[1], prev_hash=b"\x11" * 32)
        report = ledger.validate_blocks(
            [chain.blocks[0], tampered], chain.state.endowment
        )
        assert not report.ok

    def test_merkle_mismatch_detected(self):
        import dataclasses

        _, chain, _, _ = make_fleet(2)
        tampered = dataclasses.replace(chain.blocks[1], merkle_root=b"\x22" * 32)
        report = ledger.validate_blocks(
            [chain.blocks[0], tampered], chain.state.endowment
        )
        assert not report.ok
        assert report.height == 1


_STRANGER = identity.sha256(b"never registered")


def _flip(sig: bytes) -> bytes:
    return bytes([sig[0] ^ 1]) + sig[1:]


def _registration(dealer, pk, counter):
    """A registration of pk under counter that dealer signs, built by hand
    (DealerAuthority.issue would refuse some of the keys tested here)."""
    ivtp_id = identity.ivtp_id_from(dealer.dealer_id, pk, counter)
    binding = identity.sign(dealer.keypair, identity.binding_message(ivtp_id, pk))
    issuance = identity.Issuance(ivtp_id, pk, dealer.dealer_id, counter, binding)
    return ledger.register_tx_from_issuance(issuance, dealer, tf=1)


class _Valid:
    """make_fleet(3) and one transaction of each kind at tf 1 that applies
    to it: a newcomer's registration, a comm, a fee and an outcome."""

    def __init__(self):
        self.dealer, self.chain, self.ids, self.keys = make_fleet(3)
        a, b, c = self.ids
        newcomer = _kp(b"newcomer").public_key
        self.register = _registration(self.dealer, newcomer, self.dealer.issuance_counter)
        self.comm = signed_comm(self.keys[a], a, receivers=(b, c))
        self.reward = self.resign(
            ledger.RewardTx(a, 1, b"", from_id=a, to_id=b, amount=500, reason="x-1")
        )
        statement = ledger.agree_message("x-1", (a, b, c))
        agreements = tuple((v, identity.sign(self.keys[v], statement)) for v in (a, c))
        self.outcome = self.resign(
            ledger.ArbitrationTx(
                b, 1, b"", intersection_id="x-1", ordering=(a, b, c), proposer=b,
                agreements=agreements,
            )
        )

    def resign(self, tx, **fields):
        """tx with fields replaced, signed again by whoever signs it at
        height 1: the dealer for a registration, else its author."""
        tx = dataclasses.replace(tx, **fields)
        signer = self.dealer.keypair if isinstance(tx, ledger.RegisterTx) else self.keys[tx.author]
        return ledger.sign_tx(tx, signer)


# A check_tx or admit cause per row: a minimal edit of one of _Valid's
# transactions, and the cause it is refused for.
_REFUSALS = [
    ("invalid_public_key", lambda w: w.resign(w.register, vehicle_pk=b"\x01" + bytes(31))),
    ("unknown_dealer", lambda w: w.resign(w.register, dealer_id=identity.sha256(b"rival"))),
    ("bad_id_derivation", lambda w: w.resign(w.register, counter=w.register.counter + 1)),
    ("author_not_registrant", lambda w: w.resign(w.register, author=w.ids[0])),
    # A fleet vehicle's own registration, again at tf 1.
    ("duplicate_id", lambda w: w.resign(w.chain.blocks[1].txs[0], tf=1)),
    (
        "duplicate_public_key",
        lambda w: _registration(w.dealer, w.keys[w.ids[0]].public_key, w.register.counter),
    ),
    (
        "bad_binding_signature",
        lambda w: w.resign(w.register, dealer_sig=_flip(w.register.dealer_sig)),
    ),
    (
        "bad_signature",  # the registration's own signature, which the dealer makes
        lambda w: dataclasses.replace(w.register, signature=_flip(w.register.signature)),
    ),
    ("not_registered", lambda w: dataclasses.replace(w.comm, author=_STRANGER, sender=_STRANGER)),
    ("sender_mismatch", lambda w: w.resign(w.comm, sender=w.ids[1])),
    ("receiver_not_registered", lambda w: w.resign(w.comm, receivers=(w.ids[1], _STRANGER))),
    ("author_not_payer", lambda w: w.resign(w.reward, from_id=w.ids[2])),
    ("non_positive_amount", lambda w: w.resign(w.reward, amount=0)),
    ("recipient_not_registered", lambda w: w.resign(w.reward, to_id=_STRANGER)),
    (
        "insufficient_balance",
        lambda w: w.resign(w.reward, amount=w.chain.state.balances[w.ids[0]] + 1),
    ),
    (
        "duplicate_in_ordering",
        lambda w: w.resign(w.outcome, ordering=w.outcome.ordering + (w.ids[0],)),
    ),
    ("author_not_proposer", lambda w: w.resign(w.outcome, proposer=w.ids[0])),
    ("proposer_not_in_ordering", lambda w: w.resign(w.outcome, ordering=(w.ids[0], w.ids[2]))),
    (
        "member_not_registered",
        lambda w: w.resign(w.outcome, ordering=w.outcome.ordering + (_STRANGER,)),
    ),
    ("agreements_incomplete", lambda w: w.resign(w.outcome, agreements=w.outcome.agreements[1:])),
    (
        "bad_agreement_signature",
        lambda w: w.resign(
            w.outcome, agreements=tuple((v, _flip(sig)) for v, sig in w.outcome.agreements)
        ),
    ),
    ("tx_after_block", lambda w: w.resign(w.comm, tf=2)),  # its block's timestamp is 1
]

# A _header_fault cause per row: the block of _Valid's chain edited (at
# timestamps 0, 0, 2 and 3 once TestRefusals adds a comm and a fee), and the edit.
_HEADER_REFUSALS = [
    ("bad genesis header", 0, lambda block: dataclasses.replace(block, height=1)),
    ("non-contiguous height", 3, lambda block: dataclasses.replace(block, height=4)),
    ("timestamp not monotone", 3, lambda block: dataclasses.replace(block, timestamp=1)),
    ("empty block", 3, lambda block: dataclasses.replace(block, txs=())),
    (
        "genesis must hold exactly one transaction",
        0,
        lambda block: dataclasses.replace(block, txs=block.txs * 2),
    ),
    ("prev_hash mismatch", 3, lambda block: dataclasses.replace(block, prev_hash=bytes(32))),
    ("merkle root mismatch", 3, lambda block: dataclasses.replace(block, merkle_root=bytes(32))),
]


def _returned_causes(*names: str) -> set[str]:
    """The strings that the named functions of ledger.py return, read with ast."""
    tree = ast.parse(pathlib.Path(ledger.__file__).read_text())
    funcs = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name in names]
    assert sorted(func.name for func in funcs) == sorted(names)
    returned = [n.value for func in funcs for n in ast.walk(func) if isinstance(n, ast.Return)]
    return {v.value for v in returned if isinstance(v, ast.Constant) and isinstance(v.value, str)}


class TestRefusals:
    """Each refusal, met as the chain meets it: a transaction through
    append_block and through the replay of a block holding it alone, a
    header through validate_blocks. Each row's edit is the only change to
    something that applies, so the row also pins the order of the checks."""

    @pytest.mark.parametrize("kind", ["register", "comm", "reward", "outcome"])
    def test_the_unedited_transactions_apply(self, kind):
        w = _Valid()
        tx = getattr(w, kind)
        assert w.chain.append_block([tx], timestamp=1)[1] == []
        assert ledger.validate_chain(w.chain).ok

    @pytest.mark.parametrize("cause, edit", _REFUSALS, ids=[cause for cause, _ in _REFUSALS])
    def test_a_transaction_is_refused_for_its_cause(self, cause, edit):
        w = _Valid()
        tx = edit(w)
        chain = w.chain
        block = ledger.Block(
            chain.height + 1, chain.tip.block_hash, ledger.merkle_root([tx.tx_id]), 1, (tx,)
        )
        report = ledger.validate_blocks(chain.blocks + [block], chain.state.endowment)
        assert (report.ok, report.height, report.tx_id, report.cause) == (
            False, block.height, tx.tx_id, cause
        )
        assert chain.append_block([tx], timestamp=1) == (None, [(tx, cause)])
        _assert_left_out(chain, [tx])

    @pytest.mark.parametrize("cause, at, edit", _HEADER_REFUSALS)
    def test_a_header_is_refused_for_its_cause(self, cause, at, edit):
        """Blocks at timestamps 0, 0, 2 and 3; one is edited."""
        w = _Valid()
        w.chain.append_block([w.comm], timestamp=2)
        w.chain.append_block([w.reward], timestamp=3)
        blocks = list(w.chain.blocks)
        assert ledger.validate_blocks(blocks, w.chain.state.endowment).ok
        blocks[at] = edit(blocks[at])
        report = ledger.validate_blocks(blocks, w.chain.state.endowment)
        assert (report.ok, report.height, report.cause) == (False, blocks[at].height, cause)

    @pytest.mark.parametrize("kind", ["comm", "reward", "outcome"])
    def test_an_authors_bad_signature_is_refused(self, kind):
        """check_tx's second bad_signature: the author's, on every kind the
        dealer does not sign (a registration's is a row of _REFUSALS)."""
        w = _Valid()
        tx = getattr(w, kind)
        forged = dataclasses.replace(tx, signature=_flip(tx.signature))
        assert w.chain.append_block([forged], timestamp=1) == (None, [(forged, "bad_signature")])
        _assert_left_out(w.chain, [forged])

    def test_a_transaction_already_applied_is_refused_as_duplicate_tx(self):
        """admit refuses a tx_id it has applied before check_tx, which
        would apply the same comm again."""
        w = _Valid()
        block, _ = w.chain.append_block([w.comm], timestamp=1)
        height = w.chain.height
        assert w.chain.state.check_tx(w.comm, height + 1) is None
        again = dataclasses.replace(block, height=height + 1, prev_hash=block.block_hash)
        report = ledger.validate_blocks(w.chain.blocks + [again], w.chain.state.endowment)
        assert (report.ok, report.height, report.tx_id, report.cause) == (
            False, height + 1, w.comm.tx_id, "duplicate_tx"
        )
        assert w.chain.append_block([w.comm], timestamp=1) == (None, [(w.comm, "duplicate_tx")])
        assert w.chain.height == height

    def test_every_cause_has_a_row(self):
        """The causes the tables and tests above reach are every cause that
        check_tx, admit and _header_fault can return, so a new cause cannot
        land without a row."""
        tested = {cause for cause, _ in _REFUSALS} | {cause for cause, _, _ in _HEADER_REFUSALS}
        tested |= {"duplicate_tx"}  # test_a_transaction_already_applied_is_refused_as_duplicate_tx
        assert tested == _returned_causes("check_tx", "admit", "_header_fault")

    def test_a_state_with_no_dealer_refuses_a_registration_as_unknown_dealer(self):
        """No replay reaches a height above 0 without a dealer (genesis holds
        exactly the dealer's self-registration), and a state built without
        one has no dealer id a registration could name."""
        w = _Valid()
        dealerless = ledger.Chain(w.chain.blocks, ledger.LedgerState(w.chain.state.endowment))
        assert dealerless.state.dealer_id is None
        assert dealerless.append_block([w.register], timestamp=1) == (
            None, [(w.register, "unknown_dealer")]
        )


class _RecordedReads(io.BytesIO):
    """A chain file in memory that records the size of every read."""

    def __init__(self, data: bytes):
        super().__init__(data)
        self.sizes: list[int] = []

    def read(self, n=-1):
        self.sizes.append(n)
        return super().read(n)


def _comm_chain(blocks: int = 40):
    """A chain of two vehicles, then blocks holding one comm each, from
    either vehicle to the other."""
    _, chain, ids, keys = make_fleet(2)
    for t in range(1, blocks + 1):
        author, receiver = ids[t % 2], ids[(t + 1) % 2]
        tx = signed_comm(keys[author], author, tf=t, receivers=(receiver,))
        chain.append_block([tx], timestamp=t)
    return chain


class TestChainFile:
    def test_roundtrip(self, tmp_path):
        _, chain, _, _ = make_fleet(3)
        path = tmp_path / "chain.bin"
        ledger.save_chain(chain, path)
        loaded = read_chain(path)
        assert [b.block_hash for b in loaded.blocks] == [
            b.block_hash for b in chain.blocks
        ]
        assert loaded.state.balances == chain.state.balances

    def test_bad_magic_rejected(self, tmp_path):
        _, chain, _, _ = make_fleet(1)
        data = bytearray(ledger.chain_to_bytes(chain))
        data[0] ^= 0xFF
        with pytest.raises(ledger.CorruptChainFileError, match="bad magic"):
            ledger.parse_chain_bytes(io.BytesIO(bytes(data)))

    def test_checksum_covers_header(self):
        """Flipping the endowment header field must not go unnoticed."""
        _, chain, _, _ = make_fleet(1)
        data = bytearray(ledger.chain_to_bytes(chain))
        data[7] ^= 0x01  # inside the endowment u64
        with pytest.raises(ledger.CorruptChainFileError, match="checksum"):
            ledger.parse_chain_bytes(io.BytesIO(bytes(data))).chain()

    def test_no_read_exceeds_one_block(self):
        """The reader first hashes the body in reads of at most 64 KiB and
        reads the digest; then it reads the header, then each block's
        length and blob: every body byte once more, and never more at a
        time than the largest block's blob."""
        chain = _comm_chain(240)
        data = ledger.chain_to_bytes(chain)
        body = len(data) - ledger.HASH_LEN
        assert 1 << 16 < body < 2 << 16
        f = _RecordedReads(data)
        loaded = ledger.parse_chain_bytes(f).chain()
        assert [b.block_hash for b in loaded.blocks] == [b.block_hash for b in chain.blocks]
        digest_pass, parse = f.sizes[:3], f.sizes[3:]
        assert digest_pass == [1 << 16, body - (1 << 16), ledger.HASH_LEN]
        largest = max(len(ledger.encode_block(b)) for b in chain.blocks)
        assert len(parse) == 1 + 2 * len(chain.blocks)
        assert 0 < max(parse) <= largest < len(data) // 10
        assert sum(parse) == body

    def test_each_block_is_replayed_before_the_next_is_read(self):
        chain = _comm_chain(5)
        data = ledger.chain_to_bytes(chain)
        f = io.BytesIO(data)
        chain_file = ledger.parse_chain_bytes(f)
        ends, at = [], 13
        for block in chain.blocks:
            at += 4 + len(ledger.encode_block(block))
            ends.append(at)
        read_to = []

        def watched():
            for block in chain_file.blocks():
                read_to.append(f.tell())
                yield block

        report = ledger.validate_blocks(watched(), chain_file.endowment)
        assert report.ok and chain_file.checksum_ok
        assert read_to == ends and ends[-1] == len(data) - ledger.HASH_LEN

    def test_one_object_per_vehicle_id(self):
        """Within one read every vehicle id a transaction names is one
        bytes object, the registration's own; hashes are not pooled."""
        chain = _comm_chain()
        loaded = ledger.parse_chain_bytes(io.BytesIO(ledger.chain_to_bytes(chain))).chain()
        registered = {veh: veh for veh in loaded.state.registrations}
        named = [veh for b in loaded.blocks for tx in b.txs for veh in (tx.author, *ledger._named(tx))]
        assert len(named) > 3 * len(loaded.blocks)
        assert all(registered[veh] is veh for veh in named)
        comms = [tx for b in loaded.blocks for tx in b.txs if isinstance(tx, ledger.CommTx)]
        assert len({id(tx.message_hash) for tx in comms}) == len(comms) == 40
        # A second read pools its ids afresh: no table outlives a read.
        again = ledger.parse_chain_bytes(io.BytesIO(ledger.chain_to_bytes(chain))).chain()
        assert all(
            veh is not registered[veh] for veh in again.state.registrations
        )

    def test_first_fault_met_is_reported(self):
        """A replay fault stops the read: a later structural fault is not
        reached. The checksum is known on open, and chain() refuses a
        mismatch before it replays anything."""
        chain = _comm_chain(5)
        blocks = list(chain.blocks)
        blocks[2] = dataclasses.replace(blocks[2], merkle_root=b"\x22" * 32)
        body = b"".join(
            [ledger.CHAIN_MAGIC, bytes([ledger.CHAIN_VERSION]), ledger._u64(chain.state.endowment)]
            + [ledger._blob(ledger.encode_block(b)) for b in blocks]
        )
        broken = body + b"\xff\xff\xff\xff" + bytes(ledger.HASH_LEN)  # a length past the end
        chain_file = ledger.parse_chain_bytes(io.BytesIO(broken))
        assert chain_file.checksum_ok is False
        report = ledger.validate_blocks(chain_file.blocks(), chain_file.endowment)
        assert (report.height, report.cause) == (2, "merkle root mismatch")
        with pytest.raises(ledger.CorruptChainFileError, match="^file checksum mismatch$"):
            ledger.parse_chain_bytes(io.BytesIO(broken)).chain()
        # The same length fault after a valid chain is met once the replay gets there.
        valid = ledger.chain_to_bytes(chain)[: -ledger.HASH_LEN]
        chain_file = ledger.parse_chain_bytes(io.BytesIO(valid + b"\xff\xff\xff\xff" + bytes(32)))
        with pytest.raises(ledger.CorruptChainFileError, match="^truncated encoding$"):
            ledger.validate_blocks(chain_file.blocks(), chain_file.endowment)

    def test_text_that_is_not_utf8_is_a_corrupt_file(self):
        """A committed reward's reason with a byte that is not UTF-8, under
        a recomputed file checksum: the read raises CorruptChainFileError."""
        _, chain, (a, b), keys = make_fleet(2)
        reward = ledger.RewardTx(a, 1, b"", from_id=a, to_id=b, amount=5, reason="x-1")
        chain.append_block([ledger.sign_tx(reward, keys[a])], timestamp=1)
        body = ledger.chain_to_bytes(chain)[: -ledger.HASH_LEN]
        at = body.rindex(b"x-1")
        body = body[:at] + b"\xff" + body[at + 1 :]
        f = io.BytesIO(body + hashlib.sha256(body).digest())
        with pytest.raises(ledger.CorruptChainFileError, match="^text is not UTF-8$"):
            ledger.parse_chain_bytes(f).chain()

    def test_a_second_pass_reads_nothing_and_keeps_the_verdict(self):
        chain = _comm_chain(2)
        chain_file = ledger.parse_chain_bytes(io.BytesIO(ledger.chain_to_bytes(chain)))
        assert len(list(chain_file.blocks())) == len(chain.blocks) and chain_file.checksum_ok
        assert list(chain_file.blocks()) == [] and chain_file.checksum_ok

    def test_parse_reports_checksum_separately(self):
        _, chain, _, _ = make_fleet(1)
        data = bytearray(ledger.chain_to_bytes(chain))
        data[-1] ^= 0x01  # inside the trailing digest itself
        chain_file = ledger.parse_chain_bytes(io.BytesIO(bytes(data)))
        report = ledger.validate_blocks(chain_file.blocks(), chain_file.endowment)
        assert report.ok and len(report.blocks) == len(chain.blocks) == 2
        assert chain_file.checksum_ok is False
