"""Keys, trust-point identity derivation, and dealer issuance."""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest
from conftest import ROOT, ivtp_dataclasses
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric import ed25519
from hypothesis import given, settings
from hypothesis import strategies as st

from ivtp import arbitration, consensus, identity, ledger, netsim, scenario, sim, vehicle

VECTORS = Path(__file__).resolve().parent.parent / "vectors"


class TestKeys:
    def test_keygen_deterministic(self):
        """Same seed, same keypair."""
        a = identity.keygen(b"\x01" * 32)
        b = identity.keygen(b"\x01" * 32)
        assert a.public_key == b.public_key
        assert a.secret_key == b.secret_key

    def test_distinct_seeds_distinct_keys(self):
        a = identity.keygen(identity.sha256(b"a"))
        b = identity.keygen(identity.sha256(b"b"))
        assert a.public_key != b.public_key

    def test_seed_length_enforced(self):
        with pytest.raises(ValueError, match="seed must be 32 bytes"):
            identity.keygen(b"short")

    def test_sign_verify_roundtrip(self):
        kp = identity.keygen(identity.sha256(b"k"))
        sig = identity.sign(kp, b"hello")
        assert len(sig) == identity.SIGNATURE_LEN
        assert identity.verify(kp.public_key, b"hello", sig)

    def test_tampered_message_fails(self):
        kp = identity.keygen(identity.sha256(b"k"))
        sig = identity.sign(kp, b"hello")
        assert not identity.verify(kp.public_key, b"hellp", sig)

    def test_wrong_key_fails(self):
        kp = identity.keygen(identity.sha256(b"k"))
        other = identity.keygen(identity.sha256(b"j"))
        sig = identity.sign(kp, b"hello")
        assert not identity.verify(other.public_key, b"hello", sig)

    def test_verify_never_raises_on_garbage(self):
        """Malformed signatures and keys report False, not exceptions."""
        kp = identity.keygen(identity.sha256(b"k"))
        assert not identity.verify(kp.public_key, b"m", b"")
        assert not identity.verify(kp.public_key, b"m", b"\x00" * 64)
        assert not identity.verify(b"\x00" * 32, b"m", b"\x00" * 64)
        assert not identity.verify(b"notakey", b"m", b"\x00" * 64)

    def test_signing_key_loaded_once_outside_equality(self):
        """The loaded private key is kept with the pair but is not part
        of its value: equal seeds still give equal, equally printed pairs."""
        a = identity.keygen(identity.sha256(b"k"))
        b = identity.keygen(identity.sha256(b"k"))
        assert identity.sign(a, b"m") == identity.sign(b, b"m")
        signer = vars(a)["_signer"]
        identity.sign(a, b"n")
        assert vars(a)["_signer"] is signer
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)

    def test_a_mismatched_public_key_does_not_change_the_signature(self):
        """The signing key comes from the seed alone, never from the pair's
        public_key."""
        seed = identity.sha256(b"k")
        odd = identity.KeyPair(secret_key=seed, public_key=identity.keygen(bytes(32)).public_key)
        assert identity.sign(odd, b"m") == identity.sign(identity.keygen(seed), b"m")

    def test_a_short_secret_key_is_refused_before_libsodium(self, monkeypatch):
        calls = []
        for name in ("_seed_keypair_c", "_sign_detached"):
            monkeypatch.setattr(identity, name, lambda *args: calls.append(args))
        kp = identity.KeyPair(secret_key=bytes(31), public_key=bytes(32))
        with pytest.raises(ValueError):
            identity.sign(kp, b"m")
        assert calls == [] and "_signer" not in vars(kp)

    def test_a_missing_libsodium_is_an_import_error_naming_it(self, monkeypatch):
        def missing(name):
            raise OSError(f"{name}: cannot open shared object file")

        monkeypatch.setattr(identity.ctypes, "CDLL", missing)
        with pytest.raises(ImportError, match="libsodium.so.23"):
            identity._load_sodium()

    def test_signatures_deterministic(self):
        """Identical inputs produce identical signatures, which the
        whole reproducibility contract leans on."""
        kp = identity.keygen(identity.sha256(b"k"))
        assert identity.sign(kp, b"m") == identity.sign(kp, b"m")


class TestKeyCache:
    """verify reads the key by its bytes at every call and keeps nothing:
    no loaded key, no verdict."""

    def test_a_loaded_key_still_checks_every_call(self):
        kp = identity.keygen(identity.sha256(b"k"))
        other = identity.keygen(identity.sha256(b"j"))
        sig = identity.sign(kp, b"hello")
        assert identity.verify(kp.public_key, b"hello", sig)
        assert not identity.verify(kp.public_key, b"hellp", sig)
        assert not identity.verify(kp.public_key, b"hello", identity.sign(other, b"hello"))
        assert not identity.verify(kp.public_key, b"hello", sig[:-1])
        assert not identity.verify(kp.public_key, b"hello", bytes(64))
        assert identity.verify(kp.public_key, b"hello", sig)

    def test_a_mutated_key_buffer_is_looked_up_by_its_new_bytes(self):
        kp = identity.keygen(identity.sha256(b"k"))
        other = identity.keygen(identity.sha256(b"j"))
        sig = identity.sign(other, b"hello")
        key = bytearray(kp.public_key)
        assert not identity.verify(key, b"hello", sig)
        key[:] = other.public_key
        assert identity.verify(key, b"hello", sig)
        key[0] ^= 0x01
        assert not identity.verify(key, b"hello", sig)


def reference_verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """cryptography's (OpenSSL's) Ed25519 check: plain RFC 8032, cofactorless."""
    try:
        ed25519.Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
    except (InvalidSignature, ValueError):
        return False
    return True


def flip_bit(data: bytes, bit: int) -> bytes:
    bit %= 8 * len(data)
    return data[: bit // 8] + bytes([data[bit // 8] ^ 1 << bit % 8]) + data[bit // 8 + 1 :]


_seeds = st.binary(min_size=32, max_size=32)
_messages = st.binary(min_size=1, max_size=300)


class TestAgainstCryptography:
    """cryptography is the independent reference: the same RFC 8032 keys
    and signatures byte for byte, and the same verdicts on honest and
    corrupted signatures. libsodium refuses more than OpenSSL, never less."""

    @given(_seeds, _messages)
    @settings(max_examples=300, deadline=None)
    def test_keys_and_signatures_are_the_references(self, seed, message):
        reference = ed25519.Ed25519PrivateKey.from_private_bytes(seed)
        kp = identity.keygen(seed)
        assert kp.public_key == reference.public_key().public_bytes_raw()
        assert identity.sign(kp, message) == reference.sign(message)

    @given(_seeds, _messages, st.sampled_from([None, "key", "signature", "message"]), st.integers(0))
    @settings(max_examples=600, deadline=None)
    def test_verdicts_are_the_references(self, seed, message, flipped, bit):
        kp = identity.keygen(seed)
        fields = {"key": kp.public_key, "message": message, "signature": identity.sign(kp, message)}
        if flipped is not None:
            fields[flipped] = flip_bit(fields[flipped], bit)
        args = fields["key"], fields["message"], fields["signature"]
        assert identity.verify(*args) == reference_verify(*args) == (flipped is None)

    def test_the_identity_point_forges_for_openssl_only(self):
        """A small-order key with a small-order R and S = 0 holds for every
        message under the cofactorless check; libsodium refuses both."""
        key, forged = b"\x01" + bytes(31), b"\x01" + bytes(63)
        for message in (b"", b"m", identity.sha256(b"any")):
            assert reference_verify(key, message, forged)
            assert not identity.verify(key, message, forged)


class TestOnce:
    class Lazy:
        def __init__(self, fields):
            self.fields, self.reads = fields, 0

        @identity.once
        def total(self):
            """The sum, made once."""
            self.reads += 1
            return sum(self.fields)

    def test_made_once_on_first_read(self):
        lazy = self.Lazy([1, 2])
        assert "total" not in vars(lazy)
        assert lazy.total == lazy.total == 3 and lazy.reads == 1
        assert vars(lazy)["total"] == 3
        assert self.Lazy.total.__doc__ == "The sum, made once."

    def test_a_preset_value_is_what_is_read(self):
        lazy = self.Lazy([1, 2])
        object.__setattr__(lazy, "total", 7)
        assert lazy.total == 7 and lazy.reads == 0

    def test_a_read_that_raises_keeps_nothing(self):
        lazy = self.Lazy([1, "x"])
        for _ in range(2):
            with pytest.raises(TypeError):
                lazy.total
        assert "total" not in vars(lazy) and lazy.reads == 2


def _samples() -> list:
    """One instance of every ivtp dataclass, most made as a run makes them,
    and a frame make_frame signs on the first read of its signature."""
    dealer = identity.DealerAuthority.from_name("dealer")
    chain = ledger.Chain.create(dealer, endowment=100_000, genesis_tf=0)
    kp = identity.keygen(identity.sha256(b"IV-1"))
    issuance = dealer.issue(kp.public_key)
    me = issuance.ivtp_id
    register = ledger.register_tx_from_issuance(issuance, dealer, tf=0)
    pending = consensus.PendingTx(tx=register)
    result = consensus.try_commit([pending], set(), chain, now=0)
    comm = ledger.sign_tx(ledger.CommTx(me, 1, b"", me, (me,), identity.sha256(b"m"), 1), kp)
    reward = ledger.sign_tx(ledger.RewardTx(me, 2, b"", me, dealer.dealer_id, 5, "fee"), kp)
    crossing = ledger.sign_tx(
        ledger.ArbitrationTx(me, 3, b"", "x-1", (me,), me, ((me, bytes(64)),)), kp
    )
    cfg = scenario.load_scenario(ROOT / "scenarios" / "intersection_table2.json")
    return [
        kp, issuance, dealer,
        ledger.Transaction(me, 0, b""), register, comm, reward, crossing,
        chain.tip, ledger.validate_chain(chain), chain.state,
        cfg.consensus, pending, result,
        arbitration.IntersectionSession("x-1", frozenset({me}), {me: 5}, me),
        cfg.network, cfg.ledger, cfg.vehicles[0], cfg.intersections[0], cfg.comms[0],
        cfg.run, cfg,
        sim.RunHandles(chain, {}, netsim.Network(cfg.network), {"ok": True}),
        vehicle.Frame(vehicle.KIND_BEACON, me, 4, b"{}", bytes(64)),
        vehicle.make_frame(vehicle.KIND_BEACON, kp, me, 5, b"{}"),
    ]


SAMPLES = _samples()


def _twin_class(cls: type) -> type:
    """cls's fields in a dataclass of cls's name with every method the
    stdlib generates."""
    return dataclasses.make_dataclass(
        cls.__name__,
        [
            (f.name, f.type, dataclasses.field(repr=f.repr, hash=f.hash, compare=f.compare))
            for f in dataclasses.fields(cls)
        ],
        frozen=cls.__dataclass_params__.frozen,
    )


def _twin(twin_class: type, obj):
    return twin_class(**{f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})


def _hashed(obj):
    try:
        return hash(obj)
    except TypeError:
        return TypeError


class TestSharedDataclassMethods:
    """identity.frozen and identity.mutable give every ivtp dataclass one
    shared ==, hash and repr. Each agrees with what dataclasses generates
    for the same fields: a twin made by make_dataclass."""

    def test_a_sample_of_every_dataclass(self):
        assert {type(obj) for obj in SAMPLES} == set(ivtp_dataclasses())

    @pytest.mark.parametrize("obj", SAMPLES, ids=lambda obj: type(obj).__name__)
    def test_agrees_with_the_generated_methods(self, obj):
        twin_class = _twin_class(type(obj))
        twin = _twin(twin_class, obj)
        assert repr(obj) == repr(twin)
        # One copy as it is, and one per field with that field changed:
        # a compare=False field (ValidationReport's) leaves == true.
        changed = [{}, *({f.name: object()} for f in dataclasses.fields(obj))]
        for change in changed:
            copy = dataclasses.replace(obj, **change)
            assert (obj == copy) is (twin == _twin(twin_class, copy))
            assert _hashed(copy) == _hashed(_twin(twin_class, copy))
        assert obj.__eq__(twin) is NotImplemented and twin.__eq__(obj) is NotImplemented
        assert obj != twin
        assert _hashed(obj) == _hashed(twin)
        if not type(obj).__dataclass_params__.frozen:
            assert type(obj).__hash__ is None
            with pytest.raises(TypeError):
                hash(obj)

    def test_comparing_a_make_frame_frame_signs_it(self):
        kp = identity.keygen(identity.sha256(b"IV-1"))
        fresh = [vehicle.make_frame(vehicle.KIND_BEACON, kp, bytes(32), 5, b"{}") for _ in "ab"]
        assert all("signature" not in vars(f) for f in fresh)
        assert fresh[0] == fresh[1]
        assert all(len(vars(f)["signature"]) == identity.SIGNATURE_LEN for f in fresh)

    def test_a_recursive_repr_reads_dots(self):
        classes = consensus.CommitResult, _twin_class(consensus.CommitResult)
        result, twin = (cls(None, [], []) for cls in classes)
        result.still_pending.append(result)
        twin.still_pending.append(twin)
        assert repr(result) == repr(twin)
        assert repr(result) == "CommitResult(block=None, still_pending=[...], rejected=[])"


class TestDerivation:
    def test_id_matches_manual_sha256(self):
        """Oracle: recompute the derivation with hashlib directly."""
        dealer_id = hashlib.sha256(b"dealer").digest()
        pk = identity.keygen(identity.sha256(b"v")).public_key
        expected = hashlib.sha256(dealer_id + pk + (7).to_bytes(8, "big")).digest()
        assert identity.ivtp_id_from(dealer_id, pk, 7) == expected

    def test_counter_changes_id(self):
        dealer_id = identity.sha256(b"dealer")
        pk = identity.keygen(identity.sha256(b"v")).public_key
        assert identity.ivtp_id_from(dealer_id, pk, 0) != identity.ivtp_id_from(
            dealer_id, pk, 1
        )

    @given(st.binary(min_size=32, max_size=32), st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=50)
    def test_id_is_32_bytes(self, pk, counter):
        dealer_id = identity.sha256(b"d")
        assert len(identity.ivtp_id_from(dealer_id, pk, counter)) == 32

    def test_frozen_identity_vectors(self):
        """The repo's golden vectors were produced by an independent
        hashlib+Ed25519 oracle; the library must reproduce them."""
        vec = json.loads((VECTORS / "identity.json").read_text())
        dealer = identity.DealerAuthority.from_name("dealer")
        assert dealer.dealer_id.hex() == vec["dealer"]["dealer_id"]
        for row in vec["identity"]:
            kp = identity.keygen(identity.sha256(row["alias"].encode()))
            assert kp.public_key.hex() == row["public_key"]
            issued = dealer.issue(kp.public_key)
            assert issued.counter == row["counter"]
            assert issued.ivtp_id.hex() == row["ivtp_id"]


class TestDealer:
    def test_sequential_issues_distinct(self):
        dealer = identity.DealerAuthority.from_name("d")
        a = dealer.issue(identity.keygen(identity.sha256(b"1")).public_key)
        b = dealer.issue(identity.keygen(identity.sha256(b"2")).public_key)
        assert a.ivtp_id != b.ivtp_id
        assert (a.counter, b.counter) == (0, 1)

    def test_duplicate_key_rejected(self):
        dealer = identity.DealerAuthority.from_name("d")
        pk = identity.keygen(identity.sha256(b"1")).public_key
        dealer.issue(pk)
        with pytest.raises(ValueError, match="already has an identity"):
            dealer.issue(pk)

    def test_binding_signature_verifies(self):
        dealer = identity.DealerAuthority.from_name("d")
        pk = identity.keygen(identity.sha256(b"1")).public_key
        issued = dealer.issue(pk)
        msg = identity.binding_message(issued.ivtp_id, pk)
        assert identity.verify(dealer.keypair.public_key, msg, issued.binding_sig)
