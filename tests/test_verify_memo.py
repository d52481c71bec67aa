"""The verification memo under identity.verify: exact-bytes keys, any
bytes-like input, one Ed25519 check per distinct triple in a run,
frames whose signing bytes are cached still fail closed, and beacons
and endorsements carry no signature but their frame's."""

import dataclasses
import struct
from pathlib import Path

import pytest

from ivtp import identity, ledger, netsim, scenario, sim
from ivtp.ledger import FieldOverflowError
from ivtp.vehicle import (
    KIND_BEACON,
    KIND_COMM,
    KIND_ENDORSE,
    Frame,
    Vehicle,
    make_frame,
    verify_frame,
)

from conftest import make_fleet

ROOT = Path(__file__).resolve().parent.parent


def _pair():
    """Two registered vehicles sharing one chain, off the network."""
    _, chain, ids, keys = make_fleet(2)
    return [Vehicle(veh, keys[veh], chain) for veh in ids]


@pytest.fixture
def signed():
    kp = identity.keygen(identity.sha256(b"memo"))
    message = b"status report from IV-1"
    return kp, message, identity.sign(kp, message)


class TestExactKeys:
    def test_one_byte_different_message_misses_the_memo(self, signed):
        kp, message, sig = signed
        assert identity.verify(kp.public_key, message, sig)
        for i in range(len(message)):
            tampered = bytearray(message)
            tampered[i] ^= 0x01
            assert not identity.verify(kp.public_key, bytes(tampered), sig)
        assert not identity.verify(kp.public_key, message + b"\x00", sig)
        assert not identity.verify(kp.public_key, message[:-1], sig)

    def test_other_key_misses_the_memo(self, signed):
        kp, message, sig = signed
        other = identity.keygen(identity.sha256(b"other"))
        assert identity.verify(kp.public_key, message, sig)
        assert not identity.verify(other.public_key, message, sig)

    def test_memo_is_bounded(self):
        assert identity._ed25519_verify.cache_info().maxsize == identity.VERIFY_MEMO_SIZE
        assert identity.VERIFY_MEMO_SIZE == 256


class TestBytesLike:
    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_verifies_exactly_as_bytes(self, signed, kind):
        kp, message, sig = signed
        other = identity.sign(kp, b"other message")
        for args in [
            (kp.public_key, message, sig),
            (kp.public_key, message, other),
            (kp.public_key, b"x" + message, sig),
            (b"\x00" * 32, message, sig),
            (kp.public_key, message, b""),
            (kp.public_key, message, sig[:-1]),
            (b"notakey", message, sig),
        ]:
            wrapped = [kind(bytearray(a)) for a in args]
            assert identity.verify(*wrapped) is identity.verify(*args)

    def test_mutated_buffer_is_checked_afresh(self, signed):
        """A cached verdict belongs to the bytes, not to the buffer."""
        kp, message, sig = signed
        buf = bytearray(message)
        assert identity.verify(kp.public_key, buf, sig)
        buf[0] ^= 0x01
        assert not identity.verify(kp.public_key, buf, sig)


def test_run_checks_each_distinct_triple_once(monkeypatch):
    real_verify = identity.verify
    calls = []

    def counting_verify(public_key, message, signature):
        calls.append((bytes(public_key), bytes(message), bytes(signature)))
        return real_verify(public_key, message, signature)

    monkeypatch.setattr(identity, "verify", counting_verify)
    identity._ed25519_verify.cache_clear()
    cfg = scenario.load_scenario(ROOT / "scenarios" / "intersection_table2.json")
    sim.run(cfg)
    info = identity._ed25519_verify.cache_info()
    assert info.misses == len(set(calls))
    assert len(calls) > info.misses
    assert info.hits == len(calls) - info.misses


class TestCachedSigningBytes:
    def test_signing_bytes_cached_outside_equality(self):
        kp = identity.keygen(identity.sha256(b"v"))
        f = make_frame(KIND_BEACON, kp, b"\x05" * 32, 12, b"{}")
        g = dataclasses.replace(f)
        assert f.signing_bytes is f.signing_bytes
        assert "signing_bytes" in vars(f) and "signing_bytes" not in vars(g)
        assert f == g and hash(f) == hash(g)
        assert "signing_bytes" not in repr(f)

    def test_make_frame_hands_its_encoding_to_the_signed_frame(self):
        kp = identity.keygen(identity.sha256(b"v"))
        f = make_frame(KIND_COMM, kp, b"\x05" * 32, 12, b"{}")
        assert "signing_bytes" in vars(f)
        assert f.signing_bytes == dataclasses.replace(f).signing_bytes
        assert verify_frame(f, kp.public_key)
        with pytest.raises(FieldOverflowError):
            make_frame(KIND_COMM, kp, b"\x05" * 31, 12, b"{}")
        with pytest.raises(FieldOverflowError):
            make_frame(300, kp, b"\x05" * 32, 12, b"{}")

    def test_signing_bytes_are_pinned(self):
        """kind (u8), sender (32 bytes), tf (u64), u32-prefixed payload."""
        payload = '{"é":1}'.encode()
        f = Frame(KIND_COMM, b"\x05" * 32, 2**33 + 7, payload)
        assert f.signing_bytes == struct.pack(
            ">B32sQI", KIND_COMM, b"\x05" * 32, 2**33 + 7, len(payload)
        ) + payload

    def test_forged_frame_drops_after_the_original_is_cached(self):
        a, b = _pair()
        f = make_frame(KIND_BEACON, b.keypair, b.ivtp_id, 0, b"{}")
        assert a.on_receive(f, 0) == [] and a.drop_count == 0
        for forged in (
            dataclasses.replace(f, tf=999),
            dataclasses.replace(f, payload=b"{ }"),
            dataclasses.replace(f, signature=bytes(64)),
        ):
            a.on_receive(forged, 0)
        assert a.drops == {"bad_signature": 3}

    def test_malformed_frame_drops_every_time(self):
        """A frame that cannot be encoded has no signing bytes to cache:
        each check fails again and drops as bad_signature, never raises."""
        a, b = _pair()
        good = make_frame(KIND_COMM, b.keypair, b.ivtp_id, 0, b"{}")
        bad = Frame(kind=300, sender=b.ivtp_id, tf=0, payload=b"{}", signature=good.signature)
        for _ in range(2):
            assert not verify_frame(bad, b.keypair.public_key)
            assert a.on_receive(bad, 0) == []
            assert "signing_bytes" not in vars(bad)
        assert a.drops == {"bad_signature": 2}


def test_beacons_and_endorsements_are_signed_once(monkeypatch):
    """intersection_table2: each beacon and endorse frame costs one
    identity.sign, its own. Every other signature made or checked in the
    run belongs to a frame, a transaction, an agreement or a dealer
    binding: no inner beacon transaction, no endorsement message."""
    signed, verified, frames = [], [], []
    real_sign, real_verify = identity.sign, identity.verify
    real_broadcast = netsim.Network.broadcast

    def sign(kp, message):
        signed.append(bytes(message))
        return real_sign(kp, message)

    def verify(public_key, message, signature):
        verified.append(bytes(message))
        return real_verify(public_key, message, signature)

    def broadcast(self, frame, at):
        frames.append(frame)
        return real_broadcast(self, frame, at)

    monkeypatch.setattr(identity, "sign", sign)
    monkeypatch.setattr(identity, "verify", verify)
    monkeypatch.setattr(netsim.Network, "broadcast", broadcast)
    handles = sim.run(scenario.load_scenario(ROOT / "scenarios" / "intersection_table2.json"))

    once = [f for f in frames if f.kind in (KIND_BEACON, KIND_ENDORSE)]
    assert {f.kind for f in once} == {KIND_BEACON, KIND_ENDORSE}
    assert all(signed.count(f.signing_bytes) == 1 for f in once)

    txs = [tx for block in handles.chain.blocks for tx in block.txs]
    txs += [tx for veh in handles.vehicles.values() for tx in veh.submitted]
    known = {f.signing_bytes for f in frames}
    known |= {ledger.tx_signing_bytes(tx) for tx in txs}
    known |= {
        identity.binding_message(tx.ivtp_id, tx.vehicle_pk)
        for tx in txs
        if isinstance(tx, ledger.RegisterTx)
    }

    def accounted(message):
        return message in known or message.startswith(b"ivtp/agree")

    assert [m for m in signed if not accounted(m)] == []
    assert [m for m in verified if not accounted(m)] == []
