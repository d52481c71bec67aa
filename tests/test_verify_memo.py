"""Verdict slots: each signed object (a frame, a transaction, the
agreements of an arbitration) keeps the verdict of its signature check,
so every receiver and every replay shares one Ed25519 check per object
and key. identity.verify itself is the plain check over any bytes-like
input. Also: frames whose signing bytes are cached still fail closed,
and beacons and endorsements carry no signature but their frame's."""

import dataclasses
import json
import struct
from pathlib import Path

import pytest

from ivtp import identity, ledger, netsim, scenario, sim
from ivtp.ledger import FieldOverflowError
from ivtp.vehicle import (
    DECODE_ERRORS,
    KIND_BEACON,
    KIND_COMM,
    KIND_ENDORSE,
    Frame,
    Vehicle,
    make_frame,
    verify_frame,
)

from conftest import Meter, counting_ed25519, make_fleet, signed_comm

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "vectors" / "runs.json").read_text())


def _pair():
    """Two registered vehicles sharing one chain, off the network."""
    _, chain, ids, keys = make_fleet(2)
    return [Vehicle(veh, keys[veh], chain) for veh in ids]


@pytest.fixture
def signed():
    kp = identity.keygen(identity.sha256(b"memo"))
    message = b"status report from IV-1"
    return kp, message, identity.sign(kp, message)


@pytest.fixture
def ed25519_verifies():
    """A Meter of the Ed25519 verifies made, counted where
    identity.verify calls into cryptography."""
    with counting_ed25519(Meter()) as meter:
        yield meter


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
        """identity.verify keeps nothing: a buffer is checked as it is."""
        kp, message, sig = signed
        buf = bytearray(message)
        assert identity.verify(kp.public_key, buf, sig)
        buf[0] ^= 0x01
        assert not identity.verify(kp.public_key, buf, sig)


# Real Ed25519 verifies in each locked run. The ledger checks an
# arbitration's agreements again after its proposer checked each one on
# arrival (Vehicle._on_agree); every other signature is checked once,
# but for an endorse frame that reaches every receiver only after its
# transaction is on the chain, which is never checked (Endpoint.heeds).
LOCKED_RUN_VERIFIES = {
    "broadcast_round": 75,
    "intersection_table2": 116,
    "lossy_total": 10,
    "synthetic_n4": 126,
    "synthetic_n8": 264,
    "synthetic_n16": 597,
    "synthetic_n32": 1655,
    "synthetic_n64": 4755,
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_ed25519_verifies_per_locked_run(name, locked_run, ed25519_verifies):
    handles, ed25519_verifies.count = locked_run(name)  # counted during the run
    assert handles.report["trace_digest"] == GOLDEN[name]["trace.jsonl"]
    assert ed25519_verifies() == LOCKED_RUN_VERIFIES[name]
    # Replaying the chain reuses the verdicts its transactions carry:
    # only the dealer bindings of the registrations are checked again.
    registrations = sum(
        isinstance(tx, ledger.RegisterTx) for b in handles.chain.blocks for tx in b.txs
    )
    assert ledger.validate_chain(handles.chain).ok
    assert ed25519_verifies() == LOCKED_RUN_VERIFIES[name] + registrations


class TestFrameVerdict:
    def test_each_key_is_checked_afresh(self, ed25519_verifies):
        """A verdict is reused only for the key it was reached under."""
        a, b = _pair()
        f = make_frame(KIND_BEACON, b.keypair, b.ivtp_id, 0, b"{}")
        ed25519_verifies.reset()
        assert verify_frame(f, b.keypair.public_key) and ed25519_verifies() == 1
        assert verify_frame(f, b.keypair.public_key) and ed25519_verifies() == 1
        assert not verify_frame(f, a.keypair.public_key) and ed25519_verifies() == 2
        assert not verify_frame(f, a.keypair.public_key) and ed25519_verifies() == 2
        assert verify_frame(f, b.keypair.public_key) and ed25519_verifies() == 3

    def test_replaced_frame_carries_no_verdict(self, ed25519_verifies):
        _a, b = _pair()
        f = make_frame(KIND_BEACON, b.keypair, b.ivtp_id, 0, b"{}")
        ed25519_verifies.reset()
        assert verify_frame(f, b.keypair.public_key)
        for g in (dataclasses.replace(f), dataclasses.replace(f, tf=1)):
            assert "_sig_verdict" not in vars(g)
        assert not verify_frame(dataclasses.replace(f, tf=1), b.keypair.public_key)
        assert ed25519_verifies() == 2

    def test_verdict_stays_out_of_eq_hash_and_repr(self):
        _a, b = _pair()
        f = make_frame(KIND_BEACON, b.keypair, b.ivtp_id, 0, b"{}")
        twin = dataclasses.replace(f)
        before = repr(f)
        assert verify_frame(f, b.keypair.public_key) and "_sig_verdict" in vars(f)
        assert f == twin and hash(f) == hash(twin)
        assert repr(f) == repr(twin) == before

    def test_forged_endorse_frames_drop_at_every_receiver(self, ed25519_verifies):
        """A vehicle discards an endorse frame after its check, and the
        check is shared: still, each receiver, the ledger host included,
        writes the drop row of a forged one, and the host pools nothing. A refused
        signature costs one Ed25519 verify, however many receive it."""
        net, _chain, vehicles, host, ghost_kp, ghost = _endorse_net()
        iv1 = vehicles[0]
        genuine = iv1._frame(KIND_ENDORSE, 5, b"\x07" * 32, "valid")
        forged = dataclasses.replace(genuine, payload=genuine.payload + b" ")
        unknown = make_frame(KIND_ENDORSE, ghost_kp, ghost.ivtp_id, 5, genuine.payload)
        ed25519_verifies.reset()
        for f in (forged, unknown):
            net.broadcast(f, 5)
        net.run_until(5)
        drops = sorted(
            (r["vehicle"], r["detail"]["reason"]) for r in net.trace if r["dir"] == "drop"
        )
        assert drops == sorted(
            [("IV-2", "bad_signature"), ("IV-3", "bad_signature"), ("host", "bad_signature")]
            + [(f"IV-{i}", "unknown_sender") for i in (1, 2, 3)]
            + [("host", "unknown_sender")]
        )
        assert [v.drops.total() for v in vehicles] == [1, 2, 2]
        assert host.early_endorsements == {}
        assert ed25519_verifies() == 1
        # The genuine frame reaches the host's pool.
        net.broadcast(genuine, 6)
        net.run_until(6)
        assert list(host.early_endorsements) == [b"\x07" * 32]


class _Silent:
    """A participant that is on the network but not on the chain."""

    def __init__(self, ivtp_id):
        self.ivtp_id = ivtp_id

    def heeds(self, frame):
        return True

    def handle_frame(self, frame, now):
        return []

    def handle_timer(self, tag, now):
        return []


def _endorse_net():
    """Three registered vehicles IV-1..IV-3, the ledger host and an
    unregistered "ghost" on one network, with no latency, each named by
    its alias in the trace."""
    _dealer, chain, ids, keys = make_fleet(3)
    net = netsim.Network()
    vehicles = [Vehicle(veh, keys[veh], chain, alias=f"IV-{i + 1}") for i, veh in enumerate(ids)]
    host = sim.LedgerHost(chain)
    for member in (*vehicles, host):
        net.names[member.ivtp_id] = member.alias
        member.net = net
        net.join(member)
    ghost_kp = identity.keygen(identity.sha256(b"ghost"))
    ghost = _Silent(identity.sha256(b"ghost"))
    net.names[ghost.ivtp_id] = "ghost"
    net.join(ghost)
    return net, chain, vehicles, host, ghost_kp, ghost


class TestEndorsementOfCommittedTx:
    """An endorse frame whose transaction is already on the chain can
    change nothing anywhere: a registered sender's one that reads is
    heard (a recv row at every receiver) but reaches no handle_frame and
    costs no Ed25519 verify. Every other endorse frame is checked and
    dropped as before."""

    @pytest.fixture
    def world(self, monkeypatch):
        net, chain, vehicles, host, ghost_kp, ghost = _endorse_net()
        author = vehicles[1]
        tx = signed_comm(author.keypair, author.ivtp_id)
        block, refused = chain.append_block([tx], timestamp=1)
        assert block is not None and not refused
        handled = []
        for cls in (Vehicle, sim.LedgerHost):
            inner = cls.handle_frame

            def counted(self, f, now, inner=inner):
                handled.append(self.alias)
                return inner(self, f, now)

            monkeypatch.setattr(cls, "handle_frame", counted)
        return net, vehicles, host, ghost_kp, ghost, tx.tx_id, handled

    @staticmethod
    def _rows(net, direction):
        return sorted(
            (r["vehicle"], r["detail"].get("reason")) for r in net.trace if r["dir"] == direction
        )

    @staticmethod
    def _unchanged(vehicles, host):
        assert [v.drops.total() for v in vehicles] + [host.drops.total()] == [0, 0, 0, 0]
        assert host.pending == {} and host.early_endorsements == {}

    def test_is_heard_but_not_checked(self, world, ed25519_verifies):
        net, vehicles, host, _ghost_kp, _ghost, tx_id, handled = world
        heard = vehicles[0]._frame(KIND_ENDORSE, 5, tx_id, "valid")
        assert not any(e.heeds(heard) for e in (*vehicles, host))
        ed25519_verifies.reset()
        net.broadcast(heard, 5)
        net.run_until(5)
        assert self._rows(net, "recv") == [
            ("IV-2", None), ("IV-3", None), ("ghost", None), ("host", None),
        ]
        assert handled == [] and ed25519_verifies() == 0
        assert self._rows(net, "drop") == []
        self._unchanged(vehicles, host)
        # An endorsement of a transaction not on the chain is checked.
        pending = vehicles[0]._frame(KIND_ENDORSE, 6, b"\x07" * 32, "valid")
        net.broadcast(pending, 6)
        net.run_until(6)
        assert sorted(handled) == ["IV-2", "IV-3", "host"] and ed25519_verifies() == 1
        assert list(host.early_endorsements) == [b"\x07" * 32]

    def test_unregistered_sender_still_drops_everywhere(self, world, ed25519_verifies):
        net, vehicles, host, ghost_kp, ghost, tx_id, handled = world
        payload = vehicles[0]._frame(KIND_ENDORSE, 5, tx_id, "valid").payload
        unknown = make_frame(KIND_ENDORSE, ghost_kp, ghost.ivtp_id, 5, payload)
        assert all(e.heeds(unknown) for e in (*vehicles, host))
        ed25519_verifies.reset()
        net.broadcast(unknown, 5)
        net.run_until(5)
        everyone = ["IV-1", "IV-2", "IV-3", "host"]
        assert sorted(handled) == everyone
        assert self._rows(net, "drop") == [(name, "unknown_sender") for name in everyone]
        assert ed25519_verifies() == 0
        assert host.early_endorsements == {}

    def test_unreadable_payload_drops_as_before(self, world, ed25519_verifies):
        """A payload that does not decode is checked: signed, only the
        host reads it (bad_payload); forged, every receiver drops it."""
        net, vehicles, host, _ghost_kp, _ghost, tx_id, handled = world
        iv1 = vehicles[0]
        payload = iv1._frame(KIND_ENDORSE, 5, tx_id, "valid").payload + b"\x00"
        signed = make_frame(KIND_ENDORSE, iv1.keypair, iv1.ivtp_id, 5, payload)
        forged = dataclasses.replace(signed, signature=bytes(64))
        with pytest.raises(DECODE_ERRORS) as unread:
            dataclasses.replace(signed).body
        assert all(e.heeds(f) for e in (*vehicles, host) for f in (signed, forged))
        ed25519_verifies.reset()
        for t, f in enumerate((signed, forged), start=5):
            net.broadcast(f, t)
            net.run_until(t)
        assert self._rows(net, "drop") == [
            ("IV-2", "bad_signature"),
            ("IV-3", "bad_signature"),
            ("host", f"bad_payload:{unread.value}"),
            ("host", "bad_signature"),
        ]
        assert sorted(handled) == ["IV-2", "IV-2", "IV-3", "IV-3", "host", "host"]
        assert ed25519_verifies() == 2
        assert host.pending == {} and host.early_endorsements == {}

    def test_forged_frame_is_ignored_unchecked(self, world, ed25519_verifies):
        """The one frame whose fate differs from a full check: a forged
        endorsement of a committed transaction from a registered id
        writes recv rows and nothing else, no bad_signature row."""
        net, vehicles, host, _ghost_kp, _ghost, tx_id, handled = world
        iv1, iv2 = vehicles[:2]
        genuine = iv1._frame(KIND_ENDORSE, 5, tx_id, "invalid")
        forgeries = (
            dataclasses.replace(genuine, signature=bytes(64)),
            make_frame(KIND_ENDORSE, iv2.keypair, iv1.ivtp_id, 5, genuine.payload),
        )
        pk = iv1.keypair.public_key
        assert not any(identity.verify(pk, f.signing_bytes, f.signature) for f in forgeries)
        ed25519_verifies.reset()
        for forged in forgeries:
            net.broadcast(forged, 5)
        net.run_until(5)
        assert handled == [] and ed25519_verifies() == 0
        assert self._rows(net, "drop") == [] and net.trace.counts["recv"] == 8
        self._unchanged(vehicles, host)


def _state(*registrations):
    """A bare ledger state with these (id, public key) registrations."""
    return ledger.LedgerState(endowment=0, registrations=dict(registrations))


class TestTxVerdict:
    def test_each_key_is_checked_afresh(self, ed25519_verifies):
        a, b = _pair()
        tx = signed_comm(a.keypair, a.ivtp_id)
        under_a = _state((a.ivtp_id, a.keypair.public_key))
        under_b = _state((a.ivtp_id, b.keypair.public_key))
        ed25519_verifies.reset()
        assert under_a.check_tx(tx, 1) is None and ed25519_verifies() == 1
        assert under_a.check_tx(tx, 1) is None and ed25519_verifies() == 1
        assert under_b.check_tx(tx, 1) == "bad_signature" and ed25519_verifies() == 2
        assert under_a.check_tx(tx, 1) is None and ed25519_verifies() == 3

    def test_agreements_keep_their_own_verdict(self, ed25519_verifies):
        """The agreements are checked again when a voter's key differs,
        and the tx signature is not."""
        a, b = _pair()
        ordering = (a.ivtp_id, b.ivtp_id)
        vote = identity.sign(b.keypair, ledger.agree_message("x-1", ordering))
        tx = ledger.sign_tx(
            ledger.ArbitrationTx(
                author=a.ivtp_id, tf=1, signature=b"", intersection_id="x-1",
                ordering=ordering, proposer=a.ivtp_id, agreements=((b.ivtp_id, vote),),
            ),
            a.keypair,
        )
        a_pk, b_pk = a.keypair.public_key, b.keypair.public_key
        honest = _state((a.ivtp_id, a_pk), (b.ivtp_id, b_pk))
        rekeyed = _state((a.ivtp_id, a_pk), (b.ivtp_id, a_pk))
        ed25519_verifies.reset()
        assert honest.check_tx(tx, 1) is None and ed25519_verifies() == 2
        assert rekeyed.check_tx(tx, 1) == "bad_agreement_signature" and ed25519_verifies() == 3
        assert rekeyed.check_tx(tx, 1) == "bad_agreement_signature" and ed25519_verifies() == 3
        assert honest.check_tx(tx, 1) is None and ed25519_verifies() == 4

    def test_replaced_tx_carries_no_verdict(self, ed25519_verifies):
        a, _b = _pair()
        tx = signed_comm(a.keypair, a.ivtp_id)
        ed25519_verifies.reset()
        assert tx._sig_verdict is None
        assert a.chain.state.check_tx(tx, 2) is None
        assert tx._sig_verdict == a.keypair.public_key
        for twin in (dataclasses.replace(tx), ledger.canonical_decode(ledger.canonical_encode(tx))):
            assert twin._sig_verdict is None
            assert a.chain.state.check_tx(twin, 2) is None
        assert ed25519_verifies() == 3

    def test_verdict_stays_out_of_eq_hash_and_repr(self):
        a, _b = _pair()
        tx = signed_comm(a.keypair, a.ivtp_id)
        twin = dataclasses.replace(tx)
        before = repr(tx)
        assert a.chain.state.check_tx(tx, 2) is None and tx._sig_verdict is not None
        assert tx == twin and hash(tx) == hash(twin)
        assert repr(tx) == repr(twin) == before
        assert "_sig_verdict" not in {f.name for f in dataclasses.fields(tx)}

    def test_failed_verdict_is_reused_and_refused_every_time(self, ed25519_verifies):
        a, b = _pair()
        forged = dataclasses.replace(signed_comm(b.keypair, a.ivtp_id))  # wrong signer
        state = a.chain.state
        ed25519_verifies.reset()
        assert [state.check_tx(forged, 2) for _ in range(3)] == ["bad_signature"] * 3
        assert ed25519_verifies() == 1
        assert a.chain.append_block([forged], timestamp=5) == (None, [(forged, "bad_signature")])
        assert ed25519_verifies() == 1
        assert forged.tx_id not in a.chain.tx_by_id
        assert not any(forged in block.txs for block in a.chain.blocks)
        assert ledger.validate_chain(a.chain).state == a.chain.state


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
        assert a.handle_frame(f, 0) == [] and a.drop_count == 0
        for forged in (
            dataclasses.replace(f, tf=999),
            dataclasses.replace(f, payload=b"{ }"),
            dataclasses.replace(f, signature=bytes(64)),
        ):
            a.handle_frame(forged, 0)
        assert a.drops == {"bad_signature": 3}

    def test_malformed_frame_drops_every_time(self):
        """A frame that cannot be encoded has no signing bytes to cache:
        each check fails again and drops as bad_signature, never raises."""
        a, b = _pair()
        good = make_frame(KIND_COMM, b.keypair, b.ivtp_id, 0, b"{}")
        bad = Frame(kind=300, sender=b.ivtp_id, tf=0, payload=b"{}", signature=good.signature)
        for _ in range(2):
            assert not verify_frame(bad, b.keypair.public_key)
            assert a.handle_frame(bad, 0) == []
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
