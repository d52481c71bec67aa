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
from ivtp.ledger import CorruptChainFileError, FieldOverflowError
from ivtp.vehicle import (
    KIND_BEACON,
    KIND_COMM,
    KIND_ENDORSE,
    KIND_LABELS,
    KIND_SCHEDULE,
    Frame,
    Vehicle,
    encode_payload,
    make_frame,
    verify_frame,
)

from conftest import Meter, counting_ed25519, counting_signs, make_fleet, signed_comm

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
def signs():
    """A Meter of the identity.sign calls made."""
    with counting_signs(Meter()) as meter:
        yield meter


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
        """identity.verify keeps no verdict: a buffer is checked as it is."""
        kp, message, sig = signed
        buf = bytearray(message)
        assert identity.verify(kp.public_key, buf, sig)
        buf[0] ^= 0x01
        assert not identity.verify(kp.public_key, buf, sig)


# Real Ed25519 verifies in each locked run. The ledger checks an
# arbitration's agreements again after its proposer checked each one on
# arrival (Vehicle._on_agree); every other signature is checked once, at
# the first receiver that acts on it. Nobody checks an endorse frame that
# reaches the ledger host only after its transaction is on the chain, or
# not at all: vehicles skip endorse frames, and the host the session
# kinds, unchecked (Endpoint.heeds).
LOCKED_RUN_VERIFIES = {
    "broadcast_round": 74,
    "intersection_table2": 116,
    "lossy_total": 10,
    "synthetic_n4": 123,
    "synthetic_n8": 251,
    "synthetic_n16": 543,
    "synthetic_n32": 1415,
    "synthetic_n64": 3738,
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_ed25519_verifies_per_locked_run(name, locked_run, ed25519_verifies):
    handles, ed25519_verifies.count, _signs = locked_run(name)  # counted during the run
    assert handles.report["trace_digest"] == GOLDEN[name]["trace.jsonl"]
    assert ed25519_verifies() == LOCKED_RUN_VERIFIES[name]
    # Replaying the chain reuses the verdicts its transactions carry:
    # only the dealer bindings of the registrations are checked again.
    registrations = sum(
        isinstance(tx, ledger.RegisterTx) for b in handles.chain.blocks for tx in b.txs
    )
    assert ledger.validate_chain(handles.chain).ok
    assert ed25519_verifies() == LOCKED_RUN_VERIFIES[name] + registrations


# Ed25519 signs (identity.sign calls) in each locked run: one per
# transaction, agreement and dealer binding, and one per frame that some
# endpoint checked. make_frame's frame is signed on the first read of its
# signature, so a frame that no endpoint checks is never signed.
LOCKED_RUN_SIGNS = {
    "broadcast_round": 74,
    "intersection_table2": 113,
    "lossy_total": 10,
    "synthetic_n4": 120,
    "synthetic_n8": 251,
    "synthetic_n16": 544,
    "synthetic_n32": 1411,
    "synthetic_n64": 3738,
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_ed25519_signs_per_locked_run(name, locked_run):
    handles, _verifies, signs = locked_run(name)
    assert handles.report["trace_digest"] == GOLDEN[name]["trace.jsonl"]
    assert signs == LOCKED_RUN_SIGNS[name]


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

    def test_forged_endorse_frame_drops_at_the_host_only(self, ed25519_verifies):
        """Only the ledger host acts on an endorse frame, so only the host
        checks a registered sender's one: a forged one drops there as
        bad_signature, for one Ed25519 verify, and the host pools nothing.
        Vehicles skip it unchecked. An unregistered sender's drops at every
        receiver as unknown_sender."""
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
            [("host", "bad_signature")]
            + [(f"IV-{i}", "unknown_sender") for i in (1, 2, 3)]
            + [("host", "unknown_sender")]
        )
        assert [v.drops.total() for v in vehicles] == [1, 1, 1]
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
    costs no Ed25519 verify. Vehicles skip every registered sender's
    endorse frame so; the host checks every other one, and an
    unregistered sender's drops everywhere."""

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
        # An endorsement of a transaction not on the chain is checked by
        # the host, the one endpoint that pools endorsements.
        pending = vehicles[0]._frame(KIND_ENDORSE, 6, b"\x07" * 32, "valid")
        net.broadcast(pending, 6)
        net.run_until(6)
        assert handled == ["host"] and ed25519_verifies() == 1
        assert list(host.early_endorsements) == [b"\x07" * 32]

    def test_is_never_signed(self, world, signs):
        """A frame no endpoint checks costs its sender no sign either; the
        host's check of the pending endorsement signs that one."""
        net, vehicles, _host, _ghost_kp, _ghost, tx_id, handled = world
        heard = vehicles[0]._frame(KIND_ENDORSE, 5, tx_id, "valid")
        pending = vehicles[0]._frame(KIND_ENDORSE, 5, b"\x07" * 32, "valid")
        signs.reset()
        for f in (heard, pending):
            net.broadcast(f, 5)
        net.run_until(5)
        assert handled == ["host"] and signs() == 1
        assert "_signer" in vars(heard) and "_signer" not in vars(pending)

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
        """A payload that does not decode is checked by the host, which
        drops it as bad_payload when signed and bad_signature when forged;
        vehicles skip both unchecked."""
        net, vehicles, host, _ghost_kp, _ghost, tx_id, handled = world
        iv1 = vehicles[0]
        payload = iv1._frame(KIND_ENDORSE, 5, tx_id, "valid").payload + b"\x00"
        signed = make_frame(KIND_ENDORSE, iv1.keypair, iv1.ivtp_id, 5, payload)
        forged = dataclasses.replace(signed, signature=bytes(64))
        with pytest.raises(CorruptChainFileError) as unread:
            dataclasses.replace(signed).body
        assert all(host.heeds(f) for f in (signed, forged))
        assert not any(v.heeds(f) for v in vehicles for f in (signed, forged))
        ed25519_verifies.reset()
        for t, f in enumerate((signed, forged), start=5):
            net.broadcast(f, t)
            net.run_until(t)
        assert self._rows(net, "drop") == [
            ("host", f"bad_payload:{unread.value}"),
            ("host", "bad_signature"),
        ]
        assert handled == ["host", "host"]
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


# The known kinds each endpoint has no handler for: a registered sender's
# frame of one reaches no handle_frame and costs no Ed25519 verify.
UNHANDLED = {"vehicle": {"endorse"}, "host": {"intent", "schedule", "agree", "disagree"}}


class TestUnhandledKinds:
    """An endpoint checks a frame only where it acts on it: it skips,
    unchecked, a registered sender's frame of a known kind it has no
    handler for. An unregistered sender's frame and an unknown kind are
    still heeded, and dropped by the pipeline."""

    @pytest.fixture(scope="class")
    def world(self):
        return _endorse_net()

    @pytest.mark.parametrize("registered", [True, False], ids=["registered", "unregistered"])
    @pytest.mark.parametrize("endpoint", sorted(UNHANDLED))
    @pytest.mark.parametrize(
        "kind", [*KIND_LABELS, 99], ids=lambda k: KIND_LABELS.get(k, "kind-99")
    )
    def test_heeds(self, world, kind, endpoint, registered):
        _net, _chain, vehicles, host, ghost_kp, ghost = world
        receiver = host if endpoint == "host" else vehicles[1]
        if registered:
            sender_kp, sender = vehicles[0].keypair, vehicles[0].ivtp_id
        else:
            sender_kp, sender = ghost_kp, ghost.ivtp_id
        # An endorsement of a transaction not on the chain; heeds reads no
        # other kind's payload.
        payload = b""
        if kind == KIND_ENDORSE:
            payload = encode_payload(KIND_ENDORSE, b"\x07" * 32, "valid")
        f = make_frame(kind, sender_kp, sender, 5, payload)
        skipped = registered and KIND_LABELS.get(kind) in UNHANDLED[endpoint]
        assert receiver.heeds(f) is not skipped

    @pytest.mark.parametrize("name", sorted(p.stem for p in (ROOT / "scenarios").glob("*.json")))
    def test_locked_run_hands_no_endpoint_a_kind_it_has_no_handler_for(self, name, monkeypatch):
        """Each endpoint's handle_frame gets every kind it heard but
        those it has no handler for, with every byte of the run locked."""
        handed = {"vehicle": set(), "host": set()}
        for endpoint, cls in (("vehicle", Vehicle), ("host", sim.LedgerHost)):
            inner = cls.handle_frame

            def counted(self, f, now, inner=inner, kinds=handed[endpoint]):
                kinds.add(f.kind_label)
                return inner(self, f, now)

            monkeypatch.setattr(cls, "handle_frame", counted)
        handles = sim.run(scenario.load_scenario(ROOT / "scenarios" / f"{name}.json"))
        assert handles.report["trace_digest"] == GOLDEN[name]["trace.jsonl"]
        heard = {"vehicle": set(), "host": set()}
        for row in handles.net.trace:
            if row["dir"] == "recv":
                heard["host" if row["vehicle"] == "host" else "vehicle"].add(row["kind"])
        for endpoint, kinds in handed.items():
            assert kinds == heard[endpoint] - UNHANDLED[endpoint]

    def test_forged_schedule_frame_drops_at_every_vehicle_only(self, ed25519_verifies):
        """The host has no schedule handler: a forged schedule frame from
        a registered id costs it no check and writes no drop row there,
        while every vehicle that hears it drops it, for one verify."""
        net, _chain, vehicles, host, _ghost_kp, _ghost = _endorse_net()
        iv1 = vehicles[0]
        genuine = iv1._frame(KIND_SCHEDULE, 5, "x-1", 0, (iv1.ivtp_id,))
        forged = dataclasses.replace(genuine, signature=bytes(64))
        ed25519_verifies.reset()
        net.broadcast(forged, 5)
        net.run_until(5)
        rows = sorted((r["vehicle"], r["dir"], r["detail"].get("reason")) for r in net.trace)
        assert rows == [
            ("IV-1", "send", None),
            ("IV-2", "drop", "bad_signature"),
            ("IV-2", "recv", None),
            ("IV-3", "drop", "bad_signature"),
            ("IV-3", "recv", None),
            ("ghost", "recv", None),
            ("host", "recv", None),
        ]
        assert host.drops.total() == 0 and ed25519_verifies() == 1

    @pytest.mark.parametrize(
        "endpoint, kind", [("vehicle", KIND_ENDORSE), ("host", KIND_SCHEDULE)]
    )
    def test_direct_call_with_a_kind_it_has_no_handler_for(self, endpoint, kind, monkeypatch):
        """handle_frame called directly, as the network never calls it
        (heeds skips the frame), with a well-signed frame of a kind the
        endpoint has no handler for and a garbage payload: it returns [],
        writes no drop row and never reads the payload."""
        net, _chain, vehicles, host, _ghost_kp, _ghost = _endorse_net()
        receiver = host if endpoint == "host" else vehicles[1]
        f = make_frame(kind, vehicles[0].keypair, vehicles[0].ivtp_id, 5, b"\xffgarbage")
        reads, decode_exact = [], ledger.decode_exact

        def counted(*args):
            reads.append(args)
            return decode_exact(*args)

        monkeypatch.setattr(ledger, "decode_exact", counted)
        assert receiver.handle_frame(f, 5) == []
        assert reads == [] and "body" not in vars(f)
        assert verify_frame(f, vehicles[0].keypair.public_key)  # checked: well signed
        assert receiver.drops == {} and [r for r in net.trace if r["dir"] == "drop"] == []
        with pytest.raises(CorruptChainFileError):
            f.body  # the payload would not have read

    def test_each_class_has_its_own_table(self):
        """A Vehicle subclass that defines _on_endorse heeds a registered
        sender's endorse frame of a pending transaction and runs its
        handler on it, while a plain Vehicle still skips the frame."""
        heard = []

        class Endorsing(Vehicle):
            def _on_endorse(self, f, now):
                heard.append((self.alias, f.body, now))
                return []

        _dealer, chain, ids, keys = make_fleet(3)
        sender, plain = (Vehicle(veh, keys[veh], chain) for veh in ids[:2])
        endorsing = Endorsing(ids[2], keys[ids[2]], chain, alias="IV-3")
        tx = signed_comm(plain.keypair, plain.ivtp_id)  # pending: not on the chain
        f = sender._frame(KIND_ENDORSE, 5, tx.tx_id, "valid")
        assert endorsing.heeds(f) and not plain.heeds(f)
        assert endorsing.handle_frame(f, 6) == [] and endorsing.drops == {}
        assert heard == [("IV-3", (tx.tx_id, "valid"), 6)]


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
        assert vars(tx).get("_sig_verdict") is None
        assert a.chain.state.check_tx(tx, 2) is None
        assert tx._sig_verdict == a.keypair.public_key
        for twin in (dataclasses.replace(tx), ledger.canonical_decode(ledger.canonical_encode(tx))):
            assert vars(twin).get("_sig_verdict") is None
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
        f = make_frame(KIND_BEACON, b.keypair, b.ivtp_id, 0, b"")
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


def _unread():
    """A keypair and a make_frame endorse frame whose signature nobody read."""
    kp = identity.keygen(identity.sha256(b"v"))
    payload = encode_payload(KIND_ENDORSE, b"\x07" * 32, "valid")
    return kp, make_frame(KIND_ENDORSE, kp, b"\x05" * 32, 12, payload)


class TestSignOnRead:
    """make_frame's frame is signed by identity.sign on the first read of
    its signature, and is from then on the frame an eager sign builds."""

    def test_unread_frame_costs_no_sign(self, signs):
        kp, f = _unread()
        assert (f.kind, f.tf, f.kind_label) == (KIND_ENDORSE, 12, "endorse")
        assert f.body == (b"\x07" * 32, "valid")
        assert f.signing_bytes and signs() == 0
        sig = f.signature
        assert signs() == 1 and f.signature is sig and signs() == 1
        assert identity.verify(kp.public_key, f.signing_bytes, sig)
        assert verify_frame(f, kp.public_key) and signs() == 1

    def test_replaced_unread_frame_fails_closed(self):
        changes = ({"tf": 13}, {"payload": b""}, {"sender": b"\x06" * 32}, {"kind": KIND_BEACON})
        for change in changes:
            kp, f = _unread()
            forged = dataclasses.replace(f, **change)
            assert "_signer" not in vars(forged)
            assert not verify_frame(forged, kp.public_key)
            assert verify_frame(f, kp.public_key)

    def test_unread_frame_equals_its_eager_twin(self):
        kp, f = _unread()
        twin = Frame(f.kind, f.sender, f.tf, f.payload, identity.sign(kp, f.signing_bytes))
        assert "_signer" in vars(f) and "_signer" not in vars(twin)
        assert hash(f) == hash(twin)
        assert _unread()[1] == twin and twin == _unread()[1]
        assert twin.signature == f.signature and Frame(*dataclasses.astuple(f)) == f

    def test_signer_stays_out_of_repr_and_equality(self):
        kp, f = _unread()
        assert [fld.name for fld in dataclasses.fields(Frame)] == [
            "kind", "sender", "tf", "payload", "signature",
        ]
        assert _unread()[1] == _unread()[1]  # both unread: the signer takes no part
        text = repr(f)
        assert "_signer" not in vars(f) and "signature" in vars(f)
        assert "_signer" not in text and "KeyPair" not in text and repr(kp.secret_key) not in text
        assert text == repr(dataclasses.replace(f))

    def test_a_frame_built_directly_keeps_its_signature(self, signs):
        assert Frame.signature == b"" and Frame(KIND_BEACON, b"\x05" * 32, 0, b"").signature == b""
        f = Frame(KIND_BEACON, b"\x05" * 32, 0, b"", bytes(64))
        assert f.signature == bytes(64) and "_signer" not in vars(f) and signs() == 0


def test_beacons_and_endorsements_are_signed_once(monkeypatch):
    """intersection_table2: a beacon or endorse frame costs one
    identity.sign, its own, if some endpoint checked it, and none if no
    endpoint did: the frames signed are the frames verified. Every other
    signature made or checked in the run belongs to a frame, a
    transaction, an agreement or a dealer binding: no inner beacon
    transaction, no endorsement message."""
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
    checked = [f.signing_bytes in verified for f in once]
    assert [signed.count(f.signing_bytes) for f in once] == [int(c) for c in checked]
    assert any(checked) and not all(checked)

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
