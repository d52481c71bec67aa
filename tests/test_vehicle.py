"""Frame signing bytes, verification pipeline, and the intersection protocol."""

import dataclasses
import json
import pathlib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from ivtp import arbitration, consensus, identity, ledger, netsim, scenario, sim, vehicle
from ivtp.arbitration import Phase
from ivtp.vehicle import (
    KIND_AGREE,
    KIND_BEACON,
    KIND_COMM,
    KIND_DISAGREE,
    KIND_ENDORSE,
    KIND_INTENT,
    KIND_LABELS,
    KIND_REWARD_NOTICE,
    KIND_SCHEDULE,
    Frame,
    Vehicle,
    make_frame,
    verify_frame,
)
from conftest import make_fleet, signed_comm

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

_ids = st.binary(min_size=32, max_size=32)

_u64s = st.integers(min_value=0, max_value=2**64 - 1)
_sigs = st.binary(min_size=64, max_size=64)

_frames = st.builds(
    Frame,
    kind=st.integers(min_value=1, max_value=255),
    sender=_ids,
    tf=_u64s,
    payload=st.binary(max_size=200),
    signature=_sigs,
)

_id_lists = st.lists(_ids, max_size=4).map(tuple)
_texts = st.sampled_from(["x-1"]) | st.text(max_size=12)

# Values of each payload field codec; transactions need not be validly signed.
_FIELD_VALUES = {
    ledger.TEXT: _texts,
    ledger.U64: _u64s,
    ledger.ID: _ids,
    ledger.IDS: _id_lists,
    ledger.SIGNATURE: _sigs,
    ledger.BLOB: st.binary(max_size=40),
    vehicle.TX: st.one_of(
        st.builds(
            ledger.CommTx, author=_ids, tf=_u64s, signature=_sigs, sender=_ids,
            receivers=_id_lists, message_hash=_ids, tf_sent=_u64s,
        ),
        st.builds(
            ledger.RewardTx, author=_ids, tf=_u64s, signature=_sigs, from_id=_ids,
            to_id=_ids, amount=_u64s, reason=_texts,
        ),
        st.builds(
            ledger.ArbitrationTx, author=_ids, tf=_u64s, signature=_sigs,
            intersection_id=_texts, ordering=_id_lists, proposer=_ids,
            agreements=st.lists(st.tuples(_ids, _sigs), max_size=3).map(tuple),
        ),
    ),
}


@st.composite
def _payload_values(draw):
    """A kind and a value for each of its payload fields."""
    kind = draw(st.sampled_from(sorted(vehicle.PAYLOAD_FIELDS)))
    return kind, tuple(draw(_FIELD_VALUES[codec]) for _, codec in vehicle.PAYLOAD_FIELDS[kind])


class TestFrameCodec:
    @given(_frames)
    @settings(max_examples=200, deadline=None)
    def test_signing_bytes_drop_signature(self, f):
        """Oracle built with struct: kind u8, sender, tf u64 and the
        u32-length-prefixed payload, all big-endian. The signature is
        not part of it."""
        expected = struct.pack(">B32sQI", f.kind, f.sender, f.tf, len(f.payload)) + f.payload
        assert f.signing_bytes == expected
        assert dataclasses.replace(f, signature=bytes(64)).signing_bytes == expected

    def test_make_frame_verifies_and_tamper_fails(self):
        kp = identity.keygen(identity.sha256(b"v"))
        f = make_frame(KIND_BEACON, kp, b"\x05" * 32, 12, b"{}")
        assert verify_frame(f, kp.public_key)
        bad = dataclasses.replace(f, tf=13)
        assert not verify_frame(bad, kp.public_key)

    @given(_payload_values())
    @settings(max_examples=300, deadline=None)
    def test_body_round_trips_every_kind(self, kind_values):
        """Frame.body reads back each field encode_payload wrote, and the
        values encode back to the same bytes."""
        kind, values = kind_values
        payload = vehicle.encode_payload(kind, *values)
        f = Frame(kind, bytes(32), 0, payload)
        assert f.body == values
        assert vehicle.encode_payload(kind, *f.body) == payload


def _wire(n, network=netsim.NetworkConfig(), drop_rule=None, cfg=consensus.ConsensusConfig()):
    """Fleet of n registered vehicles joined to one network."""
    dealer, chain, ids, keys = make_fleet(n)
    net = netsim.Network(network, drop_rule=drop_rule)
    net.names.update({veh: f"IV-{i + 1}" for i, veh in enumerate(ids)})
    vehicles = []
    for veh in ids:
        v = Vehicle(veh, keys[veh], chain, config=cfg, alias=net.names[veh])
        v.net = net
        net.join(v)
        vehicles.append(v)
    return chain, net, vehicles


def _with_host(n):
    """n vehicles and the ledger host on one network."""
    chain, net, vehicles = _wire(n)
    host = sim.LedgerHost(chain)
    host.net = net
    net.join(host)
    return net, vehicles, host


def _reward(payer, payee, tf=5):
    """payer's own signed transfer of one milli-trust to payee."""
    return ledger.sign_tx(
        ledger.RewardTx(
            author=payer.ivtp_id, tf=tf, signature=b"", from_id=payer.ivtp_id,
            to_id=payee.ivtp_id, amount=1, reason="r",
        ),
        payer.keypair,
    )


def _sample_payload(kind, v):
    """A well-formed payload of kind, as vehicle v would send it."""
    ids = (v.ivtp_id,)
    tx = signed_comm(v.keypair, v.ivtp_id)
    values = {
        KIND_COMM: (b"m", tx),
        KIND_INTENT: ("x-1", 5),
        KIND_SCHEDULE: ("x-1", 0, ids),
        KIND_AGREE: ("x-1", 0, identity.sign(v.keypair, ledger.agree_message("x-1", ids))),
        KIND_DISAGREE: ("x-1", 0),
        KIND_ENDORSE: (tx.tx_id, consensus.VERDICT_VALID),
        KIND_REWARD_NOTICE: (_reward(v, v),),
    }[kind]
    return vehicle.encode_payload(kind, *values)


def _length_past_end(kind, payload):
    """payload with its first length prefix (after an endorsement's
    tx_id) set past the end."""
    at = 32 if kind == KIND_ENDORSE else 0
    return payload[:at] + struct.pack(">I", len(payload)) + payload[at + 4 :]


class TestPipeline:
    def test_unknown_sender_dropped_and_counted(self):
        _, _, (a, b) = _wire(2)
        ghost_kp = identity.keygen(identity.sha256(b"ghost"))
        f = make_frame(KIND_BEACON, ghost_kp, identity.sha256(b"ghost"), 0, b"{}")
        assert a.handle_frame(f, 0) == []
        assert a.drop_count == 1
        assert a.drops == {"unknown_sender": 1}

    def test_bad_signature_dropped(self):
        _, _, (a, b) = _wire(2)
        f = make_frame(KIND_BEACON, b.keypair, b.ivtp_id, 0, b"{}")
        forged = dataclasses.replace(f, tf=999)
        a.handle_frame(forged, 0)
        assert a.drops == {"bad_signature": 1}
        assert b.ivtp_id not in a.beacons

    def test_malformed_payload_dropped(self):
        _, _, (a, b) = _wire(2)
        f = make_frame(KIND_COMM, b.keypair, b.ivtp_id, 0, b"not json")
        a.handle_frame(f, 0)
        assert a.drop_count == 1
        (reason,) = a.drops
        assert reason.startswith("bad_payload")

    @pytest.mark.parametrize(
        "kind", [KIND_INTENT, KIND_SCHEDULE, KIND_COMM, KIND_ENDORSE, KIND_REWARD_NOTICE]
    )
    @pytest.mark.parametrize(
        "mangle",
        [
            lambda kind, p: b"[1]",
            lambda kind, p: b'{"intersection":[1],"tx":[1],"tx_id":[1]}',
            lambda kind, p: p[:-1],
            _length_past_end,
            lambda kind, p: p + b"\0",
        ],
        ids=[
            "not_an_object", "fields_not_strings", "truncated_field", "length_past_end",
            "trailing_bytes",
        ],
    )
    def test_wrong_shape_payload_dropped_not_raised(self, kind, mangle):
        """A payload that is not its kind's fields, from a registered
        vehicle: JSON (the two first cases), or a well-formed payload with
        its last byte cut, its first length prefix past the end, or a
        byte after its last field. Each vehicle that reads the payload
        drops the frame, and so does the ledger host if it reads that
        kind; the run goes on."""
        net, (a, *receivers), host = _with_host(3)
        payload = mangle(kind, _sample_payload(kind, a))
        net.broadcast(make_frame(kind, a.keypair, a.ivtp_id, 5, payload), 5)
        net.run_until(10)
        # Endorsements are read only by the host.
        expected = 0 if kind == KIND_ENDORSE else 1
        assert [v.drop_count for v in receivers] == [expected] * 2
        assert all(reason.startswith("bad_payload:") for v in receivers for reason in v.drops)
        assert host.pending == {} and host.early_endorsements == {}
        host_reads = kind in (KIND_COMM, KIND_ENDORSE, KIND_REWARD_NOTICE)
        assert [r.split(":")[0] for r in host.drops] == (["bad_payload"] if host_reads else [])

    @pytest.mark.parametrize(
        "kind",
        [KIND_INTENT, KIND_SCHEDULE, KIND_AGREE, KIND_DISAGREE, KIND_COMM, KIND_ENDORSE,
         KIND_REWARD_NOTICE],
    )
    def test_every_cut_and_one_byte_more_drop_with_one_message(self, kind):
        """A well-formed payload cut anywhere drops as truncated, and one
        with a byte past its last field as trailing bytes, at every
        endpoint that reads the kind: vehicles all but endorsements, the
        ledger host comms, endorsements and reward notices."""
        _, vehicles, host = _with_host(3)
        a, *receivers = vehicles
        readers = [] if kind == KIND_ENDORSE else [*receivers]
        if kind in (KIND_COMM, KIND_ENDORSE, KIND_REWARD_NOTICE):
            readers.append(host)
        payload = _sample_payload(kind, a)
        for mangled in [payload[:cut] for cut in range(len(payload))] + [payload + b"\0"]:
            f = make_frame(kind, a.keypair, a.ivtp_id, 5, mangled)
            for endpoint in readers:
                assert endpoint.handle_frame(f, 5) == []
        for endpoint in readers:
            assert endpoint.drops == {
                "bad_payload:truncated encoding": len(payload),
                "bad_payload:trailing bytes after payload": 1,
            }

    def test_text_that_is_not_utf8_drops(self):
        """An intent whose intersection is not UTF-8 drops at every vehicle
        with the decoder's own message."""
        net, (a, *receivers), host = _with_host(3)
        payload = vehicle.encode_payload(KIND_INTENT, "x-1", 5).replace(b"x-1", b"\xff-1")
        net.broadcast(make_frame(KIND_INTENT, a.keypair, a.ivtp_id, 5, payload), 5)
        net.run_until(10)
        assert [v.drops for v in receivers] == [{"bad_payload:text is not UTF-8": 1}] * 2

    def test_beacon_with_a_payload_dropped(self):
        """A beacon's payload is empty: one with bytes in it drops like any
        other kind's payload with bytes past its fields."""
        net, (a, b), host = _with_host(2)
        net.broadcast(make_frame(KIND_BEACON, a.keypair, a.ivtp_id, 5, b"{}"), 5)
        net.run_until(10)
        for endpoint in (b, host):
            assert endpoint.drops == {"bad_payload:trailing bytes after payload": 1}
            assert endpoint.beacons == {}

    def test_beacon_updates_freshness_and_ignores_stale(self):
        _, _, (a, b) = _wire(2)
        beacon = b.emit_beacon(100)
        a.handle_frame(beacon, 100)
        assert a.beacons[b.ivtp_id] == 100
        a.handle_frame(b.emit_beacon(50), 101)  # older tf must not regress
        assert a.beacons[b.ivtp_id] == 100
        assert a.active(400) == {b.ivtp_id}
        assert a.active(601) == set()


class TestComm:
    def test_send_comm_targets_active_peers(self):
        _, _, (a, b, c) = _wire(3)
        a.handle_frame(b.emit_beacon(10), 10)
        frame, tx = a.send_comm(b"hello", now=20)
        assert tx.receivers == (b.ivtp_id,)
        assert tx.message_hash == identity.sha256(b"hello")
        assert frame.kind == KIND_COMM

    def test_unregistered_sender_refused(self):
        chain, _, _ = _wire(1)
        kp = identity.keygen(identity.sha256(b"out"))
        outsider = Vehicle(identity.sha256(b"out"), kp, chain)
        with pytest.raises(ValueError, match="is not registered"):
            outsider.send_comm(b"x", now=0)

    def test_valid_comm_yields_valid_endorsement(self):
        """The endorse frame carries tx_id and verdict under the frame
        signature alone; the ledger host pools it only untampered."""
        chain, _, (a, b) = _wire(2)
        a.handle_frame(b.emit_beacon(10), 10)
        b.handle_frame(a.emit_beacon(10), 10)
        frame, tx = b.send_comm(b"ping", now=20)
        out = a.handle_frame(frame, 20)
        assert [f.kind for f in out] == [KIND_ENDORSE]
        assert out[0].body == (tx.tx_id, consensus.VERDICT_VALID)
        host = sim.LedgerHost(chain)
        flipped = dataclasses.replace(
            out[0],
            payload=vehicle.encode_payload(KIND_ENDORSE, tx.tx_id, consensus.VERDICT_INVALID),
        )
        host.handle_frame(flipped, 20)
        assert host.early_endorsements == {}
        host.handle_frame(out[0], 20)
        assert host.early_endorsements == {
            tx.tx_id: [(20, a.ivtp_id, consensus.VERDICT_VALID)]
        }

    def test_body_hash_mismatch_endorsed_invalid(self):
        """Broadcast content that contradicts the on-chain record is
        endorsed invalid, which feeds the reject quorum."""
        _, _, (a, b) = _wire(2)
        a.handle_frame(b.emit_beacon(10), 10)
        b.handle_frame(a.emit_beacon(10), 10)
        frame, tx = b.send_comm(b"ping", now=20)
        forged = make_frame(
            KIND_COMM, b.keypair, b.ivtp_id, 20, vehicle.encode_payload(KIND_COMM, b"pong", tx)
        )
        out = a.handle_frame(forged, 20)
        assert out[0].body == (tx.tx_id, consensus.VERDICT_INVALID)

    def test_comm_tx_author_must_be_frame_sender(self):
        _, _, (a, b, c) = _wire(3)
        _, tx = b.send_comm(b"x", now=5)
        stolen = make_frame(
            KIND_COMM,
            c.keypair,
            c.ivtp_id,
            5,
            vehicle.encode_payload(KIND_COMM, b"x", tx),
        )
        assert a.handle_frame(stolen, 5) == []
        assert a.drops == {"tx_sender_mismatch": 1}

    def test_endorsement_dedup_by_tx_id(self):
        _, _, (a, b) = _wire(2)
        a.handle_frame(b.emit_beacon(10), 10)
        b.handle_frame(a.emit_beacon(10), 10)
        frame, _ = b.send_comm(b"ping", now=20)
        assert len(a.handle_frame(frame, 20)) == 1
        assert a.handle_frame(frame, 21) == []  # replays earn nothing

    def test_endorsed_keeps_only_the_last_ttl(self):
        """A replay within pending_ttl_ms is not endorsed again; past it
        the tx is stale (the ledger host would expire it) and is not
        endorsed either, so `endorsed` can forget it and stays bounded."""
        ttl, step = 200, 20
        _, _, (a, b) = _wire(2, cfg=consensus.ConsensusConfig(pending_ttl_ms=ttl))
        frames = {}
        for t in range(0, 10 * ttl, step):
            frames[t], _ = b.send_comm(b"ping %d" % t, now=t)
            assert len(a.handle_frame(frames[t], t)) == 1
            for replayed in (t - ttl, t - ttl - step):
                if replayed in frames:
                    assert a.handle_frame(frames[replayed], t) == []
            assert len(a.endorsed) <= ttl // step + 1
        assert list(a.endorsed.values()) == list(range(t - ttl, t + 1, step))
        ahead, _ = b.send_comm(b"from the future", now=t + 1)
        assert a.handle_frame(ahead, t) == []

    def test_never_endorses_own_tx(self):
        _, _, (a, b) = _wire(2)
        b.handle_frame(a.emit_beacon(10), 10)
        frame, _ = b.send_comm(b"ping", now=20)
        assert b._endorse_tx(frame.body[-1], None, 20) == []


def _intersection(net, vehicles, arrivals, delays, iid="x-1", window=300):
    ids = [v.ivtp_id for v in vehicles]
    participants = frozenset(ids)
    delay_map = {veh: d for veh, d in zip(ids, delays)}
    deadline = max(arrivals) + window
    for v, arrive in zip(vehicles, arrivals):
        v.open_session(iid, participants, delay_map, deadline)
        net.set_timer(v.ivtp_id, arrive, ("arrive", iid))
    for v in vehicles:
        net.set_timer(v.ivtp_id, 0, ("beacon",))


class TestIntersection:
    def test_happy_path_commits_fcfs(self):
        _, net, vehicles = _wire(4)
        _intersection(net, vehicles, [100, 110, 130, 170], [9, 8, 5, 7])
        net.run_until(600)
        ids = [v.ivtp_id for v in vehicles]
        for v in vehicles:
            s = v.sessions["x-1"]
            assert s.phase is Phase.COMMITTED
            assert s.proposer == ids[2]  # smallest compute delay
            assert s.ordering == tuple(ids)  # arrival order
        proposer = vehicles[2]
        arbs = [t for t in proposer.submitted if isinstance(t, ledger.ArbitrationTx)]
        assert len(arbs) == 1
        assert {veh for veh, _ in arbs[0].agreements} == set(ids) - {ids[2]}
        # First in line pays the proposer.
        rewards = [t for t in vehicles[0].submitted if isinstance(t, ledger.RewardTx)]
        assert [(t.from_id, t.to_id, t.amount) for t in rewards] == [
            (ids[0], ids[2], 500)
        ]

    def test_single_participant_self_commits(self):
        _, net, vehicles = _wire(1)
        _intersection(net, vehicles, [50], [4])
        net.run_until(300)
        s = vehicles[0].sessions["x-1"]
        assert s.phase is Phase.COMMITTED
        assert s.ordering == (vehicles[0].ivtp_id,)

    def test_duplicate_session_refused(self):
        _, net, (v,) = _wire(1)
        v.open_session("x-1", frozenset([v.ivtp_id]), {v.ivtp_id: 1}, 100)
        with pytest.raises(ValueError, match="already holds a session of x-1"):
            v.open_session("x-1", frozenset([v.ivtp_id]), {v.ivtp_id: 1}, 100)

    def test_a_vehicle_outside_the_participants_holds_no_session(self):
        """Only a participant holds a session: one held by any other vehicle
        would elect, then retry and abort a session its participants commit."""
        _, _, (v, other) = _wire(2)
        with pytest.raises(ValueError, match="not a participant"):
            v.open_session("x-1", frozenset([other.ivtp_id]), {other.ivtp_id: 1}, 100)
        assert v.sessions == {}

    @pytest.mark.parametrize("steerer", [4, 0], ids=["outsider", "participant_not_elected"])
    def test_only_the_elected_proposer_steers(self, steerer):
        """IV-3 proposes both rounds (the least delay, then the lowest id).
        IV-5, outside x-1, or IV-1, a participant elected in neither round,
        broadcasts a made-up round-0 schedule at 105 ms, before the
        intents are all in, and a round-1 schedule at 110 ms. Neither
        moves a session: all four commit IV-3's order in round 0."""
        _, net, vehicles = _wire(5)
        members, sender = vehicles[:4], vehicles[steerer]
        _intersection(net, members, [100, 110, 130, 170], [9, 8, 5, 7])
        ids = tuple(v.ivtp_id for v in members)
        for at, round_ in [(105, 0), (110, 1)]:
            net.run_until(at)
            net.broadcast(sender._frame(KIND_SCHEDULE, at, "x-1", round_, ids[::-1]), at)
        net.run_until(600)
        for v in members:
            s = v.sessions["x-1"]
            assert (s.phase, s.round, s.proposer, s.ordering) == (Phase.COMMITTED, 0, ids[2], ids)
        assert [r for r in net.trace if r["kind"] == "session_retry"] == []

    def test_forged_agreement_is_dropped_by_the_proposer(self, monkeypatch):
        """IV-1 answers the schedule with a well-signed agree frame whose
        agreement signature is wrong. The proposer, IV-2 (the least compute
        delay), drops it as bad_agreement_sig and commits nothing; at the
        agree deadline, agree_timeout_ms after the last intent, its session
        moves to round 1."""
        _, net, vehicles = _wire(3)
        forger, proposer, _ = vehicles
        honest = vehicle.agreement_signature

        def agreement_signature(keypair, iid, ordering):
            sig = honest(keypair, iid, ordering)
            return bytes([sig[0] ^ 1]) + sig[1:] if keypair is forger.keypair else sig

        monkeypatch.setattr(vehicle, "agreement_signature", agreement_signature)
        _intersection(net, vehicles, [100, 110, 130], [3, 2, 4])
        deadline = 130 + consensus.ConsensusConfig().agree_timeout_ms
        net.run_until(deadline - 1)
        s = proposer.sessions["x-1"]
        assert (s.phase, s.round, s.proposer) == (Phase.AGREEING, 0, proposer.ivtp_id)
        assert proposer.drops == {"bad_agreement_sig": 1}
        assert set(s.agreements) == {vehicles[2].ivtp_id}
        assert not [t for t in proposer.submitted if isinstance(t, ledger.ArbitrationTx)]
        net.run_until(deadline)
        assert s.round == 1
        notes = [(r["t_ms"], r["kind"]) for r in net.trace if r["dir"] == "note"]
        assert notes == [(deadline, "session_retry")] * 3

    def test_lost_intent_recovers_in_round_two(self):
        """One intent silently lost on one link: the starved vehicle
        disagrees with the early schedule, everyone re-collects, and the
        retry commits the same ordering."""
        state = {"done": False}

        def drop_rule(frame, recipient):
            if state["done"] or frame.kind != KIND_INTENT:
                return False
            state["done"] = True
            return True

        _, net, vehicles = _wire(4, drop_rule=drop_rule)
        _intersection(net, vehicles, [100, 110, 130, 170], [9, 8, 5, 7])
        net.run_until(900)
        ids = [v.ivtp_id for v in vehicles]
        for v in vehicles:
            s = v.sessions["x-1"]
            assert s.phase is Phase.COMMITTED, v.alias
            assert s.ordering == tuple(ids)
        retries = [r for r in net.trace if r["kind"] == "session_retry"]
        assert retries
        commits = [r for r in net.trace if r["kind"] == "session_committed"]
        assert [r["detail"]["round"] for r in commits] == [1]

    def test_total_loss_aborts_with_fallback(self):
        _, net, vehicles = _wire(4, netsim.NetworkConfig(drop_probability=1.0))
        _intersection(net, vehicles, [100, 110, 130, 170], [9, 8, 5, 7])
        net.run_until(2000)
        fallback = sorted(v.ivtp_id for v in vehicles)
        for v in vehicles:
            s = v.sessions["x-1"]
            assert s.phase is Phase.ABORTED
            assert list(s.fallback_ordering()) == fallback
        aborts = [r for r in net.trace if r["kind"] == "session_aborted"]
        assert len(aborts) == 4

    def test_committed_follower_pays_after_notice(self):
        """The first-in-line vehicle pays only after it sees the signed
        outcome, and the payment references the intersection."""
        _, net, vehicles = _wire(3)
        _intersection(net, vehicles, [100, 120, 140], [3, 2, 4], iid="x-9")
        net.run_until(600)
        payer = vehicles[0]
        rewards = [t for t in payer.submitted if isinstance(t, ledger.RewardTx)]
        assert [t.reason for t in rewards] == ["x-9"]
        assert rewards[0].to_id == vehicles[1].ivtp_id

    def test_beacon_timer_reschedules(self):
        _, net, (v,) = _wire(1)
        net.set_timer(v.ivtp_id, 0, ("beacon",))
        net.run_until(250)
        sends = [r for r in net.trace if r["dir"] == "send" and r["kind"] == "beacon"]
        assert [r["t_ms"] for r in sends] == [0, 100, 200]


class TestStaleTimers:
    """Timers are never cancelled: the propose, collect_deadline and
    agree_deadline tags of a round or phase a session has left still
    reach handle_timer, and change nothing."""

    @staticmethod
    def _assert_ignored(net, vehicles, rounds, iid="x-1"):
        for v in vehicles:
            s = v.sessions[iid]
            before = (s.phase, s.round, s.proposer, dict(s.agreements))
            for r in rounds:
                for kind in ("propose", "collect_deadline", "agree_deadline"):
                    assert v.handle_timer((kind, iid, r), net.clock) == []
                    assert (s.phase, s.round, s.proposer, s.agreements) == before

    def test_committed_session(self):
        _, net, vehicles = _wire(4)
        _intersection(net, vehicles, [100, 110, 130, 170], [9, 8, 5, 7])
        net.run_until(600)
        assert {v.sessions["x-1"].phase for v in vehicles} == {Phase.COMMITTED}
        self._assert_ignored(net, vehicles, [0])

    def test_aborted_session(self):
        _, net, vehicles = _wire(4, netsim.NetworkConfig(drop_probability=1.0))
        _intersection(net, vehicles, [100, 110, 130, 170], [9, 8, 5, 7])
        net.run_until(2000)
        assert {v.sessions["x-1"].phase for v in vehicles} == {Phase.ABORTED}
        self._assert_ignored(net, vehicles, [0, 1])

    def test_retried_session(self):
        """One lost intent sends everyone into round 1; at 175 ms every
        vehicle is electing again, with round 0's deadlines still queued."""
        lost = []

        def drop_rule(frame, recipient):
            if lost or frame.kind != KIND_INTENT:
                return False
            lost.append(frame)
            return True

        _, net, vehicles = _wire(4, drop_rule=drop_rule)
        _intersection(net, vehicles, [100, 110, 130, 170], [9, 8, 5, 7])
        net.run_until(175)
        states = {(v.sessions["x-1"].phase, v.sessions["x-1"].round) for v in vehicles}
        assert states == {(Phase.PROPOSING, 1)}
        self._assert_ignored(net, vehicles, [0])
        net.run_until(900)
        assert {v.sessions["x-1"].phase for v in vehicles} == {Phase.COMMITTED}


class TestFramePayloadCache:
    def test_body_and_tx_stay_out_of_eq_hash_and_repr(self):
        _, _, (a, _b) = _wire(2)
        f, tx = a.send_comm(b"hello", now=20)
        twin = Frame(f.kind, f.sender, f.tf, f.payload, f.signature)
        before = repr(f)
        assert f.body == (b"hello", tx)
        assert "body" in vars(f) and "body" not in vars(twin)
        assert f == twin and hash(f) == hash(twin)
        assert repr(f) == repr(twin) == before

    def test_one_decode_per_frame_however_many_receivers(self, monkeypatch):
        """Every receiver of a comm or reward notice, the ledger host
        included, reads the one transaction decoded on the frame."""
        calls = []

        def counting(data, _decode=ledger.canonical_decode):
            calls.append(data)
            return _decode(data)

        monkeypatch.setattr(ledger, "canonical_decode", counting)
        monkeypatch.setattr(vehicle, "canonical_decode", counting)
        cfg = scenario.load_scenario(SCENARIOS / "intersection_table2.json")
        rows = list(sim.run(cfg).net.trace)
        tx_kinds = {"comm", "reward_notice"}
        sent = sum(r["dir"] == "send" and r["kind"] in tx_kinds for r in rows)
        heard = sum(r["dir"] == "recv" and r["kind"] in tx_kinds for r in rows)
        # Four comms, the outcome and the fee, each heard by three vehicles
        # and the host.
        assert sent == 6 and heard == 4 * sent
        assert len(calls) == sent

    @pytest.mark.parametrize("kind", [KIND_COMM, KIND_REWARD_NOTICE])
    @pytest.mark.parametrize(
        "tx_blob",
        [
            lambda tx: struct.pack(">I", 1000) + tx,  # a length prefix past the end
            None,  # the payload stops before the tx field
            lambda tx: ledger.BLOB.encode(b"zz", "tx"),  # not a transaction
            lambda tx: ledger.BLOB.encode(tx + b"\0", "tx"),  # a byte after the tx
        ],
        ids=["length_past_end", "missing_tx", "bad_tx", "trailing_bytes"],
    )
    def test_malformed_payload_drops_alike_at_every_receiver(self, kind, tx_blob):
        """A failed decode of the carried transaction is not cached: each
        receiver raises afresh and drops with the same reason and the same
        trace row."""
        _, net, (a, *receivers) = _wire(4)
        tx = ledger.canonical_encode(signed_comm(a.keypair, a.ivtp_id))
        payload = ledger.BLOB.encode(b"m", "message") if kind == KIND_COMM else b""
        if tx_blob is not None:
            payload += tx_blob(tx)
        f = make_frame(kind, a.keypair, a.ivtp_id, 5, payload)
        net.broadcast(f, 5)
        net.run_until(10)
        reasons = {reason for v in receivers for reason in v.drops}
        assert [v.drop_count for v in receivers] == [1, 1, 1]
        assert len(reasons) == 1 and reasons.pop().startswith("bad_payload:")
        drops = [r for r in net.trace if r["dir"] == "drop"]
        assert sorted(r["vehicle"] for r in drops) == ["IV-2", "IV-3", "IV-4"]
        assert len({json.dumps(r["detail"]) for r in drops}) == 1
        assert "body" not in vars(f)


def _arbitration(proposer, ordering, iid, voters=()):
    """An ArbitrationTx authored and signed by proposer, carrying the
    agreement of each vehicle in voters."""
    ids = tuple(v.ivtp_id for v in ordering)
    agreements = tuple(
        sorted((v.ivtp_id, arbitration.agreement_signature(v.keypair, iid, ids)) for v in voters)
    )
    return ledger.sign_tx(
        ledger.ArbitrationTx(
            author=proposer.ivtp_id, tf=1, signature=b"", intersection_id=iid,
            ordering=ids, proposer=proposer.ivtp_id, agreements=agreements,
        ),
        proposer.keypair,
    )


def _announce(net, sender, tx, at):
    """sender broadcasts a reward notice carrying tx at time at."""
    net.broadcast(sender._frame(KIND_REWARD_NOTICE, at, tx), at)
    net.run_until(at + 10)


def _fees(v):
    return [(t.to_id, t.reason) for t in v.submitted if isinstance(t, ledger.RewardTx)]


class TestRewardGuard:
    """A vehicle pays the arbitration fee only for an outcome it agreed
    to, announced by its proposer, and only once per session."""

    def test_forged_outcome_after_a_run_is_not_paid(self):
        cfg = scenario.load_scenario(SCENARIOS / "intersection_table2.json")
        handles = sim.run(cfg)
        iv1, iv2 = handles.vehicles["IV-1"], handles.vehicles["IV-2"]
        paid = _fees(iv1)
        forged = _arbitration(iv2, [iv1, iv2], "nowhere")
        assert handles.chain.state.check_tx(forged, handles.chain.height + 1) == (
            "agreements_incomplete"
        )
        _announce(handles.net, iv2, forged, cfg.run.t_end_ms)
        assert _fees(iv1) == paid == [(handles.vehicles["IV-3"].ivtp_id, "crossing-1")]

    def _open(self, n=3, iid="x-1"):
        """n vehicles in one session of iid, whose round-0 proposer is
        IV-2: it has the least compute delay."""
        _, net, vehicles = _wire(n)
        ids = frozenset(v.ivtp_id for v in vehicles)
        delays = {veh: 1 if veh == vehicles[1].ivtp_id else 2 for veh in ids}
        for v in vehicles:
            v.open_session(iid, ids, delays, 10_000)
        return net, vehicles

    @staticmethod
    def _phases(vehicles, iid="x-1"):
        return [(v.sessions[iid].phase, v.sessions[iid].proposer) for v in vehicles]

    def test_outcome_without_agreements_is_not_paid(self):
        net, (iv1, iv2, iv3) = self._open()
        _announce(net, iv2, _arbitration(iv2, [iv1, iv2, iv3], "x-1", [iv3]), 5)
        assert _fees(iv1) == []
        # Nor does it end the session at the other participants.
        assert self._phases([iv1, iv3]) == [(Phase.COLLECTING, None)] * 2

    def test_outcome_relayed_by_another_vehicle_is_not_paid(self):
        net, (iv1, iv2, iv3) = self._open()
        _announce(net, iv3, _arbitration(iv2, [iv1, iv2, iv3], "x-1", [iv1, iv3]), 5)
        assert _fees(iv1) == []
        assert self._phases([iv1, iv2]) == [(Phase.COLLECTING, None)] * 2

    def test_agreed_outcome_is_paid_once(self):
        net, (iv1, iv2, iv3) = self._open()
        tx = _arbitration(iv2, [iv1, iv2, iv3], "x-1", [iv1, iv3])
        _announce(net, iv2, tx, 5)
        assert _fees(iv1) == [(iv2.ivtp_id, "x-1")]
        assert self._phases([iv1, iv3]) == [(Phase.COMMITTED, iv2.ivtp_id)] * 2
        _announce(net, iv2, tx, 20)  # a replay of the same announcement
        assert _fees(iv1) == [(iv2.ivtp_id, "x-1")]

    def test_outcome_of_a_proposer_not_elected_is_not_paid(self):
        """A participant the round did not elect announces an outcome that
        carries every other participant's agreement, as one that pooled
        them could: check_tx applies it, yet no session ends and nobody
        pays."""
        net, (iv1, iv2, iv3) = self._open()
        tx = _arbitration(iv3, [iv1, iv2, iv3], "x-1", [iv1, iv2])
        assert iv1.chain.state.check_tx(tx, iv1.chain.height + 1) is None
        _announce(net, iv3, tx, 5)
        assert _fees(iv1) == _fees(iv2) == []
        assert self._phases([iv1, iv2]) == [(Phase.COLLECTING, None)] * 2

    def test_outcome_ordering_an_outsider_does_not_end_the_session(self):
        """A registered vehicle outside crossing-1 announces, early in the
        intersection_table2 run, an outcome that orders only itself: it
        needs no agreement to pass check_tx, yet ends no session. The
        honest outcome commits and every participant holds its proposer."""
        raw = json.loads((SCENARIOS / "intersection_table2.json").read_text())
        raw["vehicles"].append({"alias": "X-1"})
        cfg = scenario.scenario_from_dict(raw)
        chain, net, vehicles = sim._build_world(cfg)
        outsider = vehicles.pop("X-1")
        net.join(_Adversary(outsider))
        sim._schedule(cfg, net, vehicles)
        net.run_until(5)
        forged = _arbitration(outsider, [outsider], "crossing-1")
        assert chain.state.check_tx(forged, chain.height + 1) is None
        _announce(net, outsider, forged, 5)
        net.run_until(cfg.run.t_end_ms)
        honest = vehicles["IV-3"].ivtp_id  # the smallest compute delay
        for v in vehicles.values():
            assert (v.sessions["crossing-1"].phase, v.sessions["crossing-1"].proposer) == (
                Phase.COMMITTED, honest,
            )
        outcomes = [
            (tx.proposer, tx.ordering) for block in chain.blocks for tx in block.txs
            if isinstance(tx, ledger.ArbitrationTx) and tx.intersection_id == "crossing-1"
        ]
        assert (honest, tuple(v.ivtp_id for v in vehicles.values())) in outcomes

    def test_outsider_does_not_pay(self):
        net, (iv1, iv2, iv3, iv4) = self._open(4)
        iv1.sessions.clear()
        _announce(net, iv2, _arbitration(iv2, [iv1, iv2, iv3, iv4], "x-1", [iv1, iv3, iv4]), 5)
        assert _fees(iv1) == []


def _drop_rows(net):
    return sorted((r["vehicle"], r["detail"]["reason"]) for r in net.trace if r["dir"] == "drop")


class TestOneRuleSet:
    """The vehicles and the ledger host judge a frame by the same rules:
    a comm carries its sender's CommTx, a reward notice its sender's
    ArbitrationTx or RewardTx, and a fault past reading the payload
    raises at every endpoint. Nobody beacons here, so the quorum is zero
    and a transaction the host pooled would commit at once."""

    def test_comm_carrying_a_reward_is_dropped_everywhere(self):
        net, (a, b, c), host = _with_host(3)
        height = host.chain.height
        net.broadcast(a._frame(KIND_COMM, 5, b"m", _reward(a, b)), 5)
        net.run_until(10)
        assert _drop_rows(net) == [
            ("IV-2", "tx_sender_mismatch"), ("IV-3", "tx_sender_mismatch"),
            ("host", "tx_sender_mismatch"),
        ]
        assert host.pending == {} and host.chain.height == height

    def test_reward_notice_carrying_a_comm_is_dropped_everywhere(self):
        net, (a, b, c), host = _with_host(3)
        comm = signed_comm(a.keypair, a.ivtp_id, tf=5)
        height = host.chain.height
        net.broadcast(a._frame(KIND_REWARD_NOTICE, 5, comm), 5)
        net.run_until(10)
        assert _drop_rows(net) == [
            ("IV-2", "tx_sender_mismatch"), ("IV-3", "tx_sender_mismatch"),
            ("host", "tx_sender_mismatch"),
        ]
        assert host.pending == {} and host.chain.height == height

    def test_relayed_reward_is_dropped_not_endorsed(self):
        net, (a, b, c), host = _with_host(3)
        height = host.chain.height
        net.broadcast(c._frame(KIND_REWARD_NOTICE, 5, _reward(b, a)), 5)
        net.run_until(10)
        assert _drop_rows(net) == [
            ("IV-1", "tx_sender_mismatch"), ("IV-2", "tx_sender_mismatch"),
            ("host", "tx_sender_mismatch"),
        ]
        assert [r for r in net.trace if r["dir"] == "send" and r["kind"] == "endorse"] == []
        assert host.pending == {} and host.chain.height == height

    def test_fault_past_the_payload_read_raises(self, monkeypatch):
        _, _, (a, b) = _wire(2)
        frame, _ = b.send_comm(b"ping", now=20)

        def broken(*args):
            raise ValueError("pod_check fault")

        monkeypatch.setattr(consensus, "pod_check", broken)
        with pytest.raises(ValueError, match="pod_check fault"):
            a.handle_frame(frame, 20)
        assert a.drop_count == 0


# What the pipeline past a good signature may drop a frame for.
_PIPELINE_REASONS = {"unknown_kind", "tx_sender_mismatch", "bad_agreement_sig"}


@st.composite
def _any_payload(draw):
    """A kind and an encoding of its fields, or any kind (known or not)
    and arbitrary bytes."""
    if draw(st.booleans()):
        kind, values = draw(_payload_values())
        return kind, vehicle.encode_payload(kind, *values)
    kind = draw(st.sampled_from(sorted(KIND_LABELS)) | st.integers(min_value=1, max_value=255))
    return kind, draw(st.binary(max_size=300))


class TestArbitraryPayloads:
    @given(_any_payload())
    @settings(max_examples=150, deadline=None)
    def test_nothing_escapes_and_drops_are_the_pipelines(self, kind_payload):
        """Any payload under any kind, well signed by a registered vehicle
        that shares a session with the two receiving vehicles: the host
        and both vehicles drop it for a reason of their pipeline, or act
        on it, and nothing raises out of the run."""
        kind, payload = kind_payload
        net, (a, *receivers), host = _with_host(3)
        ids = frozenset(v.ivtp_id for v in (a, *receivers))
        for v in receivers:
            v.open_session("x-1", ids, {veh: 1 for veh in ids}, 10_000)
        net.broadcast(make_frame(kind, a.keypair, a.ivtp_id, 5, payload), 5)
        net.run_until(1000)
        for reason in {r for p in (*receivers, host) for r in p.drops}:
            assert reason in _PIPELINE_REASONS or reason.startswith("bad_payload:")


class _Adversary:
    """A key that runs no protocol: it sends whatever a rule tells it to,
    well signed, and keeps every frame it hears to replay."""

    def __init__(self, member: Vehicle):
        self.ivtp_id, self.keypair = member.ivtp_id, member.keypair
        self.heard: list[Frame] = []

    def heeds(self, f: Frame) -> bool:
        return True

    def handle_frame(self, f: Frame, now) -> list:
        self.heard.append(f)
        return []

    def handle_timer(self, tag, now) -> list:
        return []


_who = st.sampled_from([0, 1])
_sources = st.sampled_from(["unknown", "stale", "pending", "committed"])
_verdicts = st.sampled_from([consensus.VERDICT_VALID, consensus.VERDICT_INVALID])


class AdversaryMachine(RuleBasedStateMachine):
    """Two adversaries, each with its own registered key, join the
    intersection_table2 run and send well-signed frames of every kind:
    any payload, replays, forged outcomes, endorsements of unknown,
    stale, pending and committed transactions, transactions whose tf is
    ahead of the clock or past the TTL, rewards to each other that name
    the real intersection, and schedules of it for a live round. A ghost,
    on the network but not on the chain, sends well-signed beacons,
    endorsements and comms of its own. Whatever they send, supply is
    conserved, the chain validates, nothing raises out of run_until, every
    drop of a registered sender's frame is the pipeline's and every drop
    of the ghost's is unknown_sender, no beacon table or pool holds an
    unregistered id, the honest session neither retries nor ends but by
    its own outcome, and no handler runs on a frame whose signature was
    not checked against its sender's registered key."""

    def __init__(self):
        super().__init__()
        raw = json.loads((SCENARIOS / "intersection_table2.json").read_text())
        raw["vehicles"] += [{"alias": "X-1"}, {"alias": "X-2"}]
        cfg = scenario.scenario_from_dict(raw)
        self.chain, self.net, vehicles = sim._build_world(cfg)
        self.advs = [_Adversary(vehicles.pop(alias)) for alias in ("X-1", "X-2")]
        for adv in self.advs:
            self.net.join(adv)  # in place of the honest vehicle of that key
        ghost_id = identity.sha256(b"ghost")
        # A key no dealer registered: its id and keypair, held as a Vehicle holds them.
        self.ghost = _Adversary(Vehicle(ghost_id, identity.keygen(ghost_id), self.chain))
        self.net.names[ghost_id] = "ghost"
        self.net.join(self.ghost)
        sim._schedule(cfg, self.net, vehicles)
        self.endpoints = [self.net.participants[sim.HOST_ID], *vehicles.values()]
        self.ids = sorted(v.ivtp_id for v in vehicles.values()) + [a.ivtp_id for a in self.advs]
        self.ttl = cfg.consensus.pending_ttl_ms
        self.supply = ledger.total_supply(self.chain)
        self.stale: list[bytes] = []  # ids of the skewed transactions sent
        self.unchecked: list[tuple[str, str]] = []  # (endpoint, kind) a handler ran on unchecked
        self.valid_height = -1
        self.tables = {cls: cls._DISPATCH for cls in (Vehicle, sim.LedgerHost)}
        for cls, table in self.tables.items():
            cls._DISPATCH = {k: handler and self._guarded(handler) for k, handler in table.items()}
        self.dropped: set[tuple[bytes, str]] = set()  # (sender, reason) of every drop
        self.real_drop = vehicle.Endpoint._drop

        def drop(endpoint, f, now, reason):
            self.dropped.add((f.sender, reason))
            return self.real_drop(endpoint, f, now, reason)

        vehicle.Endpoint._drop = drop

    def _guarded(self, handler):
        def run(endpoint, f, now):
            pk = endpoint.chain.state.registrations.get(f.sender)
            if pk is None or vars(f).get("_sig_verdict") != pk:
                self.unchecked.append((endpoint.alias, f.kind_label))
            return handler(endpoint, f, now)

        return run

    def teardown(self):
        for cls, table in self.tables.items():
            cls._DISPATCH = table
        vehicle.Endpoint._drop = self.real_drop

    def _send(self, who: int, kind: int, *values, payload: bytes | None = None):
        self._send_as(self.advs[who], kind, *values, payload=payload)

    def _send_as(self, adv: _Adversary, kind: int, *values, payload: bytes | None = None):
        now = self.net.clock
        if payload is None:
            payload = vehicle.encode_payload(kind, *values)
        self.net.broadcast(make_frame(kind, adv.keypair, adv.ivtp_id, now, payload), now)

    def _signed(self, who: int, tx_type, **fields):
        adv = self.advs[who]
        tx = tx_type(author=adv.ivtp_id, signature=b"", **fields)
        return ledger.sign_tx(tx, adv.keypair)

    @rule(dt=st.integers(min_value=1, max_value=400))
    def advance(self, dt):
        self.net.run_until(self.net.clock + dt)

    @rule(who=_who)
    def beacon(self, who):
        self._send(who, KIND_BEACON)

    @rule(who=_who, kind_payload=_any_payload())
    def send_any(self, who, kind_payload):
        kind, payload = kind_payload
        self._send(who, kind, payload=payload)

    @precondition(lambda self: self.advs[0].heard)
    @rule(who=_who, pick=st.integers(min_value=0), resign=st.booleans())
    def replay(self, who, pick, resign):
        """A heard frame sent again: as it was, or its payload re-signed."""
        f = self.advs[0].heard[pick % len(self.advs[0].heard)]
        if resign:
            self._send(who, f.kind, payload=f.payload)
        else:
            self.net.broadcast(Frame(f.kind, f.sender, f.tf, f.payload, f.signature), self.net.clock)

    @rule(
        who=_who,
        iid=st.sampled_from(["crossing-1", "x-9"]),
        members=st.lists(st.integers(min_value=0, max_value=5), max_size=6, unique=True),
        agreed=st.booleans(),
    )
    def forge_outcome(self, who, iid, members, agreed):
        """An outcome the adversary proposes. With agreements, the other
        adversary's is real and an honest vehicle's is made up."""
        me, other = self.advs[who], self.advs[1 - who]
        ordering = tuple(dict.fromkeys([me.ivtp_id, *(self.ids[i] for i in members)]))
        agreements = []
        for veh in ordering[1:] if agreed else ():
            sig = (
                arbitration.agreement_signature(other.keypair, iid, ordering)
                if veh == other.ivtp_id else identity.sha256(veh) * 2
            )
            agreements.append((veh, sig))
        arb = self._signed(
            who, ledger.ArbitrationTx, tf=self.net.clock, intersection_id=iid,
            ordering=ordering, proposer=me.ivtp_id, agreements=tuple(sorted(agreements)),
        )
        self._send(who, KIND_REWARD_NOTICE, arb)

    def _tx_id(self, source: str, pick: int) -> bytes:
        """An unknown, stale, pending or committed transaction's id."""
        pools = {
            "unknown": [identity.sha256(b"%d" % pick)],
            "stale": self.stale,
            "pending": list(self.endpoints[0].pending),
            "committed": list(self.chain.tx_by_id),
        }
        pool = pools[source] or pools["unknown"]
        return pool[pick % len(pool)]

    @rule(who=_who, source=_sources, pick=st.integers(min_value=0), verdict=_verdicts)
    def endorse(self, who, source, pick, verdict):
        self._send(who, KIND_ENDORSE, self._tx_id(source, pick), verdict)

    @rule(who=_who, skew=st.integers(min_value=1, max_value=3000), ahead=st.booleans())
    def skewed_tx(self, who, skew, ahead):
        """A comm whose tf is ahead of the clock or past the TTL."""
        now = self.net.clock
        tf = now + skew if ahead else max(0, now - self.ttl - skew)
        me = self.advs[who].ivtp_id
        tx = self._signed(
            who, ledger.CommTx, tf=tf, sender=me, receivers=(self.advs[1 - who].ivtp_id,),
            message_hash=identity.sha256(b"m"), tf_sent=tf,
        )
        self.stale.append(tx.tx_id)
        self._send(who, KIND_COMM, b"m", tx)

    @rule(who=_who, pick_round=st.integers(min_value=0), order=st.permutations(range(4)))
    def steer(self, who, pick_round, order):
        """A well-formed schedule of crossing-1 for a round a participant
        is in, ordering exactly the participants."""
        rounds = sorted({v.sessions["crossing-1"].round for v in self.endpoints[1:]})
        members = sorted(self.endpoints[1].sessions["crossing-1"].participants)
        ordering = tuple(members[i] for i in order)
        self._send(who, KIND_SCHEDULE, "crossing-1", rounds[pick_round % len(rounds)], ordering)

    @rule(who=_who)
    def reward_the_other(self, who):
        """A fee paid to the other adversary for the real intersection.
        The ledger takes it until it knows who owes whom: not asserted."""
        tx = self._signed(
            who, ledger.RewardTx, tf=self.net.clock, from_id=self.advs[who].ivtp_id,
            to_id=self.advs[1 - who].ivtp_id, amount=arbitration.REWARD_MILLI_TRUST,
            reason="crossing-1",
        )
        self._send(who, KIND_REWARD_NOTICE, tx)

    @rule()
    def ghost_beacon(self):
        self._send_as(self.ghost, KIND_BEACON)

    @rule(source=_sources, pick=st.integers(min_value=0), verdict=_verdicts)
    def ghost_endorse(self, source, pick, verdict):
        self._send_as(self.ghost, KIND_ENDORSE, self._tx_id(source, pick), verdict)

    @rule()
    def ghost_comm(self):
        """A comm carrying the ghost's own well-signed CommTx."""
        now, me = self.net.clock, self.ghost.ivtp_id
        tx = ledger.sign_tx(ledger.CommTx(
            author=me, tf=now, signature=b"", sender=me, receivers=tuple(self.ids[:2]),
            message_hash=identity.sha256(b"m"), tf_sent=now,
        ), self.ghost.keypair)
        self._send_as(self.ghost, KIND_COMM, b"m", tx)

    @invariant()
    def supply_is_conserved_and_the_chain_validates(self):
        assert ledger.total_supply(self.chain) == self.supply
        if self.chain.height != self.valid_height:
            assert ledger.validate_chain(self.chain).ok
            self.valid_height = self.chain.height

    @invariant()
    def every_drop_is_the_pipelines(self):
        """A registered sender's frame drops past the key lookup; the
        ghost's frame drops at it."""
        for sender, reason in self.dropped:
            if sender == self.ghost.ivtp_id:
                assert reason == "unknown_sender"
            else:
                assert reason in _PIPELINE_REASONS or reason.startswith("bad_payload:")

    @invariant()
    def no_table_or_pool_holds_an_unregistered_id(self):
        """What the gate admits alone reaches a beacon table or the pool."""
        registered = self.chain.state.registrations.keys()
        host = self.endpoints[0]
        for endpoint in self.endpoints:
            assert endpoint.beacons.keys() <= registered
        for item in host.pending.values():
            assert item.tx.author in registered and item.verdicts.keys() <= registered
        for entries in host.early_endorsements.values():
            assert all(endorser in registered for _, endorser, _ in entries)

    @invariant()
    def outsiders_never_retry_or_end_a_session(self):
        """The outsiders' frames never move crossing-1 past round 0, nor
        end it but by the honest proposer's outcome: a committed session
        holds that proposer, one of its participants."""
        for v in self.endpoints[1:]:
            s = v.sessions["crossing-1"]
            proposer = arbitration.elect(s.participants, s.compute_delays, 0)
            assert s.round == 0 and s.phase is not Phase.ABORTED
            assert s.phase is not Phase.COMMITTED or s.proposer == proposer

    @invariant()
    def no_handler_runs_unchecked(self):
        assert self.unchecked == []


TestAdversaries = AdversaryMachine.TestCase
TestAdversaries.settings = settings(max_examples=50, stateful_step_count=40, deadline=None)
