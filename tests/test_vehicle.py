"""Frame signing bytes, verification pipeline, and the intersection protocol."""

import dataclasses
import json
import pathlib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivtp import arbitration, consensus, identity, ledger, netsim, scenario, sim, vehicle
from ivtp.arbitration import Phase
from ivtp.vehicle import (
    KIND_BEACON,
    KIND_COMM,
    KIND_ENDORSE,
    KIND_INTENT,
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

_frames = st.builds(
    Frame,
    kind=st.integers(min_value=1, max_value=255),
    sender=_ids,
    tf=st.integers(min_value=0, max_value=2**64 - 1),
    payload=st.binary(max_size=200),
    signature=st.binary(min_size=64, max_size=64),
)


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


class TestPipeline:
    def test_unknown_sender_dropped_and_counted(self):
        _, _, (a, b) = _wire(2)
        ghost_kp = identity.keygen(identity.sha256(b"ghost"))
        f = make_frame(KIND_BEACON, ghost_kp, identity.sha256(b"ghost"), 0, b"{}")
        assert a.on_receive(f, 0) == []
        assert a.drop_count == 1
        assert a.drops == {"unknown_sender": 1}

    def test_bad_signature_dropped(self):
        _, _, (a, b) = _wire(2)
        f = make_frame(KIND_BEACON, b.keypair, b.ivtp_id, 0, b"{}")
        forged = dataclasses.replace(f, tf=999)
        a.on_receive(forged, 0)
        assert a.drops == {"bad_signature": 1}
        assert b.ivtp_id not in a.peer_beacons

    def test_malformed_payload_dropped(self):
        _, _, (a, b) = _wire(2)
        f = make_frame(KIND_COMM, b.keypair, b.ivtp_id, 0, b"not json")
        a.on_receive(f, 0)
        assert a.drop_count == 1
        (reason,) = a.drops
        assert reason.startswith("bad_payload")

    @pytest.mark.parametrize(
        "kind", [KIND_INTENT, KIND_SCHEDULE, KIND_COMM, KIND_ENDORSE, KIND_REWARD_NOTICE]
    )
    @pytest.mark.parametrize(
        "payload",
        [b"[1]", b'{"intersection":[1],"tx":[1],"tx_id":[1]}'],
        ids=["not_an_object", "fields_not_strings"],
    )
    def test_wrong_shape_payload_dropped_not_raised(self, kind, payload):
        """Valid JSON of the wrong shape from a registered vehicle: each
        vehicle that reads the payload drops the frame, and so does the
        ledger host if it reads that kind; the run goes on."""
        chain, net, (a, *receivers) = _wire(3)
        host = sim.LedgerHost(chain)
        host.net = net
        net.join(host)
        net.broadcast(make_frame(kind, a.keypair, a.ivtp_id, 5, payload), 5)
        net.run_until(10)
        # Endorsements are read only by the host.
        expected = 0 if kind == KIND_ENDORSE else 1
        assert [v.drop_count for v in receivers] == [expected] * 2
        assert all(reason.startswith("bad_payload:") for v in receivers for reason in v.drops)
        assert host.pending == {} and host.early_endorsements == {}
        host_reads = kind in (KIND_COMM, KIND_ENDORSE, KIND_REWARD_NOTICE)
        assert [r.split(":")[0] for r in host.drops] == (["bad_payload"] if host_reads else [])

    def test_beacon_updates_freshness_and_ignores_stale(self):
        _, _, (a, b) = _wire(2)
        beacon = b.emit_beacon(100)
        a.on_receive(beacon, 100)
        assert a.peer_beacons[b.ivtp_id] == 100
        a.on_receive(b.emit_beacon(50), 101)  # older tf must not regress
        assert a.peer_beacons[b.ivtp_id] == 100
        assert a.active_peers(400) == {b.ivtp_id}
        assert a.active_peers(601) == set()


class TestComm:
    def test_send_comm_targets_active_peers(self):
        _, _, (a, b, c) = _wire(3)
        a.on_receive(b.emit_beacon(10), 10)
        frame, tx = a.send_comm(b"hello", now=20)
        assert tx.receivers == (b.ivtp_id,)
        assert tx.message_hash == identity.sha256(b"hello")
        assert frame.kind == KIND_COMM

    def test_unregistered_sender_refused(self):
        chain, _, _ = _wire(1)
        kp = identity.keygen(identity.sha256(b"out"))
        outsider = Vehicle(identity.sha256(b"out"), kp, chain)
        with pytest.raises(vehicle.NotRegisteredError):
            outsider.send_comm(b"x", now=0)

    def test_valid_comm_yields_valid_endorsement(self):
        """The endorse frame carries tx_id and verdict under the frame
        signature alone; the ledger host pools it only untampered."""
        chain, _, (a, b) = _wire(2)
        a.on_receive(b.emit_beacon(10), 10)
        b.on_receive(a.emit_beacon(10), 10)
        frame, tx = b.send_comm(b"ping", now=20)
        out = a.on_receive(frame, 20)
        assert [f.kind for f in out] == [KIND_ENDORSE]
        body = json.loads(out[0].payload)
        assert body == {"tx_id": tx.tx_id.hex(), "verdict": consensus.VERDICT_VALID}
        host = sim.LedgerHost(chain)
        flipped = dataclasses.replace(
            out[0],
            payload=vehicle._compact({**body, "verdict": consensus.VERDICT_INVALID}),
        )
        host.handle_frame(flipped, 20)
        assert host.early_endorsements == {}
        host.handle_frame(out[0], 20)
        assert host.early_endorsements == {
            tx.tx_id: [(20, consensus.Endorsement(tx.tx_id, a.ivtp_id, consensus.VERDICT_VALID))]
        }

    def test_body_hash_mismatch_endorsed_invalid(self):
        """Broadcast content that contradicts the on-chain record is
        endorsed invalid, which feeds the reject quorum."""
        _, _, (a, b) = _wire(2)
        a.on_receive(b.emit_beacon(10), 10)
        b.on_receive(a.emit_beacon(10), 10)
        frame, tx = b.send_comm(b"ping", now=20)
        body = json.loads(frame.payload)
        body["body"] = b"pong".hex()
        forged = make_frame(
            KIND_COMM, b.keypair, b.ivtp_id, 20, vehicle._compact(body)
        )
        out = a.on_receive(forged, 20)
        assert json.loads(out[0].payload)["verdict"] == consensus.VERDICT_INVALID

    def test_comm_tx_author_must_be_frame_sender(self):
        _, _, (a, b, c) = _wire(3)
        _, tx = b.send_comm(b"x", now=5)
        stolen = make_frame(
            KIND_COMM,
            c.keypair,
            c.ivtp_id,
            5,
            vehicle._compact(
                {"body": b"x".hex(), "tx": ledger.canonical_encode(tx).hex()}
            ),
        )
        assert a.on_receive(stolen, 5) == []
        assert a.drops == {"tx_sender_mismatch": 1}

    def test_endorsement_dedup_by_tx_id(self):
        _, _, (a, b) = _wire(2)
        a.on_receive(b.emit_beacon(10), 10)
        b.on_receive(a.emit_beacon(10), 10)
        frame, _ = b.send_comm(b"ping", now=20)
        assert len(a.on_receive(frame, 20)) == 1
        assert a.on_receive(frame, 21) == []  # replays earn nothing

    def test_endorsed_keeps_only_the_last_ttl(self):
        """A replay within pending_ttl_ms is not endorsed again; past it
        the tx is stale (the ledger host would expire it) and is not
        endorsed either, so `endorsed` can forget it and stays bounded."""
        ttl, step = 200, 20
        _, _, (a, b) = _wire(2, cfg=consensus.ConsensusConfig(pending_ttl_ms=ttl))
        frames = {}
        for t in range(0, 10 * ttl, step):
            frames[t], _ = b.send_comm(b"ping %d" % t, now=t)
            assert len(a.on_receive(frames[t], t)) == 1
            for replayed in (t - ttl, t - ttl - step):
                if replayed in frames:
                    assert a.on_receive(frames[replayed], t) == []
            assert len(a.endorsed) <= ttl // step + 1
        assert list(a.endorsed.values()) == list(range(t - ttl, t + 1, step))
        ahead, _ = b.send_comm(b"from the future", now=t + 1)
        assert a.on_receive(ahead, t) == []

    def test_never_endorses_own_tx(self):
        _, _, (a, b) = _wire(2)
        b.on_receive(a.emit_beacon(10), 10)
        frame, _ = b.send_comm(b"ping", now=20)
        assert b._endorse_tx(
            ledger.canonical_decode(
                bytes.fromhex(json.loads(frame.payload)["tx"])
            ),
            None,
            20,
        ) == []


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
            assert s.schedule.ordering == tuple(ids)  # arrival order
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
        assert s.schedule.ordering == (vehicles[0].ivtp_id,)

    def test_duplicate_session_refused(self):
        _, net, (v,) = _wire(1)
        v.open_session("x-1", frozenset([v.ivtp_id]), {v.ivtp_id: 1}, 100)
        with pytest.raises(vehicle.SessionExistsError):
            v.open_session("x-1", frozenset([v.ivtp_id]), {v.ivtp_id: 1}, 100)

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
            assert s.schedule.ordering == tuple(ids)
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
        assert f.body["body"] == b"hello".hex()
        assert f.tx == tx
        assert {"body", "tx"} <= set(vars(f)) and not {"body", "tx"} & set(vars(twin))
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
        "payload",
        [
            b"not json",
            b'{"body": ""}',
            b'{"body": "", "tx": "zz"}',
            b"TRAILING",
        ],
        ids=["bad_json", "missing_tx", "bad_hex", "trailing_bytes"],
    )
    def test_malformed_payload_drops_alike_at_every_receiver(self, kind, payload):
        """A failed decode is not cached: each receiver raises afresh and
        drops with the same reason and the same trace row."""
        _, net, (a, *receivers) = _wire(4)
        if payload == b"TRAILING":
            tx = signed_comm(a.keypair, a.ivtp_id)
            payload = json.dumps({"body": "", "tx": (ledger.canonical_encode(tx) + b"\0").hex()})
            payload = payload.encode()
        f = make_frame(kind, a.keypair, a.ivtp_id, 5, payload)
        net.broadcast(f, 5)
        net.run_until(10)
        reasons = {reason for v in receivers for reason in v.drops}
        assert [v.drop_count for v in receivers] == [1, 1, 1]
        assert len(reasons) == 1 and reasons.pop().startswith("bad_payload:")
        drops = [r for r in net.trace if r["dir"] == "drop"]
        assert sorted(r["vehicle"] for r in drops) == ["IV-2", "IV-3", "IV-4"]
        assert len({json.dumps(r["detail"]) for r in drops}) == 1
        assert "tx" not in vars(f)


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
    payload = {"intersection": tx.intersection_id, "tx": ledger.canonical_encode(tx).hex()}
    net.broadcast(sender._frame(KIND_REWARD_NOTICE, payload, at), at)
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
        _, net, vehicles = _wire(n)
        ids = frozenset(v.ivtp_id for v in vehicles)
        for v in vehicles:
            v.open_session(iid, ids, {veh: 1 for veh in ids}, 10_000)
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

    def test_outsider_does_not_pay(self):
        net, (iv1, iv2, iv3, iv4) = self._open(4)
        iv1.sessions.clear()
        _announce(net, iv2, _arbitration(iv2, [iv1, iv2, iv3, iv4], "x-1", [iv1, iv3, iv4]), 5)
        assert _fees(iv1) == []
