"""Scenario schema, the ledger host, and end-to-end runs."""

import dataclasses
import json
import pathlib
import re
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ivtp import consensus, identity, ledger, netsim, scenario, sim, vehicle
from ivtp.vehicle import KIND_BEACON, KIND_COMM, KIND_ENDORSE, Vehicle, make_frame
from conftest import make_fleet, read_chain, signed_comm, trace_from_rows

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


class TestSeedBytes:
    def test_hex_taken_verbatim(self):
        raw = "ab" * 32
        assert scenario.seed_bytes(raw) == bytes.fromhex(raw)

    def test_names_are_hashed(self):
        assert scenario.seed_bytes("IV-1") == identity.sha256(b"IV-1")

    def test_64_chars_of_non_hex_hashed(self):
        text = "z" * 64
        assert scenario.seed_bytes(text) == identity.sha256(text.encode())


class TestLoad:
    def test_bundled_intersection_scenario(self):
        cfg = scenario.load_scenario(SCENARIOS / "intersection_table2.json")
        assert [v.alias for v in cfg.vehicles] == ["IV-1", "IV-2", "IV-3", "IV-4"]
        (crossing,) = cfg.intersections
        assert crossing.id == "crossing-1"
        assert crossing.arrival_ms == {
            "IV-1": 1000, "IV-2": 1010, "IV-3": 1030, "IV-4": 1070,
        }
        assert crossing.compute_delay_ms == {
            "IV-1": 9, "IV-2": 8, "IV-3": 5, "IV-4": 7,
        }
        assert len(cfg.comms) == 4
        assert cfg.network.seed == 0

    def test_defaults(self):
        cfg = scenario.scenario_from_dict({"vehicles": [{"alias": "A"}]})
        assert cfg.network == scenario.NetworkConfig(0, 0, 0.0, 0)
        assert cfg.consensus.beacon_period_ms == 100
        assert cfg.consensus.beacon_window_ms == 500
        assert cfg.consensus.pending_ttl_ms == 2000
        assert cfg.consensus.agree_timeout_ms == 150
        assert cfg.ledger.endowment_millitrust == 100_000
        assert cfg.run.t_end_ms == 2000
        assert cfg.vehicles[0].seed == "A"  # alias doubles as key seed

    def test_parse_error_carries_line(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{\n  "vehicles": [\n')
        with pytest.raises(scenario.ParseError) as err:
            scenario.load_scenario(p)
        assert err.value.line >= 2

    def test_undecodable_file_is_a_parse_error(self, tmp_path):
        p = tmp_path / "latin1.json"
        p.write_bytes(b'{\n  "vehicles": [{"alias": "\xe9"}]}')
        with pytest.raises(scenario.ParseError) as err:
            scenario.load_scenario(p)
        assert err.value.line == 2

    def test_integers_up_to_u64_max_accepted(self):
        raw = {"vehicles": [{"alias": "A"}], "ledger": {"endowment_millitrust": 2**64 - 1}}
        assert scenario.scenario_from_dict(raw).ledger.endowment_millitrust == 2**64 - 1

    @pytest.mark.parametrize(
        "raw, fieldname",
        [
            ({}, "vehicles"),
            ({"vehicles": []}, "vehicles"),
            (
                {"vehicles": [{"alias": "A"}, {"alias": "A"}]},
                "vehicles[1].alias",
            ),
            (
                {"vehicles": [{"alias": "A"}],
                 "network": {"drop_probability": 1.5}},
                "network.drop_probability",
            ),
            (
                {"vehicles": [{"alias": "A"}],
                 "network": {"latency_ms": -1}},
                "network.latency_ms",
            ),
            (
                {"vehicles": [{"alias": "A"}],
                 "intersections": [{
                     "id": "x", "participants": ["A", "B"],
                     "arrival_ms": {"A": 0, "B": 0},
                     "compute_delay_ms": {"A": 1, "B": 1},
                 }]},
                "intersections[0].participants",
            ),
            (
                {"vehicles": [{"alias": "A"}],
                 "intersections": [{
                     "id": "x", "participants": ["A"],
                     "arrival_ms": {},
                     "compute_delay_ms": {"A": 1},
                 }]},
                "intersections[0].arrival_ms",
            ),
            (
                {"vehicles": [{"alias": "A"}],
                 "intersections": [{
                     "id": "x", "participants": ["A"],
                     "arrival_ms": {"A": 0},
                     "compute_delay_ms": {"A": 0},
                 }]},
                "intersections[0].compute_delay_ms.A",
            ),
            (
                {"vehicles": [{"alias": "A"}],
                 "comms": [{"sender": "B"}]},
                "comms[0].sender",
            ),
            (
                {"vehicles": [{"alias": "A"}], "reward_direction": "up"},
                "reward_direction",
            ),
            (
                {"vehicles": [{"alias": "A"}], "network": {"drop_probability": "x"}},
                "network.drop_probability",
            ),
            (
                {"vehicles": [{"alias": "A"}], "network": {"drop_probability": None}},
                "network.drop_probability",
            ),
            ({"vehicles": [{"alias": "A"}], "intersections": 5}, "intersections"),
            ({"vehicles": [{"alias": "A"}], "comms": 7}, "comms"),
            ({"vehicles": [{"alias": "A"}], "comms": [{"sender": ["A"]}]}, "comms[0].sender"),
            (
                {"vehicles": [{"alias": "A"}],
                 "intersections": [{"id": "x", "participants": [["A"]]}]},
                "intersections[0].participants",
            ),
            # Strings are never made from other JSON values.
            ({"vehicles": [{"alias": "A", "seed": [1, 2]}]}, "vehicles[0].seed"),
            ({"vehicles": [{"alias": "A", "seed": 7}]}, "vehicles[0].seed"),
            (
                {"vehicles": [{"alias": "A"}],
                 "intersections": [{
                     "id": ["x"], "participants": ["A"],
                     "arrival_ms": {"A": 0}, "compute_delay_ms": {"A": 1},
                 }]},
                "intersections[0].id",
            ),
            (
                {"vehicles": [{"alias": "A"}], "comms": [{"sender": "A", "payload": {"a": 1}}]},
                "comms[0].payload",
            ),
            ({"vehicles": [{"alias": "A"}], "comms": [{"sender": "A", "payload": None}]},
             "comms[0].payload"),
            ({"vehicles": [{"alias": "A"}], "name": 5}, "name"),
            ({"vehicles": [{"alias": "A"}], "name": None}, "name"),
            # Every integer goes on the wire as a u64.
            ({"vehicles": [{"alias": "A"}], "run": {"t_end_ms": 2**64}}, "run.t_end_ms"),
            (
                {"vehicles": [{"alias": "A"}],
                 "intersections": [{
                     "id": "x", "participants": ["A"],
                     "arrival_ms": {"A": 2**64}, "compute_delay_ms": {"A": 1},
                 }]},
                "intersections[0].arrival_ms.A",
            ),
            # Two vehicles whose seeds, after seed_bytes, give one key: the
            # alias is the default seed, and a name is its SHA-256 in hex.
            ({"vehicles": [{"alias": "IV-1"}, {"alias": "IV-2", "seed": "IV-1"}]},
             "vehicles[1].seed"),
            ({"vehicles": [{"alias": "A", "seed": identity.sha256(b"B").hex()}, {"alias": "B"}]},
             "vehicles[1].seed"),
            ({"vehicles": [{"alias": "A", "seed": "ab" * 32}, {"alias": "B", "seed": "AB" * 32}]},
             "vehicles[1].seed"),
            # The run's own names for the dealer and the ledger host.
            ({"vehicles": [{"alias": "A"}, {"alias": "dealer"}]}, "vehicles[1].alias"),
            ({"vehicles": [{"alias": "host"}]}, "vehicles[0].alias"),
            # A misspelled field is refused, not read as absent: the first
            # unknown key in file order is named.
            ({"vehicles": [{"alias": "A"}], "netwrok": {"latency_ms": 5}}, "netwrok"),
            ({"vehicles": [{"alias": "A"}], "consensus": {"beacon_perod_ms": 1}},
             "consensus.beacon_perod_ms"),
            ({"vehicles": [{"alias": "A", "sed": "x"}]}, "vehicles[0].sed"),
            ({"vehicles": [{"alias": "A"}], "run": {"t_end": 5}}, "run.t_end"),
            ({"vehicles": [{"alias": "A"}], "ledger": {"endowment": 1}}, "ledger.endowment"),
            (
                {"vehicles": [{"alias": "A"}],
                 "intersections": [{
                     "id": "x", "participants": ["A"], "window_ms": 5,
                     "arrival_ms": {"A": 0}, "compute_delay_ms": {"A": 1},
                 }]},
                "intersections[0].window_ms",
            ),
            ({"vehicles": [{"alias": "A"}], "comms": [{"sender": "A", "at": 5}]}, "comms[0].at"),
            ({"vehicles": [{"alias": "A"}], "zz": 1, "aa": 2}, "zz"),
            ([], "$"),
            ({"vehicles": [{"alias": "A"}], "consensus": {"beacon_period_ms": 0}}, "consensus"),
            ({"vehicles": [5]}, "vehicles[0]"),
            ({"vehicles": [{"alias": ""}]}, "vehicles[0].alias"),
            ({"vehicles": [{"alias": "A"}], "intersections": [{"participants": ["A"]}]},
             "intersections[0]"),
            ({"vehicles": [{"alias": "A"}], "intersections": [{"id": "x", "participants": []}]},
             "intersections[0].participants"),
            (
                {"vehicles": [{"alias": "A"}],
                 "intersections": [{"id": "x", "participants": ["A", "A"]}]},
                "intersections[0].participants",
            ),
            ({"vehicles": [{"alias": "A"}], "comms": [5]}, "comms[0]"),
            # A lone surrogate escape is legal JSON but no UTF-8: refused
            # here, not raised as UnicodeEncodeError by the run.
            ({"vehicles": [{"alias": "A"}], "name": "\ud800"}, "name"),
            ({"vehicles": [{"alias": "\ud800"}]}, "vehicles[0].alias"),
            ({"vehicles": [{"alias": "A", "seed": "\udfff"}]}, "vehicles[0].seed"),
            (
                {"vehicles": [{"alias": "A"}],
                 "intersections": [{
                     "id": "x\ud800", "participants": ["A"],
                     "arrival_ms": {"A": 0}, "compute_delay_ms": {"A": 1},
                 }]},
                "intersections[0].id",
            ),
            ({"vehicles": [{"alias": "A"}], "comms": [{"sender": "A", "payload": "\ud800"}]},
             "comms[0].payload"),
        ],
    )
    def test_validation_errors_name_the_field(self, raw, fieldname):
        with pytest.raises(scenario.ValidationError) as err:
            scenario.scenario_from_dict(raw)
        assert err.value.field == fieldname

    def test_duplicate_intersection_ids_rejected(self):
        entry = {
            "id": "x", "participants": ["A"],
            "arrival_ms": {"A": 0}, "compute_delay_ms": {"A": 1},
        }
        with pytest.raises(scenario.ValidationError) as err:
            scenario.scenario_from_dict(
                {"vehicles": [{"alias": "A"}], "intersections": [entry, dict(entry)]}
            )
        assert err.value.field == "intersections"

    def test_read_has_no_check_for_other_field_types(self):
        """A field type _read cannot check raises, unless given its check."""

        @identity.frozen
        class Odd:
            share: "float"
            count: "int" = 0

        with pytest.raises(KeyError):
            scenario._read(Odd, {"share": 0.5}, "odd")
        odd = scenario._read(Odd, {"share": 0.5}, "odd", share=lambda where, value: value)
        assert odd == Odd(0.5)


def _as_json(cfg: scenario.ScenarioConfig) -> dict:
    """cfg as the JSON object of a scenario file."""
    return json.loads(json.dumps(dataclasses.asdict(cfg)))


_u64s = st.integers(0, 2**64 - 1)
_positive = st.integers(1, 2**64 - 1)


@st.composite
def _configs(draw) -> scenario.ScenarioConfig:
    """A valid ScenarioConfig: it meets every rule of the schema."""
    aliases = draw(
        st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=4, unique=True)
        .filter(lambda xs: not {scenario.DEALER_ALIAS, scenario.HOST_ALIAS} & set(xs))
    )
    seeds = [draw(st.just(a) | st.text(max_size=8)) for a in aliases]
    assume(len({scenario.seed_bytes(seed) for seed in seeds}) == len(seeds))
    intersections = []
    for iid in draw(st.lists(st.text(max_size=6), max_size=3, unique=True)):
        members = tuple(draw(st.permutations(aliases))[: draw(st.integers(1, len(aliases)))])
        intersections.append(scenario.IntersectionSpec(
            id=iid,
            participants=members,
            arrival_ms={a: draw(_u64s) for a in members},
            compute_delay_ms={a: draw(_positive) for a in members},
            collection_window_ms=draw(_u64s),
        ))
    comms = st.builds(scenario.CommSpec, st.sampled_from(aliases), _u64s, st.text(max_size=8))
    return scenario.ScenarioConfig(
        name=draw(st.text(max_size=8)),
        network=draw(st.builds(scenario.NetworkConfig, _u64s, _u64s, st.floats(0, 1), _u64s)),
        consensus=draw(st.builds(consensus.ConsensusConfig, _positive, _positive, _u64s, _u64s)),
        ledger=scenario.LedgerConfig(draw(_u64s)),
        vehicles=tuple(map(scenario.VehicleSpec, aliases, seeds)),
        intersections=tuple(intersections),
        comms=tuple(draw(st.lists(comms, max_size=3))),
        run=scenario.RunConfig(draw(_u64s)),
    )


class TestRoundTrip:
    """A valid config written as a scenario file's JSON reads back equal."""

    @given(_configs())
    @settings(max_examples=100, deadline=None)
    def test_generated_config(self, cfg):
        assert scenario.scenario_from_dict(_as_json(cfg)) == cfg

    @pytest.mark.parametrize(
        "path",
        sorted(SCENARIOS.glob("*.json")) + sorted((ROOT / "vectors").glob("synthetic_n*.json")),
        ids=lambda path: path.name,
    )
    def test_bundled_config(self, path):
        cfg = scenario.load_scenario(path)
        assert scenario.scenario_from_dict(_as_json(cfg)) == cfg


# A row of README's scenario field table: `section.field` | default |.
_README_ROW = re.compile(r"^\| `(\w+(?:\[\])?)\.(\w+)` \| ([^|]*) \|", re.M)


def test_readme_scenario_defaults_are_the_dataclass_defaults():
    """Each default in the table is the literal its field defaults to, and
    each field with a default has a row: the two cannot drift apart."""
    text = (ROOT / "README.md").read_text()
    table = text[text.index("## Scenario files"):text.index("## Run artifacts")]
    cells = {(section, name): cell.strip() for section, name, cell in _README_ROW.findall(table)}
    sections = {
        "network": scenario.NetworkConfig, "consensus": consensus.ConsensusConfig,
        "ledger": scenario.LedgerConfig, "vehicles[]": scenario.VehicleSpec,
        "intersections[]": scenario.IntersectionSpec, "comms[]": scenario.CommSpec,
        "run": scenario.RunConfig,
    }
    assert {section for section, _ in cells} <= set(sections)
    for section, cls in sections.items():
        for f in dataclasses.fields(cls):
            cell = cells.get((section, f.name))
            if f.default is dataclasses.MISSING:
                assert cell in (None, "required", "the alias"), f"{section}.{f.name}"
            else:
                assert cell is not None, f"no row for {section}.{f.name}"
                value = json.loads(cell)
                assert (type(value), value) == (type(f.default), f.default), f"{section}.{f.name}"


def _signed(tx, kp):
    return dataclasses.replace(
        tx, signature=identity.sign(kp, ledger.tx_signing_bytes(tx))
    )


class TestLedgerHost:
    def _host(self, n=3, ttl=2000, beacons_at=None):
        _, chain, ids, keys = make_fleet(n)
        host = sim.LedgerHost(chain, consensus.ConsensusConfig(pending_ttl_ms=ttl))
        if beacons_at is not None:
            # Liveness first: with nobody active the quorum threshold is
            # zero and everything would commit on ingestion.
            for veh in ids:
                beacon = Vehicle(veh, keys[veh], chain).emit_beacon(beacons_at)
                host.handle_frame(beacon, now=beacons_at)
        return host, chain, ids, keys

    def test_beacons_feed_freshness_not_the_pool(self):
        host, chain, ids, keys = self._host()
        beacon = Vehicle(ids[0], keys[ids[0]], chain).emit_beacon
        host.handle_frame(beacon(10), now=10)
        assert host.pending == {}
        assert host.beacons == {ids[0]: 10}
        host.handle_frame(beacon(5), now=11)  # older tf must not regress
        assert host.beacons == {ids[0]: 10}

    def test_forged_beacon_ignored(self):
        host, chain, ids, keys = self._host()
        genuine = Vehicle(ids[0], keys[ids[0]], chain).emit_beacon(10)
        ghost_kp = identity.keygen(identity.sha256(b"ghost"))
        for forged in (
            dataclasses.replace(genuine, tf=20),  # tf changed after signing
            dataclasses.replace(genuine, signature=bytes(64)),
            make_frame(KIND_BEACON, keys[ids[1]], ids[0], 10, genuine.payload),
            make_frame(KIND_BEACON, ghost_kp, identity.sha256(b"ghost"), 10, b"{}"),
        ):
            host.handle_frame(forged, now=20)
        assert host.beacons == {}
        host.handle_frame(genuine, now=20)
        assert host.beacons == {ids[0]: 10}

    def test_duplicate_tx_pooled_once(self):
        host, _, ids, keys = self._host(beacons_at=1)
        tx = _signed(
            ledger.RewardTx(
                author=ids[0], tf=1, signature=b"", from_id=ids[0],
                to_id=ids[1], amount=1, reason="r",
            ),
            keys[ids[0]],
        )
        host.ingest_tx(tx, now=1)
        host.ingest_tx(tx, now=2)
        assert len(host.pending) == 1

    def test_early_endorsement_attaches_on_arrival(self):
        """Endorsements can outrun the transaction they vouch for."""
        host, _, ids, keys = self._host(beacons_at=1)
        tx = _signed(
            ledger.RewardTx(
                author=ids[0], tf=1, signature=b"", from_id=ids[0],
                to_id=ids[1], amount=1, reason="r",
            ),
            keys[ids[0]],
        )
        host.ingest_endorsement(tx.tx_id, ids[1], consensus.VERDICT_VALID, now=1)
        assert host.early_endorsements
        host.ingest_tx(tx, now=2)
        assert host.pending[tx.tx_id].count(consensus.VERDICT_VALID) == 1
        assert host.early_endorsements == {}

    def test_unverifiable_endorsement_ignored(self):
        host, _, ids, keys = self._host()
        tx_id = identity.sha256(b"t")
        body = vehicle.encode_payload(KIND_ENDORSE, tx_id, consensus.VERDICT_VALID)
        genuine = make_frame(KIND_ENDORSE, keys[ids[1]], ids[1], 1, body)
        ghost_kp = identity.keygen(identity.sha256(b"ghost"))
        for forged in (
            dataclasses.replace(
                genuine,
                payload=vehicle.encode_payload(KIND_ENDORSE, tx_id, consensus.VERDICT_INVALID),
            ),
            dataclasses.replace(genuine, signature=bytes(64)),
            make_frame(KIND_ENDORSE, keys[ids[2]], ids[1], 1, genuine.payload),
            make_frame(
                KIND_ENDORSE, ghost_kp, identity.sha256(b"ghost"), 1, genuine.payload
            ),
        ):
            host.handle_frame(forged, now=1)
        assert host.early_endorsements == {}
        host.handle_frame(genuine, now=1)
        assert list(host.early_endorsements) == [tx_id]

    def test_unregistered_endorser_ignored(self):
        """The frame pipeline drops an unregistered sender's well-signed
        endorse frame: nothing is pooled and the sender is never active."""
        host, _, _, _ = self._host()
        ghost = identity.sha256(b"ghost")
        body = vehicle.encode_payload(KIND_ENDORSE, identity.sha256(b"t"), consensus.VERDICT_VALID)
        host.handle_frame(make_frame(KIND_ENDORSE, identity.keygen(ghost), ghost, 1, body), now=1)
        assert host.drops == {"unknown_sender": 1}
        assert ghost not in host.active(1)
        assert host.pending == {} and host.early_endorsements == {}

    def test_early_endorsements_expire_with_the_ttl(self):
        """An endorsement for a tx the host never hears is dropped
        pending_ttl_ms after it arrived, not kept for the whole run."""
        host, _, ids, keys = self._host(ttl=100, beacons_at=1)
        tx_id, valid = identity.sha256(b"t"), consensus.VERDICT_VALID
        host.ingest_endorsement(tx_id, ids[1], valid, now=1)
        host.ingest_endorsement(tx_id, ids[2], valid, now=50)
        host.sweep(now=101)  # exactly ttl old: still kept
        assert host.early_endorsements == {tx_id: [(1, ids[1], valid), (50, ids[2], valid)]}
        host.sweep(now=102)
        assert host.early_endorsements == {tx_id: [(50, ids[2], valid)]}
        host.sweep(now=151)
        assert host.early_endorsements == {}

    @staticmethod
    def _endorse(host, keys, endorser, tx_id, verdict, at):
        """endorser's signed endorse frame of tx_id, heard by host at at."""
        body = vehicle.encode_payload(KIND_ENDORSE, tx_id, verdict)
        frame = make_frame(KIND_ENDORSE, keys[endorser], endorser, at, body)
        assert host.handle_frame(frame, at) == []

    def test_second_early_endorsement_outlives_the_first(self):
        """An endorser's repeat of an early endorsement is kept after its
        first expires, and counts once the tx arrives."""
        host, _, ids, keys = self._host(ttl=100, beacons_at=1)
        tx = signed_comm(keys[ids[0]], ids[0], tf=60)
        for at in (1, 50):
            self._endorse(host, keys, ids[1], tx.tx_id, consensus.VERDICT_VALID, at)
        host.sweep(now=102)  # the first is 101 ms old, past the ttl
        host.ingest_tx(tx, now=102)
        assert host.pending[tx.tx_id].count(consensus.VERDICT_VALID) == 1

    def test_authors_early_endorsement_never_counts(self):
        host, _, ids, keys = self._host(beacons_at=1)
        tx = signed_comm(keys[ids[0]], ids[0], tf=5)
        self._endorse(host, keys, ids[0], tx.tx_id, consensus.VERDICT_VALID, 2)
        self._endorse(host, keys, ids[1], tx.tx_id, consensus.VERDICT_VALID, 3)
        host.ingest_tx(tx, now=5)
        assert host.pending[tx.tx_id].count(consensus.VERDICT_VALID) == 1

    def test_later_verdict_never_replaces_the_first(self):
        """An endorser's first verdict stands, whether its later one
        arrives before the tx or after."""
        host, _, ids, keys = self._host(n=4, beacons_at=1)
        tx = signed_comm(keys[ids[0]], ids[0], tf=5)
        valid, invalid = consensus.VERDICT_VALID, consensus.VERDICT_INVALID
        self._endorse(host, keys, ids[1], tx.tx_id, valid, 2)
        self._endorse(host, keys, ids[1], tx.tx_id, invalid, 3)
        host.ingest_tx(tx, now=5)
        self._endorse(host, keys, ids[1], tx.tx_id, invalid, 6)
        item = host.pending[tx.tx_id]
        assert (item.count(valid), item.count(invalid)) == (1, 0)

    def test_ttl_reaps_stale_pending(self):
        host, _, ids, keys = self._host(ttl=100, beacons_at=1)
        tx = _signed(
            ledger.RewardTx(
                author=ids[0], tf=1, signature=b"", from_id=ids[0],
                to_id=ids[1], amount=1, reason="r",
            ),
            keys[ids[0]],
        )
        host.ingest_tx(tx, now=1)
        assert len(host.pending) == 1
        host.sweep(now=102)
        assert host.pending == {}

    def test_tx_from_the_future_is_not_pooled(self):
        """A tx whose tf is ahead of the host's clock is not pooled: no
        vehicle endorses it, so it would sit there until tf + ttl."""
        host, _, ids, keys = self._host(ttl=100, beacons_at=1)
        ahead = signed_comm(keys[ids[0]], ids[0], tf=10**9)
        host.ingest_tx(ahead, now=5)
        assert host.pending == {}
        on_time = signed_comm(keys[ids[0]], ids[0], tf=5)
        host.ingest_tx(on_time, now=5)
        assert [p.tx for p in host.pending.values()] == [on_time]

    def test_refused_frames_get_drop_rows(self):
        """The host refuses a frame for the reasons a vehicle would, and
        writes the same drop row under its own name."""
        host, chain, ids, keys = self._host()
        host.net = net = netsim.Network()
        ghost_kp = identity.keygen(identity.sha256(b"ghost"))
        genuine = Vehicle(ids[0], keys[ids[0]], chain).emit_beacon(10)
        stolen = vehicle.encode_payload(KIND_COMM, b"", signed_comm(keys[ids[1]], ids[1]))
        for f in (
            make_frame(KIND_BEACON, ghost_kp, identity.sha256(b"ghost"), 10, b"{}"),
            dataclasses.replace(genuine, tf=20),
            make_frame(KIND_COMM, keys[ids[0]], ids[0], 10, b"not json"),
            make_frame(KIND_ENDORSE, keys[ids[0]], ids[0], 10, b"[1]"),
            make_frame(KIND_COMM, keys[ids[0]], ids[0], 10, stolen),
            make_frame(99, keys[ids[0]], ids[0], 10, b"{}"),
        ):
            assert host.handle_frame(f, now=20) == []
        assert host.beacons == {} and host.pending == {} and host.early_endorsements == {}
        reasons = [r["detail"]["reason"].split(":")[0] for r in net.trace]
        assert reasons == [
            "unknown_sender", "bad_signature", "bad_payload", "bad_payload",
            "tx_sender_mismatch", "unknown_kind",
        ]
        assert {r["vehicle"] for r in net.trace} == {"host"}
        assert host.drop_count == 6
        assert host.drops["bad_signature"] == host.drops["unknown_kind"] == 1

    def test_quorum_commit_through_frames(self):
        """Host assembles a block purely from what it hears on the air."""
        _, chain, ids, keys = make_fleet(3)
        host = sim.LedgerHost(chain)
        net = netsim.Network()
        host.net = net
        net.join(host)
        vehicles = []
        for veh in ids:
            v = Vehicle(veh, keys[veh], chain)
            v.net = net
            net.join(v)
            vehicles.append(v)
        for v in vehicles:
            net.set_timer(v.ivtp_id, 0, ("beacon",))
        net.set_timer(vehicles[0].ivtp_id, 50, ("comm", b"hello"))
        before = chain.height
        net.run_until(200)
        comms = [
            tx
            for b in chain.blocks[before:]
            for tx in b.txs
            if isinstance(tx, ledger.CommTx)
        ]
        assert len(comms) == 1
        assert comms[0].author == ids[0]
        notes = [r for r in net.trace if r["kind"] == "block_committed"]
        assert notes


class TestRun:
    def test_intersection_run_report(self):
        cfg = scenario.load_scenario(SCENARIOS / "intersection_table2.json")
        handles = sim.run(cfg)
        report = handles.report
        session = report["sessions"]["crossing-1"]
        assert session["outcome"] == "committed"
        assert session["ordering"] == ["IV-1", "IV-2", "IV-3", "IV-4"]
        assert session["proposer"] == "IV-3"
        assert session["rounds"] == 1
        assert session["reward"] == {
            "from": "IV-1", "to": "IV-3", "amount": 500, "reason": "crossing-1",
        }
        assert report["balances"]["IV-3"] == 100_500
        assert report["balances"]["IV-1"] == 99_500
        assert ledger.validate_chain(handles.chain).ok

    def test_artifacts_written_and_reloadable(self, tmp_path):
        cfg = scenario.load_scenario(SCENARIOS / "intersection_table2.json")
        handles = sim.run(cfg, out_dir=tmp_path)
        for fname in ("chain.bin", "trace.jsonl", "report.json"):
            assert (tmp_path / fname).exists()
        loaded = read_chain(tmp_path / "chain.bin")
        assert loaded.tip.block_hash == handles.chain.tip.block_hash
        assert (tmp_path / "report.json").read_bytes() == sim.encode_report(
            handles.report
        )

    def test_report_rebuilds_byte_identical_from_artifacts(self, tmp_path):
        """The report is a pure function of chain + trace: regenerating
        it from the persisted artifacts reproduces the exact bytes."""
        cfg = scenario.load_scenario(SCENARIOS / "intersection_table2.json")
        handles = sim.run(cfg, out_dir=tmp_path)
        chain = read_chain(tmp_path / "chain.bin")
        trace_bytes = (tmp_path / "trace.jsonl").read_bytes()
        trace = trace_from_rows(json.loads(line) for line in trace_bytes.splitlines())
        assert trace.data == trace_bytes
        rebuilt = sim.build_report(
            cfg, chain, trace, handles.net.names, identity.sha256(trace_bytes)
        )
        assert sim.encode_report(rebuilt) == (tmp_path / "report.json").read_bytes()

    def test_run_writes_the_trace_without_copying_it(self, tmp_path):
        """Hashing and writing trace.jsonl reads the trace's own buffer: no
        moment of the run holds a second copy of the trace."""
        cfg = scenario.load_scenario(SCENARIOS.parent / "vectors" / "synthetic_n16.json")
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            handles = sim.run(cfg, out_dir=tmp_path)
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = len(handles.net.trace.data)
        assert size == (tmp_path / "trace.jsonl").stat().st_size > 500_000
        assert peak - live < size

    def test_trace_rows_are_well_formed(self):
        cfg = scenario.load_scenario(SCENARIOS / "broadcast_round.json")
        handles = sim.run(cfg)
        assert handles.net.trace
        for row in handles.net.trace:
            assert set(row) == {"t_ms", "vehicle", "dir", "kind", "detail"}
            assert row["dir"] in ("send", "recv", "drop", "note")
        times = [row["t_ms"] for row in handles.net.trace]
        assert times == sorted(times)

    def test_total_loss_aborts_sessions(self):
        cfg = scenario.load_scenario(SCENARIOS / "lossy_total.json")
        handles = sim.run(cfg)
        session = handles.report["sessions"]["crossing-1"]
        assert session["outcome"] == "aborted"
        assert session["fallback"]  # deterministic id-sorted order
        assert handles.report["rewards"] == []
        assert ledger.validate_chain(handles.chain).ok

    def test_supply_conserved_at_every_height(self):
        cfg = scenario.load_scenario(SCENARIOS / "intersection_table2.json")
        handles = sim.run(cfg)
        expected = len(cfg.vehicles) * cfg.ledger.endowment_millitrust
        replay = ledger.Chain.from_blocks(
            handles.chain.blocks[:1], handles.chain.state.endowment
        )
        assert ledger.total_supply(replay) == 0  # dealer holds nothing
        for block in handles.chain.blocks[1:]:
            # Block 1 mints the per-vehicle endowments; every later
            # block only moves balances around.
            replay.append_block(list(block.txs), timestamp=block.timestamp)
            assert ledger.total_supply(replay) == expected
