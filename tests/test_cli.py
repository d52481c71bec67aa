"""Command line: run, inspect, vectors. Exit codes and output shapes."""

import dataclasses
import hashlib
import json
import os
import pathlib
import threading

import pytest

from ivtp import cli, identity, ledger, scenario, sim
from conftest import Meter, counting_ed25519, read_chain, signed_comm, tag2_tx_bytes

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
# SHA-256 of what TestInspectQueries.test_query_output_is_locked prints
# for each run's chain.bin.
QUERY_DIGESTS = {
    "intersection_table2": "cdf7354afce53682530ba2ed30b8c24b98ca07a6239f811c4fa898f56c63ec74",
    "synthetic_n4": "1ac3b9dd11ab089805eedb723f73cc2bc7cfcb2bf6175b3083b02cbaf8ce998d",
}


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One intersection run persisted to disk, shared by inspect tests."""
    out = tmp_path_factory.mktemp("run")
    cfg = scenario.load_scenario(SCENARIOS / "intersection_table2.json")
    handles = sim.run(cfg, out_dir=out)
    return out, handles


def _write_forged(path, blocks, endowment):
    """Write blocks as a chain file whose checksum is rebuilt to match."""
    body = b"".join(
        [ledger.CHAIN_MAGIC, bytes([ledger.CHAIN_VERSION]), ledger._u64(endowment)]
        + [ledger._blob(ledger.encode_block(b)) for b in blocks]
    )
    path.write_bytes(body + hashlib.sha256(body).digest())


class TestRunCommand:
    def test_run_prints_outcome_and_writes_artifacts(self, tmp_path, capsys):
        rc = cli.main(
            [
                "run",
                "--scenario",
                str(SCENARIOS / "intersection_table2.json"),
                "--out",
                str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "crossing-1: committed [IV-1 -> IV-2 -> IV-3 -> IV-4]" in out
        assert "proposer IV-3" in out
        assert "reward 500 milli-trust IV-1 -> IV-3" in out
        assert "trace digest" in out
        for fname in ("chain.bin", "trace.jsonl", "report.json"):
            assert (tmp_path / fname).exists()

    def test_out_naming_a_file_is_usage_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        scenario_file = str(SCENARIOS / "intersection_table2.json")
        assert cli.main(["run", "--scenario", scenario_file, "--out", str(taken)]) == 2
        assert capsys.readouterr().err.startswith("cannot write to --out: ")
        assert taken.read_text() == ""

    def test_missing_scenario_is_usage_error(self, capsys):
        assert cli.main(["run", "--scenario", "/nonexistent.json"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_directory_as_scenario_is_usage_error(self, tmp_path, capsys):
        assert cli.main(["run", "--scenario", str(tmp_path)]) == 2
        assert "unreadable" in capsys.readouterr().err

    def test_undecodable_scenario_fails(self, tmp_path, capsys):
        p = tmp_path / "latin1.json"
        p.write_bytes(b'{"vehicles": [\n{"alias": "A\xff"}]}')
        assert cli.main(["run", "--scenario", str(p)]) == 1
        assert capsys.readouterr().err.startswith("bad scenario: line 2: ")

    def test_unparseable_scenario_fails(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        assert cli.main(["run", "--scenario", str(p)]) == 1
        assert "bad scenario" in capsys.readouterr().err

    def test_invalid_schema_fails(self, tmp_path, capsys):
        p = tmp_path / "empty.json"
        p.write_text('{"vehicles": []}')
        assert cli.main(["run", "--scenario", str(p)]) == 1
        assert "vehicles" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, fieldname",
        [
            ({"network": {"drop_probability": "x"}}, "network.drop_probability"),
            ({"network": {"drop_probability": None}}, "network.drop_probability"),
            ({"intersections": 5}, "intersections"),
            ({"comms": 7}, "comms"),
            ({"vehicles": [{"alias": "A", "seed": [1, 2]}]}, "vehicles[0].seed"),
            (
                {"intersections": [{
                    "id": 3, "participants": ["A"], "arrival_ms": {"A": 0},
                    "compute_delay_ms": {"A": 1},
                }]},
                "intersections[0].id",
            ),
            ({"comms": [{"sender": "A", "payload": {"a": 1}}]}, "comms[0].payload"),
            # Integers go on the wire as u64: a wider one is refused up front.
            ({"ledger": {"endowment_millitrust": 2**64}}, "ledger.endowment_millitrust"),
            ({"comms": [{"sender": "A", "at_ms": 2**64}]}, "comms[0].at_ms"),
            # Two vehicles of one key made the dealer refuse the second key;
            # a vehicle named dealer hid its balance behind the dealer's.
            ({"vehicles": [{"alias": "A"}, {"alias": "B", "seed": "A"}]}, "vehicles[1].seed"),
            ({"vehicles": [{"alias": "dealer"}, {"alias": "B"}]}, "vehicles[0].alias"),
            # A misspelled field was read as absent, and its default ran.
            ({"consensus": {"beacon_perod_ms": 1}}, "consensus.beacon_perod_ms"),
        ],
    )
    def test_wrongly_typed_field_is_a_schema_error(self, tmp_path, capsys, extra, fieldname):
        p = tmp_path / "typed.json"
        p.write_text(json.dumps({"vehicles": [{"alias": "A"}], **extra}))
        assert cli.main(["run", "--scenario", str(p)]) == 1
        assert capsys.readouterr().err.startswith(f"bad scenario: {fieldname}: ")


    def test_lone_surrogate_is_refused_before_the_run(self, tmp_path, capsys):
        """A JSON string escape of half a surrogate pair is no UTF-8: the
        run raised UnicodeEncodeError mid-run, after part of trace.jsonl."""
        p = tmp_path / "surrogate.json"
        p.write_text(json.dumps({
            "vehicles": [{"alias": "A"}],
            "intersections": [{
                "id": "\ud800", "participants": ["A"],
                "arrival_ms": {"A": 0}, "compute_delay_ms": {"A": 1},
            }],
        }))
        out = tmp_path / "out"
        assert cli.main(["run", "--scenario", str(p), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("bad scenario: intersections[0].id: ")
        assert not (out / "trace.jsonl").exists()


class TestInspectValidate:
    def test_fresh_chain_validates(self, run_dir, capsys):
        out_dir, _ = run_dir
        rc = cli.main(["inspect", str(out_dir / "chain.bin"), "validate"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("ok:")

    def test_tampered_block_names_the_height(self, run_dir, tmp_path, capsys):
        """Flip one signature byte inside block 2 and rebuild the file
        checksum: replay must point at block 2 exactly."""
        out_dir, handles = run_dir
        blocks = list(handles.chain.blocks)
        import dataclasses

        victim = blocks[2]
        tx = victim.txs[0]
        forged_tx = dataclasses.replace(
            tx, signature=bytes([tx.signature[0] ^ 1]) + tx.signature[1:]
        )
        blocks[2] = dataclasses.replace(victim, txs=(forged_tx,) + victim.txs[1:])
        path = tmp_path / "tampered.bin"
        _write_forged(path, blocks, handles.chain.state.endowment)

        rc = cli.main(["inspect", str(path), "validate"])
        out = capsys.readouterr().out
        assert rc == 1
        assert out.startswith("INVALID:")
        assert "block 2" in out

    def test_duplicated_tx_refused(self, run_dir, tmp_path, capsys):
        """Repeating block 7's single reward keeps its Merkle root (an odd
        leaf pairs with itself), so block hashes still link; with the file
        checksum rebuilt, only the repeated-tx rule stops a second payment."""
        out_dir, handles = run_dir
        import dataclasses

        blocks = list(handles.chain.blocks)
        (reward,) = blocks[7].txs
        assert isinstance(reward, ledger.RewardTx)
        blocks[7] = dataclasses.replace(blocks[7], txs=(reward, reward))
        assert ledger.merkle_root([reward.tx_id] * 2) == blocks[7].merkle_root
        path = tmp_path / "doubled.bin"
        _write_forged(path, blocks, handles.chain.state.endowment)

        with pytest.raises(ledger.CorruptChainFileError, match="duplicate_tx"):
            read_chain(path)
        assert cli.main(["inspect", str(path), "validate"]) == 1
        assert "block 7" in capsys.readouterr().out

    def test_tag_2_transaction_refused(self, run_dir, tmp_path, capsys):
        """A block appended to a real chain, holding one tag-2 record
        signed by a registered vehicle, with its Merkle root, link and
        the file checksum all rebuilt: the file is still refused."""
        out_dir, handles = run_dir
        veh = handles.vehicles["IV-1"]
        tip = handles.chain.tip
        raw = tag2_tx_bytes(veh.keypair, veh.ivtp_id, tf=tip.timestamp)
        header = ledger.Block(
            height=tip.height + 1,
            prev_hash=tip.block_hash,
            merkle_root=ledger.merkle_root([identity.sha256(raw)]),
            timestamp=tip.timestamp,
            txs=(),
        ).header_bytes()
        body = (out_dir / "chain.bin").read_bytes()[: -ledger.HASH_LEN]
        body += ledger._blob(header + ledger._u32(1) + ledger._blob(raw))
        path = tmp_path / "tag2.bin"
        path.write_bytes(body + identity.sha256(body))

        with pytest.raises(ledger.CorruptChainFileError, match="unknown transaction tag 2"):
            read_chain(path)
        assert cli.main(["inspect", str(path), "validate"]) == 1
        assert "unknown transaction tag 2" in capsys.readouterr().err

    def test_tx_after_its_block_refused(self, run_dir, tmp_path, capsys):
        """A block appended to a real chain, holding a well-signed comm
        whose tf is later than the block's timestamp, with its Merkle
        root, link and the file checksum all rebuilt: still invalid."""
        out_dir, handles = run_dir
        veh = handles.vehicles["IV-1"]
        tip = handles.chain.tip
        tx = signed_comm(veh.keypair, veh.ivtp_id, tf=tip.timestamp + 1)
        block = ledger.Block(
            height=tip.height + 1,
            prev_hash=tip.block_hash,
            merkle_root=ledger.merkle_root([tx.tx_id]),
            timestamp=tip.timestamp,
            txs=(tx,),
        )
        body = (out_dir / "chain.bin").read_bytes()[: -ledger.HASH_LEN]
        body += ledger._blob(ledger.encode_block(block))
        path = tmp_path / "late.bin"
        path.write_bytes(body + identity.sha256(body))

        with open(path, "rb") as f:  # well formed: the parse alone reads it to a sound checksum
            chain_file = ledger.parse_chain_bytes(f)
            assert len(list(chain_file.blocks())) == len(handles.chain.blocks) + 1
            assert chain_file.checksum_ok
        with pytest.raises(ledger.CorruptChainFileError, match="tx_after_block"):
            read_chain(path)
        assert cli.main(["inspect", str(path), "validate"]) == 1
        assert "tx_after_block" in capsys.readouterr().out

    def test_bytes_after_a_blocks_last_tx_refused(self, run_dir, tmp_path, capsys):
        """One byte appended inside the last block's blob, after its last
        transaction, with the blob length and the file checksum rebuilt:
        the file would not re-encode to itself, so it is refused."""
        out_dir, handles = run_dir
        last = ledger._blob(ledger.encode_block(handles.chain.tip))
        body = (out_dir / "chain.bin").read_bytes()[: -ledger.HASH_LEN]
        assert body.endswith(last)
        body = body[: -len(last)] + ledger._blob(last[4:] + b"\x00")
        path = tmp_path / "trailing.bin"
        path.write_bytes(body + identity.sha256(body))

        with pytest.raises(ledger.CorruptChainFileError, match="trailing bytes after block"):
            read_chain(path)
        assert cli.main(["inspect", str(path), "validate"]) == 1
        assert "trailing bytes after block" in capsys.readouterr().err

    def test_header_tamper_caught_by_checksum(self, run_dir, tmp_path, capsys):
        """The endowment header is not covered by any block hash; the
        whole-file checksum is what catches it."""
        out_dir, _ = run_dir
        data = bytearray((out_dir / "chain.bin").read_bytes())
        data[12] ^= 0x01  # endowment low byte
        path = tmp_path / "header.bin"
        path.write_bytes(bytes(data))
        rc = cli.main(["inspect", str(path), "validate"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "checksum" in out

    def test_replay_fault_is_told_before_a_later_structural_fault(self, run_dir, tmp_path, capsys):
        """The file is replayed as it is read, so a replay fault in block
        2 is told even though the file breaks off further on: validate
        names block 2 on stdout, and a query refuses the chain for it."""
        out_dir, handles = run_dir
        blocks = list(handles.chain.blocks)
        blocks[2] = dataclasses.replace(blocks[2], merkle_root=b"\x22" * 32)
        _write_forged(tmp_path / "forged.bin", blocks, handles.chain.state.endowment)
        body = (tmp_path / "forged.bin").read_bytes()[: -ledger.HASH_LEN]
        path = tmp_path / "forged_then_cut.bin"
        cut = body + ledger._u32(2**32 - 1)
        path.write_bytes(cut + hashlib.sha256(cut).digest())  # a digest that holds

        assert cli.main(["inspect", str(path), "validate"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "INVALID: chain INVALID at block 2: merkle root mismatch\n"
        assert captured.err == ""
        assert cli.main(["inspect", str(path), "comm-table"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "corrupt chain file: chain INVALID at block 2: merkle root mismatch\n"
        # Without the replay fault, the cut is met and told as before.
        body = (out_dir / "chain.bin").read_bytes()[: -ledger.HASH_LEN]
        path.write_bytes(body + ledger._u32(2**32 - 1) + bytes(ledger.HASH_LEN))
        assert cli.main(["inspect", str(path), "validate"]) == 1
        assert capsys.readouterr().err == "corrupt chain file: truncated encoding\n"

    def test_query_tells_a_checksum_mismatch_before_a_replay_fault(self, run_dir, tmp_path, capsys):
        """A query checks the digest before it replays anything: a file
        with a bad block and a bad digest is refused for the digest.
        validate still names the bad block first."""
        _, handles = run_dir
        blocks = list(handles.chain.blocks)
        blocks[2] = dataclasses.replace(blocks[2], merkle_root=b"\x22" * 32)
        path = tmp_path / "forged.bin"
        _write_forged(path, blocks, handles.chain.state.endowment)
        data = bytearray(path.read_bytes())
        data[-1] ^= 1
        path.write_bytes(bytes(data))
        veh = handles.chain.blocks[1].txs[0].ivtp_id.hex()
        assert cli.main(["inspect", str(path), "balance", veh]) == 1
        assert capsys.readouterr().err == "corrupt chain file: file checksum mismatch\n"
        assert cli.main(["inspect", str(path), "validate"]) == 1
        assert capsys.readouterr().out == (
            "INVALID: chain INVALID at block 2: merkle root mismatch\n"
        )

    @pytest.mark.parametrize("query", ["balance", "history", "comm-table"])
    def test_header_flip_is_refused_before_any_verify(self, run_dir, tmp_path, capsys, query):
        """The endowment lies in no block hash, only under the file digest:
        a query refuses the flipped file without one Ed25519 verify."""
        out_dir, handles = run_dir
        data = bytearray((out_dir / "chain.bin").read_bytes())
        data[12] ^= 0x01  # endowment low byte
        path = tmp_path / "header.bin"
        path.write_bytes(bytes(data))
        veh = handles.chain.blocks[1].txs[0].ivtp_id.hex()
        with counting_ed25519(Meter()) as verifies:
            assert cli.main(["inspect", str(path), query, veh]) == 1
        assert verifies() == 0
        assert capsys.readouterr().err == "corrupt chain file: file checksum mismatch\n"

    def test_checksum_mismatch_refused_after_a_sound_replay(self, run_dir, tmp_path, capsys):
        out_dir, handles = run_dir
        data = bytearray((out_dir / "chain.bin").read_bytes())
        data[-1] ^= 1
        path = tmp_path / "digest.bin"
        path.write_bytes(bytes(data))
        veh = handles.chain.blocks[1].txs[0].ivtp_id.hex()
        assert cli.main(["inspect", str(path), "balance", veh]) == 1
        assert capsys.readouterr().err == "corrupt chain file: file checksum mismatch\n"
        assert cli.main(["inspect", str(path), "validate"]) == 1
        assert capsys.readouterr().out == "INVALID: file checksum mismatch (header bytes altered)\n"

    def test_chain_read_from_a_pipe(self, run_dir, tmp_path, capsys):
        """A chain path that cannot seek, such as a FIFO, is still read."""
        out_dir, handles = run_dir
        fifo = tmp_path / "chain.fifo"
        os.mkfifo(fifo)
        data = (out_dir / "chain.bin").read_bytes()
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        try:
            rc = cli.main(["inspect", str(fifo), "validate"])
        finally:
            writer.join(timeout=10)
        assert rc == 0 and not writer.is_alive()
        assert capsys.readouterr().out.startswith(f"ok: {len(handles.chain.blocks)} blocks")

    def test_truncated_file_is_corrupt(self, run_dir, tmp_path, capsys):
        out_dir, _ = run_dir
        data = (out_dir / "chain.bin").read_bytes()
        path = tmp_path / "trunc.bin"
        path.write_bytes(data[: len(data) // 2])
        assert cli.main(["inspect", str(path), "validate"]) == 1

    def test_missing_file(self, capsys):
        assert cli.main(["inspect", "/nonexistent.bin", "validate"]) == 2

    def test_directory_as_chain_is_usage_error(self, tmp_path, capsys):
        assert cli.main(["inspect", str(tmp_path), "balance", "x"]) == 2
        assert "unreadable" in capsys.readouterr().err

    def test_hand_flipped_signature_byte_is_bad_signature(self, run_dir, tmp_path, capsys):
        """One byte of a tip transaction's signature flipped in chain.bin,
        the tip's Merkle root and the file checksum rebuilt by hand: the
        replay checks the signature over the bytes the file holds."""
        out_dir, handles = run_dir
        tip = handles.chain.tip
        body = (out_dir / "chain.bin").read_bytes()[: -ledger.HASH_LEN]
        raw = [ledger.canonical_encode(tx) for tx in tip.txs]
        forged = raw[0][:-1] + bytes([raw[0][-1] ^ 1])
        root = ledger.merkle_root([hashlib.sha256(r).digest() for r in [forged, *raw[1:]]])
        assert body.count(raw[0]) == 1 and body.count(tip.merkle_root) == 1
        body = body.replace(raw[0], forged).replace(tip.merkle_root, root)
        path = tmp_path / "forged_sig.bin"
        path.write_bytes(body + hashlib.sha256(body).digest())

        with pytest.raises(ledger.CorruptChainFileError, match=f"block {tip.height}, .*bad_signature"):
            read_chain(path)
        assert cli.main(["inspect", str(path), "validate"]) == 1
        out = capsys.readouterr().out
        assert f"block {tip.height}," in out and out.rstrip().endswith("bad_signature")

    def test_hand_flipped_body_byte_is_merkle_mismatch(self, run_dir, tmp_path, capsys):
        """One byte inside block 2's first transaction body flipped in
        chain.bin, the file checksum rebuilt by hand: its id changes, so
        the block's Merkle root no longer matches."""
        out_dir, handles = run_dir
        tx = handles.chain.blocks[2].txs[0]
        body = bytearray((out_dir / "chain.bin").read_bytes()[: -ledger.HASH_LEN])
        at = bytes(body).index(ledger.canonical_encode(tx)) + 1 + 32 + 8  # past the envelope
        body[at] ^= 1
        path = tmp_path / "forged_body.bin"
        path.write_bytes(bytes(body) + hashlib.sha256(body).digest())

        with pytest.raises(ledger.CorruptChainFileError, match="block 2: merkle root mismatch"):
            read_chain(path)
        assert cli.main(["inspect", str(path), "validate"]) == 1
        assert "block 2: merkle root mismatch" in capsys.readouterr().out


class TestInspectQueries:
    def test_comm_table_lists_scripted_peers(self, run_dir, capsys):
        out_dir, handles = run_dir
        rc = cli.main(["inspect", str(out_dir / "chain.bin"), "comm-table"])
        assert rc == 0
        table = json.loads(capsys.readouterr().out)
        by_alias = {v: k for k, v in handles.net.names.items()}
        for alias in ("IV-1", "IV-2", "IV-3", "IV-4"):
            veh = by_alias[alias].hex()
            others = {
                by_alias[a].hex()
                for a in ("IV-1", "IV-2", "IV-3", "IV-4")
                if a != alias
            }
            assert set(table[veh]) == others

    def test_balance_replays_the_chain_once(self, run_dir, monkeypatch, capsys):
        """Every signature on the chain is verified exactly once."""
        out_dir, handles = run_dir
        real_verify = identity.verify
        calls = []

        def counting_verify(*args):
            calls.append(args)
            return real_verify(*args)

        monkeypatch.setattr(identity, "verify", counting_verify)
        vehicle = handles.chain.blocks[1].txs[0].ivtp_id.hex()
        assert cli.main(["inspect", str(out_dir / "chain.bin"), "balance", vehicle]) == 0
        signatures = sum(
            1 + isinstance(tx, ledger.RegisterTx) + len(getattr(tx, "agreements", ()))
            for block in handles.chain.blocks
            for tx in block.txs
        )
        assert len(calls) == signatures

    def test_balance_accepts_hex_prefix(self, run_dir, capsys):
        out_dir, handles = run_dir
        by_alias = {v: k for k, v in handles.net.names.items()}
        prefix = by_alias["IV-3"].hex()[:10]
        rc = cli.main(["inspect", str(out_dir / "chain.bin"), "balance", prefix])
        assert rc == 0
        body = json.loads(capsys.readouterr().out)
        assert body == {"vehicle": by_alias["IV-3"].hex(), "balance": 100_500}

    def test_history_lists_lifecycle(self, run_dir, capsys):
        out_dir, handles = run_dir
        by_alias = {v: k for k, v in handles.net.names.items()}
        rc = cli.main(
            ["inspect", str(out_dir / "chain.bin"), "history", by_alias["IV-1"].hex()]
        )
        assert rc == 0
        body = json.loads(capsys.readouterr().out)
        kinds = [row["kind"] for row in body["history"]]
        assert kinds == [
            "RegisterTx", "CommTx", "CommTx", "CommTx", "CommTx",
            "ArbitrationTx", "RewardTx",
        ]

    def test_unknown_vehicle(self, run_dir, capsys):
        out_dir, _ = run_dir
        rc = cli.main(["inspect", str(out_dir / "chain.bin"), "balance", "ffff"])
        assert rc == 1
        assert "unknown vehicle" in capsys.readouterr().err

    @pytest.mark.parametrize("query", ["balance", "history"])
    def test_ambiguous_prefix_is_not_an_unknown_vehicle(self, run_dir, capsys, query):
        """Three of the run's registered ids start with 8 (8e32…, 86d2…,
        84fc…): the prefix names none of them, and the message says so."""
        out_dir, _ = run_dir
        rc = cli.main(["inspect", str(out_dir / "chain.bin"), query, "8"])
        assert rc == 1
        assert capsys.readouterr().err == "ambiguous vehicle prefix: 8 matches 3 vehicles\n"

    def test_balance_requires_vehicle_argument(self, run_dir, capsys):
        out_dir, _ = run_dir
        assert cli.main(["inspect", str(out_dir / "chain.bin"), "balance"]) == 2

    def test_unknown_query_is_usage_error(self, run_dir, capsys):
        """argparse's choices refuse the query before the file is read."""
        out_dir, _ = run_dir
        assert cli.main(["inspect", str(out_dir / "chain.bin"), "bogus"]) == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_query_output_is_locked(self, tmp_path, capsys):
        """comm-table, then history for every registered id in ascending
        order, print the bytes whose SHA-256 is frozen in QUERY_DIGESTS.
        Between them the two runs commit all four transaction kinds."""
        kinds = set()
        for name, want in QUERY_DIGESTS.items():
            path = SCENARIOS / f"{name}.json"
            if not path.exists():
                path = ROOT / "vectors" / f"{name}.json"
            handles = sim.run(scenario.load_scenario(path), out_dir=tmp_path / name)
            chain = str(tmp_path / name / "chain.bin")
            kinds |= {type(tx).__name__ for b in handles.chain.blocks for tx in b.txs}
            assert cli.main(["inspect", chain, "comm-table"]) == 0
            printed = [capsys.readouterr().out]
            for veh in sorted(handles.chain.state.registrations):
                assert cli.main(["inspect", chain, "history", veh.hex()]) == 0
                printed.append(capsys.readouterr().out)
            assert hashlib.sha256("".join(printed).encode()).hexdigest() == want, name
        assert kinds == {"RegisterTx", "CommTx", "RewardTx", "ArbitrationTx"}

    def test_queries_refuse_corrupt_chains(self, run_dir, tmp_path, capsys):
        out_dir, _ = run_dir
        data = bytearray((out_dir / "chain.bin").read_bytes())
        data[12] ^= 0x01
        path = tmp_path / "bad.bin"
        path.write_bytes(bytes(data))
        assert cli.main(["inspect", str(path), "comm-table"]) == 1


class TestVectors:
    def test_matches_frozen_oracle_files(self, capsys):
        """The CLI's golden vectors must equal the values produced by an
        independent hashlib/Ed25519 derivation, frozen in vectors/."""
        assert cli.main(["vectors"]) == 0
        got = json.loads(capsys.readouterr().out)
        frozen_identity = json.loads((ROOT / "vectors" / "identity.json").read_text())
        frozen_merkle = json.loads((ROOT / "vectors" / "merkle.json").read_text())
        assert got["dealer"] == frozen_identity["dealer"]
        assert got["identity"] == frozen_identity["identity"]
        assert got["merkle"] == frozen_merkle["merkle"]


class TestUsage:
    def test_no_arguments(self, capsys):
        assert cli.main([]) == 2

    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    def test_console_script_entrypoint(self):
        """The ivtp console script resolves to the same main: through the
        installed entry point when the distribution is installed, else
        through the line pyproject.toml declares for it."""
        from importlib import import_module
        from importlib.metadata import PackageNotFoundError, distribution, entry_points

        try:
            distribution("ivtp")
        except PackageNotFoundError:
            module, _, attr = _declared_script("ivtp").partition(":")
            assert getattr(import_module(module), attr) is cli.main
        else:
            (ep,) = entry_points(group="console_scripts", name="ivtp")
            assert ep.load() is cli.main


def _declared_script(name: str) -> str:
    """The target of `name = "module:attr"` under [project.scripts] in
    pyproject.toml, read by hand because Python 3.10 has no tomllib."""
    text = (ROOT / "pyproject.toml").read_text()
    section = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    for line in section.splitlines():
        key, sep, value = line.partition("=")
        if sep and key.strip() == name:
            return value.strip().strip('"')
    raise AssertionError(f"pyproject.toml declares no {name} script")
