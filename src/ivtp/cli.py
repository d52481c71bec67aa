"""Command line surface: run scenarios, inspect chain files, emit vectors.

Exit codes: 0 success, 1 validation or integrity failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import identity, ledger, sim
from .scenario import ParseError, ValidationError, load_scenario


def _cmd_run(args) -> int:
    try:
        cfg = load_scenario(args.scenario)
    except OSError as exc:  # missing, a directory, unreadable
        print(f"scenario not found or unreadable: {exc}", file=sys.stderr)
        return 2
    except (ParseError, ValidationError) as exc:
        print(f"bad scenario: {exc}", file=sys.stderr)
        return 1
    try:
        handles = sim.run(cfg, out_dir=args.out)
    except OSError as exc:  # --out names a file, or cannot be written
        print(f"cannot write to --out: {exc}", file=sys.stderr)
        return 2
    report = handles.report
    print(f"scenario {report['scenario']}: chain height {report['chain']['height']}")
    for iid, session in report["sessions"].items():
        if session["outcome"] == "committed":
            order = " -> ".join(session["ordering"])
            print(f"  {iid}: committed [{order}] proposer {session['proposer']}")
            if session["reward"]:
                r = session["reward"]
                print(f"    reward {r['amount']} milli-trust {r['from']} -> {r['to']}")
        else:
            print(f"  {iid}: aborted, fallback {session['fallback']}")
    print(f"  trace digest {report['trace_digest']}")
    if args.out:
        print(f"  wrote chain.bin, trace.jsonl, report.json to {args.out}")
    return 0


def _matching_vehicles(chain: ledger.Chain, query: str) -> list[bytes]:
    """The registered ids that a full 64-char hex id or a hex prefix names."""
    query = query.lower()
    return [veh for veh in chain.state.registrations if veh.hex().startswith(query)]


def _cmd_inspect(args) -> int:
    # Blocks are replayed as they are read: validate tells the first fault
    # met ahead of a checksum mismatch; a query refuses a mismatch unreplayed.
    try:
        with open(args.chain, "rb") as f:
            chain_file = ledger.parse_chain_bytes(f)
            if args.query == "validate":
                report = ledger.validate_blocks(chain_file.blocks(), chain_file.endowment)
            else:  # the other queries need a replay that is sound and a checksum that holds
                chain = chain_file.chain()
    except OSError as exc:  # missing, a directory, unreadable
        print(f"chain file not found or unreadable: {exc}", file=sys.stderr)
        return 2
    except ledger.CorruptChainFileError as exc:
        print(f"corrupt chain file: {exc}", file=sys.stderr)
        return 1

    if args.query == "validate":
        if not report.ok:
            # Replay pinpoints the damaged height; report it over the
            # blunter whole-file checksum.
            print(f"INVALID: {report.describe()}")
            return 1
        if not chain_file.checksum_ok:
            print("INVALID: file checksum mismatch (header bytes altered)")
            return 1
        blocks = report.blocks
        print(f"ok: {len(blocks)} blocks, tip {blocks[-1].block_hash.hex()[:16]}")
        return 0

    if args.query == "comm-table":
        table = ledger.comm_table(chain)
        out = {
            veh.hex(): [p.hex() for p in peers] for veh, peers in sorted(table.items())
        }
        print(json.dumps(out, indent=2, sort_keys=True))
        return 0

    # balance or history: argparse's choices refuse any other query
    if not args.vehicle:
        print(f"{args.query} needs a vehicle id", file=sys.stderr)
        return 2
    matches = _matching_vehicles(chain, args.vehicle)
    if len(matches) != 1:
        many = f"ambiguous vehicle prefix: {args.vehicle} matches {len(matches)} vehicles"
        print(many if matches else f"unknown vehicle: {args.vehicle}", file=sys.stderr)
        return 1
    (veh,) = matches
    if args.query == "balance":
        print(json.dumps({"vehicle": veh.hex(), "balance": ledger.balance(chain, veh)}))
        return 0
    rows = [
        {"tx_id": tx.tx_id.hex(), "kind": type(tx).__name__, "tf": tx.tf}
        for tx in ledger.history(chain, veh)
    ]
    print(json.dumps({"vehicle": veh.hex(), "history": rows}, indent=2))
    return 0


def _cmd_vectors(args) -> int:
    """Golden vectors for the identity derivation and the Merkle rule,
    for cross-implementation checks."""
    dealer = identity.DealerAuthority.from_name("dealer")
    idents = []
    for i in range(1, 5):
        alias = f"IV-{i}"
        kp = identity.keygen(identity.sha256(alias.encode()))
        issued = dealer.issue(kp.public_key)
        idents.append(
            {
                "alias": alias,
                "seed_sha256_of": alias,
                "public_key": kp.public_key.hex(),
                "counter": issued.counter,
                "ivtp_id": issued.ivtp_id.hex(),
            }
        )
    leaves = [identity.sha256(bytes([i])) for i in range(7)]
    merkle = [
        {
            "leaves": [leaf.hex() for leaf in leaves[: n + 1]],
            "root": ledger.merkle_root(leaves[: n + 1]).hex(),
        }
        for n in range(7)
    ]
    out = {
        "dealer": {"name": "dealer", "dealer_id": dealer.dealer_id.hex()},
        "identity": idents,
        "merkle": merkle,
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ivtp",
        description="Trust-point vehicle network simulator and chain inspector.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("--scenario", required=True, help="path to scenario JSON")
    p_run.add_argument("--out", default=None, help="directory for chain/trace/report")
    p_run.set_defaults(func=_cmd_run)

    p_inspect = sub.add_parser("inspect", help="query a chain file")
    p_inspect.add_argument("chain", help="path to chain.bin")
    p_inspect.add_argument(
        "query", choices=["balance", "history", "comm-table", "validate"]
    )
    p_inspect.add_argument("vehicle", nargs="?", help="vehicle id (hex, prefix ok)")
    p_inspect.set_defaults(func=_cmd_inspect)

    p_vectors = sub.add_parser("vectors", help="print golden test vectors as JSON")
    p_vectors.set_defaults(func=_cmd_vectors)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
