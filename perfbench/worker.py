"""One benchmark process: a fresh interpreter doing one piece of timed work.

    python3 perfbench/worker.py gate  SCENARIO_DIR OUT
    python3 perfbench/worker.py run   SCENARIO_JSON OUT [--trace]
    python3 perfbench/worker.py chain SEED OUT
    python3 perfbench/worker.py audit CHAIN_BIN VEHICLE_HEX OUT [--trace]

``ivtp`` is imported from the ``src`` directory next to this one. While
``run`` and ``audit`` make their timed call, ``calib.Sampler`` times a
fixed kernel every 0.1 s; the time those ticks take is taken off the
call's time, and their speed is reported so that run.py can scale times
to a reference host. The last line of standard output is one JSON
object; any failed check raises, so the process exits non-zero.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import calib  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Baseline of the bundled scenarios: first 16 hex digits of the trace
# digest and of the chain.bin SHA-256.
BASELINE = {
    "broadcast_round": ("5b0f0a23e068e4e7", "b0ace9d5e43f85ec"),
    "intersection_table2": ("a4a1cbaaa8696fa0", "0ae412f4c1fdf36f"),
    "lossy_total": ("3eb3bad514d2d39f", "6868a9e7ac67d8b8"),
}


class CheckFailed(RuntimeError):
    """A correctness check on the program's output did not hold."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def import_ivtp():
    sys.path.insert(0, str(SRC))
    import ivtp
    from ivtp import cli, ledger, scenario, sim  # noqa: F401

    check(Path(ivtp.__file__).resolve().is_relative_to(SRC), f"ivtp imported from {ivtp.__file__}")
    return ivtp


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibration(ticks) -> dict:
    """What run.py needs to scale this process's times (``calib.py``)."""
    return {
        "ref_scale": ticks.scale(),
        "tick_ms": 1e3 * sum(ticks.ticks_s) / len(ticks.ticks_s),
        "ticks": len(ticks.ticks_s),
    }


def check_ledger(ivtp, chain, n_vehicles: int, endowment: int) -> None:
    report = ivtp.ledger.validate_chain(chain)
    check(report.ok, f"validate_chain: {report.describe()}")
    supply = ivtp.ledger.total_supply(chain)
    check(supply == n_vehicles * endowment, f"total supply {supply} != {n_vehicles} x {endowment}")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; exact for simulated integer times."""
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)])


def sim_facts(ivtp, cfg, handles) -> dict:
    """Simulated-time results and the protocol-level failure count."""
    chain = handles.chain
    committed_at = {tx.tx_id: b.timestamp for b in chain.blocks for tx in b.txs}
    submitted = [tx for veh in handles.vehicles.values() for tx in veh.submitted]
    latencies = [committed_at[tx.tx_id] - tx.tf for tx in submitted if tx.tx_id in chain.tx_by_id]
    arb_at = {
        tx.intersection_id: committed_at[tx.tx_id]
        for tx in chain.tx_by_id.values()
        if isinstance(tx, ivtp.ledger.ArbitrationTx)
    }
    sessions = [
        arb_at[x.id] - max(x.arrival_ms.values()) for x in cfg.intersections if x.id in arb_at
    ]
    check(len(latencies) >= 100, f"only {len(latencies)} submitted txs committed, need 100")
    check(bool(sessions), "no session committed")
    attempted = len(submitted) + len(cfg.intersections)
    failed = len(submitted) - len(latencies) + len(cfg.intersections) - len(sessions)
    trace = handles.net.trace
    return {
        "commit_sim_ms_p50": percentile(latencies, 50),
        "commit_sim_ms_p90": percentile(latencies, 90),
        "commit_samples": len(latencies),
        "session_sim_ms_p50": percentile(sessions, 50),
        "ops_attempted": attempted,
        "ops_failed": failed,
        "ops_failed_ratio": failed / attempted,
        "trace_rows": len(trace),
        "vehicle_drops": sum(veh.drop_count for veh in handles.vehicles.values()),
        "channel_drops": sum(
            1 for row in trace if row["dir"] == "drop" and row["detail"].get("reason") == "channel"
        ),
        "arbitration_rounds": sum(s["rounds"] for s in handles.report["sessions"].values()),
    }


def cmd_gate(args) -> dict:
    """The bundled scenarios must reproduce the recorded baseline."""
    ivtp = import_ivtp()
    digests = {}
    for name, (want_trace, want_chain) in BASELINE.items():
        cfg = ivtp.scenario.load_scenario(Path(args.scenario_dir) / f"{name}.json")
        out = Path(args.out) / name
        handles = ivtp.sim.run(cfg, out)
        check_ledger(ivtp, handles.chain, len(cfg.vehicles), cfg.ledger.endowment_millitrust)
        got = (handles.report["trace_digest"][:16], sha256_file(out / "chain.bin")[:16])
        digests[name] = got
        check(got == (want_trace, want_chain), f"{name}: digests {got} != baseline {(want_trace, want_chain)}")
    return {"digests": digests}


def cmd_run(args, tracer) -> dict:
    """setup_s: import, scenario build and a t_end=0 run (keygen,
    issuance, registration block); run_s: the full sim.run."""
    ivtp = import_ivtp()
    if tracer:
        tracer.install()
    raw = json.loads(Path(args.scenario).read_bytes())
    cfg = ivtp.scenario.scenario_from_dict(raw, name=Path(args.scenario).stem)
    ivtp.sim.run(dataclasses.replace(cfg, run=ivtp.scenario.RunConfig(t_end_ms=0)))
    setup_s = time.perf_counter() - T_START
    with calib.Sampler() as ticks:
        t0 = time.perf_counter()
        handles = ivtp.sim.run(cfg, args.out)
        run_s = time.perf_counter() - t0 - ticks.busy_s
    if tracer:
        tracer.uninstall()

    out = Path(args.out)
    check_ledger(ivtp, handles.chain, len(cfg.vehicles), cfg.ledger.endowment_millitrust)
    trace_digest = handles.report["trace_digest"]
    check(sha256_file(out / "trace.jsonl") == trace_digest, "trace.jsonl does not match its digest")
    balances = handles.chain.state.balances
    query = max(
        (veh for veh in balances if veh != handles.chain.state.dealer_id),
        key=lambda veh: (abs(balances[veh] - cfg.ledger.endowment_millitrust), veh),
    )
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        **calibration(ticks),
        "peak_rss_mb": peak_rss_mb(),
        "trace_digest": trace_digest,
        "chain_sha256": sha256_file(out / "chain.bin"),
        "query": query.hex(),
        "balance": balances[query],
        **sim_facts(ivtp, cfg, handles),
    }


def cmd_chain(args) -> dict:
    """Generate the seeded chain through Chain.append_block and write it
    with save_chain; its balances must match the generator's own count."""
    ivtp = import_ivtp()
    import gen

    made = gen.build_chain(args.seed)
    path = Path(args.out) / "chain.bin"
    ivtp.ledger.save_chain(made.chain, path)
    check_ledger(ivtp, made.chain, len(made.balances), gen.ENDOWMENT)
    for veh, want in made.balances.items():
        got = ivtp.ledger.balance(made.chain, bytes.fromhex(veh))
        check(got == want, f"balance of {veh[:12]}: ledger {got}, generator {want}")
    return {
        "chain_sha256": sha256_file(path),
        "query": made.query_id,
        "balance": made.balances[made.query_id],
        "txs": made.n_txs,
    }


def cmd_audit(args, tracer) -> dict:
    """audit_s: one cold `ivtp inspect CHAIN balance ID` in this process."""
    ivtp = import_ivtp()
    setup_s = time.perf_counter() - T_START
    if tracer:
        tracer.install()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), calib.Sampler() as ticks:
        t0 = time.perf_counter()
        rc = ivtp.cli.main(["inspect", args.chain, "balance", args.vehicle])
        audit_s = time.perf_counter() - t0 - ticks.busy_s
    if tracer:
        tracer.uninstall()
    check(rc == 0, f"ivtp inspect exited {rc}")
    answer = json.loads(buf.getvalue())
    check(answer["vehicle"] == args.vehicle, "inspect answered for another vehicle")
    return {
        "setup_s": setup_s,
        "audit_s": audit_s,
        **calibration(ticks),
        "peak_rss_mb": peak_rss_mb(),
        "balance": answer["balance"],
        "answer_sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("gate")
    p.add_argument("scenario_dir")
    p.add_argument("out")
    p = sub.add_parser("run")
    p.add_argument("scenario")
    p.add_argument("out")
    p.add_argument("--trace", action="store_true")
    p = sub.add_parser("chain")
    p.add_argument("seed", type=int)
    p.add_argument("out")
    p = sub.add_parser("audit")
    p.add_argument("chain")
    p.add_argument("vehicle")
    p.add_argument("out")
    p.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    Path(args.out).mkdir(parents=True, exist_ok=True)

    if args.cmd in ("gate", "chain"):
        result = {"gate": cmd_gate, "chain": cmd_chain}[args.cmd](args)
    else:
        import spans

        tracer = spans.Tracer() if args.trace else None
        result = {"run": cmd_run, "audit": cmd_audit}[args.cmd](args, tracer)
        if tracer:
            tracer.write(Path(args.out) / f"spans-{args.cmd}.tsv")
            result["layers"] = tracer.summary()
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
