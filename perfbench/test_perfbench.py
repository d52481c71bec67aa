"""Tests of the benchmark itself: seeded inputs, transparent tracing, and
the metric names that BENCHMARK.json promises.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for p in (str(HERE), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import calib  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from ivtp import ledger, scenario, sim, vehicle  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_METRICS = {
    "run_s",
    "sim_events_per_s",
    "audit_s",
    "setup_s",
    "peak_rss_mb",
    "commit_sim_ms_p50",
    "commit_sim_ms_p90",
    "session_sim_ms_p50",
    "ops_failed_ratio",
}


def worker(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *map(str, args)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_scenarios_are_a_function_of_the_seed():
    for make in gen.SCENARIOS.values():
        assert gen.scenario_bytes(make(5)) == gen.scenario_bytes(make(5))
        assert gen.scenario_bytes(make(5)) != gen.scenario_bytes(make(6))
        scenario.scenario_from_dict(json.loads(gen.scenario_bytes(make(5))))


def test_chain_is_a_function_of_the_seed():
    a, b, c = (gen.build_chain(s, n_txs=80) for s in (5, 5, 6))
    assert ledger.chain_to_bytes(a.chain) == ledger.chain_to_bytes(b.chain)
    assert ledger.chain_to_bytes(a.chain) != ledger.chain_to_bytes(c.chain)
    assert ledger.validate_chain(a.chain).ok
    assert a.n_txs == 80
    for veh, want in a.balances.items():
        assert ledger.balance(a.chain, bytes.fromhex(veh)) == want


def test_tracer_is_transparent_and_patches_every_binding(tmp_path):
    cfg = scenario.load_scenario(ROOT / "scenarios" / "intersection_table2.json")
    plain = sim.run(cfg, tmp_path / "plain")
    originals = (sim.verify_frame, vehicle.verify_frame, vehicle.Vehicle.handle_frame)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert sim.verify_frame is vehicle.verify_frame is not originals[0]
        traced = sim.run(cfg, tmp_path / "traced")
    finally:
        tracer.uninstall()
    assert (sim.verify_frame, vehicle.verify_frame, vehicle.Vehicle.handle_frame) == originals
    assert traced.report["trace_digest"] == plain.report["trace_digest"]
    for name in ("chain.bin", "trace.jsonl", "report.json"):
        assert (tmp_path / "traced" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

    calls = tracer.summary()["calls"]
    # Every delivered frame is verified once, by a vehicle or by the host.
    delivered = calls["vehicle.handle_frame"] + calls["sim.host.handle_frame"]
    assert calls["vehicle.verify_frame"] == delivered > 0
    assert tracer.summary()["events"] == delivered + calls["vehicle.handle_timer"] + calls.get(
        "sim.host.handle_timer", 0
    )


def test_calibration_ticks_during_a_call_and_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGALRM)
    with calib.Sampler() as ticks:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.35:
            pass
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # One tick at once, then one every INTERVAL_S.
    assert 3 <= len(ticks.ticks_s) <= 5
    assert ticks.busy_s == sum(ticks.ticks_s)
    assert ticks.scale() == sum(calib.REF_S / t for t in ticks.ticks_s) / len(ticks.ticks_s)
    assert calib.tick() == calib.CHECKSUM


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    tracer.spans = [
        ("netsim.run_until", 0, 100, -1, -1),
        ("vehicle.handle_frame", 10, 40, 0, 0),
        ("identity.verify", 15, 35, 1, 0),
    ]
    summary = tracer.summary()
    assert summary["self_s"]["netsim.run_until"] * 1e9 == 70
    assert round(summary["self_s"]["vehicle.handle_frame"] * 1e9) == 10
    assert round(summary["total_s"]["identity.verify"] * 1e9) == 20


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(gen.WHY)
    assert {w["name"]: w["why"] for w in BENCH["workloads"]} == gen.WHY
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == run.PER_LAYER
    printed = {name for name, _ in run.SIM_METRICS} | {name for name, _ in run.AUDIT_METRICS}
    assert WORKLOAD_METRICS <= printed


def test_sim_worker_traced_matches_untraced_and_names_every_metric(tmp_path):
    # A short lossy run; with this seed both sessions commit, which
    # session_sim_ms_p50 needs (under loss a session may abort).
    raw = gen.churn_n6(11, comms_per_vehicle=20, n_sessions=2)
    path = tmp_path / "scenario.json"
    path.write_bytes(gen.scenario_bytes(raw))
    reps = {}
    for mode in ("plain", "traced"):
        flag = ["--trace"] if mode == "traced" else []
        out = tmp_path / mode
        made = worker("run", path, out, *flag)
        audit = worker("audit", out / "chain.bin", made["query"], out, *flag)
        assert audit["balance"] == made["balance"]
        reps[mode] = {"timed": made, "procs": [made, audit]}
    assert run.rep_digests(reps["plain"]) == run.rep_digests(reps["traced"])
    assert {name for name, _ in run.SIM_METRICS} <= set(run.samples("churn_n6", [reps["plain"]]))
    layers = run.per_layer(reps["traced"], 1.0)
    assert list(layers) == [name for name, _, _ in run.PER_LAYER]
    assert layers["identity.verify.calls"] > 0 and layers["cli.main.s"] > 0


def test_chain_audit_command_prints_every_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "chain_audit", "--seed", "3",
         "--seconds", "0", "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in run.AUDIT_METRICS:
        assert any(line.startswith(f"  {name} ") and f" {unit} " in line for line in lines)
    assert lines[0].startswith("host: cpus=") and "seed=3" in lines[0]


def test_chain_audit_touches_no_network_vehicle_or_consensus(tmp_path):
    made = worker("chain", 4, tmp_path)
    audit = worker("audit", tmp_path / "chain.bin", made["query"], tmp_path, "--trace")
    assert audit["balance"] == made["balance"]
    layers = run.per_layer({"timed": audit, "procs": [audit]}, 1.0)
    for name in ("netsim.broadcast.calls", "vehicle.handle_frame.calls", "consensus.try_commit.calls"):
        assert layers[name] == 0
    assert layers["ledger.validate_blocks.s"] > 0 and layers["ledger.from_blocks.s"] > 0
