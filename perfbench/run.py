"""ivtp benchmark: one workload, one seed, one closed loop.

    python3 perfbench/run.py --workload town_n12 --seed 1 --seconds 30 --trace 0

Run from the repository root. The loop has one client and no threads.
Each repetition makes one timed call in a fresh interpreter
(``worker.py``) and waits for it: ``sim.run`` of the seeded scenario on
town_n12 and churn_n6 (the first repetition and every traced one then
run a cold ``ivtp inspect`` of the chain file it wrote); on chain_audit
the cold ``ivtp inspect`` of the chain that set-up generated.
Repetitions start until the next one would end past ``--seconds`` (at
least three are made). Metrics are medians over the repetitions.

While a timed process makes its call, it times a fixed calibration
kernel every 0.1 s on the same CPU (``calib.py``), and its times are
scaled by the host speed those ticks saw to a reference host on which
the kernel takes ``calib.REF_S``. This takes the drift of a shared
host's speed out of the times. All workers are pinned to one CPU.

Result line (``--trace 0``), on every workload:
  ref_wall_s   seconds of the timed call at reference host speed
               (run_s on the simulations, audit_s on chain_audit)
  setup_s      seconds at reference host speed of the timed process
               before its call: import, scenario and a t_end=0 run on
               the simulations; the import on chain_audit
  peak_rss_mb  ru_maxrss of the timed process
The human-readable lines before it also give the unscaled run_s,
audit_s and set-up time, the mean tick time, sim_events_per_s and the
simulated-time results, which repeat exactly for a seed.

Before any timing the bundled scenarios must reproduce their recorded
digests. Every repetition must pass ``validate_chain``, conserve supply,
answer the audit with the expected balance and repeat the trace and
chain digests byte for byte. Any failure exits non-zero with no result.

``--trace 1`` makes one untraced repetition, then traced ones whose
spans (``spans.py``) give the per-layer metrics; their digests must
equal the untraced ones.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

MIN_REPS = 3
DEADLINE_S = 170  # the whole command must end within 180 s
# A fixed hash seed gives every worker the same set and dict layouts, so
# repetitions do the same work, not just compute the same result.
WORKER_ENV = {**os.environ, "PYTHONHASHSEED": "0"}

# Emitted in the result line on every workload.
END_TO_END = [("ref_wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")]
# Printed per workload; the simulated-time ones repeat exactly for a seed.
SIM_METRICS = [
    ("ref_wall_s", "s"),
    ("run_s", "s"),
    ("sim_events_per_s", "events/s"),
    ("audit_s", "s"),
    ("setup_s", "s"),
    ("raw_setup_s", "s"),
    ("tick_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("commit_sim_ms_p50", "sim_ms"),
    ("commit_sim_ms_p90", "sim_ms"),
    ("session_sim_ms_p50", "sim_ms"),
    ("ops_failed_ratio", "ratio"),
]
AUDIT_METRICS = [
    ("ref_wall_s", "s"),
    ("audit_s", "s"),
    ("setup_s", "s"),
    ("raw_setup_s", "s"),
    ("tick_ms", "ms"),
    ("peak_rss_mb", "MiB"),
]

PER_LAYER = [
    ("identity.verify.calls", "count", "lower"),
    ("identity.verify.s", "s", "lower"),
    ("identity.verify.unique_ratio", "ratio", "higher"),
    ("identity.sign.calls", "count", "lower"),
    ("identity.sign.s", "s", "lower"),
    ("identity.keygen.s", "s", "lower"),
    ("vehicle.handle_frame.calls", "count", "lower"),
    ("vehicle.handle_frame.self_s", "s", "lower"),
    ("vehicle.handle_timer.self_s", "s", "lower"),
    ("vehicle.make_frame.s", "s", "lower"),
    ("vehicle.verifies_per_frame", "verifies/frame", "lower"),
    ("vehicle.drops", "count", "lower"),
    ("netsim.broadcast.calls", "count", "lower"),
    ("netsim.broadcast.s", "s", "lower"),
    ("netsim.dispatch_self_s", "s", "lower"),
    ("netsim.deliveries", "count", "lower"),
    ("netsim.channel_drops", "count", "lower"),
    ("netsim.rng_draws", "count", "lower"),
    ("consensus.try_commit.calls", "count", "lower"),
    ("consensus.try_commit.s", "s", "lower"),
    ("consensus.try_commit.block_ratio", "ratio", "higher"),
    ("consensus.pod_check.s", "s", "lower"),
    ("consensus.active_vehicles.s", "s", "lower"),
    ("consensus.pending_peak", "count", "lower"),
    ("sim.host.sweep.self_s", "s", "lower"),
    ("sim.encode_trace.s", "s", "lower"),
    ("sim.build_report.s", "s", "lower"),
    ("ledger.append_block.s", "s", "lower"),
    ("ledger.check_tx.calls", "count", "lower"),
    ("ledger.check_tx.s", "s", "lower"),
    ("ledger.merkle_root.s", "s", "lower"),
    ("ledger.canonical_decode.s", "s", "lower"),
    ("ledger.tx_signing_bytes.calls", "count", "lower"),
    ("ledger.parse_chain_bytes.s", "s", "lower"),
    ("ledger.validate_blocks.s", "s", "lower"),
    ("ledger.from_blocks.s", "s", "lower"),
    ("ledger.save_chain.s", "s", "lower"),
    ("arbitration.compute_order.s", "s", "lower"),
    ("arbitration.rounds", "count", "lower"),
    ("scenario.scenario_from_dict.s", "s", "lower"),
    ("cli.main.s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


class BenchError(RuntimeError):
    """A worker failed or a correctness check did not hold."""


class Bench:
    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.sim = workload in gen.SCENARIOS
        self.work = WORK / workload
        self.scenario = self.work / "scenario.json"
        self.chain = self.work / "input" / "chain.bin"
        self.generated: dict = {}

    def child(self, *args: str) -> dict:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting a worker")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), *args],
                cwd=ROOT,
                env=WORKER_ENV,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {args[0]} timed out") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def prepare(self) -> dict:
        """Correctness gate, then the seeded input: a scenario file, or
        a chain file whose balances the generator tracked itself."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        gate = self.child("gate", str(ROOT / "scenarios"), str(self.work / "gate"))
        if self.sim:
            raw = gen.SCENARIOS[self.workload](self.seed)
            self.scenario.write_bytes(gen.scenario_bytes(raw))
        else:
            self.generated = self.child("chain", str(self.seed), str(self.chain.parent))
            gate["chain"] = self.generated
        return gate

    def rep(self, traced: bool, audit: bool) -> dict:
        """One repetition. A simulation's chain file is audited when
        ``audit`` is set; the others must repeat its SHA-256."""
        out = self.work / ("traced" if traced else "plain")
        flag = ["--trace"] if traced else []
        procs = []
        if self.sim:
            procs.append(self.child("run", str(self.scenario), str(out), *flag))
            chain, expect = out / "chain.bin", procs[0]
        else:
            chain, expect, audit = self.chain, self.generated, True
        if audit:
            answer = self.child("audit", str(chain), expect["query"], str(out), *flag)
            if answer["balance"] != expect["balance"]:
                raise BenchError(f"inspect balance {answer['balance']} != expected {expect['balance']}")
            procs.append(answer)
        return {"timed": procs[0], "procs": procs}

    def loop(self, traced: bool, min_reps: int, budget_s: float, expect=None) -> list[dict]:
        """Closed loop: the next repetition starts when the last ends.
        The first repetition audits, and so does every traced one."""
        start, reps = time.monotonic(), []
        while True:
            t0 = time.monotonic()
            r = self.rep(traced, audit=traced or not reps)
            digests = rep_digests(r)
            if expect is None:
                expect = digests
            if any(expect.get(k, v) != v for k, v in digests.items()):
                raise BenchError(f"digests differ between repetitions: {expect} vs {digests}")
            reps.append(r)
            took = time.monotonic() - t0
            if len(reps) >= min_reps and time.monotonic() + took - start > budget_s:
                return reps


def rep_digests(r: dict) -> dict:
    keys = ("trace_digest", "chain_sha256", "answer_sha256")
    return {k: p[k] for p in r["procs"] for k in keys if k in p}


def samples(workload: str, reps: list[dict]) -> dict:
    """Every measured value of each metric, one per repetition (audit_s:
    one per audit made)."""
    timed = [r["timed"] for r in reps]
    wall_s = [t["run_s"] if "run_s" in t else t["audit_s"] for t in timed]
    scales = [t["ref_scale"] for t in timed]
    out = {
        "ref_wall_s": [w * k for w, k in zip(wall_s, scales)],
        "audit_s": [p["audit_s"] for r in reps for p in r["procs"] if "audit_s" in p],
        "setup_s": [t["setup_s"] * k for t, k in zip(timed, scales)],
        "raw_setup_s": [t["setup_s"] for t in timed],
        "tick_ms": [t["tick_ms"] for t in timed],
        "peak_rss_mb": [t["peak_rss_mb"] for t in timed],
    }
    if workload in gen.SCENARIOS:
        out["run_s"] = wall_s
        out["sim_events_per_s"] = [t["trace_rows"] / t["run_s"] for t in timed]
        for key in ("commit_sim_ms_p50", "commit_sim_ms_p90", "session_sim_ms_p50", "ops_failed_ratio"):
            out[key] = [t[key] for t in timed]
    return out


def merge_layers(r: dict) -> dict:
    """Sum the layer summaries of a repetition's processes."""
    out = {"calls": {}, "total_s": {}, "self_s": {}, "verify_unique": 0, "blocks_made": 0, "pending_peak": 0}
    for part in (p["layers"] for p in r["procs"]):
        for table in ("calls", "total_s", "self_s"):
            for name, v in part[table].items():
                out[table][name] = out[table].get(name, 0) + v
        out["verify_unique"] += part["verify_unique"]
        out["blocks_made"] += part["blocks_made"]
        out["pending_peak"] = max(out["pending_peak"], part["pending_peak"])
    return out


def per_layer(r: dict, overhead: float) -> dict:
    lay, timed = merge_layers(r), r["timed"]

    def calls(name):
        return lay["calls"].get(name, 0)

    def total(name):
        return lay["total_s"].get(name, 0.0)

    def self_s(name):
        return lay["self_s"].get(name, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "identity.verify.calls": calls("identity.verify"),
        "identity.verify.s": total("identity.verify"),
        "identity.verify.unique_ratio": ratio(lay["verify_unique"], calls("identity.verify")),
        "identity.sign.calls": calls("identity.sign"),
        "identity.sign.s": total("identity.sign"),
        "identity.keygen.s": total("identity.keygen"),
        "vehicle.handle_frame.calls": calls("vehicle.handle_frame"),
        "vehicle.handle_frame.self_s": self_s("vehicle.handle_frame"),
        "vehicle.handle_timer.self_s": self_s("vehicle.handle_timer"),
        "vehicle.make_frame.s": total("vehicle.make_frame"),
        "vehicle.verifies_per_frame": ratio(calls("vehicle.verify_frame"), calls("netsim.broadcast")),
        "vehicle.drops": timed.get("vehicle_drops", 0),
        "netsim.broadcast.calls": calls("netsim.broadcast"),
        "netsim.broadcast.s": total("netsim.broadcast"),
        "netsim.dispatch_self_s": self_s("netsim.run_until"),
        "netsim.deliveries": calls("vehicle.handle_frame") + calls("sim.host.handle_frame"),
        "netsim.channel_drops": timed.get("channel_drops", 0),
        "netsim.rng_draws": calls("netsim.rng_draws"),
        "consensus.try_commit.calls": calls("consensus.try_commit"),
        "consensus.try_commit.s": total("consensus.try_commit"),
        "consensus.try_commit.block_ratio": ratio(lay["blocks_made"], calls("consensus.try_commit")),
        "consensus.pod_check.s": total("consensus.pod_check"),
        "consensus.active_vehicles.s": total("consensus.active_vehicles"),
        "consensus.pending_peak": lay["pending_peak"],
        "sim.host.sweep.self_s": self_s("sim.host.sweep"),
        "sim.encode_trace.s": total("sim.encode_trace"),
        "sim.build_report.s": total("sim.build_report"),
        "ledger.append_block.s": total("ledger.append_block"),
        "ledger.check_tx.calls": calls("ledger.check_tx"),
        "ledger.check_tx.s": total("ledger.check_tx"),
        "ledger.merkle_root.s": total("ledger.merkle_root"),
        "ledger.canonical_decode.s": total("ledger.canonical_decode"),
        "ledger.tx_signing_bytes.calls": calls("ledger.tx_signing_bytes"),
        "ledger.parse_chain_bytes.s": total("ledger.parse_chain_bytes"),
        "ledger.validate_blocks.s": total("ledger.validate_blocks"),
        "ledger.from_blocks.s": total("ledger.from_blocks"),
        "ledger.save_chain.s": total("ledger.save_chain"),
        "arbitration.compute_order.s": total("arbitration.compute_order"),
        "arbitration.rounds": timed.get("arbitration_rounds", 0),
        "scenario.scenario_from_dict.s": total("scenario.scenario_from_dict"),
        "cli.main.s": total("cli.main"),
        "trace.overhead_ratio": overhead,
    }


def layer_shares(r: dict) -> dict:
    """Each layer's share of all traced self time in a repetition."""
    self_s = merge_layers(r)["self_s"]
    whole = sum(self_s.values()) or 1.0
    shares = {}
    for name, v in self_s.items():
        layer = name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + v / whole
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def host_line(seed: int) -> str:
    return (
        f"host: cpus={os.cpu_count()} python={platform.python_version()} "
        f"cryptography={importlib.metadata.version('cryptography')} "
        f"machine={platform.machine()} seed={seed}"
    )


def pin_to_one_cpu() -> int:
    """Keep this process and every worker it starts on one CPU.

    The speed of each CPU of a shared host drifts on its own; the
    calibration (``calib.py``) tracks that drift only if it runs on the
    CPU the timed call runs on."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ivtp benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(gen.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = Bench(args.workload, args.seed, time.monotonic() + DEADLINE_S)
    cpu = pin_to_one_cpu()
    try:
        gate = bench.prepare()
        print(host_line(args.seed) + f" pinned_cpu={cpu}")
        print(f"workload {args.workload}: {gen.WHY[args.workload]}")
        for name, (trace_hex, chain_hex) in gate["digests"].items():
            print(f"gate {name}: trace {trace_hex} chain {chain_hex} ok")
        if "chain" in gate:
            made = gate["chain"]
            print(f"input: {made['txs']} txs, chain_sha256={made['chain_sha256']}")
        if args.trace:
            base = bench.loop(False, 1, 0)
            reps = bench.loop(True, 1, args.seconds, expect=rep_digests(base[0]))
        else:
            reps = bench.loop(False, MIN_REPS, args.seconds)
    except BenchError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1

    print("digests: " + " ".join(f"{k}={v}" for k, v in rep_digests(reps[0]).items()))
    n_procs = sum(len(r["procs"]) for r in reps)
    loop = f"closed loop, 1 client, {len(reps)} repetitions, {n_procs} processes"
    if args.trace:
        base_wall_s = samples(args.workload, base)["ref_wall_s"][0]
        traced_wall_s = samples(args.workload, reps)["ref_wall_s"]
        rows = [per_layer(r, w / base_wall_s) for r, w in zip(reps, traced_wall_s)]
        metrics = {
            name: {"value": statistics.median(row[name] for row in rows), "unit": unit}
            for name, unit, _ in PER_LAYER
        }
        print(f"traced: {loop}; untraced ref_wall_s {base_wall_s:.4f} s")
        shares = layer_shares(reps[len(reps) // 2])
        print("self-time share: " + " ".join(f"{k}={v:.3f}" for k, v in shares.items()))
        for name, m in metrics.items():
            print(f"  {name} {m['value']} {m['unit']}")
    else:
        print(f"untraced: {loop}")
        pooled = samples(args.workload, reps)
        med = {name: statistics.median(values) for name, values in pooled.items()}
        timed = reps[0]["timed"]
        notes = {
            "commit_sim_ms_p90": f" ({timed.get('commit_samples')} committed txs)",
            "ops_failed_ratio": f" ({timed.get('ops_failed')} failed of {timed.get('ops_attempted')} attempted)",
        }
        for name, unit in SIM_METRICS if bench.sim else AUDIT_METRICS:
            values = pooled[name]
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            print(
                f"  {name} {med[name]} {unit} [n {len(values)}, q1 {q1:.6g}, q3 {q3:.6g}]"
                + notes.get(name, "")
            )
        metrics = {name: {"value": med[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": True, "attempted": n_procs, "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
