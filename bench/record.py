"""Record a BENCH_<n>.json file: the benchmark run in alternating pairs of
a parent commit and the working tree, the synthetic N-vehicle matrix, and
the per-layer codec, dispatch, frame-verify and frame-payload microbenches.

    python3 bench/record.py --parent PARENT_REV --seed 2001 --pairs 10 --out BENCH_<n>.json

Run from the repository root. Both sides run from ``git archive``
extracts in sibling directories whose names have the same length,
``<tmp>/side-p`` (PARENT_REV) and ``<tmp>/side-c`` (the working tree's
tracked files, staged ones included, as ``git stash create`` records
them; HEAD if nothing changed), since the path a checkout runs from
moves the peak RSS of its processes. Both paths go into the record, and
the extracts are removed at the end. For every workload in
BENCHMARK.json, pair i runs ``perfbench/run.py --workload W --seed
SEED+i --seconds S`` (S is the benchmark's ``run_seconds``) once in each
side, the parent first in even pairs and the change first in odd ones,
and keeps each side's host line and result line. Pick seeds that were
not used while the change was written. Each workload's summary gives,
per end-to-end metric, both sides' median and quartiles and the number
of pairs the change won.

The synthetic matrix runs ``sim.run`` of the scenario ``tests/synthetic.py``
generates for N = 4, 8, 16, 32 and 64 vehicles, five times per side in
alternating order, each in a fresh interpreter and with a temporary out
dir that is removed afterwards, as ``ivtp run --out`` runs it. It records
the wall time of the call (not scaled for host speed), the trace rows and
the peak RSS (ru_maxrss) of the process.

The recorder pins itself and every process it starts to one CPU, as
perfbench does. It starts every process with PYTHONDONTWRITEBYTECODE=1,
so that both sides compile the project from source every time, as in a
fresh checkout: bytecode left by earlier runs would shorten one side's
set-up and memory.

The per-layer codec microbenches time, on the chain ``perfbench/gen.py``
builds for SEED, ``canonical_encode``, ``canonical_decode`` and
``tx_signing_bytes`` over every transaction, and the chain-file round
trip ``parse_chain_bytes`` + ``validate_blocks`` from the file's bytes,
so every transaction is checked cold (a checkout that has the old
process-wide verify memo gets it cleared before each repetition; one
whose ``parse_chain_bytes`` takes the bytes rather than a file gets
them), and take the tracemalloc peak of one cold read of the chain file
from disk up to the replayed ``Chain`` (``read_peak_kib``).
``canonical_decode_s`` is the decode alone: a decoded transaction keeps
the bytes it was read from and hashes its id from them when first asked
(a checkout older than that hashes nothing at decode either). The codec
set also counts, for one cold round trip, each side's calls of
``tx_signing_bytes``, ``canonical_encode`` and ``Block.header_bytes``
(``encode_calls``); they are deterministic, so one run per side is kept. The
layer microbenches time netsim dispatch (one ``broadcast`` from one of 64
no-op participants, 1 ms latency and 2 ms jitter, drained by
``run_until``), ``verify_frame``, cold (a frame's first check) and
warm (the same frame again, as every further receiver checks it), and a
frame payload's encode plus decode (``payload_endorse`` for an endorse
frame, ``payload_schedule_12`` for a schedule of 12 vehicles: a sender's
encoding, then a fresh frame's ``body`` with the ids and integers read
out of it; a checkout with JSON payloads runs its JSON and hex path). Each
timed loop runs inside ``perfbench/calib.py``'s ``Sampler``, so each
value has its raw seconds per call (``_s``) and the same scaled to the
reference host speed (``_ref_s``). Each side runs each set in ten fresh
interpreters, paired and in alternating order as above; each
interpreter keeps the best of its repetitions. The record gives every
interpreter's value, each side's median and quartiles, the pairs the
change won, and the SHA-256 of the chain file each side wrote.

It also records each side's line count of ``src/ivtp/*.py``, as
``wc -l`` counts them, next to the numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SYNTHETIC_N = (4, 8, 16, 32, 64)
MATRIX_REPS = 5
CODEC_RUNS = 10

# Run in a fresh interpreter with the checkout's src on sys.path:
# argv is (tests dir of this checkout, N).
_SYNTHETIC_RUN = """
import json, resource, sys, tempfile, time
sys.path.insert(0, sys.argv[1])
from synthetic import synthetic_scenario
from ivtp import scenario, sim
n = int(sys.argv[2])
cfg = scenario.scenario_from_dict(synthetic_scenario(n), name=f"synthetic_n{n}")
with tempfile.TemporaryDirectory() as out:
    t0 = time.perf_counter()
    handles = sim.run(cfg, out)
    run_s = time.perf_counter() - t0
print(json.dumps({
    "run_s": run_s,
    "trace_rows": len(handles.net.trace),
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "trace_digest": handles.report["trace_digest"],
}))
"""


# Run in a fresh interpreter with the checkout's src on sys.path:
# argv is (perfbench dir of this checkout, seed).
_CODEC_RUN = """
import hashlib, io, json, sys, tempfile, time, tracemalloc
sys.path.insert(0, sys.argv[1])
import gen
from ivtp import identity, ledger
chain = gen.build_chain(int(sys.argv[2])).chain
data = ledger.chain_to_bytes(chain)
txs = [tx for block in chain.blocks for tx in block.txs]
encoded = [ledger.canonical_encode(tx) for tx in txs]
WHOLE = hasattr(ledger, "chain_from_bytes")  # a checkout that parses the whole file's bytes

def round_trip():
    if hasattr(identity, "_ed25519_verify"):  # a checkout with a verify memo
        identity._ed25519_verify.cache_clear()
    if WHOLE:
        blocks, endowment, checksum_ok = ledger.parse_chain_bytes(data)
        assert checksum_ok and ledger.validate_blocks(blocks, endowment).ok
        return
    chain_file = ledger.parse_chain_bytes(io.BytesIO(data))
    assert ledger.validate_blocks(chain_file.blocks(), chain_file.endowment).ok
    assert chain_file.checksum_ok

def read_peak_kib():  # of one cold read of the file up to the replayed Chain
    with tempfile.NamedTemporaryFile(suffix=".bin") as f:
        f.write(data)
        f.flush()
        tracemalloc.start()
        if WHOLE:
            loaded = ledger.load_chain(f.name)
        else:
            with open(f.name, "rb") as g:
                loaded = ledger.parse_chain_bytes(g).chain()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert len(loaded.blocks) == len(chain.blocks)
    return peak / 1024

def best(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)

def encode_calls():  # of each encoder in one cold round trip; they stay counting
    calls = {}
    for owner, name in ((ledger, "tx_signing_bytes"), (ledger, "canonical_encode"),
                        (ledger.Block, "header_bytes")):
        def counting(*args, real=getattr(owner, name), name=name):
            calls[name] += 1
            return real(*args)
        calls[name] = 0
        setattr(owner, name, counting)
    round_trip()
    return calls

print(json.dumps({
    "n_txs": len(txs),
    "chain_sha256": hashlib.sha256(data).hexdigest(),
    "canonical_encode_s": best(lambda: [ledger.canonical_encode(tx) for tx in txs], 15),
    "canonical_decode_s": best(lambda: [ledger.canonical_decode(b) for b in encoded], 15),
    "tx_signing_bytes_s": best(lambda: [ledger.tx_signing_bytes(tx) for tx in txs], 15),
    "chain_round_trip_s": best(round_trip, 3),
    "encode_calls": encode_calls(),
    "read_peak_kib": read_peak_kib(),
}))
"""


# Run in a fresh interpreter with the checkout's src on sys.path:
# argv is (perfbench dir of this checkout,). Each timed loop runs inside
# calib.Sampler, so every value has a raw time and a ref time (scaled to
# the reference host speed, as perfbench/worker.py scales its calls).
_LAYER_RUN = """
import json, os, sys, time
sys.path.insert(0, sys.argv[1])
import calib
from ivtp import identity, netsim, vehicle

def timed(fn, reps):
    with calib.Sampler() as ticks:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        raw = time.perf_counter() - t0 - ticks.busy_s
    return raw / reps, raw * ticks.scale() / reps

class Idle:
    def __init__(self, ivtp_id):
        self.ivtp_id = ivtp_id
    def heeds(self, frame):
        return True
    def handle_frame(self, frame, now):
        return []
    def handle_timer(self, tag, now):
        return []

ids = [bytes([i]) * 32 for i in range(1, 65)]
if hasattr(netsim, "NetworkConfig"):
    net = netsim.Network(netsim.NetworkConfig(latency_ms=1, jitter_ms=2, seed=1))
else:  # a checkout whose Network takes a LinkModel and a seed
    net = netsim.Network(link=netsim.LinkModel(base_latency_ms=1, jitter_ms=2), seed=1)
for veh in ids:
    net.join(Idle(veh))
net.trace.bind(os.devnull)
beacon = vehicle.Frame(vehicle.KIND_BEACON, ids[0], 0, b"{}", bytes(64))

def dispatch():
    at = net.clock
    net.broadcast(beacon, at)
    net.run_until(at + 3)

kp = identity.keygen(identity.sha256(b"bench"))
def signed(i):
    return vehicle.make_frame(vehicle.KIND_COMM, kp, ids[0], i, b'{"n":%d}' % i)
cold = iter([signed(i) for i in range(1200)])
warm = signed(0)
vehicle.verify_frame(warm, kp.public_key)

# Payload encode plus decode, as a sender writes and a receiver reads it:
# an endorse frame's, and a schedule frame's for 12 vehicles.
crew = ids[:12]
basis = tuple((veh, 100 + i) for i, veh in enumerate(crew))
E, S = vehicle.KIND_ENDORSE, vehicle.KIND_SCHEDULE
if hasattr(vehicle, "encode_payload"):
    def endorse_payload():
        return vehicle.Frame(E, ids[0], 0, vehicle.encode_payload(E, ids[1], "valid")).body

    def schedule_payload():
        payload = vehicle.encode_payload(S, "x-1", 0, crew, basis)
        return vehicle.Frame(S, ids[0], 0, payload).body
else:  # a checkout whose payloads are JSON with hex ids
    def endorse_payload():
        payload = vehicle._compact({"tx_id": ids[1].hex(), "verdict": "valid"})
        body = vehicle.Frame(E, ids[0], 0, payload).body
        return bytes.fromhex(body["tx_id"]), body["verdict"]

    def schedule_payload():
        payload = vehicle._compact({
            "intersection": "x-1", "round": 0, "ordering": [veh.hex() for veh in crew],
            "basis": [[veh.hex(), tf] for veh, tf in basis],
        })
        body = vehicle.Frame(S, ids[0], 0, payload).body
        return (
            body["intersection"], int(body["round"]),
            tuple(bytes.fromhex(veh) for veh in body["ordering"]),
            tuple((bytes.fromhex(veh), int(tf)) for veh, tf in body["basis"]),
        )

out = {}
for name, fn, reps in [
    ("dispatch_63", dispatch, 1000),
    ("verify_frame_cold", lambda: vehicle.verify_frame(next(cold), kp.public_key), 400),
    ("verify_frame_warm", lambda: vehicle.verify_frame(warm, kp.public_key), 100000),
    ("payload_endorse", endorse_payload, 20000),
    ("payload_schedule_12", schedule_payload, 5000),
]:
    best = min(timed(fn, reps) for _ in range(3))
    out[name + "_s"], out[name + "_ref_s"] = best
print(json.dumps(out))
"""


# Unscaled medians that perfbench/run.py prints before its result line,
# kept next to it: a change in the reference-scaled metrics can then be
# read as a change in the call's own time or in the calibration ticks'.
UNSCALED = ("run_s", "audit_s", "raw_setup_s", "tick_ms")


def perfbench(checkout: Path, workload: str, seed: int) -> dict:
    """One perfbench/run.py command in checkout: its host and result lines
    and the UNSCALED medians it printed."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
    ]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed in {checkout}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    host = next(line for line in lines if line.startswith("host:"))
    printed = dict(line.split()[:2] for line in lines if line.startswith("  ") and " [n " in line)
    unscaled = {name: float(printed[name]) for name in UNSCALED if name in printed}
    return {"host": host, "result": json.loads(lines[-1]), "unscaled": unscaled}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarise(pairs: list[dict]) -> dict:
    """Per end-to-end metric, and per unscaled one (all lower-better):
    both sides' quartiles and the pairs won."""
    metrics = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]]
    metrics += [
        (f"unscaled_{name}", "ms" if name == "tick_ms" else "s", "lower")
        for name in UNSCALED if name in pairs[0]["parent"]["unscaled"]
    ]
    out = {}
    for name, unit, better in metrics:
        parent = [value(p["parent"], name) for p in pairs]
        change = [value(p["change"], name) for p in pairs]
        won = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
        out[name] = {
            "unit": unit,
            "better": better,
            "parent": quartiles(parent),
            "change": quartiles(change),
            "change_won": won,
            "pairs": len(pairs),
        }
    return out


def value(side: dict, name: str) -> float:
    """A metric of one perfbench command: unscaled_X or a result metric."""
    if name.startswith("unscaled_"):
        return side["unscaled"][name[len("unscaled_"):]]
    return side["result"]["metrics"][name]["value"]


def synthetic(checkout: Path, n: int) -> dict:
    """One synthetic run in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONHASHSEED": "0"}
    cmd = [sys.executable, "-c", _SYNTHETIC_RUN, str(ROOT / "tests"), str(n)]
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def microbench(checkout: Path, script: str, *args: str) -> dict:
    """One microbench script run in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONHASHSEED": "0"}
    cmd = [sys.executable, "-c", script, str(ROOT / "perfbench"), *args]
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


CODEC_METRICS = (
    "canonical_encode_s", "canonical_decode_s", "tx_signing_bytes_s", "chain_round_trip_s",
    "read_peak_kib",
)
LAYER_METRICS = tuple(
    f"{name}{unit}"
    for name in (
        "dispatch_63", "verify_frame_cold", "verify_frame_warm", "payload_endorse",
        "payload_schedule_12",
    )
    for unit in ("_s", "_ref_s")
)


def codec_summary(runs: dict) -> dict:
    """Per codec metric: both sides' runs and quartiles and the pairs won."""
    return {
        "n_txs": {side: r[0]["n_txs"] for side, r in runs.items()},
        "chain_sha256": {side: r[0]["chain_sha256"] for side, r in runs.items()},
        "encode_calls": {side: r[0]["encode_calls"] for side, r in runs.items()},
        **micro_summary(runs, CODEC_METRICS),
    }


def micro_summary(runs: dict, metrics) -> dict:
    """Per metric: both sides' runs and quartiles and the pairs won."""
    out = {}
    for name in metrics:
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        out[name] = {
            "parent": {**quartiles(parent), "runs": parent},
            "change": {**quartiles(change), "runs": change},
            "change_won": sum(c < p for p, c in zip(parent, change)),
            "pairs": len(parent),
        }
    return out


def matrix_entry(runs: list[dict]) -> dict:
    return {
        "run_s": [r["run_s"] for r in runs],
        "run_s_median": statistics.median(r["run_s"] for r in runs),
        "trace_rows": runs[0]["trace_rows"],
        "peak_rss_mb_median": statistics.median(r["peak_rss_mb"] for r in runs),
        "trace_digest": runs[0]["trace_digest"],
    }


def src_lines(checkout: Path) -> int:
    """Newlines in src/ivtp/*.py: the total ``wc -l src/ivtp/*.py`` prints."""
    return sum(path.read_bytes().count(b"\n") for path in checkout.glob("src/ivtp/*.py"))


def alternating(i: int) -> list[str]:
    return ["parent", "change"] if i % 2 == 0 else ["change", "parent"]


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def extract(rev: str, into: Path) -> None:
    """A git archive of rev, unpacked into the new directory into."""
    into.mkdir()
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record a BENCH file")
    parser.add_argument("--parent", required=True, help="the parent commit (any git revision)")
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    revs = {
        "parent": git("rev-parse", args.parent),
        "change": git("stash", "create") or git("rev-parse", "HEAD"),
    }
    work = Path(tempfile.mkdtemp(prefix="bench-"))
    sides = {"parent": work / "side-p", "change": work / "side-c"}
    try:
        for side, checkout in sides.items():
            extract(revs[side], checkout)
        record = measure(args, sides, cpu)
    finally:
        shutil.rmtree(work)
    record["command"] = " ".join([Path(sys.argv[0]).name, *(argv or sys.argv[1:])])
    record["sides"] = {side: {"rev": revs[side], "dir": str(sides[side])} for side in sides}
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


def measure(args, sides: dict, cpu: int) -> dict:
    """Every pair, run and microbench of the record, in the two sides."""
    record = {
        "recorder_host": f"cpus={os.cpu_count()} python={platform.python_version()} "
        f"machine={platform.machine()} pinned_cpu={cpu}",
        "run_seconds": BENCHMARK["run_seconds"],
        "src_lines": {side: src_lines(checkout) for side, checkout in sides.items()},
        "perfbench": {},
        "synthetic": {},
    }
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        pairs = []
        for i in range(args.pairs):
            seed = args.seed + i
            pair = {"seed": seed, "first": alternating(i)[0]}
            for side in alternating(i):
                pair[side] = perfbench(sides[side], workload, seed)
            pairs.append(pair)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{side} {pair[side]['result']['metrics']['ref_wall_s']['value']:.4f}"
                for side in ("parent", "change")
            ), flush=True)
        record["perfbench"][workload] = {"summary": summarise(pairs), "pairs": pairs}
    for n in SYNTHETIC_N:
        runs = {side: [] for side in sides}
        for i in range(MATRIX_REPS):
            for side in alternating(i):
                runs[side].append(synthetic(sides[side], n))
        entry = record["synthetic"][f"n{n}"] = {side: matrix_entry(r) for side, r in runs.items()}
        print(f"synthetic n{n}: " + " ".join(
            f"{side} {r['run_s_median']:.3f} s {r['peak_rss_mb_median']:.1f} MB"
            for side, r in entry.items()
        ), flush=True)
    runs = {side: [] for side in sides}
    for i in range(CODEC_RUNS):
        for side in alternating(i):
            runs[side].append(microbench(sides[side], _CODEC_RUN, str(args.seed)))
    record["codec"] = codec_summary(runs)
    print(f"encode calls per cold round trip: {record['codec']['encode_calls']}", flush=True)
    runs = {side: [] for side in sides}
    for i in range(CODEC_RUNS):
        for side in alternating(i):
            runs[side].append(microbench(sides[side], _LAYER_RUN))
    record["layers"] = micro_summary(runs, LAYER_METRICS)
    for part, metrics in (("codec", CODEC_METRICS), ("layers", LAYER_METRICS)):
        print(f"{part} medians: " + " ".join(
            f"{name} {m['parent']['median'] * 1e6:.1f} -> {m['change']['median'] * 1e6:.1f} us"
            for name, m in record[part].items() if name in metrics and name.endswith("_s")
        ), flush=True)
    peak = record["codec"]["read_peak_kib"]
    print(f"cold read traced peak: {peak['parent']['median']:.0f} -> "
          f"{peak['change']['median']:.0f} KiB", flush=True)
    return record


if __name__ == "__main__":
    sys.exit(main())
