"""Record a BENCH_<n>.json file: the benchmark run in alternating pairs of
a parent commit and the working tree, the synthetic N-vehicle matrix, and
the per-layer codec, dispatch, frame-verify, Ed25519, frame-payload,
Merkle and commit microbenches.

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
generates for N = 4, 8, 16, 32 and 64 vehicles, ten times per side in
alternating order, each in a fresh interpreter and with a temporary out
dir that is removed afterwards, as ``ivtp run --out`` runs it. The call
runs inside ``perfbench/calib.py``'s ``Sampler``, as perfbench times its
runs: each run records the call's wall time less the ticks' (``run_s``),
the same scaled to the reference host speed (``ref_s``) and the mean
tick time (``tick_ms``); a call that ends before its first tick is run
again in the same interpreter until one lands. Each N gives both sides'
``run_s`` and ``ref_s`` medians and the pairs the change won on each,
the trace rows, the peak RSS (ru_maxrss) of the process and the Ed25519
verifies of the run (calls of ``identity.verify``, counted during the
timed call; deterministic, so one run per side is kept).

The recorder pins itself and every process it starts to one CPU, as
perfbench does. It starts every process with PYTHONDONTWRITEBYTECODE=1,
so that both sides compile the project from source every time, as in a
fresh checkout: bytecode left by earlier runs would shorten one side's
set-up and memory.

The per-layer codec microbenches time, on the chain ``perfbench/gen.py``
builds for SEED, ``canonical_encode``, ``canonical_decode`` and
``tx_signing_bytes`` over every transaction, and the chain-file round
trip ``parse_chain_bytes`` + ``validate_blocks`` from the file's bytes,
so every transaction is checked cold, and take the tracemalloc peak of
one cold read of the chain file from disk up to the replayed ``Chain``
(``read_peak_kib``). ``canonical_decode_s`` is the decode alone: a
decoded transaction keeps the bytes it was read from and hashes its id
from them when first asked. ``chain_decode_s`` is the chain file's
decode alone: every block of ``parse_chain_bytes`` read, with no replay
and so no Ed25519 check. The codec set also counts, for one cold
round trip, each side's calls of ``tx_signing_bytes``,
``canonical_encode`` and ``Block.header_bytes`` (``encode_calls``);
they are deterministic, so one run per side is kept. The layer
microbenches time netsim dispatch (one ``broadcast`` from one of 64
no-op participants, 1 ms latency and 2 ms jitter, drained by
``run_until``), ``verify_frame``, cold (a frame's first check; each
frame's signature is read before the timing, so a checkout that signs a
frame on that first read times the check alone too) and warm (the same
frame again, as every further receiver checks it), raw Ed25519
``identity.sign`` and ``identity.verify`` of one frame's signing bytes,
a frame payload's encode plus decode (``payload_endorse`` for an endorse
frame, ``payload_schedule_12`` for a schedule of 12 vehicles: a sender's
encoding, then a fresh frame's ``body``), a receiving vehicle's ``heeds`` plus
``handle_frame`` of another registered vehicle's beacon that it already
verified (``handle_frame_warm``, the path every receiver after the first
takes), ``merkle_root`` over one block's 32 tx ids (``merkle_root_32``)
and ``try_commit`` of a pool 32 deep whose every transaction commits,
as one block onto a fresh chain each time, with the signatures checked
before the timing (``try_commit_32``). Each timed loop
runs inside ``perfbench/calib.py``'s ``Sampler``, so each value has
its raw seconds per call (``_s``) and the same scaled to the reference
host speed (``_ref_s``). Each side runs each set in ten fresh
interpreters, paired and in alternating order as above; each
interpreter keeps the best of its repetitions. The record gives every
interpreter's value, each side's median and quartiles, the pairs the
change won, and the SHA-256 of the chain file each side wrote.

The cold-import set runs, in twenty fresh interpreters per side in
alternating order, perfbench/worker.py's own imports and then times
``import ivtp; from ivtp import cli, ledger, scenario, sim`` as the worker
imports it (``import_s``: every run, the medians and quartiles, and the
pairs won). One more interpreter per side makes that import under
cProfile: its call count (``import_calls``) and the functions that
``dataclasses`` compiled for ivtp's classes (``generated_functions``).

The work counts are deterministic, so they are taken once per side: the
calls cProfile counts in one warm ``sim.run`` of town_n12 and of churn_n6
at SEED (after the worker's ``t_end_ms=0`` set-up run, as perfbench times
it), and in one cold chain_audit inspect (a fresh interpreter reading the
chain ``perfbench/worker.py chain SEED`` wrote), each with its
``identity.verify`` and ``identity.sign`` calls (the Ed25519 verifies and
signs) and its ``Rng.next_u64`` draws. The counts sum the profiler's own
entries: ``pstats`` keys functions by (file, line, name), so it merges
the ``__init__`` methods that ``dataclasses`` compiles, which all read
("<string>", 2, "__init__"), and keeps the count of only one of them.
Neither set is inside the timed pairs.

It also records each side's line count of ``src/ivtp/*.py``, as
``wc -l`` counts them, next to the numbers.

Every process the recorder starts runs in a session of its own. A
SIGTERM or SIGINT unwinds the recorder as an error would: it ends the
process group of the command running then (perfbench/run.py and its
worker), removes the extracts and exits with 128 + the signal number.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import signal
import statistics
import subprocess
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SYNTHETIC_N = (4, 8, 16, 32, 64)
MATRIX_REPS = 10
CODEC_RUNS = 10
IMPORT_RUNS = 20

# Run in a fresh interpreter with the checkout's src on sys.path:
# argv is (tests dir, perfbench dir, N). The call runs inside
# calib.Sampler, as perfbench/worker.py times sim.run, and again until a
# calibration tick lands in it.
_SYNTHETIC_RUN = """
import json, resource, sys, tempfile, time
sys.path[:0] = sys.argv[1:3]
import calib
from synthetic import synthetic_scenario
from ivtp import identity, scenario, sim
n = int(sys.argv[3])
cfg = scenario.scenario_from_dict(synthetic_scenario(n), name=f"synthetic_n{n}")
verify, verifies = identity.verify, [0]

def counted(*args):
    verifies[0] += 1
    return verify(*args)

identity.verify = counted
ticks = None
while ticks is None or not ticks.ticks_s:
    verifies[0] = 0
    with tempfile.TemporaryDirectory() as out, calib.Sampler() as ticks:
        t0 = time.perf_counter()
        handles = sim.run(cfg, out)
        run_s = time.perf_counter() - t0 - ticks.busy_s
print(json.dumps({
    "run_s": run_s,
    "ref_s": run_s * ticks.scale(),
    "tick_ms": 1e3 * sum(ticks.ticks_s) / len(ticks.ticks_s),
    "verifies": verifies[0],
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
from ivtp import ledger
chain = gen.build_chain(int(sys.argv[2])).chain
data = ledger.chain_to_bytes(chain)
txs = [tx for block in chain.blocks for tx in block.txs]
encoded = [ledger.canonical_encode(tx) for tx in txs]

def round_trip():
    chain_file = ledger.parse_chain_bytes(io.BytesIO(data))
    assert ledger.validate_blocks(chain_file.blocks(), chain_file.endowment).ok
    assert chain_file.checksum_ok

def read_peak_kib():  # of one cold read of the file up to the replayed Chain
    with tempfile.NamedTemporaryFile(suffix=".bin") as f:
        f.write(data)
        f.flush()
        tracemalloc.start()
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
    "chain_decode_s": best(lambda: list(ledger.parse_chain_bytes(io.BytesIO(data)).blocks()), 15),
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
from ivtp import consensus, identity, ledger, netsim, vehicle

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
net = netsim.Network(netsim.NetworkConfig(latency_ms=1, jitter_ms=2, seed=1))
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
frames = [signed(i) for i in range(1200)]
for f in frames:
    f.signature  # made on this read where frames are signed lazily; outside the timing
cold = iter(frames)
warm = signed(0)
vehicle.verify_frame(warm, kp.public_key)
message = warm.signing_bytes
signature = identity.sign(kp, message)

# Payload encode plus decode, as a sender writes and a receiver reads it:
# an endorse frame's, and a schedule frame's for 12 vehicles.
E, S = vehicle.KIND_ENDORSE, vehicle.KIND_SCHEDULE
schedule = ("x-1", 0, ids[:12])

def endorse_payload():
    return vehicle.Frame(E, ids[0], 0, vehicle.encode_payload(E, ids[1], "valid")).body

def schedule_payload():
    payload = vehicle.encode_payload(S, *schedule)
    return vehicle.Frame(S, ids[0], 0, payload).body

# A registered vehicle's beacon, already verified, as every receiver after
# the first hears it: heeds, then handle_frame at a second vehicle.
dealer = identity.DealerAuthority.from_name("dealer")
chain = ledger.Chain.create(dealer, endowment=100000, genesis_tf=0)
fleet = []
for alias in (b"IV-1", b"IV-2"):
    pair = identity.keygen(identity.sha256(alias))
    fleet.append((dealer.issue(pair.public_key), pair))
regs = [consensus.PendingTx(tx=ledger.register_tx_from_issuance(i, dealer, tf=0)) for i, _ in fleet]
assert consensus.try_commit(regs, set(), chain, now=0).block is not None
sender, receiver = (vehicle.Vehicle(i.ivtp_id, pair, chain) for i, pair in fleet)
heard = sender.emit_beacon(50)
assert receiver.heeds(heard) and receiver.handle_frame(heard, 50) == []
assert receiver.drop_count == 0

def handle_frame_warm():
    if receiver.heeds(heard):
        receiver.handle_frame(heard, 50)

# try_commit of a pool 32 deep, each transaction endorsed by the other
# vehicle: one block of 32 onto a fresh chain holding the registrations
# (the signatures are checked before the timing), and merkle_root over
# that block's tx ids.
def fresh_chain():
    fresh = ledger.Chain.create(dealer, endowment=100000, genesis_tf=0)
    fresh.append_block([p.tx for p in regs], timestamp=0)
    return fresh

author, endorser = (i.ivtp_id for i, _ in fleet)
pool = []
for i in range(32):
    tx = ledger.sign_tx(ledger.CommTx(
        author=author, tf=1 + i, signature=b"", sender=author,
        message_hash=identity.sha256(b"%d" % i), tf_sent=1 + i,
    ), fleet[0][1])
    pool.append(consensus.PendingTx(tx=tx))
    pool[-1].add(consensus.Endorsement(tx.tx_id, endorser, consensus.VERDICT_VALID))
active = {author, endorser}
assert len(consensus.try_commit(pool, active, fresh_chain(), now=100).block.txs) == 32
chains = iter([fresh_chain() for _ in range(3 * 200)])
block_ids = [p.tx.tx_id for p in pool]

out = {}
for name, fn, reps in [
    ("dispatch_63", dispatch, 1000),
    ("verify_frame_cold", lambda: vehicle.verify_frame(next(cold), kp.public_key), 400),
    ("verify_frame_warm", lambda: vehicle.verify_frame(warm, kp.public_key), 100000),
    ("ed25519_sign", lambda: identity.sign(kp, message), 400),
    ("ed25519_verify", lambda: identity.verify(kp.public_key, message, signature), 400),
    ("payload_endorse", endorse_payload, 20000),
    ("payload_schedule_12", schedule_payload, 5000),
    ("handle_frame_warm", handle_frame_warm, 100000),
    ("merkle_root_32", lambda: ledger.merkle_root(block_ids), 20000),
    ("try_commit_32", lambda: consensus.try_commit(pool, active, next(chains), now=100), 200),
]:
    best = min(timed(fn, reps) for _ in range(3))
    out[name + "_s"], out[name + "_ref_s"] = best
print(json.dumps(out))
"""


# Run in a fresh interpreter with the checkout's src on sys.path: argv is
# (perfbench dir of this checkout, "time" or "profile"). After
# perfbench/worker.py's own imports, ivtp is imported as the worker
# imports it: timed, or counted by cProfile.
_IMPORT_RUN = """
import argparse, contextlib, dataclasses, hashlib, io, json, math, resource, sys, time
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import calib
profiled = sys.argv[2] == "profile"
if profiled:
    import cProfile
    profiler = cProfile.Profile()
    profiler.enable()
t0 = time.perf_counter()
import ivtp
from ivtp import cli, ledger, scenario, sim
import_s = time.perf_counter() - t0
if not profiled:
    print(json.dumps({"import_s": import_s}))
    sys.exit()
profiler.disable()
import inspect
generated = [
    value for name, module in sys.modules.items() if name.startswith("ivtp.")
    for cls in vars(module).values()
    if isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls.__module__ == name
    for value in vars(cls).values()
    if inspect.isfunction(value) and inspect.unwrap(value).__code__.co_filename == "<string>"
]
print(json.dumps({
    "import_calls": sum(entry.callcount for entry in profiler.getstats()),
    "generated_functions": len(generated),
}))
"""


# Run in a fresh interpreter with the checkout's src on sys.path: argv is
# (perfbench dir of this checkout, workload, then the seed, or on
# chain_audit the chain file and the vehicle to ask for). The calls of one
# warm sim.run or one cold inspect, summed over the profiler's entries.
_WORK_RUN = """
import contextlib, cProfile, dataclasses, io, json, sys, tempfile
sys.path.insert(0, sys.argv[1])
from ivtp import cli, scenario, sim
workload, profiler = sys.argv[2], cProfile.Profile()
if workload == "chain_audit":
    with contextlib.redirect_stdout(io.StringIO()):
        assert profiler.runcall(cli.main, ["inspect", sys.argv[3], "balance", sys.argv[4]]) == 0
else:
    import gen
    raw = json.loads(gen.scenario_bytes(getattr(gen, workload)(int(sys.argv[3]))))
    cfg = scenario.scenario_from_dict(raw, name="scenario")
    sim.run(dataclasses.replace(cfg, run=scenario.RunConfig(t_end_ms=0)))
    with tempfile.TemporaryDirectory() as out:
        profiler.runcall(sim.run, cfg, out)
entries = [e for e in profiler.getstats() if not isinstance(e.code, str)]

def calls(module, name):
    return sum(
        e.callcount for e in entries
        if e.code.co_filename.endswith(module) and e.code.co_name == name
    )

print(json.dumps({
    "calls": sum(e.callcount for e in profiler.getstats()),
    "verifies": calls("identity.py", "verify"),
    "signs": calls("identity.py", "sign"),
    "rng_draws": calls("netsim.py", "next_u64"),
}))
"""


# Unscaled medians that perfbench/run.py prints before its result line,
# kept next to it: a change in the reference-scaled metrics can then be
# read as a change in the call's own time or in the calibration ticks'.
UNSCALED = ("run_s", "audit_s", "raw_setup_s", "tick_ms")


def run(cmd: list[str], cwd: Path, env: dict | None = None) -> str:
    """The output of cmd, run in cwd in a session of its own; the recorder
    exits with its errors if it fails. If the recorder stops first, it
    ends cmd's whole process group, perfbench/run.py's workers included."""
    proc = subprocess.Popen(
        cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate()
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        shown = " ".join("<script>" if "\n" in arg else arg for arg in cmd)
        raise SystemExit(f"{shown} exited {proc.returncode} in {cwd}:\n{err}")
    return out


def stop(signum, _frame):
    """SIGTERM or SIGINT: unwind into main's cleanup, as an error would."""
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, signal.SIG_IGN)
    raise SystemExit(128 + signum)


def perfbench(checkout: Path, workload: str, seed: int) -> dict:
    """One perfbench/run.py command in checkout: its host and result lines
    and the UNSCALED medians it printed."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
    ]
    lines = run(cmd, checkout).splitlines()
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
    cmd = [
        sys.executable, "-c", _SYNTHETIC_RUN, str(ROOT / "tests"), str(ROOT / "perfbench"), str(n),
    ]
    return json.loads(run(cmd, checkout, env))


def microbench(checkout: Path, script: str, *args: str, hash_seed: str = "0") -> dict:
    """One microbench script run in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONHASHSEED": hash_seed}
    cmd = [sys.executable, "-c", script, str(ROOT / "perfbench"), *args]
    return json.loads(run(cmd, checkout, env))


CODEC_METRICS = (
    "canonical_encode_s", "canonical_decode_s", "tx_signing_bytes_s", "chain_round_trip_s",
    "chain_decode_s", "read_peak_kib",
)
LAYER_METRICS = tuple(
    f"{name}{unit}"
    for name in (
        "dispatch_63", "verify_frame_cold", "verify_frame_warm", "ed25519_sign",
        "ed25519_verify", "payload_endorse", "payload_schedule_12",
        "handle_frame_warm", "merkle_root_32", "try_commit_32",
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


def cold_imports(sides: dict) -> dict:
    """import_s in IMPORT_RUNS alternating interpreters per side, and
    each side's import_calls and generated_functions."""
    runs = {side: [] for side in sides}
    for i in range(IMPORT_RUNS):
        for side in alternating(i):
            runs[side].append(microbench(sides[side], _IMPORT_RUN, "time"))
    counted = {side: microbench(sides[side], _IMPORT_RUN, "profile") for side in sides}
    return {
        **micro_summary(runs, ("import_s",)),
        **{name: {side: c[name] for side, c in counted.items()} for name in counted["change"]},
    }


def work_counts(checkout: Path, seed: int, hash_seed: str = "0") -> dict:
    """Per workload, the calls, Ed25519 verifies and signs and Rng draws of
    one warm run or one cold audit at seed in checkout."""
    counts = {}
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        if workload == "chain_audit":
            with tempfile.TemporaryDirectory() as out:
                cmd = [sys.executable, "perfbench/worker.py", "chain", str(seed), out]
                made = json.loads(run(cmd, checkout).splitlines()[-1])
                args = (f"{out}/chain.bin", made["query"])
                counts[workload] = microbench(checkout, _WORK_RUN, workload, *args,
                                              hash_seed=hash_seed)
        else:
            counts[workload] = microbench(checkout, _WORK_RUN, workload, str(seed),
                                          hash_seed=hash_seed)
    return counts


MATRIX_TIMES = ("run_s", "ref_s", "tick_ms")


def matrix_entry(runs: dict) -> dict:
    """One N: per side every run's times, the medians, the verifies and
    what the run left; per time, the pairs the change won."""
    entry = {}
    for side, r in runs.items():
        entry[side] = {name: [run[name] for run in r] for name in MATRIX_TIMES}
        entry[side].update({
            "run_s_median": statistics.median(run["run_s"] for run in r),
            "ref_s_median": statistics.median(run["ref_s"] for run in r),
            "verifies": r[0]["verifies"],
            "trace_rows": r[0]["trace_rows"],
            "peak_rss_mb_median": statistics.median(run["peak_rss_mb"] for run in r),
            "trace_digest": r[0]["trace_digest"],
        })
    entry["change_won"] = {
        name: sum(c < p for p, c in zip(entry["parent"][name], entry["change"][name]))
        for name in ("run_s", "ref_s")
    }
    entry["pairs"] = len(runs["parent"])
    return entry


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

    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, stop)
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
        entry = record["synthetic"][f"n{n}"] = matrix_entry(runs)
        line = [f"synthetic n{n}:"]
        for side in sides:
            e = entry[side]
            line.append(f"{side} ref {e['ref_s_median']:.3f} s run {e['run_s_median']:.3f} s"
                        f" {e['verifies']} verifies {e['peak_rss_mb_median']:.1f} MB")
        line.append(f"ref_s won {entry['change_won']['ref_s']} of {entry['pairs']}")
        print(" ".join(line), flush=True)
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
    imports = record["cold_import"] = cold_imports(sides)
    timed = imports["import_s"]
    print(f"cold import: {timed['parent']['median'] * 1e3:.1f} -> "
          f"{timed['change']['median'] * 1e3:.1f} ms (won {timed['change_won']} of "
          f"{IMPORT_RUNS}), calls {imports['import_calls']}, "
          f"generated {imports['generated_functions']}", flush=True)
    record["work_counts"] = {side: work_counts(sides[side], args.seed) for side in sides}
    print(f"work counts: {record['work_counts']}", flush=True)
    return record


if __name__ == "__main__":
    sys.exit(main())
