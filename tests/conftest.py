"""Shared fixtures and the acceptance-criteria result banner."""

import contextlib
import dataclasses
import importlib
from pathlib import Path

import pytest

from ivtp import consensus, identity, ledger, netsim, scenario, sim

ROOT = Path(__file__).resolve().parent.parent

# Criterion number -> (label, passed). Filled by tests/test_acceptance.py,
# printed as a summary section so every run shows one line per criterion.
ACCEPTANCE_RESULTS: dict[int, tuple[str, bool]] = {}


@pytest.fixture
def acceptance():
    def record(num: int, label: str, ok: bool) -> bool:
        ACCEPTANCE_RESULTS[num] = (label, bool(ok))
        print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}")
        return bool(ok)

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_RESULTS):
        label, ok = ACCEPTANCE_RESULTS[num]
        terminalreporter.write_line(
            f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}"
        )


def make_fleet(n: int, endowment: int = 100_000):
    """A chain with n vehicles registered at t=0 plus their keys.

    Registrations go through the normal quorum sweep (threshold is zero
    while nobody beacons), exactly like the simulator bootstrap.
    """
    dealer = identity.DealerAuthority.from_name("dealer")
    chain = ledger.Chain.create(dealer, endowment=endowment, genesis_tf=0)
    ids: list[bytes] = []
    keys: dict[bytes, identity.KeyPair] = {}
    pending = []
    for i in range(1, n + 1):
        kp = identity.keygen(identity.sha256(f"IV-{i}".encode()))
        issuance = dealer.issue(kp.public_key)
        tx = ledger.register_tx_from_issuance(issuance, dealer, tf=0)
        pending.append(consensus.PendingTx(tx=tx))
        ids.append(issuance.ivtp_id)
        keys[issuance.ivtp_id] = kp
    if pending:
        result = consensus.try_commit(pending, set(), chain, now=0)
        assert result.block is not None and not result.still_pending
    return dealer, chain, ids, keys


def ivtp_dataclasses() -> list[type]:
    """Every dataclass a module of src/ivtp defines, in module order."""
    paths = sorted((ROOT / "src" / "ivtp").glob("*.py"))
    modules = [importlib.import_module(f"ivtp.{path.stem}") for path in paths]
    return [
        obj for module in modules for obj in vars(module).values()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj)
        and obj.__module__ == module.__name__
    ]


def signed_comm(kp: identity.KeyPair, author: bytes, tf: int = 1, receivers=(), message=b"m"):
    """A CommTx from author, signed with kp: the stand-in transaction
    wherever any well-formed kind will do."""
    return ledger.sign_tx(
        ledger.CommTx(
            author=author,
            tf=tf,
            signature=b"",
            sender=author,
            receivers=tuple(receivers),
            message_hash=identity.sha256(message),
            tf_sent=tf,
        ),
        kp,
    )


def tag2_tx_bytes(kp: identity.KeyPair, author: bytes, tf: int = 1) -> bytes:
    """A transaction encoding under tag 2, signed by kp over everything
    but its signature: the layout of a liveness beacon record
    (tag, author, u64 tf, network and zone blobs, signature). No
    transaction kind owns tag 2."""
    body = (
        bytes([2]) + author + ledger._u64(tf)
        + ledger._blob(b"net-0") + ledger._blob(b"zone-0")
    )
    return body + identity.sign(kp, body)


def read_chain(path) -> ledger.Chain:
    """The chain a chain file holds, read and replayed block by block."""
    with open(path, "rb") as f:
        return ledger.parse_chain_bytes(f).chain()


def trace_from_rows(rows) -> netsim.Trace:
    """The trace of already-parsed rows, such as a trace.jsonl read back."""
    trace = netsim.Trace()
    for row in rows:
        trace._add(row)
    return trace


def scenario_path(name: str) -> Path:
    """Bundled scenarios live in scenarios/, the synthetic N-vehicle
    ones (1 ms latency, 2 ms jitter, 10% loss) in vectors/, next to the
    locked digests."""
    bundled = ROOT / "scenarios" / f"{name}.json"
    return bundled if bundled.exists() else ROOT / "vectors" / f"{name}.json"


class Meter:
    """Ed25519 verifies or signs made since the last reset(); call it to read."""

    def __init__(self):
        self.count = 0

    def __call__(self) -> int:
        return self.count

    def reset(self) -> None:
        self.count = 0


@contextlib.contextmanager
def counting_ed25519(meter: Meter):
    """Count into meter every Ed25519 verify made inside the block: each
    call of identity's bound libsodium verify function, the one place a
    signature is checked."""
    verify = identity._verify_detached

    def counted(*args):
        meter.count += 1
        return verify(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(identity, "_verify_detached", counted)
        yield meter


@contextlib.contextmanager
def counting_signs(meter: Meter):
    """Count into meter every identity.sign call made inside the block."""
    sign = identity.sign

    def counted(keypair, message):
        meter.count += 1
        return sign(keypair, message)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(identity, "sign", counted)
        yield meter


@pytest.fixture(scope="session")
def locked_run():
    """locked_run(name): the handles of the locked scenario's run without
    an out dir, and the Ed25519 verifies and signs it made. Each scenario
    runs once per session, however many tests ask for it."""
    runs = {}

    def get(name: str):
        if name not in runs:
            with counting_ed25519(Meter()) as verifies, counting_signs(Meter()) as signs:
                handles = sim.run(scenario.load_scenario(scenario_path(name)))
            runs[name] = handles, verifies(), signs()
        return runs[name]

    return get
