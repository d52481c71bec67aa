"""bench/record.py stopped by a signal: the recording ends, and with it
every process it started and the extracts it made. One recording is
started, in a throwaway git repository holding what it reads. Its work
and import counts repeat under another hash seed."""

import contextlib
import importlib.util
import os
import shutil
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _children(pid: int) -> list[int]:
    try:
        return [int(c) for c in Path(f"/proc/{pid}/task/{pid}/children").read_text().split()]
    except FileNotFoundError:
        return []


def _running(pid: int) -> bool:
    """The process exists and is not a zombie waiting to be reaped."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _repository(into: Path) -> None:
    """A one-commit git repository with what a recording reads."""
    skip = shutil.ignore_patterns("__pycache__", ".bench_work")
    for part in ("bench", "perfbench", "scenarios", "src"):
        shutil.copytree(ROOT / part, into / part, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", into)
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@localhost", "-C", str(into)]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-qm", "bench"]):
        subprocess.run(git + args, check=True, capture_output=True)


def test_sigterm_ends_every_process_and_removes_the_extracts(tmp_path):
    repo, tmp, out = tmp_path / "repo", tmp_path / "tmp", tmp_path / "BENCH.json"
    repo.mkdir()
    tmp.mkdir()
    _repository(repo)
    cmd = [
        sys.executable, "bench/record.py", "--parent", "HEAD", "--seed", "1", "--pairs", "1",
        "--out", str(out),
    ]
    with open(tmp_path / "stderr.txt", "w") as stderr:
        recorder = subprocess.Popen(
            cmd, cwd=repo, env={**os.environ, "TMPDIR": str(tmp)},
            stdout=subprocess.DEVNULL, stderr=stderr,
        )
    started: set[int] = set()
    try:
        # Wait until perfbench/run.py runs one of its workers.
        deadline = time.monotonic() + 120
        workers: list[int] = []
        while not workers:
            assert recorder.poll() is None, (tmp_path / "stderr.txt").read_text()
            assert time.monotonic() < deadline
            time.sleep(0.05)
            runs = _children(recorder.pid)
            workers = [w for r in runs for w in _children(r)]
            started.update(runs, workers)
        assert list(tmp.glob("bench-*/side-*"))
        recorder.send_signal(signal.SIGTERM)
        # A recorder that waited for run.py instead would take its 30 s.
        assert recorder.wait(timeout=15) == 128 + signal.SIGTERM
        time.sleep(0.2)  # let the killed group's processes finish exiting
        assert [pid for pid in started if _running(pid)] == []
        assert list(tmp.iterdir()) == [] and not out.exists()
    finally:
        for pid in [recorder.pid, *started]:
            if _running(pid):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
        recorder.wait(timeout=60)


def test_work_and_import_counts_repeat_under_two_hash_seeds():
    """The call, Ed25519 and Rng counts of a warm run, a cold audit and the
    cold import are exact: PYTHONHASHSEED 0 and 1 read the same."""
    spec = importlib.util.spec_from_file_location("record", ROOT / "bench" / "record.py")
    record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(record)

    def counts(hash_seed: str) -> tuple:
        imported = record.microbench(ROOT, record._IMPORT_RUN, "profile", hash_seed=hash_seed)
        return record.work_counts(ROOT, 1, hash_seed), imported

    with ThreadPoolExecutor(2) as pool:
        first, second = pool.map(counts, ["0", "1"])
    assert first == second
    work, imported = first
    assert work["town_n12"]["verifies"] > 0 and work["town_n12"]["rng_draws"] > 0
    assert work["chain_audit"]["signs"] == 0 and work["chain_audit"]["verifies"] > 0
    assert imported["generated_functions"] == 61
