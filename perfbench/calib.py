"""Host-speed calibration: a fixed kernel timed all through each timed call.

The host this benchmark runs on is shared. The speed of each of its CPUs
drifts by 10-50% within seconds while our process keeps the CPU (no
steal time shows), and the CPUs drift independently of each other. A
time taken on it mixes the program's cost with the host's speed at that
moment. So while a worker makes its timed call, an interval timer
interrupts it every ``INTERVAL_S`` seconds and times ``tick``, a fixed
kernel of about a millisecond, on the same CPU. The result metrics are
the call's time scaled to a host on which ``tick`` takes ``REF_S``:

    ref_time = time * mean(REF_S / tick time) over the ticks of the call

Ticks come at even steps of wall time, so the mean is the average host
speed over the call, relative to the reference.

``tick`` does the same kinds of work as the simulator (Ed25519 verify
through ``cryptography``, SHA-256, heap and dict operations, canonical
JSON) and uses no ``ivtp`` code, so a change to the program cannot move
it. Its result is checked, so a broken kernel fails the run.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import signal
import time

from cryptography.hazmat.primitives.asymmetric import ed25519
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

# Seconds one tick takes on the reference host. On a 2-vCPU Intel Xeon
# VM with Python 3.11 and cryptography 48 a tick takes 1.0-2.0 ms.
REF_S = 0.0015
INTERVAL_S = 0.1
CHECKSUM = 210

_SK = ed25519.Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
_PK = _SK.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
_MSGS = [hashlib.sha256(i.to_bytes(4, "big")).digest() * 4 for i in range(4)]
_SIGS = [_SK.sign(m) for m in _MSGS]


def tick() -> int:
    acc = 0
    for m, s in zip(_MSGS, _SIGS):
        ed25519.Ed25519PublicKey.from_public_bytes(_PK).verify(s, m)
    heap, state = [], {}
    for i in range(300):
        key = (i * 7919) % 101
        heapq.heappush(heap, (key, i))
        k = key.to_bytes(4, "big")
        state[k] = state.get(k, 0) + i
    while heap:
        acc ^= heapq.heappop(heap)[1]
    rows = [{"t": i, "dir": "tx", "detail": {"k": i % 13}} for i in range(60)]
    acc += hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).digest()[0]
    return acc + len(state)


class Sampler:
    """Times ``tick`` every ``INTERVAL_S`` of wall time while active.

    ``busy_s`` is the time the ticks took, which the caller takes off
    its measured time."""

    def __init__(self):
        self.ticks_s: list[float] = []
        self.busy_s = 0.0
        self._old = None

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        acc = tick()
        took = time.perf_counter() - t0
        if acc != CHECKSUM:
            raise RuntimeError(f"calibration tick checksum {acc} != {CHECKSUM}")
        self.ticks_s.append(took)
        self.busy_s += took

    def __enter__(self):
        tick()  # warm the kernel before the first timed tick
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        # The first tick comes at once, so that even a short call has one.
        signal.setitimer(signal.ITIMER_REAL, 0.001, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def scale(self) -> float:
        """Factor that turns times of this call into reference-host times."""
        if not self.ticks_s:
            raise RuntimeError("the timed call ended before the first calibration tick")
        return sum(REF_S / t for t in self.ticks_s) / len(self.ticks_s)


if __name__ == "__main__":
    for _ in range(5):
        t0 = time.perf_counter()
        acc = tick()
        print(acc, time.perf_counter() - t0)
