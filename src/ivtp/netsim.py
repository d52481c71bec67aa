"""Deterministic discrete-event broadcast network.

One shared medium, one event queue. Events are dispatched in (due time,
insertion sequence) order, which is total, so a run is a pure function
of the scenario and the seed: no wall clock, no ambient randomness.
Latency, jitter and loss come from a counter-based seeded generator.
Every send, delivery and drop becomes one trace.jsonl row, encoded when
it happens.

The queue keeps a bucket of events per due time and a heap of the due
times, after Brown's calendar queue (CACM 1988): time flags are integer
ms and a broadcast spans a few, so most events skip the heap.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import struct
from collections import Counter, deque
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str
from typing import Callable, Protocol

from .identity import IvTpId, short_id
from .ledger import TimeFlag


class UnknownSenderError(ValueError):
    """Broadcast attempted by an id that never joined the network."""


class PastDeadlineError(ValueError):
    """Timer requested for a time the clock has already passed."""


_U64 = struct.Struct(">Q")


class Rng:
    """Counter-based deterministic generator: draw i is a function of
    (seed, i) only, so streams are reproducible and platform-free."""

    def __init__(self, seed: int):
        self.seed = seed & 0xFFFFFFFFFFFFFFFF
        self.counter = 0
        # Draw i is the first 8 bytes of SHA-256("ivtp/rng" || u64 seed ||
        # u64 i); the common prefix is hashed once and copied per draw.
        self._prefix = hashlib.sha256(b"ivtp/rng" + self.seed.to_bytes(8, "big"))

    def next_u64(self) -> int:
        h = self._prefix.copy()
        h.update(self.counter.to_bytes(8, "big"))
        self.counter += 1
        return _U64.unpack_from(h.digest())[0]


@dataclass(frozen=True)
class NetworkConfig:
    """One network's delivery model and seed. With zero jitter and loss,
    delivery lands at exactly send time + latency."""

    latency_ms: int = 0
    jitter_ms: int = 0
    drop_probability: float = 0.0
    seed: int = 0


# One encoder for rows without a template; json.dumps with options builds
# one per call.
_encode_row = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

# The rows the network writes most, as json.dumps(row, sort_keys=True,
# separators=(",", ":")) + "\n" lays them out; %b slots take JSON strings.
_SEND = b'{"detail":{"tf":%d},"dir":"send","kind":%b,"t_ms":%d,"vehicle":%b}\n'
_RECV = b'{"detail":{"from":%b},"dir":"recv","kind":%b,"t_ms":%d,"vehicle":%b}\n'
_DROP = (
    b'{"detail":{"from":%b,"reason":%b},"dir":"drop","kind":%b,"t_ms":%d,"vehicle":%b}\n'
)


class _Quoted(dict):
    """Name -> its JSON string literal as bytes, quoted on first use."""

    def __missing__(self, name: str) -> bytes:
        quoted = self[name] = _json_str(name).encode()
        return quoted


# A bound trace writes its buffer out once it passes this many bytes.
SPILL_BYTES = 1 << 16


class Trace:
    """A run's trace.jsonl, written as the run goes: each row is encoded
    into one buffer once, when its event happens. Send, recv and drop rows
    come from byte templates, with every name JSON-quoted once and cached;
    note rows go through the generic compact encoder. The trace also
    counts rows by `dir` and keeps the note rows, which is all a report
    reads of it.

    Bound to a file, the trace spills: once a send row takes the buffer
    past SPILL_BYTES, the buffer is fed to a running SHA-256, written to
    the file and cleared, so a run holds at most one chunk plus the rows
    of the frames in flight. Unbound, everything stays in the buffer.
    Either way close() hashes what is left and returns the digest of the
    whole trace.

    Read back, it is a sequence of row dicts decoded on demand, from the
    file when bound and then from the buffer: it supports len() and
    iteration.
    """

    def __init__(self):
        self._data = bytearray()
        self._hash = hashlib.sha256()
        self._path = None
        self._file = None
        self._spill_at = float("inf")
        self.counts: Counter[str] = Counter()
        self.notes: list[dict] = []
        self._quoted = _Quoted()

    def bind(self, path) -> None:
        """Write the trace to path (created or truncated) from now on,
        starting with the rows already buffered."""
        self._path = path
        self._file = open(path, "wb")
        self._spill_at = SPILL_BYTES
        self._spill()

    def _spill(self) -> None:
        self._hash.update(self._data)
        self._file.write(self._data)
        self._data.clear()

    def close(self) -> bytes:
        """Finish the trace: hash the rows not hashed yet, write them out
        and close the file when bound, and return the SHA-256 of the
        whole trace. Call it once, after the last row."""
        if self._file is None:
            self._hash.update(self._data)
        else:
            self._spill()
            self._file.close()
            self._file = None
            self._spill_at = float("inf")
        return self._hash.digest()

    def _add(self, row: dict) -> None:
        self._data += (_encode_row(row) + "\n").encode()
        self.counts[row["dir"]] += 1
        if row["dir"] == "note":
            self.notes.append(row)

    def send(self, t_ms: TimeFlag, vehicle: str, kind: str, tf: TimeFlag) -> None:
        q = self._quoted
        self._data += _SEND % (tf, q[kind], t_ms, q[vehicle])
        self.counts["send"] += 1
        if len(self._data) > self._spill_at:
            self._spill()

    def recv(self, t_ms: TimeFlag, vehicle: str, kind: str, sender: str) -> None:
        q = self._quoted
        self._data += _RECV % (q[sender], q[kind], t_ms, q[vehicle])
        self.counts["recv"] += 1

    def drop(self, t_ms: TimeFlag, vehicle: str, kind: str, sender: str, reason: str) -> None:
        q = self._quoted
        # Reasons can carry exception text, so they are quoted, not cached.
        self._data += _DROP % (q[sender], _json_str(reason).encode(), q[kind], t_ms, q[vehicle])
        self.counts["drop"] += 1

    def note(self, t_ms: TimeFlag, vehicle: str, kind: str, detail) -> None:
        self._add({"t_ms": t_ms, "vehicle": vehicle, "dir": "note", "kind": kind, "detail": detail})

    @property
    def data(self) -> bytes | memoryview:
        """The trace.jsonl bytes so far. Unbound, a read-only view of the
        buffer, not a copy: release it before the trace grows again.
        Bound, the file read back, then the buffer."""
        if self._path is None:
            return memoryview(self._data).toreadonly()
        self._flush()
        with open(self._path, "rb") as f:
            return f.read() + self._data

    def _flush(self) -> None:
        if self._file is not None:
            self._file.flush()

    def __len__(self) -> int:
        return sum(self.counts.values())

    def __iter__(self):
        if self._path is not None:
            self._flush()
            with open(self._path, "rb") as f:
                for line in f:
                    yield json.loads(line)
        data, start = self._data, 0
        while start < len(data):
            end = data.index(b"\n", start)
            yield json.loads(data[start:end])
            start = end + 1


class Names(dict):
    """Participant id -> its name in traces and reports; an id with no
    alias is named by its short hex form."""

    def __missing__(self, veh: IvTpId) -> str:
        return short_id(veh)


class Participant(Protocol):
    ivtp_id: IvTpId

    def heeds(self, frame) -> bool: ...

    def handle_frame(self, frame, now: TimeFlag) -> list: ...

    def handle_timer(self, tag, now: TimeFlag) -> list: ...


class Network:
    """The event loop. Single-threaded by contract; participants are
    invoked one at a time and outgoing frames they return are broadcast
    at the current instant."""

    def __init__(
        self,
        config: NetworkConfig = NetworkConfig(),
        drop_rule: Callable[[object, IvTpId], bool] | None = None,
    ):
        self.config = config
        self.rng = Rng(config.seed)
        self.clock: TimeFlag = 0
        self.participants: dict[IvTpId, Participant] = {}
        self.trace = Trace()
        self.names = Names()
        self.drop_rule = drop_rule  # test seam for targeted loss injection
        # due -> its (target id, payload, is_timer) events; a heap of the dues.
        self._buckets: dict[TimeFlag, deque[tuple[IvTpId, object, bool]]] = {}
        self._times: list[TimeFlag] = []

    def join(self, participant: Participant) -> None:
        self.participants[participant.ivtp_id] = participant

    def _bucket(self, due: TimeFlag) -> deque:
        bucket = self._buckets.get(due)
        if bucket is None:
            bucket = self._buckets[due] = deque()
            heapq.heappush(self._times, due)
        return bucket

    def broadcast(self, frame, at: TimeFlag) -> None:
        """Schedule one delivery per other participant; the sender never
        hears its own frame. Per receiver, loss takes one draw if the drop
        probability p is strictly between 0 and 1 (p >= 1 drops without
        one), then jitter takes one, uniform over 0..jitter_ms."""
        sender = frame.sender
        if sender not in self.participants:
            raise UnknownSenderError(short_id(sender))
        self.trace.send(at, self.names[sender], frame.kind_label, frame.tf)
        draw, drop_rule, buckets = self.rng.next_u64, self.drop_rule, self._buckets
        p_drop = self.config.drop_probability
        lossy, cut = p_drop > 0.0, (int(p_drop * 2.0**64) if p_drop < 1.0 else None)
        latency, span = self.config.latency_ms, self.config.jitter_ms + 1
        for veh in self.participants:
            if veh == sender:
                continue
            if drop_rule is not None and drop_rule(frame, veh):
                self._trace_drop(at, veh, frame, "injected")
                continue
            if lossy and (cut is None or draw() < cut):
                self._trace_drop(at, veh, frame, "channel")
                continue
            # Modulo bias is irrelevant at jitter scale.
            due = at + latency + (draw() % span if span > 1 else 0)
            (buckets.get(due) or self._bucket(due)).append((veh, frame, False))

    def _trace_drop(self, t: TimeFlag, veh: IvTpId, frame, reason: str) -> None:
        names = self.names
        self.trace.drop(t, names[veh], frame.kind_label, names[frame.sender], reason)

    def set_timer(self, owner: IvTpId, fire_at: TimeFlag, tag) -> None:
        """Hand tag to owner's handle_timer at fire_at. Timers are never
        cancelled: a handler ignores a tag its state has moved past."""
        if fire_at < self.clock:
            raise PastDeadlineError(f"fire_at {fire_at} < clock {self.clock}")
        self._bucket(fire_at).append((owner, tag, True))

    def run_until(self, t_end: TimeFlag) -> None:
        """Dispatch every event due at or before t_end, in (due, insertion)
        order (one scheduled for the current instant goes last), then
        advance the clock to t_end. An event leaves before its handler runs.
        A frame's recv row is written; handle_frame runs if the target heeds it."""
        if t_end < self.clock:
            raise ValueError("cannot run backwards")
        buckets, times, participants = self._buckets, self._times, self.participants
        trace, names = self.trace, self.names
        while times and times[0] <= t_end:
            due = self.clock = times[0]
            bucket = buckets[due]
            while bucket:
                target_id, payload, is_timer = bucket.popleft()
                target = participants.get(target_id)
                if target is None:
                    continue
                if is_timer:
                    out = target.handle_timer(payload, due)
                else:
                    trace.recv(due, names[target_id], payload.kind_label, names[payload.sender])
                    if not target.heeds(payload):
                        continue
                    out = target.handle_frame(payload, due)
                for frame in out or []:
                    self.broadcast(frame, due)
            del buckets[due]
            heapq.heappop(times)
        self.clock = t_end
