"""Deterministic discrete-event broadcast network.

One shared medium, one event queue. Events are dispatched in (due time,
insertion sequence) order, which is total, so a run is a pure function
of the scenario and the seed: no wall clock, no ambient randomness.
Latency, jitter and loss come from a counter-based seeded generator.
"""

from __future__ import annotations

import heapq
import struct
from dataclasses import dataclass
from typing import Callable, Protocol

from .identity import IvTpId, sha256, short_id
from .ledger import TimeFlag


class UnknownSenderError(ValueError):
    """Broadcast attempted by an id that never joined the network."""


class PastDeadlineError(ValueError):
    """Timer requested for a time the clock has already passed."""


class Rng:
    """Counter-based deterministic generator: draw i is a function of
    (seed, i) only, so streams are reproducible and platform-free."""

    def __init__(self, seed: int):
        self.seed = seed & 0xFFFFFFFFFFFFFFFF
        self.counter = 0

    def next_u64(self) -> int:
        block = sha256(b"ivtp/rng" + struct.pack(">QQ", self.seed, self.counter))
        self.counter += 1
        return struct.unpack(">Q", block[:8])[0]

    def uniform_int(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi]. Modulo bias is irrelevant at jitter scale."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)

    def chance(self, p: float) -> bool:
        """True with probability p; exact at the endpoints 0 and 1."""
        if p <= 0.0:
            return False
        if p >= 1.0:
            return True
        return self.next_u64() < int(p * 2.0**64)


@dataclass(frozen=True)
class LinkModel:
    """Per-network delivery model. With zero jitter and loss, delivery
    lands at exactly send time + base latency."""

    base_latency_ms: int = 0
    jitter_ms: int = 0
    drop_probability: float = 0.0


class Participant(Protocol):
    ivtp_id: IvTpId

    def handle_frame(self, frame, now: TimeFlag) -> list: ...

    def handle_timer(self, tag, now: TimeFlag) -> list: ...


class Network:
    """The event loop. Single-threaded by contract; participants are
    invoked one at a time and outgoing frames they return are broadcast
    at the current instant."""

    def __init__(
        self,
        link: LinkModel | None = None,
        seed: int = 0,
        trace: list | None = None,
        alias_of: Callable[[IvTpId], str] | None = None,
        drop_rule: Callable[[object, IvTpId], bool] | None = None,
    ):
        self.link = link or LinkModel()
        self.rng = Rng(seed)
        self.clock: TimeFlag = 0
        self.participants: dict[IvTpId, Participant] = {}
        self.trace: list = trace if trace is not None else []
        self.alias_of = alias_of or short_id
        self.drop_rule = drop_rule  # test seam for targeted loss injection
        # (due, seq, kind, target, payload) with kind "deliver" or "timer".
        # seq is unique, so heap order never compares past it.
        self._queue: list[tuple[TimeFlag, int, str, IvTpId, object]] = []
        self._seq = 0
        self._cancelled: set[int] = set()

    def join(self, participant: Participant) -> None:
        self.participants[participant.ivtp_id] = participant

    def note(self, t_ms: TimeFlag, vehicle: str, kind: str, detail) -> None:
        self.trace.append(
            {"t_ms": t_ms, "vehicle": vehicle, "dir": "note", "kind": kind, "detail": detail}
        )

    def _push(self, due: TimeFlag, kind: str, target: IvTpId, payload) -> int:
        seq = self._seq
        self._seq += 1
        heapq.heappush(self._queue, (due, seq, kind, target, payload))
        return seq

    def broadcast(self, frame, at: TimeFlag) -> list[tuple[IvTpId, TimeFlag]]:
        """Schedule one delivery per other participant; the sender never
        hears its own frame. Returns the scheduled (receiver, due) list."""
        if frame.sender not in self.participants:
            raise UnknownSenderError(short_id(frame.sender))
        self.trace.append(
            {
                "t_ms": at,
                "vehicle": self.alias_of(frame.sender),
                "dir": "send",
                "kind": frame.kind_label,
                "detail": {"tf": frame.tf},
            }
        )
        scheduled = []
        for veh in self.participants:
            if veh == frame.sender:
                continue
            if self.drop_rule is not None and self.drop_rule(frame, veh):
                self._trace_drop(at, veh, frame, "injected")
                continue
            if self.rng.chance(self.link.drop_probability):
                self._trace_drop(at, veh, frame, "channel")
                continue
            delay = self.link.base_latency_ms
            if self.link.jitter_ms > 0:
                delay += self.rng.uniform_int(0, self.link.jitter_ms)
            due = at + delay
            self._push(due, "deliver", veh, frame)
            scheduled.append((veh, due))
        return scheduled

    def _trace_drop(self, t: TimeFlag, veh: IvTpId, frame, reason: str) -> None:
        self.trace.append(
            {
                "t_ms": t,
                "vehicle": self.alias_of(veh),
                "dir": "drop",
                "kind": frame.kind_label,
                "detail": {"reason": reason, "from": self.alias_of(frame.sender)},
            }
        )

    def set_timer(self, owner: IvTpId, fire_at: TimeFlag, tag) -> int:
        """Deliver a TimerFire to owner at fire_at; returns a timer id
        usable with cancel_timer."""
        if fire_at < self.clock:
            raise PastDeadlineError(f"fire_at {fire_at} < clock {self.clock}")
        return self._push(fire_at, "timer", owner, tag)

    def cancel_timer(self, timer_id: int) -> None:
        self._cancelled.add(timer_id)

    def run_until(self, t_end: TimeFlag) -> list:
        """Dispatch every event due at or before t_end, in (due, seq)
        order, then advance the clock to t_end. Returns the trace."""
        if t_end < self.clock:
            raise ValueError("cannot run backwards")
        while self._queue and self._queue[0][0] <= t_end:
            due, seq, kind, target_id, payload = heapq.heappop(self._queue)
            if kind == "timer" and seq in self._cancelled:
                self._cancelled.discard(seq)
                continue
            self.clock = due
            target = self.participants.get(target_id)
            if target is None:
                continue
            if kind == "deliver":
                self.trace.append(
                    {
                        "t_ms": due,
                        "vehicle": self.alias_of(target_id),
                        "dir": "recv",
                        "kind": payload.kind_label,
                        "detail": {"from": self.alias_of(payload.sender)},
                    }
                )
                out = target.handle_frame(payload, due)
            else:
                out = target.handle_timer(payload, due)
            for frame in out or []:
                self.broadcast(frame, due)
        self.clock = t_end
        return self.trace
