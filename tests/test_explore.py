"""A bounded exhaustive search of the intersection session protocol.

arbitration.step is the whole protocol of one participant, so this drives
two or three participants' sessions through it with no network simulator
and no cryptography, and tries every way the deliveries can go: each
frame reaches each other participant LATENCY ms after it is sent, or is
lost, with at most a set number of losses in a run. A scope may add an
outsider that broadcasts made-up schedules at set times, and a thief: the
last participant, which also announces at set times an outcome naming
itself that check_tx would apply, as one that pooled the others'
agreements could. The outsider's and the thief's set frames all arrive.
Timers fire, and simultaneous events run, in the order netsim dispatches
them.

The search is stateless: each run replays its loss choices from the start
(Godefroid, "Model checking for programming languages using VeriSoft",
POPL 1997), and few participants and few losses are taken to be enough to
show a fault, the small-scope hypothesis (Jackson, "Software
Abstractions", 2006). Each run checks that:
- every session ends, committed or aborted, by the time bound of
  _time_bound: the last arrival, plus the collection window, plus three
  agree timeouts;
- the participants that commit hold one order and one proposer;
- each commits to the proposer elect picks for the round it commits in;
- an outsider's schedule leaves a session as it was and makes it do
  nothing.
A participant that commits while another aborts (a split) is possible
and is not checked here.
"""

import heapq
import time
from typing import NamedTuple

import pytest

from ivtp.arbitration import IntersectionSession, Phase, elect, step
from ivtp.consensus import ConsensusConfig
from ivtp.ledger import ArbitrationTx

CONFIG = ConsensusConfig()
LATENCY = 1
OUTSIDER = bytes([99]) * 32
ENDED = (Phase.COMMITTED, Phase.ABORTED)


class Scope(NamedTuple):
    arrivals: tuple[int, ...]  # participant i's arrival time; ids ascend with i
    delays: tuple[int, ...]
    max_losses: int
    outsider: tuple[tuple[int, int], ...] = ()  # (time, round) of each outsider schedule
    thief: tuple[int, ...] = ()  # time of each outcome the thief announces
    window: int = 300


def _time_bound(scope: Scope) -> int:
    """Round 0 ends by the collection deadline plus an agree timeout, and
    the retry round two agree timeouts after that."""
    return max(scope.arrivals) + scope.window + 3 * CONFIG.agree_timeout_ms


def _view(s: IntersectionSession) -> tuple:
    return (s.phase, s.round, s.proposer, s.ordering, dict(s.intents), dict(s.agreements))


class Run:
    """One run of scope: the n-th delivery is lost when choices[n] is True,
    made when it is False or past the end of choices."""

    def __init__(self, scope: Scope, choices: tuple[bool, ...]):
        self.choices, self.taken = choices, []
        self.steps, self.log, self.faults = 0, [], []
        self.ended: dict[bytes, int] = {}  # participant -> time its session ended
        self.committed: dict[bytes, tuple] = {}  # participant -> (order, proposer)
        self.queue, self.seq = [], 0
        ids = [bytes([i]) * 32 for i in range(1, len(scope.arrivals) + 1)]
        delays = dict(zip(ids, scope.delays))
        self.sessions = {
            v: IntersectionSession("x-1", frozenset(ids), delays, owner=v) for v in ids
        }
        for v, at in zip(ids, scope.arrivals):
            self._apply(v, ("open", max(scope.arrivals) + scope.window), 0)
            self._push(at, v, ("arrive",))
        # A set frame is queued as (sender, event) with no target.
        for at, round_ in scope.outsider:
            self._push(at, None, (OUTSIDER, ("schedule", OUTSIDER, round_, tuple(reversed(ids)))))
        thief = ids[-1]
        for at in scope.thief:
            self._push(at, None, (thief, ("outcome", tuple(ids), thief, lambda: True)))
        while self.queue:
            now, _, target, event = heapq.heappop(self.queue)
            if target is None:
                self._broadcast(*event, now, lossy=False)
            else:
                self._apply(target, event, now)

    def _push(self, due, target, event):
        heapq.heappush(self.queue, (due, self.seq, target, event))
        self.seq += 1

    def _apply(self, v, event, now):
        s, before = self.sessions[v], _view(self.sessions[v])
        actions = step(s, event, now, CONFIG)
        self.steps += 1
        if event[:2] == ("schedule", OUTSIDER) and (actions or _view(s) != before):
            self.faults.append(f"{now} ms: an outsider's schedule moved {_name(v)}")
        if s.phase is Phase.COMMITTED and v not in self.committed:
            order = event[1] if event[0] == "outcome" else s.ordering
            self.committed[v] = (order, s.proposer)
            if s.proposer != elect(s.participants, s.compute_delays, s.round):
                self.faults.append(
                    f"{now} ms: {_name(v)} committed to {_name(s.proposer)},"
                    f" whom round {s.round} did not elect"
                )
        if s.phase in ENDED and v not in self.ended:
            self.ended[v] = now
        for act in actions:
            head = act[0]
            if head == "timer":
                kind, _, round_ = act[2]
                self._push(act[1], v, (kind, round_))
            elif head == "note":
                self.log.append(f"{now} {_name(v)} {act[1]}")
            elif head == "author" and act[1] is ArbitrationTx:
                order, agreed = act[2]["ordering"], {a for a, _ in act[2]["agreements"]}
                # check_tx's rule: the agreement of every member but the proposer.
                applies = lambda agreed=agreed, others=set(order) - {v}: agreed == others
                self._broadcast(v, ("outcome", order, v, applies), now)
            elif head == "agree":
                self._broadcast(v, ("agree", v, act[1], act[2]), now)
            elif head != "author":  # a fee changes no session
                self._broadcast(v, (head, v, *act[1:]), now)

    def _broadcast(self, sender, event, now, lossy=True):
        for r in self.sessions:
            if r == sender:
                continue
            lost = False
            if lossy:
                n = len(self.taken)
                lost = self.choices[n] if n < len(self.choices) else False
                self.taken.append(lost)
            self.log.append(f"{now} {_name(sender)}->{_name(r)} {event[0]}{' LOST' * lost}")
            if lost:
                continue
            if event[0] == "agree":  # signed for the order it names: the proposer's, or not
                signed = lambda s=self.sessions[r], order=event[3]: s.ordering == order
                self._push(now + LATENCY, r, (*event, signed))
            else:
                self._push(now + LATENCY, r, event)


def _name(v: bytes) -> str:
    return "X" if v == OUTSIDER else f"P{v[0]}"


def explore(scope: Scope):
    """Every run of scope with at most scope.max_losses losses, depth first."""
    stack = [()]
    while stack:
        choices = stack.pop()
        run = Run(scope, choices)
        yield run
        if sum(choices) < scope.max_losses:
            for n in range(len(run.taken) - 1, len(choices) - 1, -1):
                stack.append(tuple(run.taken[:n]) + (True,))


def check(run: Run, scope: Scope) -> list[str]:
    faults = list(run.faults)
    bound = _time_bound(scope)
    for v, s in run.sessions.items():
        if run.ended.get(v, bound + 1) > bound:
            faults.append(f"{_name(v)} still {s.phase.value} at {bound} ms")
    if len(set(run.committed.values())) > 1:
        faults.append("the committed participants hold different outcomes")
    return faults


EVERY = 99  # more losses than a run of two participants has deliveries
# An outsider's round-0 and round-1 schedules before, between and after
# the arrivals, the elections and the outcomes.
STEERING = tuple((at, r) for at in (95, 101, 105, 111, 131, 135, 140, 200) for r in (0, 1))
# The thief's outcomes: before the arrivals, while intents are collected,
# while the proposer computes and collects agreements, and in the retry round.
THIEVING = (95, 105, 115, 131, 135, 137, 140, 200, 300, 450)

SCOPES = {
    "two": Scope((100, 110), (2, 1), max_losses=EVERY),
    "two_tied": Scope((100, 100), (1, 1), max_losses=EVERY),
    "two_last_id_first": Scope((110, 100), (1, 2), max_losses=EVERY),
    "three": Scope((100, 110, 130), (9, 5, 7), max_losses=4),
    "three_lowest_fastest": Scope((100, 130, 110), (1, 8, 5), max_losses=3),
    "two_outsider": Scope((100, 110), (2, 1), max_losses=EVERY, outsider=STEERING),
    "three_outsider": Scope((100, 110, 130), (9, 5, 7), max_losses=2, outsider=STEERING),
    # P2 is elected in round 0 and P1 in round 1, so the thief P3 never is.
    "two_thief": Scope((100, 110), (1, 2), max_losses=EVERY, thief=THIEVING),
    "three_thief": Scope((100, 110, 130), (9, 5, 7), max_losses=2, thief=THIEVING),
}


@pytest.mark.parametrize("name", sorted(SCOPES))
def test_every_run_holds_the_invariants(name, capsys):
    scope, start = SCOPES[name], time.perf_counter()
    runs = states = 0
    for run in explore(scope):
        runs, states = runs + 1, states + run.steps
        faults = check(run, scope)
        assert not faults, "\n".join(faults + ["run:"] + run.log)
    seconds = time.perf_counter() - start
    with capsys.disabled():
        print(f"\n{name}: {runs} runs, {states} states explored in {seconds:.2f} s")
