"""Crossing-order computation, proposer election, and the session state
machine driven through arbitration.step's events."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivtp.arbitration import (
    IntersectionSession,
    Phase,
    compute_order,
    elect,
    reward_parties,
    step,
)
from ivtp.consensus import ConsensusConfig
from ivtp.ledger import ArbitrationTx


def _vids(n):
    return [bytes([i]) * 32 for i in range(1, n + 1)]


CONFIG = ConsensusConfig()
TIMEOUT = CONFIG.agree_timeout_ms


def _session(ids, delays, intents=None, owner=None):
    """owner's session (the first id by default), given each intent in
    intents as an event at its own time."""
    s = IntersectionSession(
        intersection_id="x-1",
        participants=frozenset(ids),
        compute_delays={veh: d for veh, d in zip(ids, delays)},
        owner=owner or ids[0],
    )
    for veh, tf in (intents or {}).items():
        step(s, ("intent", veh, tf), tf, CONFIG)
    return s


def _yes():
    return True


class TestComputeOrder:
    def test_sorts_by_arrival_time(self):
        a, b, c, d = _vids(4)
        intents = {d: 1070, b: 1010, a: 1000, c: 1030}
        assert compute_order(intents) == [a, b, c, d]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no intents"):
            compute_order({})

    def test_single(self):
        (a,) = _vids(1)
        assert compute_order({a: 99}) == [a]

    def test_tie_breaks_by_id(self):
        a, b, c = _vids(3)
        assert compute_order({c: 5, a: 5, b: 5}) == [a, b, c]

    def test_insertion_order_never_matters(self):
        """Exhaustive: every presentation order of tied and untied
        arrivals produces the identical crossing order."""
        a, b, c, d = _vids(4)
        intents = [(a, 7), (b, 5), (c, 7), (d, 5)]
        expected = [b, d, a, c]
        for perm in itertools.permutations(intents):
            assert compute_order(dict(perm)) == expected

    @given(
        st.dictionaries(
            st.binary(min_size=32, max_size=32),
            st.integers(min_value=0, max_value=1000),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_order_is_total_and_stable(self, intents):
        order = compute_order(intents)
        assert sorted(order) == sorted(intents)
        keyed = [(intents[veh], veh) for veh in order]
        assert keyed == sorted(keyed)


class TestElection:
    def test_fastest_calculator_wins(self):
        ids = _vids(4)
        delays = {veh: d for veh, d in zip(ids, [9, 8, 5, 7])}
        assert elect(ids, delays, 0) == ids[2]

    def test_tie_goes_to_lower_id(self):
        ids = _vids(3)
        assert elect(ids, dict.fromkeys(ids, 6), 0) == ids[0]

    def test_single_participant(self):
        (a,) = _vids(1)
        assert elect([a], {a: 3}, 0) == a
        assert elect([a], {a: 3}, 1) == a

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no participants"):
            elect([], {}, 0)

    @given(
        st.lists(st.integers(1, 50), min_size=1, max_size=6),
        st.integers(0, 1),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_every_participant_elects_the_same(self, delays, round_, rnd):
        """The election reads only the participants, their delays and the
        round, so every participant elects the same proposer whatever
        order it holds the ids in, tied delays included."""
        ids = _vids(len(delays))
        delay_map = {veh: d for veh, d in zip(ids, delays)}
        shuffled = list(ids)
        rnd.shuffle(shuffled)
        winner = elect(ids, delay_map, round_)
        assert elect(shuffled, dict(reversed(delay_map.items())), round_) == winner
        assert elect(frozenset(ids), delay_map, round_) == winner


class TestSession:
    def test_add_intent_completes_once_all_present(self):
        a, b = _vids(2)
        s = _session([a, b], [1, 2], owner=b)
        assert step(s, ("intent", a, 10), 10, CONFIG) == []
        assert s.phase is Phase.COLLECTING
        # b's own arrival completes the set: a (the least delay) will propose.
        assert step(s, ("arrive",), 12, CONFIG) == [
            ("intent", 12), ("timer", 12 + TIMEOUT, ("agree_deadline", "x-1", 0)),
        ]
        assert (s.phase, s.proposer, s.intents) == (Phase.PROPOSING, a, {a: 10, b: 12})

    def test_rebroadcast_never_overwrites(self):
        a, b = _vids(2)
        s = _session([a, b], [1, 2], owner=b)
        step(s, ("intent", a, 10), 10, CONFIG)
        step(s, ("intent", a, 99), 99, CONFIG)
        assert s.intents[a] == 10

    def test_outsider_intent_ignored(self):
        a, b, ghost = _vids(3)
        s = _session([a, b], [1, 2])
        assert step(s, ("intent", ghost, 5), 5, CONFIG) == []
        assert ghost not in s.intents

    def test_matches_accepts_own_recomputation(self):
        a, b = _vids(2)
        s = _session([a, b], [1, 2], intents={a: 10, b: 12}, owner=b)
        ordering = tuple(compute_order(s.intents))
        assert step(s, ("schedule", a, 0, ordering), 13, CONFIG) == [("agree", 0, ordering)]
        assert (s.phase, s.ordering) == (Phase.AGREEING, ordering)

    def test_matches_rejects_forged_ordering(self):
        a, b = _vids(2)
        s = _session([a, b], [1, 2], intents={a: 10, b: 12}, owner=b)
        actions = step(s, ("schedule", a, 0, (b, a)), 13, CONFIG)
        retry = ("note", "session_retry", {"intersection": "x-1", "round": 1})
        assert actions[:2] == [("disagree", 0), retry]
        assert s.round == 1

    def test_incomplete_collector_cannot_vouch(self):
        a, b = _vids(2)
        full = _session([a, b], [1, 2], intents={a: 10, b: 12})
        starved = _session([a, b], [1, 2], intents={a: 10}, owner=b)
        proposal = tuple(compute_order(full.intents))
        assert step(starved, ("schedule", a, 0, proposal), 13, CONFIG)[0] == ("disagree", 0)

    def test_agreement_bookkeeping(self):
        a, b, c = _vids(3)
        s = _session([a, b, c], [1, 2, 3], intents={a: 1, b: 2, c: 3})
        ordering = (a, b, c)
        assert step(s, ("propose", 0), 4, CONFIG) == [("schedule", 0, ordering)]
        assert step(s, ("agree", a, 0, b"self", _yes), 5, CONFIG) == []  # proposer never counts
        assert step(s, ("agree", b, 0, b"sb", _yes), 5, CONFIG) == []
        outcome = {
            "intersection_id": "x-1", "ordering": ordering, "proposer": a,
            "agreements": ((b, b"sb"), (c, b"sc")),
        }
        assert step(s, ("agree", c, 0, b"sc", _yes), 6, CONFIG) == [
            ("author", ArbitrationTx, outcome),
            ("note", "session_committed",
             {"intersection": "x-1", "ordering": ordering, "proposer": a, "round": 0}),
        ]
        assert s.phase is Phase.COMMITTED
        assert s.agreements == {b: b"sb", c: b"sc"}


class TestRecovery:
    def test_first_failure_restarts_collection(self):
        """A participant holding every intent re-elects in the retry round
        at once: the lowest id, a, proposes; b re-broadcasts its intent."""
        a, b = _vids(2)
        s = _session([a, b], [2, 1], intents={a: 10, b: 12}, owner=b)
        step(s, ("propose", 0), 13, CONFIG)  # b, the least delay, proposes round 0
        s.agreements[a] = b"sig"
        assert step(s, ("agree_deadline", 0), 162, CONFIG) == [
            ("note", "session_retry", {"intersection": "x-1", "round": 1}),
            ("intent", 12),
            ("timer", 162 + TIMEOUT, ("collect_deadline", "x-1", 1)),
            ("timer", 162 + TIMEOUT, ("agree_deadline", "x-1", 1)),
        ]
        assert s.ordering is None and not s.agreements
        assert (s.phase, s.round, s.proposer) == (Phase.PROPOSING, 1, a)
        assert s.intents  # arrival knowledge survives the retry

    def test_second_failure_aborts(self):
        a, b = _vids(2)
        s = _session([a, b], [1, 2])
        step(s, ("disagree", b, 0), 5, CONFIG)
        assert step(s, ("disagree", b, 1), 6, CONFIG) == [
            ("note", "session_aborted", {"intersection": "x-1", "fallback": sorted([a, b])}),
        ]
        assert s.phase is Phase.ABORTED

    def test_terminal_phases_stick(self):
        a, b = _vids(2)
        s = _session([a, b], [1, 2])
        s.phase = Phase.COMMITTED
        for event in [("disagree", b, 0), ("collect_deadline", 0), ("agree_deadline", 0)]:
            assert step(s, event, 5, CONFIG) == []
        assert (s.phase, s.round) == (Phase.COMMITTED, 0)

    def test_retry_round_elects_lowest_id(self):
        ids = _vids(3)
        s = _session(ids, [9, 5, 7], intents=dict.fromkeys(ids, 10))
        assert s.proposer == ids[1]  # round 0: fastest
        step(s, ("disagree", ids[2], 0), 11, CONFIG)
        assert s.proposer == ids[0]  # retry: lowest id


class TestRewardParties:
    def test_directions(self):
        """The first vehicle in the order pays the proposer."""
        a, b, c = _vids(3)
        assert reward_parties((a, b, c), c) == (a, c)

    def test_self_payment_collapses(self):
        a, b = _vids(2)
        payer, payee = reward_parties((a, b), a)
        assert payer == payee == a
