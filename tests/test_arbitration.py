"""Crossing-order computation, proposer election, session state machine."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivtp.arbitration import (
    IntersectionSession,
    Phase,
    compute_order,
    elect,
    recover,
    reward_parties,
)


def _vids(n):
    return [bytes([i]) * 32 for i in range(1, n + 1)]


def _session(ids, delays, intents=None):
    s = IntersectionSession(
        intersection_id="x-1",
        participants=frozenset(ids),
        compute_delays={veh: d for veh, d in zip(ids, delays)},
    )
    for veh, tf in (intents or {}).items():
        s.add_intent(veh, tf)
    return s


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
        s = _session([a, b], [1, 2])
        assert not s.add_intent(a, 10)
        assert s.add_intent(b, 12)
        assert s.is_complete()

    def test_rebroadcast_never_overwrites(self):
        a, b = _vids(2)
        s = _session([a, b], [1, 2])
        s.add_intent(a, 10)
        s.add_intent(a, 99)
        assert s.intents[a] == 10

    def test_outsider_intent_ignored(self):
        a, b, ghost = _vids(3)
        s = _session([a, b], [1, 2])
        assert not s.add_intent(ghost, 5)
        assert ghost not in s.intents

    def test_matches_accepts_own_recomputation(self):
        a, b = _vids(2)
        s = _session([a, b], [1, 2], intents={a: 10, b: 12})
        assert s.matches(tuple(compute_order(s.intents)))

    def test_matches_rejects_forged_ordering(self):
        a, b = _vids(2)
        s = _session([a, b], [1, 2], intents={a: 10, b: 12})
        assert not s.matches((b, a))

    def test_incomplete_collector_cannot_vouch(self):
        a, b = _vids(2)
        full = _session([a, b], [1, 2], intents={a: 10, b: 12})
        starved = _session([a, b], [1, 2], intents={a: 10})
        proposal = tuple(compute_order(full.intents))
        assert not starved.matches(proposal)

    def test_agreement_bookkeeping(self):
        a, b, c = _vids(3)
        s = _session([a, b, c], [1, 2, 3], intents={a: 1, b: 2, c: 3})
        s.proposer = a
        s.record_agreement(a, b"self")  # proposer never counts
        s.record_agreement(b, b"sb")
        assert not s.unanimous()
        s.record_agreement(c, b"sc")
        assert s.unanimous()
        assert set(s.agreements) == {b, c}


class TestRecovery:
    def test_first_failure_restarts_collection(self):
        a, b = _vids(2)
        s = _session([a, b], [1, 2], intents={a: 10, b: 12})
        s.phase = Phase.AGREEING
        s.proposer = a
        s.ordering = tuple(compute_order(s.intents))
        s.agreements[b] = b"sig"
        assert recover(s) is Phase.COLLECTING
        assert s.round == 1
        assert s.proposer is None and s.ordering is None and not s.agreements
        assert s.intents  # arrival knowledge survives the retry

    def test_second_failure_aborts(self):
        a, b = _vids(2)
        s = _session([a, b], [1, 2])
        recover(s)
        assert recover(s) is Phase.ABORTED
        assert s.fallback_ordering() == sorted([a, b])

    def test_terminal_phases_stick(self):
        a, b = _vids(2)
        s = _session([a, b], [1, 2])
        s.phase = Phase.COMMITTED
        assert recover(s) is Phase.COMMITTED
        assert s.round == 0

    def test_retry_round_elects_lowest_id(self):
        ids = _vids(3)
        s = _session(ids, [9, 5, 7], intents=dict.fromkeys(ids, 10))
        assert elect(s.participants, s.compute_delays, s.round) == ids[1]  # round 0: fastest
        recover(s)
        assert elect(s.participants, s.compute_delays, s.round) == ids[0]  # retry: lowest id


class TestRewardParties:
    def test_directions(self):
        """The first vehicle in the order pays the proposer."""
        a, b, c = _vids(3)
        assert reward_parties((a, b, c), c) == (a, c)

    def test_self_payment_collapses(self):
        a, b = _vids(2)
        payer, payee = reward_parties((a, b), a)
        assert payer == payee == a
