"""Beacon freshness, endorsements, quorum math, block commits."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivtp import consensus, identity, ledger, sim, vehicle
from ivtp.vehicle import KIND_BEACON, KIND_ENDORSE, make_frame
from conftest import make_fleet, signed_comm


def _signed(tx, kp):
    return dataclasses.replace(
        tx, signature=identity.sign(kp, ledger.tx_signing_bytes(tx))
    )


class TestActiveVehicles:
    def test_no_beacons_means_nobody_active(self):
        assert consensus.active_vehicles(now=1000, window_ms=500, beacons={}) == set()

    def test_window_boundaries_are_closed(self):
        """A beacon exactly window_ms old still counts; one ms older does not."""
        _, _, ids, _ = make_fleet(2)
        beacons = {ids[0]: 500}
        assert consensus.active_vehicles(now=1000, window_ms=500, beacons=beacons) == {ids[0]}
        assert consensus.active_vehicles(now=1001, window_ms=500, beacons=beacons) == set()

    def test_future_beacon_not_active_yet(self):
        _, _, ids, _ = make_fleet(2)
        beacons = {ids[0]: 900}
        assert consensus.active_vehicles(now=800, window_ms=500, beacons=beacons) == set()

    def test_pending_beacons_count(self):
        _, _, ids, _ = make_fleet(2)
        active = consensus.active_vehicles(now=1000, window_ms=500, beacons={ids[1]: 700})
        assert active == {ids[1]}

    def test_unregistered_never_active(self):
        """The frame pipeline drops an unregistered sender's well-signed
        beacon, so it never reaches the beacon table or the active set."""
        _, chain, _, _ = make_fleet(1)
        host = sim.LedgerHost(chain)
        ghost = identity.sha256(b"ghost")
        beacon = make_frame(KIND_BEACON, identity.keygen(ghost), ghost, 1000, b"")
        host.handle_frame(beacon, now=1000)
        assert host.drops == {"unknown_sender": 1}
        assert ghost not in host.active(1000) and host.beacons == {}
        assert host.pending == {} and host.early_endorsements == {}

    def test_nonpositive_window_rejected(self):
        _, _, ids, _ = make_fleet(1)
        with pytest.raises(ValueError):
            consensus.active_vehicles(now=0, window_ms=0, beacons={ids[0]: 0})


class TestQuorum:
    def test_zero_active_means_zero_threshold(self):
        assert consensus.quorum_threshold(0) == 0

    def test_strict_majority_values(self):
        # n // 2 + 1: the least count strictly above half.
        assert consensus.quorum_threshold(1) == 1
        assert consensus.quorum_threshold(2) == 2
        assert consensus.quorum_threshold(3) == 2
        assert consensus.quorum_threshold(4) == 3
        assert consensus.quorum_threshold(5) == 3

    @given(st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=200, deadline=None)
    def test_threshold_is_least_strict_majority(self, n):
        t = consensus.quorum_threshold(n)
        assert t * 2 > n
        assert (t - 1) * 2 <= n

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            consensus.quorum_threshold(-1)


def _endorse_frame(kp, sender, tx_id, verdict, tf=1):
    payload = vehicle.encode_payload(KIND_ENDORSE, tx_id, verdict)
    return make_frame(KIND_ENDORSE, kp, sender, tf, payload)


class TestEndorsements:
    """An endorsement's only signature is its frame's; the ledger host
    checks it against the sender's on-chain key."""

    def test_roundtrip_verifies(self):
        _, chain, ids, keys = make_fleet(2)
        host = sim.LedgerHost(chain)
        tx_id = identity.sha256(b"tx")
        f = _endorse_frame(keys[ids[1]], ids[1], tx_id, consensus.VERDICT_VALID)
        host.handle_frame(f, now=1)
        assert host.early_endorsements == {
            tx_id: [(1, consensus.Endorsement(tx_id, ids[1], consensus.VERDICT_VALID))]
        }

    def test_verdict_is_signed(self):
        """Flipping the verdict after signing must break the signature."""
        _, chain, ids, keys = make_fleet(2)
        host = sim.LedgerHost(chain)
        tx_id = identity.sha256(b"tx")
        f = _endorse_frame(keys[ids[1]], ids[1], tx_id, consensus.VERDICT_VALID)
        flipped = dataclasses.replace(
            f,
            payload=vehicle.encode_payload(KIND_ENDORSE, tx_id, consensus.VERDICT_INVALID),
        )
        host.handle_frame(flipped, now=1)
        assert host.early_endorsements == {}
        host.handle_frame(f, now=1)
        assert [e.verdict for _, e in host.early_endorsements[tx_id]] == [
            consensus.VERDICT_VALID
        ]

    def test_author_cannot_self_endorse(self):
        _, _, ids, keys = make_fleet(1)
        author = ids[0]
        tx = signed_comm(keys[author], author)
        item = consensus.PendingTx(tx=tx)
        e = consensus.Endorsement(tx.tx_id, author, consensus.VERDICT_VALID)
        assert not item.add(e)
        assert item.count(consensus.VERDICT_VALID) == 0

    def test_first_verdict_per_endorser_wins(self):
        _, _, ids, keys = make_fleet(2)
        tx = signed_comm(keys[ids[0]], ids[0])
        item = consensus.PendingTx(tx=tx)
        other = ids[1]
        assert item.add(consensus.Endorsement(tx.tx_id, other, consensus.VERDICT_VALID))
        assert not item.add(
            consensus.Endorsement(tx.tx_id, other, consensus.VERDICT_INVALID)
        )
        assert item.count(consensus.VERDICT_VALID) == 1
        assert item.count(consensus.VERDICT_INVALID) == 0


class TestPodCheck:
    def test_valid_comm(self):
        _, chain, ids, keys = make_fleet(3)
        tx = _signed(
            ledger.CommTx(
                author=ids[0],
                tf=1,
                signature=b"",
                sender=ids[0],
                receivers=(ids[1],),
                message_hash=identity.sha256(b"m"),
                tf_sent=1,
            ),
            keys[ids[0]],
        )
        assert consensus.pod_check(set(ids), tx, chain) is None

    def test_stale_beacon_means_not_driving(self):
        _, chain, ids, keys = make_fleet(3)
        tx = signed_comm(keys[ids[0]], ids[0])
        verdict = consensus.pod_check(set(ids[1:]), tx, chain)
        assert verdict == "not_driving"

    def test_unregistered_author(self):
        _, chain, ids, keys = make_fleet(1)
        ghost = identity.sha256(b"ghost")
        tx = signed_comm(keys[ids[0]], ghost)
        verdict = consensus.pod_check({ghost}, tx, chain)
        assert verdict == "not_registered"

    def test_forged_signature(self):
        _, chain, ids, keys = make_fleet(2)
        tx = dataclasses.replace(signed_comm(keys[ids[0]], ids[0]), signature=b"\x00" * 64)
        verdict = consensus.pod_check(set(ids), tx, chain)
        assert verdict == "bad_signature"

    def test_comm_sender_must_be_author(self):
        _, chain, ids, keys = make_fleet(3)
        tx = _signed(
            ledger.CommTx(
                author=ids[0],
                tf=1,
                signature=b"",
                sender=ids[1],
                receivers=(ids[2],),
                message_hash=identity.sha256(b"m"),
                tf_sent=1,
            ),
            keys[ids[0]],
        )
        verdict = consensus.pod_check(set(ids), tx, chain)
        assert verdict == "sender_mismatch"

    def test_reward_needs_funded_payer(self):
        _, chain, ids, keys = make_fleet(2, endowment=100)
        tx = _signed(
            ledger.RewardTx(
                author=ids[0],
                tf=1,
                signature=b"",
                from_id=ids[0],
                to_id=ids[1],
                amount=101,
                reason="r",
            ),
            keys[ids[0]],
        )
        verdict = consensus.pod_check(set(ids), tx, chain)
        assert verdict == "insufficient_balance"

    def test_arbitration_members_must_be_active(self):
        _, chain, ids, keys = make_fleet(3)
        ordering = (ids[0], ids[1], ids[2])
        msg = ledger.agree_message("x-1", ordering)
        agreements = tuple(
            (veh, identity.sign(keys[veh], msg)) for veh in ordering[1:]
        )
        tx = _signed(
            ledger.ArbitrationTx(
                author=ids[0],
                tf=1,
                signature=b"",
                intersection_id="x-1",
                ordering=ordering,
                proposer=ids[0],
                agreements=agreements,
            ),
            keys[ids[0]],
        )
        assert consensus.pod_check(set(ids), tx, chain) is None
        verdict = consensus.pod_check(set(ids[:2]), tx, chain)
        assert verdict == "member_not_active"


class TestTryCommit:
    def _pending(self, chain, ids, keys, author, endorsers, verdict=None):
        tx = signed_comm(keys[author], author, tf=10)
        item = consensus.PendingTx(tx=tx)
        for veh in endorsers:
            item.add(
                consensus.Endorsement(tx.tx_id, veh, verdict or consensus.VERDICT_VALID)
            )
        return item

    def test_commits_at_threshold(self):
        _, chain, ids, keys = make_fleet(4)
        active = set(ids)
        # 3 others active, threshold 2.
        item = self._pending(chain, ids, keys, ids[0], ids[1:3])
        result = consensus.try_commit([item], active, chain, now=20)
        assert result.block is not None
        assert [t.author for t in result.block.txs] == [ids[0]]
        assert not result.still_pending and not result.rejected

    def test_below_threshold_stays_pending(self):
        _, chain, ids, keys = make_fleet(4)
        active = set(ids)
        item = self._pending(chain, ids, keys, ids[0], ids[1:2])
        result = consensus.try_commit([item], active, chain, now=20)
        assert result.block is None
        assert result.still_pending == [item]

    def test_invalid_quorum_rejects(self):
        _, chain, ids, keys = make_fleet(4)
        active = set(ids)
        item = self._pending(
            chain, ids, keys, ids[0], ids[1:3], verdict=consensus.VERDICT_INVALID
        )
        result = consensus.try_commit([item], active, chain, now=20)
        assert result.block is None
        assert [cause for _, cause in result.rejected] == ["quorum_invalid"]

    def test_block_orders_by_tf_then_id(self):
        _, chain, ids, keys = make_fleet(4)
        active = set(ids)
        items = []
        for author, tf in [(ids[0], 30), (ids[1], 10), (ids[2], 10)]:
            tx = signed_comm(keys[author], author, tf=tf)
            item = consensus.PendingTx(tx=tx)
            for veh in ids:
                if veh != author:
                    item.add(consensus.Endorsement(tx.tx_id, veh, consensus.VERDICT_VALID))
            items.append(item)
        result = consensus.try_commit(items, active, chain, now=40)
        txs = result.block.txs
        assert [t.tf for t in txs] == [10, 10, 30]
        assert txs[0].tx_id < txs[1].tx_id

    def test_stale_balance_rejected_not_committed(self):
        """Two rewards each quorum-endorsed, but the payer can only fund
        one: the second is rejected at commit time, not force-applied."""
        _, chain, ids, keys = make_fleet(4, endowment=600)
        active = set(ids)
        items = []
        for tf in (10, 11):
            tx = _signed(
                ledger.RewardTx(
                    author=ids[0],
                    tf=tf,
                    signature=b"",
                    from_id=ids[0],
                    to_id=ids[1],
                    amount=500,
                    reason=f"r{tf}",
                ),
                keys[ids[0]],
            )
            item = consensus.PendingTx(tx=tx)
            for veh in ids[1:]:
                item.add(consensus.Endorsement(tx.tx_id, veh, consensus.VERDICT_VALID))
            items.append(item)
        result = consensus.try_commit(items, active, chain, now=20)
        assert result.block is not None
        assert len(result.block.txs) == 1
        assert result.block.txs[0].tf == 10
        assert [cause for _, cause in result.rejected] == ["insufficient_balance"]
        assert ledger.balance(chain, ids[0]) == 100
        assert ledger.total_supply(chain) == 4 * 600

    def test_lone_vehicle_commits_without_endorsements(self):
        """With nobody else active the threshold is zero."""
        _, chain, ids, keys = make_fleet(1)
        active = {ids[0]}
        tx = signed_comm(keys[ids[0]], ids[0], tf=10)
        result = consensus.try_commit(
            [consensus.PendingTx(tx=tx)], active, chain, now=20
        )
        assert result.block is not None

    def _stale_reward_pool(self, ids, keys):
        """[good comm, reward its payer cannot fund, good comm], each
        endorsed by every other vehicle, in commit order."""
        reward = _signed(
            ledger.RewardTx(
                author=ids[0], tf=11, signature=b"", from_id=ids[0], to_id=ids[1],
                amount=700, reason="stale",
            ),
            keys[ids[0]],
        )
        comms = [signed_comm(keys[v], v, tf=tf) for v, tf in ((ids[1], 10), (ids[2], 12))]
        txs = [comms[0], reward, comms[1]]
        items = [consensus.PendingTx(tx=tx) for tx in txs]
        for item in items:
            for veh in ids:
                item.add(consensus.Endorsement(item.tx.tx_id, veh, consensus.VERDICT_VALID))
        return items

    def test_refused_tx_leaves_the_rest_committed(self):
        _, chain, ids, keys = make_fleet(3, endowment=600)
        items = self._stale_reward_pool(ids, keys)
        result = consensus.try_commit(items, set(ids), chain, now=20)
        assert result.block is chain.tip
        assert result.block.txs == (items[0].tx, items[2].tx)
        assert result.rejected == [(items[1], "insufficient_balance")]
        assert not result.still_pending
        assert items[1].tx.tx_id not in chain.tx_by_id
        assert ledger.validate_chain(chain).state == chain.state

    def test_each_committable_tx_checked_once(self, monkeypatch):
        """Admission walks the pool once: no tx before a refused one is
        checked a second time."""
        _, chain, ids, keys = make_fleet(3, endowment=600)
        items = self._stale_reward_pool(ids, keys)
        checked = []
        check_tx = ledger.LedgerState.check_tx
        monkeypatch.setattr(
            ledger.LedgerState, "check_tx",
            lambda state, tx, height: checked.append(tx) or check_tx(state, tx, height),
        )
        consensus.try_commit(items, set(ids), chain, now=20)
        assert checked == [item.tx for item in items]

    def test_nothing_committable_never_appends(self, monkeypatch):
        _, chain, ids, keys = make_fleet(4)
        waiting = self._pending(chain, ids, keys, ids[0], ids[1:2])
        refused = self._pending(
            chain, ids, keys, ids[1], ids[2:], verdict=consensus.VERDICT_INVALID
        )

        def append_block(*args, **kwargs):
            raise AssertionError("append_block called with nothing to commit")

        monkeypatch.setattr(ledger.Chain, "append_block", append_block)
        result = consensus.try_commit([waiting, refused], set(ids), chain, now=20)
        assert result.block is None
        assert result.still_pending == [waiting]
        assert result.rejected == [(refused, "quorum_invalid")]

    def test_no_committable_returns_no_block(self):
        _, chain, ids, _ = make_fleet(2)
        active = set(ids)
        before = chain.height
        result = consensus.try_commit([], active, chain, now=20)
        assert result.block is None
        assert chain.height == before
