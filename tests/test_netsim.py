"""Event queue, seeded randomness, latency, loss, and timers."""

import hashlib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivtp import identity, netsim
from ivtp.vehicle import KIND_BEACON, Frame


class Recorder:
    """Minimal participant: logs every delivery and timer."""

    def __init__(self, ivtp_id, replies=None):
        self.ivtp_id = ivtp_id
        self.frames = []
        self.timers = []
        self.replies = replies or []

    def heeds(self, frame):
        return True

    def handle_frame(self, frame, now):
        self.frames.append((frame, now))
        out, self.replies = self.replies, []
        return out

    def handle_timer(self, tag, now):
        self.timers.append((tag, now))
        return []


def _frame(sender, tf=0):
    return Frame(
        kind=KIND_BEACON,
        sender=sender,
        tf=tf,
        payload=b"{}",
        signature=b"\x00" * 64,
    )


def _ids(n):
    return [bytes([i]) * 32 for i in range(1, n + 1)]


class TestRng:
    def test_draw_is_pure_function_of_seed_and_counter(self):
        """Oracle: recompute draw 0 with hashlib directly."""
        expected = struct.unpack(
            ">Q",
            hashlib.sha256(b"ivtp/rng" + struct.pack(">QQ", 42, 0)).digest()[:8],
        )[0]
        assert netsim.Rng(42).next_u64() == expected

    # SHA-256 of the first 10,000 draws, each packed as a big-endian u64.
    # The stream feeds jitter and loss, so it is part of every locked run.
    PINNED_STREAMS = {
        0: "11c107172b0158ecc941e4a21ce4ff5cce1e5eeb28f6a3d5c3c37e7e3ac1ca16",
        1: "9f20bf435e0984a5b20d98fdbd9534d7bb557e0ec65c1b518572f709f1e2f92f",
        2**64 - 1: "79bfeef68f8a404c5115455933e55ca1d6303e882105dacfc7590d52021b4c81",
        2842235739: "edaca28f3971e6a34155496e21e3dcb07e7e4b589758ce0beadb059360ffd36c",
    }

    @pytest.mark.parametrize("seed", sorted(PINNED_STREAMS))
    def test_first_10k_draws_pinned(self, seed):
        rng = netsim.Rng(seed)
        h = hashlib.sha256()
        for _ in range(10_000):
            h.update(struct.pack(">Q", rng.next_u64()))
        assert h.hexdigest() == self.PINNED_STREAMS[seed]
        assert rng.counter == 10_000

    def test_same_seed_same_stream(self):
        a, b = netsim.Rng(7), netsim.Rng(7)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_different_seed_different_stream(self):
        assert netsim.Rng(7).next_u64() != netsim.Rng(8).next_u64()


class TestDelivery:
    def test_sender_excluded(self):
        ids = _ids(3)
        net = netsim.Network()
        recs = [Recorder(i) for i in ids]
        for r in recs:
            net.join(r)
        net.broadcast(_frame(ids[0]), at=10)
        net.run_until(10)
        assert [len(r.frames) for r in recs] == [0, 1, 1]

    def test_unknown_sender_rejected(self):
        net = netsim.Network()
        net.join(Recorder(_ids(1)[0]))
        with pytest.raises(ValueError, match="never joined"):
            net.broadcast(_frame(b"\x99" * 32), at=0)

    def test_zero_link_delivers_at_send_time(self):
        ids = _ids(2)
        net = netsim.Network()
        a, b = Recorder(ids[0]), Recorder(ids[1])
        net.join(a)
        net.join(b)
        net.broadcast(_frame(ids[0]), at=10)
        net.run_until(10)
        assert [now for _, now in b.frames] == [10]
        assert a.frames == []

    def test_latency_and_jitter_bounds(self):
        ids = _ids(2)
        net = netsim.Network(netsim.NetworkConfig(latency_ms=5, jitter_ms=3, seed=1))
        net.join(Recorder(ids[0]))
        b = Recorder(ids[1])
        net.join(b)
        for t in range(0, 200, 10):
            net.broadcast(_frame(ids[0], tf=t), at=t)
        net.run_until(300)
        delays = [now - f.tf for f, now in b.frames]
        assert len(delays) == 20 and all(5 <= d <= 8 for d in delays)
        assert len(set(delays)) > 1

    @given(st.integers(0, 2**32), st.integers(0, 100), st.integers(0, 100))
    @settings(max_examples=100, deadline=None)
    def test_jitter_draw_in_range(self, seed, latency, jitter):
        """Each delivery lands at latency + one draw modulo jitter + 1,
        and takes no draw without jitter."""
        ids = _ids(2)
        config = netsim.NetworkConfig(latency_ms=latency, jitter_ms=jitter, seed=seed)
        net = netsim.Network(config)
        net.join(Recorder(ids[0]))
        b = Recorder(ids[1])
        net.join(b)
        net.broadcast(_frame(ids[0]), at=0)
        net.run_until(latency + jitter)
        (_, now), = b.frames
        assert latency <= now <= latency + jitter
        if jitter == 0:
            assert net.rng.counter == 0
        else:
            assert now == latency + netsim.Rng(seed).next_u64() % (jitter + 1)
            assert net.rng.counter == 1

    def test_loss_exact_at_endpoints(self):
        ids = _ids(4)
        nan, inf = float("nan"), float("inf")
        for p_drop, heard in [(0.0, 50), (-1.0, 50), (nan, 50), (1.0, 0), (1.5, 0), (inf, 0)]:
            net = netsim.Network(netsim.NetworkConfig(drop_probability=p_drop, seed=5))
            recs = [Recorder(i) for i in ids]
            for r in recs:
                net.join(r)
            for t in range(50):
                net.broadcast(_frame(ids[0], tf=t), at=t)
            net.run_until(50)
            assert [len(r.frames) for r in recs] == [0, heard, heard, heard]

    def test_loss_endpoints_burn_no_draws(self):
        ids = _ids(3)
        for p_drop in (0.0, 1.0):
            net = netsim.Network(netsim.NetworkConfig(drop_probability=p_drop, seed=5))
            for i in ids:
                net.join(Recorder(i))
            net.broadcast(_frame(ids[0]), at=0)
            assert net.rng.counter == 0

    def test_loss_between_endpoints_takes_one_draw_per_receiver(self):
        """A receiver loses the frame when its draw is below p * 2**64."""
        ids = _ids(6)
        net = netsim.Network(netsim.NetworkConfig(drop_probability=0.5, seed=9))
        recs = [Recorder(i) for i in ids]
        for r in recs:
            net.join(r)
        net.broadcast(_frame(ids[0]), at=0)
        net.run_until(0)
        oracle = netsim.Rng(9)
        kept = [oracle.next_u64() >= 2**63 for _ in recs[1:]]
        assert [len(r.frames) == 1 for r in recs[1:]] == kept
        assert net.rng.counter == 5 and 0 < sum(kept) < 5

    def test_total_loss_delivers_nothing(self):
        ids = _ids(3)
        net = netsim.Network(netsim.NetworkConfig(drop_probability=1.0, seed=2))
        recs = [Recorder(i) for i in ids]
        for r in recs:
            net.join(r)
        net.broadcast(_frame(ids[0]), at=0)
        net.run_until(100)
        assert all(r.frames == [] for r in recs)
        drops = [row for row in net.trace if row["dir"] == "drop"]
        assert len(drops) == 2
        assert {row["detail"]["reason"] for row in drops} == {"channel"}

    def test_drop_rule_targets_one_link(self):
        ids = _ids(3)
        net = netsim.Network(
            drop_rule=lambda frame, veh: veh == ids[2],
        )
        recs = [Recorder(i) for i in ids]
        for r in recs:
            net.join(r)
        net.broadcast(_frame(ids[0]), at=0)
        net.run_until(10)
        assert len(recs[1].frames) == 1
        assert recs[2].frames == []
        drops = [row for row in net.trace if row["dir"] == "drop"]
        assert [row["detail"]["reason"] for row in drops] == ["injected"]

    def test_same_seed_reproduces_schedule(self):
        ids = _ids(4)

        def run(seed):
            net = netsim.Network(
                netsim.NetworkConfig(latency_ms=1, jitter_ms=4, drop_probability=0.3, seed=seed)
            )
            recs = [Recorder(i) for i in ids]
            for r in recs:
                net.join(r)
            for t in range(0, 100, 7):
                net.broadcast(_frame(ids[t % 4], tf=t), at=t)
            net.run_until(200)
            return [[(f.tf, now) for f, now in r.frames] for r in recs]

        assert run(5) == run(5)
        assert run(5) != run(6)


class TestEventOrder:
    def test_fifo_among_equal_times(self):
        """Two frames sent at the same instant arrive in send order."""
        ids = _ids(2)
        net = netsim.Network()
        net.join(Recorder(ids[0]))
        b = Recorder(ids[1])
        net.join(b)
        first = _frame(ids[0], tf=1)
        second = _frame(ids[0], tf=2)
        net.broadcast(first, at=5)
        net.broadcast(second, at=5)
        net.run_until(5)
        assert [f.tf for f, _ in b.frames] == [1, 2]

    def test_due_order_beats_insertion_order(self):
        ids = _ids(2)
        net = netsim.Network(netsim.NetworkConfig(latency_ms=0))
        net.join(Recorder(ids[0]))
        b = Recorder(ids[1])
        net.join(b)
        net.broadcast(_frame(ids[0], tf=9), at=9)
        net.broadcast(_frame(ids[0], tf=3), at=3)
        net.run_until(20)
        assert [f.tf for f, _ in b.frames] == [3, 9]

    def test_replies_rebroadcast_at_delivery_instant(self):
        """A frame returned from handle_frame goes out at the same tick,
        so with a 2 ms link the reply lands 2 ms later."""
        ids = _ids(2)
        net = netsim.Network(netsim.NetworkConfig(latency_ms=2))
        a = Recorder(ids[0])
        b = Recorder(ids[1], replies=[_frame(ids[1], tf=77)])
        net.join(a)
        net.join(b)
        net.broadcast(_frame(ids[0]), at=0)
        net.run_until(10)
        assert [(f.tf, now) for f, now in a.frames] == [(77, 4)]

    def test_run_until_advances_clock_even_when_idle(self):
        net = netsim.Network()
        net.run_until(123)
        assert net.clock == 123
        with pytest.raises(ValueError):
            net.run_until(100)

    def test_events_beyond_horizon_stay_queued(self):
        ids = _ids(2)
        net = netsim.Network(netsim.NetworkConfig(latency_ms=50))
        net.join(Recorder(ids[0]))
        b = Recorder(ids[1])
        net.join(b)
        net.broadcast(_frame(ids[0]), at=0)
        net.run_until(49)
        assert b.frames == []
        net.run_until(50)
        assert len(b.frames) == 1


class Logger:
    """A participant that appends each event it handles to a shared log,
    replies to its first frames with its `replies` and, on a timer tag
    ("again", n), sets the timer ("again", n - 1) for the same instant."""

    def __init__(self, ivtp_id, log, net, replies=(), fail_on=None):
        self.ivtp_id, self.log, self.net = ivtp_id, log, net
        self.replies = list(replies)
        self.fail_on = fail_on

    def heeds(self, frame):
        return True

    def handle_frame(self, frame, now):
        self.log.append((now, self.ivtp_id[0], "frame", frame.tf))
        if frame.tf == self.fail_on:
            self.fail_on = None
            raise RuntimeError("handler failed")
        out, self.replies = self.replies[:1], self.replies[1:]
        return out

    def handle_timer(self, tag, now):
        self.log.append((now, self.ivtp_id[0], "timer", tag))
        if tag[0] == "again" and tag[1] > 0:
            self.net.set_timer(self.ivtp_id, now, ("again", tag[1] - 1))
        return []


def _logged(n, config=netsim.NetworkConfig(), replies=None):
    ids = _ids(n)
    net = netsim.Network(config)
    log = []
    nodes = [Logger(i, log, net, (replies or {}).get(k, ())) for k, i in enumerate(ids)]
    for node in nodes:
        net.join(node)
    return net, ids, nodes, log


class TestBuckets:
    def test_event_for_the_current_instant_runs_after_those_due_then(self):
        """A zero-latency reply and a timer set for `now` join the end of
        the instant's events, ahead of any later instant."""
        net, ids, _nodes, log = _logged(3, replies={1: [_frame(_ids(3)[1], tf=50)]})
        net.set_timer(ids[2], 5, ("again", 2))
        net.set_timer(ids[2], 6, ("later",))
        net.broadcast(_frame(ids[0], tf=40), at=5)
        net.set_timer(ids[0], 5, ("last",))
        net.run_until(10)
        assert log == [
            (5, 3, "timer", ("again", 2)),
            (5, 2, "frame", 40),
            (5, 3, "frame", 40),
            (5, 1, "timer", ("last",)),
            (5, 3, "timer", ("again", 1)),  # set while the instant ran
            (5, 1, "frame", 50),  # the reply broadcast at the instant
            (5, 3, "frame", 50),
            (5, 3, "timer", ("again", 0)),
            (6, 3, "timer", ("later",)),
        ]

    def test_run_until_in_steps_matches_one_call(self):
        def run(stops):
            config = netsim.NetworkConfig(latency_ms=1, jitter_ms=3, drop_probability=0.2, seed=3)
            ids = _ids(4)
            replies = {k: [_frame(ids[k], tf=100 + k + j) for j in range(5)] for k in range(4)}
            net, ids, _nodes, log = _logged(4, config, replies=replies)
            for t in range(0, 30, 4):
                net.broadcast(_frame(ids[t % 4], tf=t), at=t)
                net.set_timer(ids[(t + 1) % 4], t + 2, ("again", 2))
            for stop in stops:
                net.run_until(stop)
            return log, bytes(net.trace.data), net.rng.counter

        one = run([60])
        assert len(one[0]) > 50
        assert run([0, 3, 4, 17, 17, 30, 60]) == one
        assert run(range(61)) == one

    def test_handler_that_raises_leaves_the_rest_queued(self):
        """As with one heap entry per event: the events dispatched before
        the failure, the failing one included, are gone, and the rest run
        on the next call, in order."""
        net, ids, nodes, log = _logged(3)
        nodes[1].fail_on = 1
        net.broadcast(_frame(ids[0], tf=1), at=5)
        net.broadcast(_frame(ids[0], tf=2), at=5)
        net.set_timer(ids[2], 7, ("t",))
        with pytest.raises(RuntimeError, match="handler failed"):
            net.run_until(10)
        assert log == [(5, 2, "frame", 1)] and net.clock == 5
        net.run_until(10)
        assert log == [
            (5, 2, "frame", 1),
            (5, 3, "frame", 1),
            (5, 2, "frame", 2),
            (5, 3, "frame", 2),
            (7, 3, "timer", ("t",)),
        ]
        net.run_until(20)
        assert len(log) == 5


class TestTimers:
    def test_timer_fires_with_tag(self):
        ids = _ids(1)
        net = netsim.Network()
        r = Recorder(ids[0])
        net.join(r)
        net.set_timer(ids[0], fire_at=30, tag=("beacon", 3))
        net.run_until(100)
        assert r.timers == [(("beacon", 3), 30)]

    def test_past_deadline_rejected(self):
        ids = _ids(1)
        net = netsim.Network()
        net.join(Recorder(ids[0]))
        net.run_until(50)
        with pytest.raises(ValueError, match="past the clock"):
            net.set_timer(ids[0], fire_at=49, tag="late")

    def test_timer_for_an_owner_that_never_joined_is_refused(self):
        ids = _ids(2)
        net = netsim.Network()
        net.join(Recorder(ids[0]))
        with pytest.raises(ValueError, match="never joined"):
            net.set_timer(ids[1], fire_at=5, tag="t")

    def test_timer_and_delivery_share_one_ordering(self):
        ids = _ids(2)
        net = netsim.Network()
        net.join(Recorder(ids[0]))
        b = Recorder(ids[1])
        net.join(b)
        net.set_timer(ids[1], fire_at=5, tag="t")
        net.broadcast(_frame(ids[0]), at=5)
        net.run_until(5)
        # Timer was queued first at the same due time, so it runs first.
        assert b.timers == [("t", 5)]
        assert len(b.frames) == 1


class TestTrace:
    def test_send_recv_rows(self):
        ids = _ids(2)
        net = netsim.Network()
        net.names[ids[0]] = "IV-1"
        net.join(Recorder(ids[0]))
        net.join(Recorder(ids[1]))
        net.broadcast(_frame(ids[0]), at=3)
        net.run_until(3)
        kinds = [(row["dir"], row["vehicle"]) for row in net.trace]
        # An id without an alias is named by its short hex form.
        assert kinds == [("send", "IV-1"), ("recv", identity.short_id(ids[1]))]
        assert all(row["kind"] == "beacon" for row in net.trace)

    def test_note_row_shape(self):
        trace = netsim.Trace()
        trace.note(9, "IV-1", "session_committed", {"rounds": 1})
        assert list(trace) == [
            {
                "t_ms": 9,
                "vehicle": "IV-1",
                "dir": "note",
                "kind": "session_committed",
                "detail": {"rounds": 1},
            }
        ]
