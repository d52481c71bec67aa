"""The trace sink: each row's bytes equal the compact sorted-key JSON of
the row dict, whether written from a template or by the generic
encoder, and a whole run writes what encoding every row dict after the
run wrote. Bound to a file, the trace spills to it during the run and
holds only a bounded buffer, yet reads back and hashes the same."""

import hashlib
import json
import pathlib
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ivtp import netsim, scenario, sim
from conftest import trace_from_rows

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
BUNDLED = ["broadcast_round", "intersection_table2", "lossy_total"]

AWKWARD = ['IV-"1"', "back\\slash", "nul\x00tab\t\nnl\x1f\x7f", "véhicule", "車両-😀", "  ", ""]


def oracle(row: dict) -> bytes:
    return (json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n").encode()


def send_row(t_ms, vehicle, kind, tf):
    return {"t_ms": t_ms, "vehicle": vehicle, "dir": "send", "kind": kind, "detail": {"tf": tf}}


def recv_row(t_ms, vehicle, kind, sender):
    return {"t_ms": t_ms, "vehicle": vehicle, "dir": "recv", "kind": kind, "detail": {"from": sender}}


def drop_row(t_ms, vehicle, kind, sender, reason):
    return {
        "t_ms": t_ms,
        "vehicle": vehicle,
        "dir": "drop",
        "kind": kind,
        "detail": {"reason": reason, "from": sender},
    }


names = st.one_of(st.sampled_from(AWKWARD), st.text())
kinds = st.one_of(
    st.sampled_from(["beacon", "reward_notice", 'ki"nd\\']),
    st.integers(0, 2**32).map(lambda k: f"kind-{k}"),
    st.text(),
)
times = st.integers(0, 2**64 - 1)


class TestTemplates:
    @given(times, names, kinds, times)
    @example(2**64 - 1, 'IV-"1"', "kind-300", 2**64 - 1)
    @settings(max_examples=300, deadline=None)
    def test_send_row(self, t_ms, vehicle, kind, tf):
        trace = netsim.Trace()
        trace.send(t_ms, vehicle, kind, tf)
        assert trace.data == oracle(send_row(t_ms, vehicle, kind, tf))

    @given(times, names, kinds, names)
    @example(0, "véhicule", "kind-300", "back\\slash")
    @settings(max_examples=300, deadline=None)
    def test_recv_row(self, t_ms, vehicle, kind, sender):
        trace = netsim.Trace()
        trace.recv(t_ms, vehicle, kind, sender)
        assert trace.data == oracle(recv_row(t_ms, vehicle, kind, sender))

    @given(times, names, kinds, names, names)
    @example(2**64 - 1, "車両-😀", "kind-300", "nul\x00tab\t\nnl\x1f\x7f", 'bad_payload:"tx"')
    @settings(max_examples=300, deadline=None)
    def test_drop_row(self, t_ms, vehicle, kind, sender, reason):
        trace = netsim.Trace()
        trace.drop(t_ms, vehicle, kind, sender, reason)
        assert trace.data == oracle(drop_row(t_ms, vehicle, kind, sender, reason))

    def test_names_are_quoted_once_and_reused(self):
        """A cached name renders the same in every row kind and position."""
        trace = netsim.Trace()
        rows = []
        for t, (a, b) in enumerate(zip(AWKWARD, AWKWARD[1:] + AWKWARD[:1])):
            trace.send(t, a, b, t)
            trace.recv(t, b, a, a)
            trace.drop(t, a, "kind-300", b, a)
            rows += [send_row(t, a, b, t), recv_row(t, b, a, a), drop_row(t, a, "kind-300", b, a)]
        assert trace.data == b"".join(oracle(r) for r in rows)
        assert list(trace) == rows


class TestView:
    def _mixed(self):
        trace = netsim.Trace()
        trace.send(1, "IV-1", "comm", 1)
        trace.note(2, "host", "block_committed", {"height": 1, "txs": 2})
        trace.recv(3, "IV-2", "comm", "IV-1")
        trace.drop(4, "IV-3", "comm", "IV-1", "channel")
        return trace

    def test_rows_decode_in_order(self):
        trace = self._mixed()
        assert len(trace) == 4
        assert [row["dir"] for row in trace] == ["send", "note", "recv", "drop"]

    def test_counts_and_notes(self):
        trace = self._mixed()
        assert trace.counts == {"send": 1, "recv": 1, "drop": 1, "note": 1}
        assert trace.notes == [
            {
                "t_ms": 2,
                "vehicle": "host",
                "dir": "note",
                "kind": "block_committed",
                "detail": {"height": 1, "txs": 2},
            }
        ]

    def test_from_rows_is_the_same_trace(self):
        trace = self._mixed()
        rebuilt = trace_from_rows(list(trace))
        assert rebuilt.data == trace.data
        assert rebuilt.counts == trace.counts
        assert rebuilt.notes == trace.notes
        assert list(rebuilt) == list(trace)


class DictRowTrace(netsim.Trace):
    """The earlier path: every row kept as a dict during the run, all
    encoded one by one after it."""

    def __init__(self):
        super().__init__()
        self.rows = []

    def send(self, *args):
        self.rows.append(send_row(*args))

    def recv(self, *args):
        self.rows.append(recv_row(*args))

    def drop(self, *args):
        self.rows.append(drop_row(*args))

    def note(self, t_ms, vehicle, kind, detail):
        self.rows.append({"t_ms": t_ms, "vehicle": vehicle, "dir": "note", "kind": kind, "detail": detail})

    @property
    def data(self) -> bytes:
        return b"".join(oracle(row) for row in self.rows)


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_run_writes_what_dict_rows_encoded(name, monkeypatch):
    cfg = scenario.load_scenario(SCENARIOS / f"{name}.json")
    streamed = sim.run(cfg).net.trace
    monkeypatch.setattr(netsim, "Trace", DictRowTrace)
    dict_rows = sim.run(cfg).net.trace
    assert isinstance(dict_rows, DictRowTrace) and dict_rows.rows
    assert streamed.data == dict_rows.data
    assert len(streamed) == len(dict_rows.rows)
    assert streamed.notes == [row for row in dict_rows.rows if row["dir"] == "note"]
    for d in ("send", "recv", "drop"):
        assert streamed.counts[d] == sum(row["dir"] == d for row in dict_rows.rows)


class TestStream:
    def _feed(self, traces, frames: int):
        """The same rows into every trace: each send followed by the
        recv and drop rows of its frame, and now and then a note. Yields
        after each frame's rows."""
        for i in range(frames):
            for trace in traces:
                trace.send(i, f"IV-{i % 7}", "comm", i)
                for j in range(5):
                    trace.recv(i + 1, f"IV-{j}", "comm", f"IV-{i % 7}")
                trace.drop(i + 1, "IV-6", "comm", f"IV-{i % 7}", "channel")
                if i % 100 == 0:
                    trace.note(i, "host", "block_committed", {"height": i})
            yield

    def test_bound_trace_spills_and_reads_back_the_same(self, tmp_path):
        unbound, bound = netsim.Trace(), netsim.Trace()
        path = tmp_path / "trace.jsonl"
        bound.send(0, "IV-0", "beacon", 0)
        unbound.send(0, "IV-0", "beacon", 0)
        bound.bind(path)
        # The rows of one send, its recvs, its drop and maybe a note.
        one_frame = 1000
        for _ in self._feed([unbound, bound], 1500):
            assert len(bound._data) <= netsim.SPILL_BYTES + one_frame
        assert path.stat().st_size > 10 * netsim.SPILL_BYTES
        assert len(unbound._data) > 11 * netsim.SPILL_BYTES
        assert len(bound) == len(unbound)
        assert bound.counts == unbound.counts and bound.notes == unbound.notes
        assert bound.data == unbound.data
        assert list(bound) == list(unbound)
        whole = bytes(unbound.data)
        assert bound.close() == unbound.close() == hashlib.sha256(whole).digest()
        assert path.read_bytes() == whole and bound.data == whole
        assert len(bound._data) == 0 and list(bound) == list(unbound)

    def test_run_with_out_dir_holds_less_than_half_its_trace(self, tmp_path):
        """The trace goes to its file during the run, so what the run
        leaves live is well under the size of trace.jsonl."""
        cfg = scenario.load_scenario(ROOT / "vectors" / "synthetic_n32.json")
        tracemalloc.start()
        try:
            handles = sim.run(cfg, out_dir=tmp_path)
            live, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = (tmp_path / "trace.jsonl").stat().st_size
        assert size > 4_000_000 and len(handles.net.trace) > 50_000
        assert live < size / 2

    def test_a_run_that_raises_leaves_a_partial_trace_and_no_report(self, tmp_path, monkeypatch):
        cfg = scenario.load_scenario(SCENARIOS / "intersection_table2.json")
        whole = sim.run(cfg).net.trace.data

        def fail(self, frame, now):
            raise RuntimeError("handler failed")

        monkeypatch.setattr(sim.LedgerHost, "handle_frame", fail)
        with pytest.raises(RuntimeError, match="handler failed"):
            sim.run(cfg, out_dir=tmp_path)
        partial = (tmp_path / "trace.jsonl").read_bytes()
        assert partial and whole.tobytes().startswith(partial)
        assert not (tmp_path / "report.json").exists()
        assert not (tmp_path / "chain.bin").exists()
