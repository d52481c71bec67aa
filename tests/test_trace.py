"""The trace sink: each row's bytes equal the compact sorted-key JSON of
the row dict, whether written from a template or by the generic
encoder, and a whole run writes what encoding every row dict after the
run wrote."""

import json
import pathlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ivtp import netsim, scenario, sim

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
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
        assert trace == list(trace)
        assert trace != list(trace)[:3]
        assert trace != "not a list"

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
        rebuilt = netsim.Trace.from_rows(list(trace))
        assert rebuilt.data == trace.data
        assert rebuilt.counts == trace.counts
        assert rebuilt.notes == trace.notes
        assert rebuilt == trace


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
