"""Traced-run instrumentation: spans around the public calls of each ivtp layer.

Everything here wraps from outside. ``Tracer.install`` replaces every
binding of a target in the loaded ``ivtp`` modules (``sim.verify_frame``
as well as ``vehicle.verify_frame``) or the class attribute a caller
looks up (``Vehicle.handle_frame``, the alias netsim dispatches to).
``uninstall`` puts the originals back. Spans stay in memory until
``write`` and ``summary`` run at the end of the process.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute path, span name). A class attribute is "Class.method".
SPANNED = [
    ("identity", "verify", "identity.verify"),
    ("identity", "sign", "identity.sign"),
    ("identity", "keygen", "identity.keygen"),
    ("vehicle", "Vehicle.handle_frame", "vehicle.handle_frame"),
    ("vehicle", "Vehicle.handle_timer", "vehicle.handle_timer"),
    ("vehicle", "make_frame", "vehicle.make_frame"),
    ("netsim", "Network.broadcast", "netsim.broadcast"),
    ("netsim", "Network.run_until", "netsim.run_until"),
    ("consensus", "try_commit", "consensus.try_commit"),
    ("consensus", "pod_check", "consensus.pod_check"),
    ("consensus", "active_vehicles", "consensus.active_vehicles"),
    ("sim", "run", "sim.run"),
    ("sim", "LedgerHost.sweep", "sim.host.sweep"),
    ("sim", "LedgerHost.handle_frame", "sim.host.handle_frame"),
    ("sim", "LedgerHost.handle_timer", "sim.host.handle_timer"),
    ("sim", "encode_trace", "sim.encode_trace"),
    ("sim", "build_report", "sim.build_report"),
    ("ledger", "Chain.append_block", "ledger.append_block"),
    ("ledger", "Chain.from_blocks", "ledger.from_blocks"),
    ("ledger", "LedgerState.check_tx", "ledger.check_tx"),
    ("ledger", "merkle_root", "ledger.merkle_root"),
    ("ledger", "canonical_decode", "ledger.canonical_decode"),
    ("ledger", "parse_chain_bytes", "ledger.parse_chain_bytes"),
    ("ledger", "validate_blocks", "ledger.validate_blocks"),
    ("ledger", "save_chain", "ledger.save_chain"),
    ("arbitration", "compute_order", "arbitration.compute_order"),
    ("scenario", "scenario_from_dict", "scenario.scenario_from_dict"),
    ("cli", "main", "cli.main"),
]
# Hot, tiny calls that are only counted.
COUNTED = [
    ("vehicle", "verify_frame", "vehicle.verify_frame"),
    ("ledger", "tx_signing_bytes", "ledger.tx_signing_bytes"),
    ("netsim", "Rng.next_u64", "netsim.rng_draws"),
]
# A call to one of these directly under run_until is one dispatched event.
HANDLERS = {
    "vehicle.handle_frame",
    "vehicle.handle_timer",
    "sim.host.handle_frame",
    "sim.host.handle_timer",
}


def _ivtp_modules():
    return [m for name, m in list(sys.modules.items()) if name == "ivtp" or name.startswith("ivtp.")]


class Tracer:
    def __init__(self):
        # (name, start_ns, end_ns, parent index or -1, event id or -1)
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.verified: set = set()
        self.pending_peak = 0
        self.blocks_made = 0
        self._stack: list[int] = []
        self._event = -1
        self._restore: list = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        handler = name in HANDLERS
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if parent < 0:
                event = -1
            elif spans[parent][0] == "netsim.run_until":
                if handler:
                    tracer._event += 1
                event = tracer._event
            else:
                event = spans[parent][4]
            idx = len(spans)
            spans.append((name, clock(), 0, parent, event))
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                _, start, _, _, _ = spans[idx]
                spans[idx] = (name, start, clock(), parent, event)

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _extra(self, name: str, fn):
        """Layer-specific observations taken at the call boundary."""
        if name == "identity.verify":
            seen = self.verified

            def verify(public_key, message, signature, *rest, **kw):
                seen.add((public_key, message, signature))
                return fn(public_key, message, signature, *rest, **kw)

            return verify
        if name == "consensus.try_commit":
            tracer = self

            def try_commit(pending, *rest, **kw):
                tracer.pending_peak = max(tracer.pending_peak, len(pending))
                result = fn(pending, *rest, **kw)
                tracer.blocks_made += result.block is not None
                return result

            return try_commit
        return fn

    # -- patching -----------------------------------------------------------

    def _patch(self, module_name: str, path: str, make):
        module = sys.modules[f"ivtp.{module_name}"]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, new)
            return
        original = getattr(module, path)
        new = make(original)
        for mod in _ivtp_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, new)

    def install(self) -> None:
        for module_name, path, name in SPANNED:
            self._patch(module_name, path, lambda fn, n=name: self._span(n, self._extra(n, fn)))
        for module_name, path, name in COUNTED:
            self._patch(module_name, path, lambda fn, n=name: self._count(n, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds (a span's
        duration minus what its direct children cover)."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_ns[name] += end - start - child[i]
        return {
            "calls": {**self.counts, **calls},
            "total_s": {k: v / 1e9 for k, v in total.items()},
            "self_s": {k: v / 1e9 for k, v in self_ns.items()},
            "verify_unique": len(self.verified),
            "pending_peak": self.pending_peak,
            "blocks_made": self.blocks_made,
            "events": self._event + 1,
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("name\tstart_ns\tend_ns\tparent\tevent\n")
            for row in self.spans:
                f.write("\t".join(map(str, row)) + "\n")
