"""The synthetic N-vehicle scenario family behind vectors/synthetic_n*.json.

N vehicles on one medium with 1 ms latency, 2 ms jitter and 10% loss,
network seed N. Each vehicle sends one comm, at 600 + 20*i ms. The first
min(N, 8) vehicles meet at one intersection, arriving 10 ms apart. The
run ends at 2000 ms.

    python tests/synthetic.py N > vectors/synthetic_nN.json

prints the scenario in the layout of the checked-in files.
"""

import json
import sys

# Compute delays of the intersection's participants, IV-1 to IV-8.
COMPUTE_DELAY_MS = (9, 8, 5, 7, 6, 4, 10, 3)


def synthetic_scenario(n: int) -> dict:
    aliases = [f"IV-{i + 1}" for i in range(n)]
    members = aliases[: min(n, len(COMPUTE_DELAY_MS))]
    return {
        "name": f"synthetic_n{n}",
        "network": {"latency_ms": 1, "jitter_ms": 2, "drop_probability": 0.1, "seed": n},
        "consensus": {"beacon_period_ms": 100, "beacon_window_ms": 500, "pending_ttl_ms": 2000},
        "ledger": {"endowment_millitrust": 100000},
        "vehicles": [{"alias": a} for a in aliases],
        "intersections": [
            {
                "id": "crossing-1",
                "participants": members,
                "arrival_ms": {a: 1000 + 10 * i for i, a in enumerate(members)},
                "compute_delay_ms": dict(zip(members, COMPUTE_DELAY_MS)),
                "collection_window_ms": 300,
            }
        ],
        "comms": [
            {"sender": a, "at_ms": 600 + 20 * i, "payload": f"status report from {a}"}
            for i, a in enumerate(aliases)
        ],
        "run": {"t_end_ms": 2000},
    }


def render(doc: dict) -> str:
    """The vectors' layout: one top-level key per line, list items one
    per line, and each intersection one key per line."""

    def listing(items, indent: str) -> str:
        return "[\n" + ",\n".join(indent + item for item in items) + "\n" + indent[:-2] + "]"

    def value(key: str, v) -> str:
        if key == "intersections":
            return listing(
                ["{\n" + ",\n".join(f"      {json.dumps(k)}: {json.dumps(x)}" for k, x in i.items())
                 + "\n    }" for i in v],
                "    ",
            )
        if isinstance(v, list):
            return listing([json.dumps(x) for x in v], "    ")
        return json.dumps(v)

    body = ",\n".join(f"  {json.dumps(k)}: {value(k, v)}" for k, v in doc.items())
    return "{\n" + body + "\n}\n"


if __name__ == "__main__":
    sys.stdout.write(render(synthetic_scenario(int(sys.argv[1]))))
