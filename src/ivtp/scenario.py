"""Scenario files: the JSON schema that fully determines a run.

Everything a simulation does — identities, timings, link behavior,
session parameters — comes from one of these files plus its seed, so
two loads of the same file always produce the same run.
"""

from __future__ import annotations

import dataclasses
import json
import os

from .consensus import ConsensusConfig
from .identity import frozen, sha256
from .ledger import DEFAULT_ENDOWMENT
from .netsim import NetworkConfig


class ParseError(ValueError):
    """File is not valid JSON."""

    def __init__(self, line: int, cause: str):
        super().__init__(f"line {line}: {cause}")
        self.line = line
        self.cause = cause


class ValidationError(ValueError):
    """JSON parsed but violates the scenario schema."""

    def __init__(self, fieldname: str, cause: str):
        super().__init__(f"{fieldname}: {cause}")
        self.field = fieldname
        self.cause = cause


# The run's names for the dealer and the ledger host; no vehicle may take one.
DEALER_ALIAS, HOST_ALIAS = "dealer", "host"


def seed_bytes(seed: str) -> bytes:
    """Vehicle key seed: 64 hex chars are taken verbatim, anything else
    is hashed, so human-readable names work as seeds."""
    if len(seed) == 64:
        try:
            return bytes.fromhex(seed)
        except ValueError:
            pass
    return sha256(seed.encode())


@frozen
class LedgerConfig:
    """The chain's genesis terms: each registered vehicle's endowment."""

    endowment_millitrust: int = DEFAULT_ENDOWMENT


@frozen
class VehicleSpec:
    """One vehicle of the scenario, by alias, with its key seed."""

    alias: str
    seed: str  # defaults to the alias itself


@frozen
class IntersectionSpec:
    """One intersection: its participants' arrivals and compute delays."""

    id: str
    participants: tuple[str, ...]
    arrival_ms: dict[str, int]
    compute_delay_ms: dict[str, int]
    collection_window_ms: int = 300


@frozen
class CommSpec:
    """A scripted broadcast: sender says payload at at_ms."""

    sender: str
    at_ms: int
    payload: str


@frozen
class RunConfig:
    """How long the simulation runs, in simulated milliseconds."""

    t_end_ms: int = 2000


@frozen
class ScenarioConfig:
    """One validated scenario file: everything sim.run reads."""

    name: str
    network: NetworkConfig
    consensus: ConsensusConfig
    ledger: LedgerConfig
    vehicles: tuple[VehicleSpec, ...]
    intersections: tuple[IntersectionSpec, ...]
    comms: tuple[CommSpec, ...]
    run: RunConfig


def _section(raw: dict, key: str, kind: type = dict):
    """raw[key], an object (or a list, by kind); absent means empty."""
    value = raw.get(key, kind())
    if not isinstance(value, kind):
        raise ValidationError(key, "must be an object" if kind is dict else "must be a list")
    return value


def _nonneg(section: str, key: str, value) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value < 2**64:
        raise ValidationError(f"{section}.{key}", "must be a non-negative integer below 2**64")
    return value


def _known(cls, raw: dict, where: str = "") -> None:
    """raw, refused at its first key in file order that names no field
    of cls: a misspelled field must not leave its default in force."""
    names = {f.name for f in dataclasses.fields(cls)}
    for key in raw:
        if key not in names:
            raise ValidationError(f"{where}{key}", "unknown field")


def _counts(cls, section: str, raw: dict, **given):
    """A cls whose fields, but those given, are the non-negative integers
    in raw under their names, or the field defaults where absent."""
    _known(cls, raw, f"{section}.")
    counts = {
        f.name: _nonneg(section, f.name, raw.get(f.name, f.default))
        for f in dataclasses.fields(cls) if f.name not in given
    }
    return cls(**counts, **given)


def _text(where: str, entry: dict, key: str, default: str | None = None) -> str:
    value = entry.get(key, default)
    if not isinstance(value, str):
        raise ValidationError(f"{where}.{key}", "must be a string")
    return value


def scenario_from_dict(raw: dict, name: str = "scenario") -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ValidationError("$", "scenario must be a JSON object")
    _known(ScenarioConfig, raw)
    name = raw.get("name", name)
    if not isinstance(name, str):
        raise ValidationError("name", "must be a string")

    net_raw = _section(raw, "network")
    drop = net_raw.get("drop_probability", 0.0)
    if isinstance(drop, bool) or not isinstance(drop, (int, float)) or not 0 <= drop <= 1:
        raise ValidationError("network.drop_probability", "must be a number within [0, 1]")
    network = _counts(NetworkConfig, "network", net_raw, drop_probability=float(drop))
    consensus = _counts(ConsensusConfig, "consensus", _section(raw, "consensus"))
    if consensus.beacon_period_ms == 0 or consensus.beacon_window_ms == 0:
        raise ValidationError("consensus", "beacon period and window must be positive")
    led = _counts(LedgerConfig, "ledger", _section(raw, "ledger"))

    vehicles_raw = raw.get("vehicles", [])
    if not isinstance(vehicles_raw, list) or not vehicles_raw:
        raise ValidationError("vehicles", "must be a non-empty list")
    vehicles = []
    seen_aliases: set[str] = set()
    seen_seeds: dict[bytes, int] = {}  # key seed -> the first vehicle's index
    for i, entry in enumerate(vehicles_raw):
        if not isinstance(entry, dict) or "alias" not in entry:
            raise ValidationError(f"vehicles[{i}]", "must be an object with an alias")
        _known(VehicleSpec, entry, f"vehicles[{i}].")
        alias = entry["alias"]
        if not isinstance(alias, str) or not alias:
            raise ValidationError(f"vehicles[{i}].alias", "must be a non-empty string")
        if alias in seen_aliases:
            raise ValidationError(f"vehicles[{i}].alias", f"duplicate alias {alias!r}")
        if alias in (DEALER_ALIAS, HOST_ALIAS):
            raise ValidationError(f"vehicles[{i}].alias", f"alias {alias!r} is reserved")
        seen_aliases.add(alias)
        seed = _text(f"vehicles[{i}]", entry, "seed", alias)
        first = seen_seeds.setdefault(seed_bytes(seed), i)
        if first != i:
            raise ValidationError(f"vehicles[{i}].seed", f"same key seed as vehicles[{first}]")
        vehicles.append(VehicleSpec(alias=alias, seed=seed))

    intersections = []
    for i, entry in enumerate(_section(raw, "intersections", list)):
        where = f"intersections[{i}]"
        if not isinstance(entry, dict) or "id" not in entry:
            raise ValidationError(where, "must be an object with an id")
        _known(IntersectionSpec, entry, f"{where}.")
        participants = entry.get("participants", [])
        if not isinstance(participants, list) or len(participants) < 1:
            raise ValidationError(f"{where}.participants", "must be a non-empty list")
        for alias in participants:
            if not isinstance(alias, str) or alias not in seen_aliases:
                raise ValidationError(
                    f"{where}.participants", f"unknown vehicle alias {alias!r}"
                )
        if len(set(participants)) != len(participants):
            raise ValidationError(f"{where}.participants", "aliases must be unique")
        arrivals = entry.get("arrival_ms", {})
        delays = entry.get("compute_delay_ms", {})
        for table, key in ((arrivals, "arrival_ms"), (delays, "compute_delay_ms")):
            if not isinstance(table, dict) or set(table) != set(participants):
                raise ValidationError(
                    f"{where}.{key}", "must map every participant exactly once"
                )
            for alias, v in table.items():
                _nonneg(f"{where}.{key}", alias, v)
        for alias, v in delays.items():
            if v == 0:
                raise ValidationError(
                    f"{where}.compute_delay_ms.{alias}", "must be positive"
                )
        window = entry.get("collection_window_ms", IntersectionSpec.collection_window_ms)
        intersections.append(
            IntersectionSpec(
                id=_text(where, entry, "id"),
                participants=tuple(participants),
                arrival_ms={a: int(v) for a, v in arrivals.items()},
                compute_delay_ms={a: int(v) for a, v in delays.items()},
                collection_window_ms=_nonneg(where, "collection_window_ms", window),
            )
        )
    ids = [x.id for x in intersections]
    if len(set(ids)) != len(ids):
        raise ValidationError("intersections", "intersection ids must be unique")

    comms = []
    for i, entry in enumerate(_section(raw, "comms", list)):
        where = f"comms[{i}]"
        if not isinstance(entry, dict):
            raise ValidationError(where, "must be an object")
        _known(CommSpec, entry, f"{where}.")
        sender = entry.get("sender")
        if not isinstance(sender, str) or sender not in seen_aliases:
            raise ValidationError(f"{where}.sender", f"unknown vehicle alias {sender!r}")
        comms.append(
            CommSpec(
                sender=sender,
                at_ms=_nonneg(where, "at_ms", entry.get("at_ms", 0)),
                payload=_text(where, entry, "payload", ""),
            )
        )

    run = _counts(RunConfig, "run", _section(raw, "run"))

    return ScenarioConfig(
        name=name,
        network=network,
        consensus=consensus,
        ledger=led,
        vehicles=tuple(vehicles),
        intersections=tuple(intersections),
        comms=tuple(comms),
        run=run,
    )


def load_scenario(path) -> ScenarioConfig:
    with open(path, "rb") as f:
        data = f.read()
    try:
        raw = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(data.count(b"\n", 0, exc.start) + 1, "not valid UTF-8") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.msg) from exc
    return scenario_from_dict(raw, name=os.path.splitext(os.path.basename(path))[0])
