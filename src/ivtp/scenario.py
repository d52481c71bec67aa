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


class ValidationError(ValueError):
    """JSON parsed but violates the scenario schema."""

    def __init__(self, fieldname: str, cause: str):
        super().__init__(f"{fieldname}: {cause}")
        self.field = fieldname


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
    at_ms: int = 0
    payload: str = ""


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


def _u64(where: str, value) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value < 2**64:
        raise ValidationError(where, "must be a non-negative integer below 2**64")
    return value


def _str(where: str, value) -> str:
    if not isinstance(value, str):
        raise ValidationError(where, "must be a string")
    try:
        value.encode()
    except UnicodeEncodeError:  # a lone surrogate, such as JSON's "\ud800"
        raise ValidationError(where, "must be valid Unicode") from None
    return value


def _fraction(where: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value <= 1:
        raise ValidationError(where, "must be a number within [0, 1]")
    return float(value)


def _per_vehicle(where: str, value) -> dict[str, int]:
    if not isinstance(value, dict):
        raise ValidationError(where, "must be an object")
    return {alias: _u64(f"{where}.{alias}", v) for alias, v in value.items()}


_CHECKS = {"int": _u64, "str": _str}


def _known(cls, raw: dict, at: str) -> None:
    """Refuse raw's first key in file order that names no field of cls:
    a misspelled field must not leave its default in force."""
    for key in raw:
        if key not in cls.__dataclass_fields__:
            raise ValidationError(at + key, "unknown field")


def _read(cls, raw, where: str, **given):
    """A cls from the JSON object raw found at where. Each field is raw's
    value under its name, checked by its given check or else by its type
    (an int goes on the wire as a u64; a str must encode as UTF-8), or the
    field's default where absent. A type with no check raises KeyError."""
    if not isinstance(raw, dict):
        raise ValidationError(where, "must be an object")
    _known(cls, raw, f"{where}.")
    values = {}
    for f in cls.__dataclass_fields__.values():
        check = given.get(f.name) or _CHECKS[f.type]
        if f.name in raw:
            values[f.name] = check(f"{where}.{f.name}", raw[f.name])
        elif f.default is dataclasses.MISSING:
            raise ValidationError(where, f"missing field {f.name!r}")
    return cls(**values)


def _entries(raw: dict, key: str) -> list[tuple[str, object]]:
    """(path, entry) for each entry of the JSON list raw[key]; absent, it is empty."""
    value = raw.get(key, [])
    if not isinstance(value, list):
        raise ValidationError(key, "must be a list")
    return [(f"{key}[{i}]", entry) for i, entry in enumerate(value)]


def scenario_from_dict(raw: dict, name: str = "scenario") -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ValidationError("$", "scenario must be a JSON object")
    _known(ScenarioConfig, raw, "")
    name = _str("name", raw.get("name", name))
    network = _read(NetworkConfig, raw.get("network", {}), "network", drop_probability=_fraction)
    consensus = _read(ConsensusConfig, raw.get("consensus", {}), "consensus")
    if consensus.beacon_period_ms == 0 or consensus.beacon_window_ms == 0:
        raise ValidationError("consensus", "beacon period and window must be positive")
    led = _read(LedgerConfig, raw.get("ledger", {}), "ledger")

    vehicles: dict[str, VehicleSpec] = {}  # by alias
    seen_seeds: dict[bytes, str] = {}  # key seed -> the first vehicle's path
    for where, entry in _entries(raw, "vehicles"):
        if isinstance(entry, dict):  # a vehicle's key seed defaults to its alias
            entry = {"seed": entry.get("alias"), **entry}
        v = _read(VehicleSpec, entry, where)
        if not v.alias:
            raise ValidationError(f"{where}.alias", "must not be empty")
        if v.alias in vehicles:
            raise ValidationError(f"{where}.alias", f"duplicate alias {v.alias!r}")
        if v.alias in (DEALER_ALIAS, HOST_ALIAS):
            raise ValidationError(f"{where}.alias", f"alias {v.alias!r} is reserved")
        first = seen_seeds.setdefault(seed_bytes(v.seed), where)
        if first != where:
            raise ValidationError(f"{where}.seed", f"same key seed as {first}")
        vehicles[v.alias] = v
    if not vehicles:
        raise ValidationError("vehicles", "must be a non-empty list")

    def vehicle(where: str, alias) -> str:
        if not isinstance(alias, str) or alias not in vehicles:
            raise ValidationError(where, f"unknown vehicle alias {alias!r}")
        return alias

    def participants(where: str, value) -> tuple[str, ...]:
        if not isinstance(value, list) or not value:
            raise ValidationError(where, "must be a non-empty list")
        if len({vehicle(where, alias) for alias in value}) != len(value):
            raise ValidationError(where, "aliases must be unique")
        return tuple(value)

    intersections: dict[str, IntersectionSpec] = {}  # by id
    for where, entry in _entries(raw, "intersections"):
        x = _read(IntersectionSpec, entry, where, participants=participants,
                  arrival_ms=_per_vehicle, compute_delay_ms=_per_vehicle)
        for key in ("arrival_ms", "compute_delay_ms"):
            if getattr(x, key).keys() != set(x.participants):
                raise ValidationError(f"{where}.{key}", "must map every participant exactly once")
        for alias, delay in x.compute_delay_ms.items():
            if delay == 0:
                raise ValidationError(f"{where}.compute_delay_ms.{alias}", "must be positive")
        if x.id in intersections:
            raise ValidationError("intersections", "intersection ids must be unique")
        intersections[x.id] = x

    comms = tuple(_read(CommSpec, e, w, sender=vehicle) for w, e in _entries(raw, "comms"))
    return ScenarioConfig(
        name, network, consensus, led, tuple(vehicles.values()),
        tuple(intersections.values()), comms, _read(RunConfig, raw.get("run", {}), "run"),
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
