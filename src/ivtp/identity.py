"""Vehicle identities: keypairs, dealer-issued trust-point IDs, signing.

Every vehicle owns a deterministic keypair derived from a 32-byte seed.
A dealer authority binds each public key to a unique 32-byte trust-point
ID (the IV-TP ID) and signs that binding. All signing in the system is
Ed25519, which is fully deterministic, so a simulation run never depends
on ambient randomness.

Ed25519 is libsodium's, called through ctypes: RFC 8032 signatures, checked
cofactorless, and libsodium also refuses small-order keys and R values and
non-canonical encodings, which plain RFC 8032 verification accepts.
"""

from __future__ import annotations

import ctypes
import hashlib
import reprlib
from dataclasses import dataclass, field, fields
from typing import Callable

# 32-byte identifiers and keys, 64-byte signatures throughout.
IvTpId = bytes

SEED_LEN = 32
PUBLIC_KEY_LEN = 32
SIGNATURE_LEN = 64


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def _load_sodium() -> ctypes.CDLL:
    """libsodium, loaded by its soname (no ldconfig lookup) and initialised,
    with every function used here typed."""
    try:
        lib = ctypes.CDLL("libsodium.so.23")
    except OSError as exc:
        raise ImportError(
            "ivtp needs libsodium (libsodium.so.23, Debian package libsodium23)",
            name="libsodium.so.23",
        ) from exc
    buf, size = ctypes.c_char_p, ctypes.c_ulonglong
    for name, argtypes in [
        ("sodium_init", ()),
        ("crypto_sign_ed25519_seed_keypair", (buf, buf, buf)),
        ("crypto_sign_ed25519_detached", (buf, ctypes.c_void_p, buf, size, buf)),
        ("crypto_sign_ed25519_verify_detached", (buf, buf, size, buf)),
        ("crypto_core_ed25519_is_valid_point", (buf,)),
    ]:
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, ctypes.c_int
    if lib.sodium_init() < 0:
        raise ImportError("libsodium.so.23 failed to initialise", name="libsodium.so.23")
    return lib


_sodium = _load_sodium()
_seed_keypair_c = _sodium.crypto_sign_ed25519_seed_keypair
_sign_detached = _sodium.crypto_sign_ed25519_detached
# The one Ed25519 check: (signature, message, message length, public key) -> 0 iff valid.
_verify_detached = _sodium.crypto_sign_ed25519_verify_detached
_is_valid_point = _sodium.crypto_core_ed25519_is_valid_point


def _seed_keypair(seed: bytes) -> tuple[bytes, bytes]:
    """(public key, libsodium's 64-byte secret key) of a 32-byte seed."""
    if len(seed) != SEED_LEN:
        raise ValueError(f"seed must be {SEED_LEN} bytes, got {len(seed)}")
    pk, sk = ctypes.create_string_buffer(PUBLIC_KEY_LEN), ctypes.create_string_buffer(64)
    if _seed_keypair_c(pk, sk, bytes(seed)) != 0:
        raise ValueError("libsodium refused the seed")
    return pk.raw, sk.raw


class once:
    """A lazy attribute: fn(obj), made on the first read and kept in obj's
    __dict__, out of ==, hash and repr; a value preset there is what is read,
    and a read that raises keeps nothing. cached_property without its RLock."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, owner=None):
        return self if obj is None else vars(obj).setdefault(self.name, self.fn(obj))


# One ==, hash and repr for every ivtp dataclass, as dataclasses would
# compile them per class: over the fields in declaration order that have
# compare (hash) or repr set; == answers NotImplemented for another class.

def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    names = [f.name for f in fields(self) if f.compare]
    return tuple(getattr(self, n) for n in names) == tuple(getattr(other, n) for n in names)


def _hash(self):
    hashed = (f for f in fields(self) if (f.compare if f.hash is None else f.hash))
    return hash(tuple(getattr(self, f.name) for f in hashed))


@reprlib.recursive_repr()
def _repr(self):
    shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self) if f.repr)
    return f"{self.__class__.__qualname__}({shown})"


def frozen(cls):
    """@dataclass(frozen=True), hashable, with the shared ==, hash and repr."""
    cls.__eq__, cls.__hash__, cls.__repr__ = _eq, _hash, _repr
    return dataclass(cls, frozen=True, eq=False, repr=False)


def mutable(cls):
    """@dataclass with the shared == and repr, unhashable as eq makes it."""
    cls.__eq__, cls.__hash__, cls.__repr__ = _eq, None, _repr
    return dataclass(cls, eq=False, repr=False)


@frozen
class KeyPair:
    """A vehicle's or the dealer's Ed25519 keypair, made by keygen."""

    secret_key: bytes  # the 32-byte seed; public key is derivable from it
    public_key: bytes

    @once
    def _signer(self) -> bytes:
        """libsodium's 64-byte secret key, made from the seed alone (never
        from public_key) and kept in __dict__: out of == and repr."""
        return _seed_keypair(self.secret_key)[1]


def keygen(seed: bytes) -> KeyPair:
    """Derive an Ed25519 keypair from a 32-byte seed. Same seed, same keypair."""
    return KeyPair(secret_key=seed, public_key=_seed_keypair(seed)[0])


def sign(kp: KeyPair, message: bytes) -> bytes:
    """Sign message bytes; deterministic, no per-call randomness."""
    message, sig = bytes(message), ctypes.create_string_buffer(SIGNATURE_LEN)
    if _sign_detached(sig, None, message, len(message), kp._signer) != 0:
        raise ValueError("libsodium refused to sign")
    return sig.raw


def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """True iff signature was produced over exactly these bytes by the
    secret key matching public_key. Never raises on malformed input."""
    if len(public_key) != PUBLIC_KEY_LEN or len(signature) != SIGNATURE_LEN:
        return False
    message = bytes(message)
    return _verify_detached(bytes(signature), message, len(message), bytes(public_key)) == 0


def valid_public_key(public_key: bytes) -> bool:
    """True iff public_key is a canonical point of the prime-order subgroup,
    as every keygen key is; a small-order key never verifies a signature."""
    return len(public_key) == PUBLIC_KEY_LEN and _is_valid_point(bytes(public_key)) == 1


def verify_once(owner, slot: str, key, check: Callable[[], bool]) -> bool:
    """check() of whether owner's signatures hold under key, made once per
    owner and key. Its verdict stays in owner's __dict__ slot, out of ==,
    hash and repr: key itself if it held (allocating nothing), else (key,)."""
    slots = vars(owner)
    held = slots.get(slot)
    if held != key and held != (key,):
        held = slots[slot] = key if check() else (key,)
    return held == key


def ivtp_id_from(dealer_id: bytes, vehicle_pk: bytes, counter: int) -> IvTpId:
    """Trust-point ID: SHA-256(dealer_id || vehicle_pk || counter_be64)."""
    return sha256(dealer_id + vehicle_pk + counter.to_bytes(8, "big"))


@frozen
class Issuance:
    """A dealer's signed binding of a trust-point ID to a public key."""

    ivtp_id: IvTpId
    vehicle_pk: bytes
    dealer_id: bytes
    counter: int
    binding_sig: bytes  # dealer signature over ivtp_id || vehicle_pk


def binding_message(ivtp_id: bytes, vehicle_pk: bytes) -> bytes:
    return ivtp_id + vehicle_pk


@mutable
class DealerAuthority:
    """Issues trust-point identities. The counter strictly increases, so
    two issuances can never collide even for identical public keys from
    different requests (duplicates are rejected anyway)."""

    dealer_id: bytes
    keypair: KeyPair
    issuance_counter: int = 0
    issued_keys: set[bytes] = field(default_factory=set)

    @classmethod
    def from_name(cls, name: str) -> "DealerAuthority":
        """Deterministic dealer: id = SHA-256(name), key seeded from it."""
        dealer_id = sha256(name.encode())
        kp = keygen(sha256(dealer_id + b"/key"))
        return cls(dealer_id=dealer_id, keypair=kp)

    def issue(self, vehicle_pk: bytes) -> Issuance:
        if not valid_public_key(vehicle_pk):
            raise ValueError("public key is not a 32-byte point of the prime-order subgroup")
        if vehicle_pk in self.issued_keys:
            raise ValueError(f"public key {vehicle_pk.hex()[:16]} already has an identity")
        ivtp_id = ivtp_id_from(self.dealer_id, vehicle_pk, self.issuance_counter)
        sig = sign(self.keypair, binding_message(ivtp_id, vehicle_pk))
        issuance = Issuance(
            ivtp_id=ivtp_id,
            vehicle_pk=vehicle_pk,
            dealer_id=self.dealer_id,
            counter=self.issuance_counter,
            binding_sig=sig,
        )
        self.issued_keys.add(vehicle_pk)
        self.issuance_counter += 1
        return issuance


def short_id(ivtp_id: bytes) -> str:
    """Abbreviated hex form for logs and traces."""
    return ivtp_id.hex()[:12]
