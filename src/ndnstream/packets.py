"""Interest, data and nack packets plus producer integrity tags.

All packet types are frozen value objects; signing returns a new data
packet rather than mutating. The integrity tag is a keyed blake2b hash
over the fields a producer vouches for: the full name in its TLV form
(``VersionedChunkName.full_tlv``, built once with the name in the layout
the wire format carries), then the
content, then the final chunk index and the freshness as 8-byte
big-endian integers. The name's TLV form is self-delimiting, so distinct
packets never feed the hash the same bytes, and any single-byte change
falsifies verification. The bytes go to the hash piece by piece; no
signed message is ever assembled.

An interest or data packet keeps its encoded size in ``_wire_size`` once
``wire.encoded_size`` has computed it. The field takes no part in
equality, hashing or ``repr``, and a copy made by ``dataclasses.replace``
or by decoding starts without it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from enum import Enum

# name_format is not used here; it stays importable as packets.name_format
# because bench/tracing.py patches it at that address.
from .names import Name, VersionedChunkName, name_format  # noqa: F401

DEFAULT_INTEREST_LIFETIME_MS = 4000
DEFAULT_FRESHNESS_MS = 3_600_000

TAG_LEN = 32
_ZERO_TAG = b"\x00" * TAG_LEN


@dataclass(frozen=True, slots=True)
class Interest:
    name: Name
    can_be_prefix: bool = False
    nonce: int = 0
    lifetime_ms: int = DEFAULT_INTEREST_LIFETIME_MS
    _wire_size: int | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.nonce < 2**32:
            raise ValueError("nonce must fit in 32 bits")
        if self.lifetime_ms < 0:
            raise ValueError("lifetime_ms must be non-negative")


@dataclass(frozen=True, slots=True)
class Data:
    name: VersionedChunkName
    content: bytes = b""
    final_chunk: int = 0
    freshness_ms: int = DEFAULT_FRESHNESS_MS
    integrity_tag: bytes = _ZERO_TAG
    _wire_size: int | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.name.chunk > self.final_chunk:
            raise ValueError("chunk index beyond final_chunk")
        if self.freshness_ms < 0:
            raise ValueError("freshness_ms must be non-negative")
        if len(self.integrity_tag) != TAG_LEN:
            raise ValueError("integrity tag must be 32 bytes")


class NackReason(Enum):
    NO_CONTENT = 1
    NO_ROUTE = 2


@dataclass(frozen=True)
class Nack:
    interest_name: Name
    reason: NackReason


Packet = Interest | Data | Nack


@dataclass(frozen=True)
class KeyMaterial:
    key_id: str
    secret: bytes

    def __post_init__(self) -> None:
        if len(self.secret) == 0:
            raise ValueError("secret must be non-empty")


def _tag(data: Data, key: KeyMaterial) -> bytes:
    h = hashlib.blake2b(key=key.secret, digest_size=TAG_LEN)
    h.update(data.name.full_tlv())
    h.update(data.content)
    h.update(data.final_chunk.to_bytes(8, "big") + data.freshness_ms.to_bytes(8, "big"))
    return h.digest()


def sign_data(data: Data, key: KeyMaterial) -> Data:
    """Return a copy of the packet carrying a fresh integrity tag."""
    return replace(data, integrity_tag=_tag(data, key))


def verify_data(data: Data, key: KeyMaterial) -> bool:
    """True iff the tag matches a recomputation under the same key."""
    return data.integrity_tag == _tag(data, key)
