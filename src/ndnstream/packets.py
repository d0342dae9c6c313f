"""Interest, data and nack packets plus producer integrity tags.

All packet types are frozen value objects; signing returns a new data
packet rather than mutating. The integrity tag is a keyed blake2b hash
over the fields a producer vouches for (full name, content, final chunk
index and freshness), so any single-byte change falsifies verification.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from enum import Enum

from .names import Name, VersionedChunkName, name_format

DEFAULT_INTEREST_LIFETIME_MS = 4000
DEFAULT_FRESHNESS_MS = 3_600_000

TAG_LEN = 32
_ZERO_TAG = b"\x00" * TAG_LEN


@dataclass(frozen=True)
class Interest:
    name: Name
    can_be_prefix: bool = False
    nonce: int = 0
    lifetime_ms: int = DEFAULT_INTEREST_LIFETIME_MS

    def __post_init__(self) -> None:
        if not 0 <= self.nonce < 2**32:
            raise ValueError("nonce must fit in 32 bits")
        if self.lifetime_ms < 0:
            raise ValueError("lifetime_ms must be non-negative")


@dataclass(frozen=True)
class Data:
    name: VersionedChunkName
    content: bytes = b""
    final_chunk: int = 0
    freshness_ms: int = DEFAULT_FRESHNESS_MS
    integrity_tag: bytes = _ZERO_TAG

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


def _signed_bytes(data: Data) -> bytes:
    name_text = name_format(data.name.full()).encode()
    head = len(name_text).to_bytes(4, "big") + name_text
    trailer = data.final_chunk.to_bytes(8, "big") + data.freshness_ms.to_bytes(8, "big")
    return head + data.content + trailer


def _tag(data: Data, key: KeyMaterial) -> bytes:
    h = hashlib.blake2b(key=key.secret, digest_size=TAG_LEN)
    h.update(_signed_bytes(data))
    return h.digest()


def sign_data(data: Data, key: KeyMaterial) -> Data:
    """Return a copy of the packet carrying a fresh integrity tag."""
    return replace(data, integrity_tag=_tag(data, key))


def verify_data(data: Data, key: KeyMaterial) -> bool:
    """True iff the tag matches a recomputation under the same key."""
    return data.integrity_tag == _tag(data, key)
