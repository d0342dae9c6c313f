"""Interest, data and nack packets plus producer integrity tags.

All packet types are frozen value objects; signing returns a new data
packet rather than mutating. The integrity tag is a keyed blake2b hash
over the fields a producer vouches for: the full name in its TLV form
(``VersionedChunkName.full_tlv``, built once with the name in the layout
the wire format carries), then the content, then the final chunk index
and the freshness as 8-byte big-endian integers (the trailer). The name's
TLV form is self-delimiting, so distinct packets never feed the hash the
same bytes, and any single-byte change falsifies verification. The bytes
go to the hash piece by piece (``_digest``); no signed message is ever
assembled. ``sign_file`` signs every chunk of one file with one keyed
hash state and one trailer, copying the state for each chunk, and gives
the tags ``sign_data`` would.

Every integer a packet carries other than the nonce (32 bits) lies in
[0, 2**64), so any packet that builds also encodes, decodes and signs.

Interest and data packets are frozen, slotted dataclasses with a
hand-written ``__init__``: it makes the range checks above, then stores
each slot once through its descriptor (``names._slot_setters``), as does
``sign_file``, with no ``__post_init__`` call: a packet is built for
every chunk sent or published. ``dataclasses.replace``, ``repr`` and
equality work as for any dataclass, and assigning a field raises
``FrozenInstanceError``.

``chunk_interest`` is the one trusted builder: it stores an exact
interest's slots and size directly, with no check. Only the simulator's
own chunk requests use it, ``FileFetch``'s and ``prefetch_plan``'s, each
with a nonce from ``getrandbits(32)`` and the default lifetime, so both
checks it skips hold by construction; it gives what ``Interest(name,
False, nonce)`` gives. Every other interest (discovery, probes, a
caller's own) goes through the public constructor, which keeps its
checks because its nonce and lifetime may come from anywhere.

Interest and data packets keep their encoded size in ``_wire_size``,
computed in closed form when the packet is built: from the name's TLV
length and the lifetime's varint size for an interest, and by
``data_size`` from the fields for a data packet. So every packet, whether
built, copied by ``dataclasses.replace``, decoded or signed by
``sign_file``, carries its exact size. The field takes no part in
equality, hashing or ``repr``.

A data packet likewise remembers, in ``_verified_by``, the key object it
last verified under. Only ``verify_data`` sets it, and only after the tag
matched a recomputation under that key; signing (``sign_data``,
``sign_file``) never sets it. Any copy starts unverified, whether made by
``dataclasses.replace``, by the constructor or by decoding. A packet is
frozen, so recomputing its tag under the same key object gives the same
answer, and consumers behind one cache check a shared packet once between
them. The slot is identity-keyed: an equal but distinct key recomputes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from enum import Enum

# name_format is not used here; it stays importable as packets.name_format
# because bench/tracing.py patches it at that address.
from .names import _U64_LIMIT, Name, VersionedChunkName, _varint_size, name_format  # noqa: F401
from .names import _new, _slot_setters

DEFAULT_INTEREST_LIFETIME_MS = 4000
DEFAULT_FRESHNESS_MS = 3_600_000

TAG_LEN = 32
_ZERO_TAG = b"\x00" * TAG_LEN


def _field_size(payload_len: int) -> int:
    """Encoded length of one (tag, length varint, value) field."""
    return 1 + _varint_size(payload_len) + payload_len


def data_size(
    base: Name, version: int, chunk: int, final_chunk: int, freshness_ms: int, content_len: int
) -> int:
    """Encoded length, in ``wire``'s layout, of a data packet with these fields."""
    return (
        1
        + _field_size(base._tlv_len)
        + _field_size(_varint_size(version))
        + _field_size(_varint_size(chunk))
        + _field_size(_varint_size(final_chunk))
        + _field_size(_varint_size(freshness_ms))
        + _field_size(content_len)
        + _field_size(TAG_LEN)
    )


def _check_freshness(freshness_ms: int) -> None:
    if not 0 <= freshness_ms < _U64_LIMIT:
        raise ValueError("freshness_ms must lie in [0, 2**64)")


_NONCE_LIMIT = 1 << 32


@dataclass(frozen=True, slots=True, init=False)
class Interest:
    name: Name
    can_be_prefix: bool = False
    nonce: int = 0
    lifetime_ms: int = DEFAULT_INTEREST_LIFETIME_MS
    _wire_size: int = field(init=False, compare=False, repr=False)

    def __init__(
        self,
        name: Name,
        can_be_prefix: bool = False,
        nonce: int = 0,
        lifetime_ms: int = DEFAULT_INTEREST_LIFETIME_MS,
    ) -> None:
        if not 0 <= nonce < _NONCE_LIMIT:
            raise ValueError("nonce must fit in 32 bits")
        if not 0 <= lifetime_ms < _U64_LIMIT:
            raise ValueError("lifetime_ms must lie in [0, 2**64)")
        _i_name(self, name)
        _i_can_be_prefix(self, can_be_prefix)
        _i_nonce(self, nonce)
        _i_lifetime_ms(self, lifetime_ms)
        # The wire layout (see ``wire``): the kind byte, then (tag, length
        # varint, value) for the name, the 1-byte CanBePrefix flag, the
        # 4-byte nonce and the lifetime varint, whose length fits one byte.
        # Besides the name's length and value and the lifetime's value that
        # is 1 + 1 + (1 + 1 + 1) + (1 + 1 + 4) + (1 + 1) = 13 bytes.
        tlv_len = name._tlv_len
        _i_size(self, 13 + _varint_size(tlv_len) + tlv_len + _varint_size(lifetime_ms))


_i_name, _i_can_be_prefix, _i_nonce, _i_lifetime_ms, _i_size = _slot_setters(Interest)

# A chunk interest's size besides its name's TLV length and value: the 13
# bytes of ``Interest.__init__`` plus the default lifetime's varint.
_CHUNK_INTEREST_FIXED = 13 + _varint_size(DEFAULT_INTEREST_LIFETIME_MS)


def chunk_interest(name: Name, nonce: int) -> Interest:
    """``Interest(name, False, nonce)``, built and sized without its checks:
    only for the simulator's own chunk requests, whose ``nonce`` comes from
    ``getrandbits(32)`` (see the module docstring)."""
    interest = _new(Interest)
    _i_name(interest, name)
    _i_can_be_prefix(interest, False)
    _i_nonce(interest, nonce)
    _i_lifetime_ms(interest, DEFAULT_INTEREST_LIFETIME_MS)
    tlv_len = name._tlv_len
    _i_size(interest, _CHUNK_INTEREST_FIXED + _varint_size(tlv_len) + tlv_len)
    return interest


@dataclass(frozen=True, slots=True, init=False)
class Data:
    name: VersionedChunkName
    content: bytes = b""
    final_chunk: int = 0
    freshness_ms: int = DEFAULT_FRESHNESS_MS
    integrity_tag: bytes = _ZERO_TAG
    _wire_size: int = field(init=False, compare=False, repr=False)
    _verified_by: KeyMaterial | None = field(default=None, init=False, compare=False, repr=False)

    def __init__(
        self,
        name: VersionedChunkName,
        content: bytes = b"",
        final_chunk: int = 0,
        freshness_ms: int = DEFAULT_FRESHNESS_MS,
        integrity_tag: bytes = _ZERO_TAG,
    ) -> None:
        if not name.chunk <= final_chunk < _U64_LIMIT:
            raise ValueError("final_chunk must lie in [chunk, 2**64)")
        _check_freshness(freshness_ms)
        if len(integrity_tag) != TAG_LEN:
            raise ValueError("integrity tag must be 32 bytes")
        _d_name(self, name)
        _d_content(self, content)
        _d_final(self, final_chunk)
        _d_fresh(self, freshness_ms)
        _d_tag(self, integrity_tag)
        _d_size(
            self,
            data_size(name.base, name.version, name.chunk, final_chunk, freshness_ms, len(content)),
        )
        _d_verified_by(self, None)


_d_name, _d_content, _d_final, _d_fresh, _d_tag, _d_size, _d_verified_by = _slot_setters(Data)


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


def _keyed(key: KeyMaterial) -> hashlib.blake2b:
    return hashlib.blake2b(key=key.secret, digest_size=TAG_LEN)


def _trailer(final_chunk: int, freshness_ms: int) -> bytes:
    return final_chunk.to_bytes(8, "big") + freshness_ms.to_bytes(8, "big")


def _digest(h: hashlib.blake2b, name_tlv: bytes, content: bytes, trailer: bytes) -> bytes:
    """The tag: the signed bytes, in their one order, fed to ``h``, a keyed
    hash state used for nothing else."""
    h.update(name_tlv)
    h.update(content)
    h.update(trailer)
    return h.digest()


def _tag(data: Data, key: KeyMaterial) -> bytes:
    trailer = _trailer(data.final_chunk, data.freshness_ms)
    return _digest(_keyed(key), data.name.full_tlv(), data.content, trailer)


def sign_data(data: Data, key: KeyMaterial) -> Data:
    """Return a copy of the packet carrying a fresh integrity tag."""
    return replace(data, integrity_tag=_tag(data, key))


def sign_file(
    names: list[VersionedChunkName], pieces: list[bytes], freshness_ms: int, key: KeyMaterial
) -> list[Data]:
    """The signed chunks of one file, piece k under names[k], with the last
    index as final chunk: each equals ``sign_data(Data(...), key)`` but is
    built once, sized and unverified, raising what ``Data`` would. The keyed
    hash state and the trailer are built once; the state is copied per chunk."""
    _check_freshness(freshness_ms)  # before the trailer packs it
    final = len(pieces) - 1
    keyed, trailer = _keyed(key), _trailer(final, freshness_ms)
    signed, base, version = [], None, None
    for vc, piece in zip(names, pieces, strict=True):
        chunk, size = vc.chunk, len(piece)
        if chunk > final:
            raise ValueError("final_chunk must lie in [chunk, 2**64)")
        if vc.base is not base or vc.version != version:
            base, version = vc.base, vc.version
            empty_chunk0 = data_size(base, version, 0, final, freshness_ms, 0)
        data = _new(Data)
        _d_name(data, vc)
        _d_content(data, piece)
        _d_final(data, final)
        _d_fresh(data, freshness_ms)
        _d_tag(data, _digest(keyed.copy(), vc._full_tlv, piece, trailer))
        _d_size(data, empty_chunk0 + _varint_size(chunk) - 1 + _varint_size(size) - 1 + size)
        _d_verified_by(data, None)
        signed.append(data)
    return signed


def verify_data(data: Data, key: KeyMaterial) -> bool:
    """True iff the tag matches a recomputation under the same key.

    A match is remembered on the packet as the key object itself, so the
    same packet checked again under the same key is not re-hashed. A
    mismatch is never remembered.
    """
    if data._verified_by is key:
        return True
    if data.integrity_tag != _tag(data, key):
        return False
    _d_verified_by(data, key)
    return True
