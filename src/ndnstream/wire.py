"""Deterministic TLV wire format for the three packet kinds.

Layout: one packet-kind byte, then fields as (1-byte tag, varint length,
value) in strictly ascending tag order. Varints are unsigned LEB128.
Decoding is strict: truncation, trailing bytes, unknown kinds or tags,
duplicated tags, multi-byte varints that end in a zero byte and varints
of 2**64 or more are all rejected, so every byte string the decoder
accepts re-encodes to itself and every packet field it reads fits the
packet's own bounds.

Link serialization delay in the emulator is computed from the encoded
length; ``encoded_size`` gives that length without materializing the
bytes and is property-tested against ``len(encode_packet(...))``.
Interests and data packets are sized when built (see ``packets``), so for
them it reads the stored size; a nack's is computed from its name.
"""

from __future__ import annotations

from .errors import MalformedName, MalformedPacket
from .names import Name, VersionedChunkName, _encode_name, _varint
from .packets import TAG_LEN, Data, Interest, Nack, NackReason, Packet, _field_size

_KIND_INTEREST = 1
_KIND_DATA = 2
_KIND_NACK = 3

# Interest fields
_T_NAME = 1
_T_CAN_BE_PREFIX = 2
_T_NONCE = 3
_T_LIFETIME = 4
# Data fields
_T_VERSION = 2
_T_CHUNK = 3
_T_FINAL_CHUNK = 4
_T_FRESHNESS = 5
_T_CONTENT = 6
_T_TAG = 7
# Nack fields
_T_REASON = 2


def _field(tag: int, value: bytes) -> bytes:
    return bytes([tag]) + _varint(len(value)) + value


def encode_packet(pkt: Packet) -> bytes:
    """Serialize a packet; two encodings of equal packets are byte-identical."""
    if isinstance(pkt, Interest):
        return b"".join(
            [
                bytes([_KIND_INTEREST]),
                _field(_T_NAME, _encode_name(pkt.name)),
                _field(_T_CAN_BE_PREFIX, b"\x01" if pkt.can_be_prefix else b"\x00"),
                _field(_T_NONCE, pkt.nonce.to_bytes(4, "big")),
                _field(_T_LIFETIME, _varint(pkt.lifetime_ms)),
            ]
        )
    if isinstance(pkt, Data):
        return b"".join(
            [
                bytes([_KIND_DATA]),
                _field(_T_NAME, _encode_name(pkt.name.base)),
                _field(_T_VERSION, _varint(pkt.name.version)),
                _field(_T_CHUNK, _varint(pkt.name.chunk)),
                _field(_T_FINAL_CHUNK, _varint(pkt.final_chunk)),
                _field(_T_FRESHNESS, _varint(pkt.freshness_ms)),
                _field(_T_CONTENT, pkt.content),
                _field(_T_TAG, pkt.integrity_tag),
            ]
        )
    if isinstance(pkt, Nack):
        return b"".join(
            [
                bytes([_KIND_NACK]),
                _field(_T_NAME, _encode_name(pkt.interest_name)),
                _field(_T_REASON, bytes([pkt.reason.value])),
            ]
        )
    raise TypeError(f"not a packet: {pkt!r}")


def encoded_size(pkt: Packet) -> int:
    """Length of ``encode_packet(pkt)`` without building the bytes."""
    if isinstance(pkt, (Interest, Data)):
        return pkt._wire_size
    if isinstance(pkt, Nack):
        return 1 + _field_size(pkt.interest_name._tlv_len) + _field_size(1)
    raise TypeError(f"not a packet: {pkt!r}")


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def eof(self) -> bool:
        return self.pos >= len(self.buf)

    def byte(self) -> int:
        if self.pos >= len(self.buf):
            raise MalformedPacket("truncated packet")
        b = self.buf[self.pos]
        self.pos += 1
        return b

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise MalformedPacket("truncated packet")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def varint(self) -> int:
        shift = 0
        value = 0
        while True:
            b = self.byte()
            value |= (b & 0x7F) << shift
            if not b & 0x80:
                if b == 0 and shift:
                    # A zero final byte adds nothing: the encoder never
                    # writes it, so accepting it would give one value two
                    # encodings.
                    raise MalformedPacket("overlong varint")
                if value >> 64:
                    raise MalformedPacket("varint too long")
                return value
            shift += 7
            if shift > 63:
                raise MalformedPacket("varint too long")


def _decode_name(buf: bytes) -> Name:
    r = _Reader(buf)
    count = r.varint()
    components = []
    for _ in range(count):
        n = r.varint()
        if n == 0:
            raise MalformedPacket("empty name component")
        components.append(r.take(n))
    if not r.eof():
        raise MalformedPacket("trailing bytes in name field")
    return Name(tuple(components))


def _read_fields(r: _Reader) -> dict[int, bytes]:
    fields: dict[int, bytes] = {}
    last_tag = 0
    while not r.eof():
        tag = r.byte()
        if tag in fields:
            raise MalformedPacket(f"duplicate field tag {tag}")
        if tag <= last_tag:
            raise MalformedPacket("field tags out of order")
        last_tag = tag
        length = r.varint()
        fields[tag] = r.take(length)
    return fields


def _require(fields: dict[int, bytes], tags: tuple[int, ...]) -> None:
    if set(fields) != set(tags):
        raise MalformedPacket("unexpected or missing field tags")


def _decode_varint_field(buf: bytes) -> int:
    r = _Reader(buf)
    value = r.varint()
    if not r.eof():
        raise MalformedPacket("trailing bytes in varint field")
    return value


def decode_packet(raw: bytes) -> Packet:
    """Inverse of ``encode_packet``; raises MalformedPacket on anything else."""
    if len(raw) == 0:
        raise MalformedPacket("empty packet")
    r = _Reader(raw)
    kind = r.byte()
    fields = _read_fields(r)
    if kind == _KIND_INTEREST:
        _require(fields, (_T_NAME, _T_CAN_BE_PREFIX, _T_NONCE, _T_LIFETIME))
        flag = fields[_T_CAN_BE_PREFIX]
        if flag not in (b"\x00", b"\x01"):
            raise MalformedPacket("bad can_be_prefix flag")
        nonce_bytes = fields[_T_NONCE]
        if len(nonce_bytes) != 4:
            raise MalformedPacket("bad nonce length")
        return Interest(
            name=_decode_name(fields[_T_NAME]),
            can_be_prefix=flag == b"\x01",
            nonce=int.from_bytes(nonce_bytes, "big"),
            lifetime_ms=_decode_varint_field(fields[_T_LIFETIME]),
        )
    if kind == _KIND_DATA:
        _require(
            fields,
            (_T_NAME, _T_VERSION, _T_CHUNK, _T_FINAL_CHUNK, _T_FRESHNESS, _T_CONTENT, _T_TAG),
        )
        tag = fields[_T_TAG]
        if len(tag) != TAG_LEN:
            raise MalformedPacket("bad integrity tag length")
        try:
            name = VersionedChunkName(
                base=_decode_name(fields[_T_NAME]),
                version=_decode_varint_field(fields[_T_VERSION]),
                chunk=_decode_varint_field(fields[_T_CHUNK]),
            )
            return Data(
                name=name,
                content=fields[_T_CONTENT],
                final_chunk=_decode_varint_field(fields[_T_FINAL_CHUNK]),
                freshness_ms=_decode_varint_field(fields[_T_FRESHNESS]),
                integrity_tag=tag,
            )
        except (ValueError, MalformedName) as exc:
            raise MalformedPacket(str(exc)) from exc
    if kind == _KIND_NACK:
        _require(fields, (_T_NAME, _T_REASON))
        reason_bytes = fields[_T_REASON]
        if len(reason_bytes) != 1:
            raise MalformedPacket("bad reason length")
        try:
            reason = NackReason(reason_bytes[0])
        except ValueError as exc:
            raise MalformedPacket("unknown nack reason") from exc
        return Nack(interest_name=_decode_name(fields[_T_NAME]), reason=reason)
    raise MalformedPacket(f"unknown packet kind {kind}")
