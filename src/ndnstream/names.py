"""Hierarchical content names and the versioned chunk naming convention.

Names are immutable tuples of non-empty byte-string components. The text
form joins components with "/" and percent-escapes "/", "%" and any byte
outside printable ASCII, so every name round-trips through its text form.
The TLV form (``_encode_name``) is a varint component count followed by
length-prefixed components; the wire format carries it and integrity tags
are computed over it.

``VersionedChunkName.file_chunks`` names every chunk of one file version
at once; each name equals the one ``VersionedChunkName`` builds. It also
records those full names on the base ``Name`` itself, and ``chunk_name``
hands them back for that base and version. So a published chunk has one
``Name`` object, shared by the producer's store, the consumers' interests,
the prefetcher's plans and the gateway's PIT and CS wherever they name it
from the producer's base: their dict lookups and base checks hit on
identity. The record lives and dies with the base; it takes no part in
``==``, ``hash`` or ``repr``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .errors import MalformedName

_SAFE = frozenset(range(0x21, 0x7F)) - {ord("/"), ord("%")}
_HEX = "0123456789ABCDEF"


def _escape(component: bytes) -> str:
    out = []
    for b in component:
        if b in _SAFE:
            out.append(chr(b))
        else:
            out.append("%" + _HEX[b >> 4] + _HEX[b & 0xF])
    return "".join(out)


_ONE_BYTE = [bytes((i,)) for i in range(0x80)]

_new = object.__new__


def _slot_setters(cls: type) -> list:
    """Each field's slot-descriptor ``__set__``, bound, in field order: it stores
    past the frozen ``__setattr__`` at about half the cost of ``object``'s own setter."""
    return [vars(cls)[f.name].__set__ for f in fields(cls)]


def _varint_size(value: int) -> int:
    """``len(_varint(value))`` without building the bytes."""
    if value < 0x80:
        return 1  # every name length and most counts
    size = 1
    while value > 0x7F:
        value >>= 7
        size += 1
    return size


def _varint(value: int) -> bytes:
    """Unsigned LEB128: seven bits per byte, low bits first."""
    if value < 0:
        raise ValueError("varint must be non-negative")
    if value < 0x80:
        return _ONE_BYTE[value]  # every name length and most counts
    out = bytearray()
    while True:
        b = value & 0x7F
        value >>= 7
        if value:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def _unescape(text: str) -> bytes:
    out = bytearray()
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "%":
            hex_part = text[i + 1 : i + 3]
            if len(hex_part) != 2 or any(c not in "0123456789abcdefABCDEF" for c in hex_part):
                raise MalformedName(f"bad escape in component: {text!r}")
            out.append(int(hex_part, 16))
            i += 3
        else:
            code = ord(ch)
            if code > 0x7E or code < 0x21 or ch == "/":
                raise MalformedName(f"unescaped byte in component: {text!r}")
            out.append(code)
            i += 1
    return bytes(out)


@dataclass(frozen=True, slots=True)
class Name:
    """An ordered sequence of non-empty byte-string components.

    The hash is computed once, at construction, so a name that keys the
    CS and the PIT is hashed once however often it is looked up. So is
    the length of the TLV form, ``_tlv_len``, which sizes every packet
    that carries the name.

    ``_chunks`` is ``(version, full names by chunk)`` on a base that
    ``VersionedChunkName.file_chunks`` last named, else None.
    """

    components: tuple[bytes, ...] = ()
    _hash: int = field(init=False, compare=False, repr=False)
    _tlv_len: int = field(init=False, compare=False, repr=False)
    _chunks: tuple[int, list[Name]] | None = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        size = _varint_size(len(self.components))
        for c in self.components:
            if not isinstance(c, bytes) or len(c) == 0:
                raise MalformedName("components must be non-empty byte strings")
            size += _varint_size(len(c)) + len(c)
        _n_hash(self, hash(self.components))
        _n_tlv_len(self, size)
        _n_chunks(self, None)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Name:
            return NotImplemented
        return self._hash == other._hash and self.components == other.components

    def __len__(self) -> int:
        return len(self.components)

    def __str__(self) -> str:
        return name_format(self)

    def append(self, *components: bytes | str) -> "Name":
        extra = tuple(c.encode() if isinstance(c, str) else c for c in components)
        return Name(self.components + extra)


_n_components, _n_hash, _n_tlv_len, _n_chunks = _slot_setters(Name)


def _checked_name(components: tuple[bytes, ...], tlv_len: int) -> Name:
    """A name from components the caller has already checked, and the
    length of its TLV form, built without running ``Name.__post_init__``."""
    name = _new(Name)
    _n_components(name, components)
    _n_hash(name, hash(components))
    _n_tlv_len(name, tlv_len)
    _n_chunks(name, None)
    return name


ROOT = Name()


def name_parse(text: str) -> Name:
    """Parse a "/"-separated text name; "/" alone is the root name."""
    if not text.startswith("/"):
        raise MalformedName(f"name must start with '/': {text!r}")
    if text == "/":
        return ROOT
    parts = text[1:].split("/")
    components = []
    for part in parts:
        if part == "":
            raise MalformedName(f"empty component in {text!r}")
        components.append(_unescape(part))
    return Name(tuple(components))


def name_format(name: Name) -> str:
    if not name.components:
        return "/"
    return "/" + "/".join(_escape(c) for c in name.components)


def _encode_components(components: tuple[bytes, ...], count: int) -> bytes:
    """The count varint, then each component with its length. ``count``
    exceeds ``len(components)`` when the caller appends the rest."""
    parts = [_varint(count)]
    for c in components:
        parts.append(_varint(len(c)))
        parts.append(c)
    return b"".join(parts)


def _encode_name(name: Name) -> bytes:
    return _encode_components(name.components, len(name.components))


def name_is_prefix_of(a: Name, b: Name) -> bool:
    """True iff a's components are a leading sub-list of b's."""
    if len(a.components) > len(b.components):
        return False
    return b.components[: len(a.components)] == a.components


def chunk_name(base: Name, version: int, chunk: int) -> Name:
    """The full name of one chunk: the base plus "v=<version>" and "c=<chunk>".

    When ``VersionedChunkName.file_chunks`` last named this very base
    object at this version and the chunk exists, the result is the name it
    built, the one the producer stores the chunk under. Otherwise (another
    version, a chunk past the end, an equal base decoded or built by hand)
    a new name is built: the base is a checked name and neither marker can
    be empty, so it skips re-validation. Each marker is at most 22 bytes,
    so its length takes one byte, and the TLV length follows from the base's.
    """
    published = base._chunks
    if published is not None and published[0] == version and 0 <= chunk < len(published[1]):
        return published[1][chunk]
    v, c = b"v=%d" % version, b"c=%d" % chunk
    tlv_len = base._tlv_len + 2 + len(v) + len(c)
    count = len(base.components)
    if count >= 0x7E:  # the component count's varint may grow a byte
        tlv_len += _varint_size(count + 2) - _varint_size(count)
    return _checked_name(base.components + (v, c), tlv_len)


# Versions, chunk indices and every packet integer but the nonce lie below
# this: the wire carries them as varints of at most 64 bits, and the tag
# trailer as 8-byte integers.
_U64_LIMIT = 1 << 64


def _is_marker(component: bytes) -> bool:
    return component.startswith(b"v=") or component.startswith(b"c=")


def _check_chunk_name(base: Name, version: int, chunk: int) -> None:
    if not (0 <= version < _U64_LIMIT and 0 <= chunk < _U64_LIMIT):
        raise MalformedName("version and chunk must lie in [0, 2**64)")
    if any(_is_marker(c) for c in base.components):
        raise MalformedName("base name may not contain v=/c= components")


@dataclass(frozen=True, slots=True)
class VersionedChunkName:
    """A base name plus explicit version and chunk-index components.

    The full form appends "v=<version>" and "c=<chunk>" components to the
    base; the base itself must not carry either marker. It is built once,
    at construction, so every table keyed by it shares one ``Name``, and
    so is its TLV form, which every integrity tag on the chunk covers.
    """

    base: Name
    version: int
    chunk: int
    _full: Name = field(init=False, compare=False, repr=False)
    _full_tlv: bytes = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        _check_chunk_name(self.base, self.version, self.chunk)
        full = chunk_name(self.base, self.version, self.chunk)
        _v_full(self, full)
        _v_full_tlv(self, _encode_name(full))

    @classmethod
    def file_chunks(cls, base: Name, version: int, count: int) -> list[VersionedChunkName]:
        """``[VersionedChunkName(base, version, k) for k in range(count)]``
        for ``count >= 1`` (every file has a chunk 0).

        The base and version are checked once, with the last chunk index,
        and the TLV head (component count, base components, "v=" marker) is
        encoded once; each name appends only its "c=" component. The full
        names are recorded on ``base``, replacing any earlier version's, so
        ``chunk_name`` returns them (see the module docstring).
        """
        _check_chunk_name(base, version, count - 1)
        head = base.components + (b"v=%d" % version,)
        head_tlv = _encode_components(head, len(head) + 1)
        names = []
        fulls = []
        for k in range(count):
            marker = b"c=%d" % k  # at most 22 bytes: a one-byte length
            vc = _new(cls)
            _v_base(vc, base)
            _v_version(vc, version)
            _v_chunk(vc, k)
            tlv = head_tlv + _ONE_BYTE[len(marker)] + marker
            full = _checked_name(head + (marker,), len(tlv))
            _v_full(vc, full)
            _v_full_tlv(vc, tlv)
            names.append(vc)
            fulls.append(full)
        _n_chunks(base, (version, fulls))
        return names

    def full(self) -> Name:
        return self._full

    def full_tlv(self) -> bytes:
        """The full name's TLV form, ``_encode_name(self.full())``."""
        return self._full_tlv

    def __str__(self) -> str:
        return name_format(self.full())


_v_base, _v_version, _v_chunk, _v_full, _v_full_tlv = _slot_setters(VersionedChunkName)
