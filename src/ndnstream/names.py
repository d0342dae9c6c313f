"""Hierarchical content names and the versioned chunk naming convention.

Names are immutable tuples of non-empty byte-string components. The text
form joins components with "/" and percent-escapes "/", "%" and any byte
outside printable ASCII, so every name round-trips through its text form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    CS and the PIT is hashed once however often it is looked up.
    """

    components: tuple[bytes, ...] = ()
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for c in self.components:
            if not isinstance(c, bytes) or len(c) == 0:
                raise MalformedName("components must be non-empty byte strings")
        object.__setattr__(self, "_hash", hash(self.components))

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


def _checked_name(components: tuple[bytes, ...]) -> Name:
    """A name from components the caller has already checked, built
    without running ``Name.__post_init__``."""
    name = object.__new__(Name)
    object.__setattr__(name, "components", components)
    object.__setattr__(name, "_hash", hash(components))
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


def name_is_prefix_of(a: Name, b: Name) -> bool:
    """True iff a's components are a leading sub-list of b's."""
    if len(a.components) > len(b.components):
        return False
    return b.components[: len(a.components)] == a.components


def chunk_name(base: Name, version: int, chunk: int) -> Name:
    """The full name of one chunk: the base plus "v=<version>" and "c=<chunk>".

    The base is a checked name and neither marker can be empty, so the
    result skips re-validation.
    """
    return _checked_name(base.components + (b"v=%d" % version, b"c=%d" % chunk))


def _is_marker(component: bytes) -> bool:
    return component.startswith(b"v=") or component.startswith(b"c=")


@dataclass(frozen=True)
class VersionedChunkName:
    """A base name plus explicit version and chunk-index components.

    The full form appends "v=<version>" and "c=<chunk>" components to the
    base; the base itself must not carry either marker.
    """

    base: Name
    version: int
    chunk: int

    def __post_init__(self) -> None:
        if self.version < 0 or self.chunk < 0:
            raise MalformedName("version and chunk must be non-negative")
        if any(_is_marker(c) for c in self.base.components):
            raise MalformedName("base name may not contain v=/c= components")

    def full(self) -> Name:
        return chunk_name(self.base, self.version, self.chunk)

    def __str__(self) -> str:
        return name_format(self.full())

