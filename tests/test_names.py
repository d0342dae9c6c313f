import random
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, strategies as st

from ndnstream.errors import MalformedName
from ndnstream.names import (
    Name,
    VersionedChunkName,
    _encode_name,
    chunk_name,
    name_format,
    name_is_prefix_of,
    name_parse,
)

from ndnstream.packets import Data, Interest
from ndnstream.wire import decode_packet, encode_packet

from conftest import random_name


def test_parse_example_path():
    name = name_parse("/ndn/web/video/foo/playlist.m3u8")
    assert len(name) == 5
    assert name.components == (b"ndn", b"web", b"video", b"foo", b"playlist.m3u8")


def test_parse_root():
    assert name_parse("/") == Name()
    assert len(name_parse("/")) == 0


def test_parse_rejects_empty_component():
    with pytest.raises(MalformedName):
        name_parse("/a//b")


def test_parse_rejects_missing_slash():
    with pytest.raises(MalformedName):
        name_parse("ndn/web")


def test_parse_rejects_bad_escape():
    with pytest.raises(MalformedName):
        name_parse("/a/%zz")
    with pytest.raises(MalformedName):
        name_parse("/a/%4")


def test_escaping_round_trip_special_bytes():
    name = Name((b"a/b", b"\x00\xff", b"100%"))
    text = name_format(name)
    assert "/" in text
    assert name_parse(text) == name


def test_prefix_examples():
    a = name_parse("/ndn/web")
    b = name_parse("/ndn/web/video/foo")
    assert name_is_prefix_of(a, b)
    assert not name_is_prefix_of(b, a)
    assert name_is_prefix_of(name_parse("/"), b)
    assert not name_is_prefix_of(name_parse("/ndn/webx"), name_parse("/ndn/web/video"))


def test_prefix_reflexive_and_transitive():
    rng = random.Random(42)
    for _ in range(200):
        n = random_name(rng)
        assert name_is_prefix_of(n, n)
    for _ in range(200):
        a = random_name(rng, 3)
        b = Name(a.components + (b"x",))
        c = Name(b.components + (b"y", b"z"))
        assert name_is_prefix_of(a, b) and name_is_prefix_of(b, c)
        assert name_is_prefix_of(a, c)


def test_prefix_matches_component_comparison_oracle():
    rng = random.Random(7)
    for _ in range(500):
        a, b = random_name(rng), random_name(rng)
        expected = b.components[: len(a.components)] == a.components and len(a) <= len(b)
        assert name_is_prefix_of(a, b) == expected


@given(
    st.lists(st.binary(min_size=1, max_size=16), max_size=6).map(
        lambda parts: Name(tuple(parts))
    )
)
def test_text_round_trip_property(name):
    assert name_parse(name_format(name)) == name


def test_versioned_full_form():
    vc = VersionedChunkName(name_parse("/a/b"), 3, 12)
    assert name_format(vc.full()) == "/a/b/v=3/c=12"
    assert chunk_name(name_parse("/a/b"), 3, 12) == vc.full()


_marker_free_base = st.lists(
    st.binary(min_size=1, max_size=12).filter(lambda c: not c.startswith((b"v=", b"c="))),
    max_size=5,
).map(lambda parts: Name(tuple(parts)))


@given(_marker_free_base, st.integers(0, 2**40), st.integers(0, 2**20))
def test_construction_paths_agree(base, version, chunk):
    built = chunk_name(base, version, chunk)
    parsed = name_parse(name_format(built))
    assert built == parsed and parsed == built
    assert hash(built) == hash(parsed)
    assert {built: 1}[parsed] == 1 and {parsed: 2}[built] == 2
    assert built == VersionedChunkName(base, version, chunk).full()
    assert repr(built) == f"Name(components={built.components!r})"


def _no_marker(component: bytes) -> bool:
    return not component.startswith((b"v=", b"c="))


_tlv_bases = st.one_of(
    _marker_free_base,
    # 126 components or more: two more make the count's varint grow a byte
    st.integers(120, 130).map(lambda n: Name((b"x",) * n)),
    # components of 128 bytes or more carry a two-byte length
    st.lists(st.binary(min_size=100, max_size=300).filter(_no_marker), max_size=2).map(
        lambda parts: Name(tuple(parts))
    ),
)


@given(
    _tlv_bases,
    st.integers(0, 2**64 - 1),
    st.integers(1, 40),
    st.binary(min_size=1, max_size=200),
)
def test_cached_tlv_length_matches_the_encoding(base, version, count, extra):
    def check(name: Name) -> None:
        assert name._tlv_len == len(_encode_name(name))

    check(base)
    check(name_parse(name_format(base)))
    check(base.append(extra))
    check(base.append("seg0.m4s", extra))
    built = chunk_name(base, version, count - 1)
    check(built)
    chunks = VersionedChunkName.file_chunks(base, version, count)
    for vc in chunks:
        check(vc.full())
        assert vc.full()._tlv_len == len(vc.full_tlv())
    check(VersionedChunkName(base, version, count - 1).full())
    check(decode_packet(encode_packet(Interest(built, nonce=7))).name)
    data = decode_packet(encode_packet(Data(chunks[-1], b"x", count - 1)))
    check(data.name.base)
    check(data.name.full())


def test_name_is_frozen_and_still_validated():
    name = name_parse("/a/b")
    with pytest.raises(FrozenInstanceError):
        name.components = (b"c",)
    with pytest.raises(MalformedName):
        Name((b"",))
    with pytest.raises(MalformedName):
        Name(("a",))
    with pytest.raises(MalformedName):
        name.append(b"")


def test_versioned_rejects_marker_in_base():
    with pytest.raises(MalformedName):
        VersionedChunkName(Name((b"a", b"v=1")), 1, 0)


def test_versioned_full_name_built_once():
    vc = VersionedChunkName(name_parse("/a/b"), 3, 12)
    assert vc.full() is vc.full()
    assert vc.full_tlv() == _encode_name(vc.full()) == b"\x04\x01a\x01b\x03v=3\x04c=12"
    assert repr(vc) == f"VersionedChunkName(base={vc.base!r}, version=3, chunk=12)"
    assert vc == VersionedChunkName(name_parse("/a/b"), 3, 12)
    assert hash(vc) == hash(VersionedChunkName(name_parse("/a/b"), 3, 12))
    moved = replace(vc, chunk=13)
    assert moved.full() == chunk_name(vc.base, 3, 13)
    assert moved.full_tlv() == _encode_name(moved.full())
    with pytest.raises(FrozenInstanceError):
        vc.chunk = 13


# -- one Name object per published chunk ----------------------------------------------------------


def _assert_built_anew(got: Name, base: Name, version: int, chunk: int, published) -> None:
    """``got`` is the chunk's name built as if nothing were published, and
    none of the published objects."""
    fresh = Name(base.components + (b"v=%d" % version, b"c=%d" % chunk))
    assert got == fresh and fresh == got and hash(got) == hash(fresh)
    assert got._tlv_len == fresh._tlv_len == len(_encode_name(fresh))
    assert repr(got) == repr(fresh)
    assert all(got is not p for p in published)


@given(
    _tlv_bases,
    st.integers(0, 2**64 - 1),
    st.integers(1, 40),
    st.integers(0, 2**20),
    st.integers(1, 40),
)
def test_published_chunk_names_are_shared(base, version, count, past, newer_count):
    other = version ^ 1  # another version, still below 2**64
    before = (hash(base), repr(base))
    names = VersionedChunkName.file_chunks(base, version, count)
    published = [vc.full() for vc in names]
    for k in range(count):
        assert chunk_name(base, version, k) is published[k]
        assert VersionedChunkName(base, version, k).full() is published[k]

    # The record takes no part in equality, hashing or repr.
    distinct = name_parse(name_format(base))
    assert distinct is not base and distinct._chunks is None
    assert (hash(base), repr(base)) == before == (hash(distinct), repr(distinct))
    assert base == distinct and distinct == base and {distinct: 1}[base] == 1

    # A chunk past the end, another version, an equal but distinct base:
    # each is built anew, equal to the name built from nothing.
    end = count + past
    _assert_built_anew(chunk_name(base, version, end), base, version, end, published)
    for k in (0, count - 1):
        _assert_built_anew(chunk_name(base, other, k), base, other, k, published)
        _assert_built_anew(chunk_name(distinct, version, k), base, version, k, published)

    # Naming another version switches the record to it.
    newer = [vc.full() for vc in VersionedChunkName.file_chunks(base, other, newer_count)]
    for k in range(newer_count):
        assert chunk_name(base, other, k) is newer[k]
    for k in range(count):
        _assert_built_anew(chunk_name(base, version, k), base, version, k, published + newer)
    assert (hash(base), repr(base)) == before
