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
