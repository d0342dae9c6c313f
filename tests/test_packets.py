import hashlib
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import example, given, settings, strategies as st

from ndnstream import names, packets
from ndnstream.errors import MalformedName
from ndnstream.names import Name, VersionedChunkName, _encode_name, name_parse
from ndnstream.packets import (
    Data,
    Interest,
    KeyMaterial,
    Nack,
    NackReason,
    chunk_interest,
    sign_data,
    sign_file,
    verify_data,
)
from ndnstream.wire import decode_packet, encode_packet, encoded_size

from conftest import examples


def small_data():
    return Data(
        VersionedChunkName(name_parse("/f"), 1, 0),
        content=b"abc",
        final_chunk=2,
        freshness_ms=500,
    )


def test_sign_then_verify(key):
    signed = sign_data(small_data(), key)
    assert verify_data(signed, key)


def test_verify_with_other_key_fails(key):
    signed = sign_data(small_data(), key)
    other = KeyMaterial("other", b"different")
    assert not verify_data(signed, other)


def test_any_single_bit_flip_in_content_falsifies(key):
    signed = sign_data(small_data(), key)
    for i in range(len(signed.content)):
        for bit in range(8):
            mutated = bytearray(signed.content)
            mutated[i] ^= 1 << bit
            tampered = Data(
                signed.name,
                bytes(mutated),
                signed.final_chunk,
                signed.freshness_ms,
                signed.integrity_tag,
            )
            assert not verify_data(tampered, key)


def test_signed_field_changes_falsify(key):
    signed = sign_data(small_data(), key)
    renamed = Data(
        VersionedChunkName(name_parse("/g"), 1, 0),
        signed.content,
        signed.final_chunk,
        signed.freshness_ms,
        signed.integrity_tag,
    )
    assert not verify_data(renamed, key)
    retagged = Data(signed.name, signed.content, signed.final_chunk + 1, signed.freshness_ms, signed.integrity_tag)
    assert not verify_data(retagged, key)
    refreshed = Data(signed.name, signed.content, signed.final_chunk, signed.freshness_ms + 1, signed.integrity_tag)
    assert not verify_data(refreshed, key)


def test_key_requires_secret():
    with pytest.raises(ValueError):
        KeyMaterial("empty", b"")


def test_chunk_beyond_final_rejected():
    with pytest.raises(ValueError):
        Data(VersionedChunkName(name_parse("/f"), 1, 3), b"", final_chunk=2)


@pytest.mark.parametrize(
    "field,value",
    [("name", name_parse("/g")), ("can_be_prefix", True), ("nonce", 9), ("lifetime_ms", 1)],
)
def test_interest_fields_are_frozen(field, value):
    interest = Interest(name_parse("/f"), nonce=3)
    with pytest.raises(FrozenInstanceError):
        setattr(interest, field, value)
    assert interest == Interest(name_parse("/f"), nonce=3)


@pytest.mark.parametrize(
    "field,value",
    [("content", b"x"), ("final_chunk", 5), ("freshness_ms", 1), ("integrity_tag", bytes(32))],
)
def test_data_fields_are_frozen(field, value):
    data = Data(VersionedChunkName(name_parse("/f"), 1, 0), b"c", final_chunk=2)
    with pytest.raises(FrozenInstanceError):
        setattr(data, field, value)
    assert data == Data(VersionedChunkName(name_parse("/f"), 1, 0), b"c", final_chunk=2)


def test_constructors_check_like_the_generated_ones():
    vc = VersionedChunkName(name_parse("/f"), 1, 0)
    for kwargs, message in (
        ({"nonce": 1 << 32}, "nonce must fit in 32 bits"),
        ({"nonce": -1}, "nonce must fit in 32 bits"),
        ({"lifetime_ms": 1 << 64}, "lifetime_ms must lie in"),
    ):
        with pytest.raises(ValueError, match=message):
            Interest(name_parse("/f"), **kwargs)
    for kwargs, message in (
        ({"final_chunk": 1 << 64}, "final_chunk must lie in"),
        ({"freshness_ms": -1}, "freshness_ms must lie in"),
        ({"integrity_tag": b"short"}, "integrity tag must be 32 bytes"),
    ):
        with pytest.raises(ValueError, match=message):
            Data(vc, **kwargs)
    interest = Interest(name_parse("/f"), True, 7, 100)
    assert repr(interest) == (
        f"Interest(name={name_parse('/f')!r}, can_be_prefix=True, nonce=7, lifetime_ms=100)"
    )
    moved = replace(interest, lifetime_ms=1 << 20)
    assert moved.lifetime_ms == 1 << 20 and moved.nonce == 7
    assert encoded_size(moved) == len(encode_packet(moved))
    data = Data(vc, b"c", 3)
    assert replace(data, final_chunk=4) == Data(vc, b"c", 4)
    assert data._wire_size == len(encode_packet(data)) and data._verified_by is None

    # Objects whose slots are stored through their member descriptors keep
    # the frozen-dataclass contract of their constructor-built equals.
    base = name_parse("/f/g")
    filed = VersionedChunkName.file_chunks(base, 3, 2)
    [signed, _] = sign_file(filed, [b"ab", b"c"], 500, FILE_KEY)
    full = base.components + (b"v=3", b"c=0")
    built = [
        # chunk_name of an equal but distinct base builds with _checked_name
        (names.chunk_name(Name(base.components), 3, 0), Name(full)),
        (filed[0].full(), Name(full)),
        (filed[0], VersionedChunkName(base, 3, 0)),
        (interest, Interest(name_parse("/f"), True, 7, 100)),
        (signed, Data(filed[0], b"ab", 1, 500, signed.integrity_tag)),
    ]
    for obj, ref in built:
        assert obj == ref and hash(obj) == hash(ref) and repr(obj) == repr(ref)
        for f in fields(obj):
            with pytest.raises(FrozenInstanceError):
                setattr(obj, f.name, getattr(ref, f.name))
        copy = replace(obj)
        assert copy == obj and hash(copy) == hash(obj) and repr(copy) == repr(obj)
    # Every compared field feeds the hash, as in a generated __hash__.
    assert hash(interest) == hash((name_parse("/f"), True, 7, 100))
    assert hash(signed) == hash((filed[0], b"ab", 1, 500, signed.integrity_tag))
    assert filed[0].full() is names.chunk_name(base, 3, 0)
    assert replace(base)._chunks is None and replace(filed[0].full())._chunks is None
    assert verify_data(signed, FILE_KEY) and signed._wire_size == len(encode_packet(signed))
    copy = replace(signed)
    assert copy._wire_size == len(encode_packet(copy)) and copy._verified_by is None


def _signed(key, base: str, version: int, chunk: int) -> Data:
    vc = VersionedChunkName(name_parse(base), version, chunk)
    return sign_data(Data(vc, b"same content", final_chunk=20), key)


def _renamed(data: Data, base: str, version: int, chunk: int) -> Data:
    vc = VersionedChunkName(name_parse(base), version, chunk)
    return Data(vc, data.content, data.final_chunk, data.freshness_ms, data.integrity_tag)


def test_tag_binds_component_boundaries(key):
    # Both pairs concatenate to the same component bytes; only the
    # length-prefixed TLV name tells them apart.
    signed = _signed(key, "/a/bc", 1, 0)
    assert verify_data(_renamed(signed, "/a/bc", 1, 0), key)
    assert not verify_data(_renamed(signed, "/ab/c", 1, 0), key)
    signed = _signed(key, "/a/b", 11, 0)
    assert not verify_data(_renamed(signed, "/a/b", 1, 10), key)
    signed = _signed(key, "/a/b", 1, 10)
    assert not verify_data(_renamed(signed, "/a/b", 11, 0), key)


def test_tag_covers_tlv_name_content_and_trailer(key, monkeypatch):
    # Signing never renders the name as text.
    def no_text(component):
        raise AssertionError("name escaped while signing")

    monkeypatch.setattr(names, "_escape", no_text)
    data = small_data()
    h = hashlib.blake2b(key=key.secret, digest_size=32)
    h.update(
        _encode_name(data.name.full())
        + data.content
        + data.final_chunk.to_bytes(8, "big")
        + data.freshness_ms.to_bytes(8, "big")
    )
    signed = sign_data(data, key)
    assert signed.integrity_tag == h.digest()
    assert verify_data(signed, key)


# Names whose TLV length falls on either side of 0x80, where its varint
# grows a byte: one component of 120-130 bytes spans 122-133.
_SIZED_NAMES = st.one_of(
    st.lists(st.binary(min_size=1, max_size=8), max_size=4),
    st.lists(st.binary(min_size=120, max_size=130), min_size=1, max_size=1),
    st.lists(st.binary(min_size=1, max_size=200), max_size=3),
).map(lambda components: Name(tuple(components)))


@settings(max_examples=examples(100), deadline=None)
@given(
    name=_SIZED_NAMES,
    nonce=st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1)),
)
@example(name=Name((b"x" * 125,)), nonce=0)  # TLV length 127
@example(name=Name((b"x" * 126,)), nonce=2**32 - 1)  # TLV length 128
def test_chunk_interest_equals_the_checked_constructor(name, nonce):
    built, checked = chunk_interest(name, nonce), Interest(name, False, nonce)
    assert built == checked and hash(built) == hash(checked) and repr(built) == repr(checked)
    assert built._wire_size == checked._wire_size == len(encode_packet(built))
    nack = Nack(name, NackReason.NO_ROUTE)
    assert encoded_size(nack) == len(encode_packet(nack))


FILE_KEY = KeyMaterial("file-key", b"one-pass")
# Short components, and long ones whose length takes a 2-byte varint.
_COMPONENT = st.one_of(st.binary(min_size=1, max_size=8), st.binary(min_size=120, max_size=200))
_PLAIN = _COMPONENT.filter(lambda c: not c.startswith((b"v=", b"c=")))


@settings(max_examples=examples(60), deadline=None)
@given(
    components=st.lists(_PLAIN, min_size=1, max_size=130),
    version=st.integers(0, 2**64 - 1),
    count=st.integers(1, 200),
    payload=st.binary(max_size=40),
    freshness_ms=st.integers(0, 2**64 - 1),
)
# 126 base components plus v= and c= make 128: the count takes 2 bytes.
@example(components=[b"x"] * 126, version=2**64 - 1, count=129, payload=b"abc", freshness_ms=2**64 - 1)
@example(components=[b"y" * 128] * 130, version=0, count=128, payload=b"", freshness_ms=0)
@example(components=[b"z"] * 125, version=127, count=2, payload=b"p", freshness_ms=1)
def test_file_path_matches_chunk_path(components, version, count, payload, freshness_ms):
    base = Name(tuple(components))
    pieces = [payload[k % (len(payload) + 1) :] for k in range(count)]
    filed_names = VersionedChunkName.file_chunks(base, version, count)
    signed = sign_file(filed_names, pieces, freshness_ms, FILE_KEY)
    assert len(filed_names) == len(signed) == count
    for k, (vc, piece, data) in enumerate(zip(filed_names, pieces, signed)):
        ref = VersionedChunkName(base, version, k)
        assert vc == ref and hash(vc) == hash(ref) and repr(vc) == repr(ref)
        assert vc.full() == ref.full() and hash(vc.full()) == hash(ref.full())
        assert vc.full_tlv() == _encode_name(vc.full()) == ref.full_tlv()
        ref_data = sign_data(Data(ref, piece, count - 1, freshness_ms), FILE_KEY)
        assert data == ref_data and data.integrity_tag == ref_data.integrity_tag
        assert data.name is vc and verify_data(data, FILE_KEY)
    assert decode_packet(encode_packet(signed[-1])) == signed[-1]


@given(
    components=st.lists(_PLAIN, max_size=5),
    at=st.integers(0, 5),
    marker=st.sampled_from([b"v=", b"c="]),
    suffix=st.binary(max_size=4),
)
def test_file_path_rejects_marker_base_like_chunk_path(components, at, marker, suffix):
    components.insert(at, marker + suffix)
    base = Name(tuple(components))
    with pytest.raises(MalformedName) as per_chunk:
        VersionedChunkName(base, 1, 0)
    with pytest.raises(MalformedName) as per_file:
        VersionedChunkName.file_chunks(base, 1, 3)
    assert str(per_file.value) == str(per_chunk.value)


def test_file_chunks_needs_chunk_zero():
    # Every file has a chunk 0, so a file of no chunks has no names.
    with pytest.raises(MalformedName):
        VersionedChunkName.file_chunks(name_parse("/f"), 1, 0)


# -- the verification memo ----------------------------------------------------------------------


@pytest.fixture
def recomputes(monkeypatch):
    """The packets whose tag was recomputed (``sign_data`` counts too, so
    tests clear the list after signing)."""
    calls = []
    real = packets._tag

    def counting(data, key):
        calls.append(data)
        return real(data, key)

    monkeypatch.setattr(packets, "_tag", counting)
    return calls


def _tampered(data: Data) -> Data:
    body = bytearray(data.content)
    body[0] ^= 0x01
    return Data(data.name, bytes(body), data.final_chunk, data.freshness_ms, data.integrity_tag)


def test_verified_packet_is_not_rehashed_under_same_key(key, recomputes):
    signed = sign_data(small_data(), key)
    recomputes.clear()
    assert verify_data(signed, key) and verify_data(signed, key) and verify_data(signed, key)
    assert recomputes == [signed]


def test_verified_packet_still_rejected_under_other_key(key, recomputes):
    signed = sign_data(small_data(), key)
    recomputes.clear()
    assert verify_data(signed, key)
    other = KeyMaterial("other", b"different")
    assert not verify_data(signed, other)
    assert not verify_data(signed, other)
    assert verify_data(signed, key)
    assert len(recomputes) == 3


def test_equal_but_distinct_key_recomputes_and_accepts(key, recomputes):
    signed = sign_data(small_data(), key)
    recomputes.clear()
    assert verify_data(signed, key)
    twin = KeyMaterial(key.key_id, key.secret)
    assert twin == key and twin is not key
    assert verify_data(signed, twin)
    assert len(recomputes) == 2
    # The slot holds the last key object only, so the first one recomputes.
    assert verify_data(signed, key)
    assert len(recomputes) == 3


def test_tampered_copy_of_verified_packet_rejected(key):
    signed = sign_data(small_data(), key)
    assert verify_data(signed, key)
    assert not verify_data(_tampered(signed), key)
    assert not verify_data(replace(signed, content=b"abd"), key)
    assert not verify_data(replace(signed, freshness_ms=signed.freshness_ms + 1), key)
    assert verify_data(signed, key)


def test_copies_start_unverified(key, recomputes):
    signed = sign_data(small_data(), key)
    recomputes.clear()
    assert verify_data(signed, key)
    copies = [
        decode_packet(encode_packet(signed)),
        replace(signed),
        Data(signed.name, signed.content, signed.final_chunk, signed.freshness_ms, signed.integrity_tag),
    ]
    for copy in copies:
        assert copy == signed and copy is not signed
        assert copy._verified_by is None
        assert verify_data(copy, key)
    assert recomputes == [signed, *copies]


def test_bad_packet_rejected_every_time(key, recomputes):
    bad = _tampered(sign_data(small_data(), key))
    recomputes.clear()
    for _ in range(3):
        assert not verify_data(bad, key)
    assert recomputes == [bad] * 3
    assert bad._verified_by is None


def test_signing_leaves_packets_unverified(key, recomputes):
    signed = sign_data(small_data(), key)
    vc = VersionedChunkName.file_chunks(name_parse("/f"), 1, 3)
    filed = sign_file(vc, [b"a", b"b", b"c"], 500, key)
    recomputes.clear()
    for data in [signed, *filed]:
        assert data._verified_by is None
        assert verify_data(data, key)
    assert recomputes == [signed, *filed]


def test_verification_leaves_value_and_wire_unchanged(key):
    signed = sign_data(small_data(), key)
    twin = replace(signed)
    before = (hash(signed), repr(signed), encode_packet(signed))
    assert verify_data(signed, key) and signed._verified_by is key
    assert (hash(signed), repr(signed), encode_packet(signed)) == before
    assert signed == twin and hash(signed) == hash(twin) and repr(signed) == repr(twin)
    assert encoded_size(signed) == encoded_size(twin) == len(before[2])
    assert "_verified_by" not in repr(signed)
