import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from ndnstream.errors import MalformedName, MalformedPacket
from ndnstream.names import Name, VersionedChunkName, name_parse
from ndnstream.packets import (
    Data,
    Interest,
    KeyMaterial,
    Nack,
    NackReason,
    sign_data,
    sign_file,
    verify_data,
)
from ndnstream.wire import decode_packet, encode_packet, encoded_size

from conftest import examples, random_packet


def test_round_trip_simple_interest():
    interest = Interest(name_parse("/ndn/web"), can_be_prefix=True, nonce=0xDEADBEEF)
    assert decode_packet(encode_packet(interest)) == interest


def test_round_trip_data_and_nack():
    data = Data(
        VersionedChunkName(name_parse("/a/b"), 2, 1),
        content=b"payload",
        final_chunk=4,
        freshness_ms=1234,
        integrity_tag=bytes(range(32)),
    )
    assert decode_packet(encode_packet(data)) == data
    nack = Nack(name_parse("/a/b"), NackReason.NO_CONTENT)
    assert decode_packet(encode_packet(nack)) == nack


def test_encoding_deterministic():
    interest = Interest(name_parse("/x/y/z"), nonce=7)
    assert encode_packet(interest) == encode_packet(Interest(name_parse("/x/y/z"), nonce=7))


def test_data_overhead_bounded():
    # 1000 bytes of content must encode with bounded header overhead.
    vc = VersionedChunkName(name_parse("/ndn/web/video/foo/playlist.m3u8"), 1, 0)
    data = Data(vc, b"\xab" * 1000, final_chunk=3)
    encoded = len(encode_packet(data))
    assert 1000 < encoded < 1100


def test_empty_input_rejected():
    with pytest.raises(MalformedPacket):
        decode_packet(b"")


def test_unknown_kind_rejected():
    with pytest.raises(MalformedPacket):
        decode_packet(b"\x09\x01\x01\x00")


def test_round_trip_random_packets():
    rng = random.Random(1234)
    for _ in range(300):
        packet = random_packet(rng)
        raw = encode_packet(packet)
        assert decode_packet(raw) == packet
        assert len(raw) == encoded_size(packet)


def test_truncation_always_rejected():
    rng = random.Random(99)
    for _ in range(100):
        raw = encode_packet(random_packet(rng))
        with pytest.raises(MalformedPacket):
            decode_packet(raw[:-1])


def test_duplicate_field_rejected():
    interest = Interest(name_parse("/a"), nonce=1)
    raw = bytearray(encode_packet(interest))
    # append a duplicate of the final (lifetime) field
    raw += raw[-4:]
    with pytest.raises(MalformedPacket):
        decode_packet(bytes(raw))


def test_trailing_garbage_rejected():
    raw = encode_packet(Interest(name_parse("/a"), nonce=1)) + b"\xff"
    with pytest.raises(MalformedPacket):
        decode_packet(raw)


def test_encoding_injective_on_distinct_packets():
    rng = random.Random(4321)
    seen = {}
    for _ in range(400):
        packet = random_packet(rng)
        raw = encode_packet(packet)
        if raw in seen:
            assert seen[raw] == packet
        seen[raw] = packet
    # distinct packets must never collide
    packets = list(seen.values())
    assert len(set(seen.keys())) == len(packets)


def test_overlong_varints_rejected():
    # A multi-byte varint ending in 0x00 decodes to the value of its
    # shorter form, so accepting it would give one packet two encodings.
    raw = encode_packet(Interest(name_parse("/a"), nonce=1, lifetime_ms=4000))
    assert raw.hex() == "01" "0103010161" "020100" "030400000001" "0402a01f"
    padded = {
        "lifetime value": "01" "0103010161" "020100" "030400000001" "0403a09f00",
        "field length": "01" "0103010161" "020100" "030400000001" "048200a01f",
        "component count": "01" "010481000161" "020100" "030400000001" "0402a01f",
        "component length": "01" "010401810061" "020100" "030400000001" "0402a01f",
    }
    for where, hex_raw in padded.items():
        with pytest.raises(MalformedPacket, match="overlong"):
            decode_packet(bytes.fromhex(hex_raw))
    # A lone zero byte is the one encoding of 0 and stays accepted.
    zero = Interest(name_parse("/a"), nonce=1, lifetime_ms=0)
    assert decode_packet(encode_packet(zero)) == zero


def _edited(raw: bytes, edits) -> bytes:
    out = bytearray(raw)
    for op, pos, value in edits:
        if not out:
            break
        i = pos % len(out)
        if op == "flip":
            out[i] ^= value or 1
        elif op == "insert":
            out.insert(i, value)
        elif op == "delete":
            del out[i]
        else:  # "widen": pad the byte into a two-byte varint of the same value
            out[i : i + 1] = bytes([out[i] | 0x80, 0])
    return bytes(out)


_edits = st.lists(
    st.tuples(
        st.sampled_from(["flip", "insert", "delete", "widen"]),
        st.integers(0, 1 << 16),
        st.integers(0, 255),
    ),
    max_size=3,
)


@settings(max_examples=examples(300), deadline=None)
@given(
    st.one_of(
        st.tuples(st.integers(0, 2**32), _edits).map(
            lambda t: _edited(encode_packet(random_packet(random.Random(t[0]))), t[1])
        ),
        st.binary(max_size=64),
    )
)
def test_accepted_bytes_reencode_to_themselves(raw):
    try:
        packet = decode_packet(raw)
    except MalformedPacket:
        return
    assert encode_packet(packet) == raw
    assert encoded_size(packet) == len(raw)


def _copies(packet, rng):
    """Packets derived from one whose size is already cached."""
    yield decode_packet(encode_packet(packet))
    if isinstance(packet, Data):
        yield replace(packet, content=packet.content + bytes(rng.randrange(1, 300)))
        yield replace(packet, content=b"")
        yield replace(packet, integrity_tag=bytes(32))
    elif isinstance(packet, Interest):
        yield replace(packet, lifetime_ms=packet.lifetime_ms + (1 << 21))
        yield replace(packet, name=packet.name.append(b"x" * 200))


def _assert_sized_at_birth(packet):
    # An interest or data packet carries its exact size before encoded_size
    # ever sees it.
    if isinstance(packet, (Interest, Data)):
        assert packet._wire_size == len(encode_packet(packet))


# Lifetimes and name TLV lengths on each side of the 1-, 2- and 3-byte
# varint boundaries, up to the largest lifetime.
_BOUNDARY_LIFETIMES = [0, 127, 128, 2**14 - 1, 2**14, 2**64 - 1]
_BOUNDARY_NAMES = [
    Name(),
    Name((b"x" * 125,)),  # TLV length 127
    Name((b"x" * 126,)),  # TLV length 128
    Name((b"x" * 128,)),  # a component length of two varint bytes
    Name((b"x" * 16380,)),  # TLV length 2**14 - 1
    Name((b"x" * 16381,)),  # TLV length 2**14
    Name((b"c",) * 126),
    Name((b"c",) * 127),
    Name((b"c",) * 128),
    Name((b"y" * 200,) * 130),
]


def test_cached_size_stays_exact():
    rng = random.Random(2718)
    for _ in range(300):
        packet = random_packet(rng)
        _assert_sized_at_birth(packet)
        text = repr(packet)
        assert encoded_size(packet) == len(encode_packet(packet))
        assert repr(packet) == text
        decoded = decode_packet(encode_packet(packet))
        _assert_sized_at_birth(decoded)
        # The stored size must not tell the copy and the original apart.
        assert decoded == packet and hash(decoded) == hash(packet)
        assert repr(decoded) == text
        for copy in _copies(packet, rng):
            _assert_sized_at_birth(copy)
            assert encoded_size(copy) == len(encode_packet(copy))
            assert encoded_size(copy) == len(encode_packet(copy))
    for name in _BOUNDARY_NAMES:
        for lifetime in _BOUNDARY_LIFETIMES:
            interest = Interest(name, rng.random() < 0.5, rng.randrange(1 << 32), lifetime)
            _assert_sized_at_birth(interest)
            for copy in (
                decode_packet(encode_packet(interest)),
                replace(interest, lifetime_ms=_BOUNDARY_LIFETIMES[-1] - lifetime),
                replace(interest, name=name.append(b"z" * 128)),
            ):
                _assert_sized_at_birth(copy)
                assert encoded_size(copy) == len(encode_packet(copy))


U64_MAX = 2**64 - 1
_FILE_KEY = KeyMaterial("file-key", b"sized")
# Content lengths on each side of the 1-, 2- and 3-byte varint boundaries.
_CONTENT_LENGTHS = [0, 127, 128, 2**14 - 1, 2**14]


@settings(max_examples=examples(15), deadline=None)
@given(
    base=st.sampled_from(_BOUNDARY_NAMES),
    version=st.sampled_from(_BOUNDARY_LIFETIMES),
    # 128 chunks end at final chunk 127, one varint byte; 129 and 130 at 128
    # and 129, two bytes; 130 chunks also number chunks 127 and 128.
    count=st.sampled_from([1, 128, 129, 130]),
    lengths=st.permutations(_CONTENT_LENGTHS),
    freshness_ms=st.sampled_from(_BOUNDARY_LIFETIMES),
)
@example(Name((b"f",)), U64_MAX, 130, _CONTENT_LENGTHS, U64_MAX)
@example(Name((b"c",) * 128), 128, 129, _CONTENT_LENGTHS, 0)
def test_signed_file_packets_are_sized_and_unverified_at_birth(
    base, version, count, lengths, freshness_ms
):
    # sign_file's final chunk is its piece count less one, so its varint
    # boundary is met here at 127/128; the constructor path reaches 2**64 - 1
    # in test_packet_integers_bounded_below_2_64.
    pieces = [bytes(lengths[k % len(lengths)]) for k in range(count)]
    names = VersionedChunkName.file_chunks(base, version, count)
    for data in sign_file(names, pieces, freshness_ms, _FILE_KEY):
        assert data._verified_by is None
        assert data._wire_size == len(encode_packet(data)) == encoded_size(data)



def test_packet_integers_bounded_below_2_64(key):
    # At 2**64 - 1 every field builds, round-trips and signs.
    base = name_parse("/f")
    data = Data(VersionedChunkName(base, U64_MAX, U64_MAX), b"top", U64_MAX, U64_MAX)
    signed = sign_data(data, key)
    assert verify_data(signed, key)
    assert decode_packet(encode_packet(signed)) == signed
    assert encoded_size(signed) == len(encode_packet(signed))
    interest = Interest(base, lifetime_ms=U64_MAX)
    assert decode_packet(encode_packet(interest)) == interest
    [top] = VersionedChunkName.file_chunks(base, U64_MAX, 1)
    [filed] = sign_file([top], [b"top"], U64_MAX, key)
    assert decode_packet(encode_packet(filed)) == filed and verify_data(filed, key)

    # At 2**64 each is rejected when the packet is built.
    with pytest.raises(MalformedName):
        VersionedChunkName(base, 2**64, 0)
    with pytest.raises(MalformedName):
        VersionedChunkName(base, 0, 2**64)
    with pytest.raises(MalformedName):
        VersionedChunkName.file_chunks(base, 2**64, 1)
    name = VersionedChunkName(base, 1, 0)
    with pytest.raises(ValueError):
        Data(name, final_chunk=2**64)
    with pytest.raises(ValueError):
        Data(name, freshness_ms=2**64)
    with pytest.raises(ValueError):
        sign_file([name], [b""], 2**64, key)
    with pytest.raises(ValueError):
        Interest(base, lifetime_ms=2**64)


def test_varint_of_2_64_rejected_when_decoded():
    # The lifetime is the last field: its varint is the last ten bytes.
    raw = encode_packet(Interest(name_parse("/f"), lifetime_ms=U64_MAX))
    assert raw[-10:] == b"\xff" * 9 + b"\x01"
    with pytest.raises(MalformedPacket):
        decode_packet(raw[:-10] + b"\x80" * 9 + b"\x02")
