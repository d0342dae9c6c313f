import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from ndnstream.errors import MalformedPacket
from ndnstream.names import VersionedChunkName, name_parse
from ndnstream.packets import Data, Interest, Nack, NackReason
from ndnstream.wire import decode_packet, encode_packet, encoded_size

from conftest import random_packet


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


@settings(max_examples=300, deadline=None)
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


def test_cached_size_stays_exact():
    rng = random.Random(2718)
    for _ in range(300):
        packet = random_packet(rng)
        text = repr(packet)
        assert encoded_size(packet) == len(encode_packet(packet))
        assert repr(packet) == text
        decoded = decode_packet(encode_packet(packet))
        # The copy has no size yet; the cached field must not tell them apart.
        assert decoded == packet and hash(decoded) == hash(packet)
        assert repr(decoded) == text
        for copy in _copies(packet, rng):
            assert encoded_size(copy) == len(encode_packet(copy))
            assert encoded_size(copy) == len(encode_packet(copy))
