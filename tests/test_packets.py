import hashlib

import pytest

from ndnstream import names
from ndnstream.names import VersionedChunkName, _encode_name, name_parse
from ndnstream.packets import Data, KeyMaterial, sign_data, verify_data


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
