import random

import pytest

from ndnstream.errors import InvalidConfig, UnknownRepresentation, VersionRegression
from ndnstream.names import name_parse
from ndnstream.packets import Interest, Nack, NackReason, verify_data
from ndnstream.producer import (
    Repository,
    Representation,
    chunk_payload,
    generate_master_playlist,
    generate_media_playlist,
    package_video,
    publish,
    representation_files,
    segment_payload,
)

PAPER_TIERS = [
    Representation("240p", 240, 600_000),
    Representation("360p", 360, 900_000),
    Representation("480p", 480, 1_800_000),
    Representation("720p", 720, 3_300_000),
    Representation("1080p", 1080, 6_300_000),
]


def test_full_hd_segment_size_matches_bitrate():
    catalog = package_video("v", 8.0, 4.0, PAPER_TIERS)
    assert catalog.segment_sizes["1080p"][0] == 3_150_000  # 6.3e6 * 4 / 8


def test_segment_count_and_final_duration():
    catalog = package_video("v", 10.0, 4.0, PAPER_TIERS[:1])
    assert catalog.segment_count == 3
    assert catalog.segment_durations() == [4.0, 4.0, 2.0]
    # final segment scales with its remaining duration
    assert catalog.segment_sizes["240p"][-1] == round(600_000 * 2.0 / 8)


def test_five_representations_share_segment_count():
    catalog = package_video("v", 30.0, 4.0, PAPER_TIERS)
    counts = {len(sizes) for sizes in catalog.segment_sizes.values()}
    assert counts == {catalog.segment_count}
    assert len(catalog.representations) == 5


def test_invalid_durations_rejected():
    with pytest.raises(InvalidConfig):
        package_video("v", 0.0, 4.0, PAPER_TIERS)
    with pytest.raises(InvalidConfig):
        package_video("v", 10.0, -1.0, PAPER_TIERS)
    with pytest.raises(InvalidConfig):
        package_video("v", 10.0, 4.0, [])


def test_payloads_deterministic_and_sized():
    catalog = package_video("v", 10.0, 4.0, PAPER_TIERS)
    one = segment_payload(catalog, "720p", 1)
    two = segment_payload(catalog, "720p", 1)
    assert one == two
    assert len(one) == catalog.segment_sizes["720p"][1]
    assert segment_payload(catalog, "480p", 1) != one[: catalog.segment_sizes["480p"][1]]


def test_master_playlist_ordered_and_deterministic():
    catalog = package_video("v", 10.0, 4.0, list(reversed(PAPER_TIERS)))
    text = generate_master_playlist(catalog)
    assert text == generate_master_playlist(catalog)
    bandwidth_lines = [l for l in text.splitlines() if "BANDWIDTH" in l]
    values = [int(l.split("BANDWIDTH=")[1].split(",")[0]) for l in bandwidth_lines]
    assert values == sorted(values)
    assert len(values) == 5
    assert "720p/playlist.m3u8" in text


def test_master_playlist_single_tier():
    catalog = package_video("v", 10.0, 4.0, PAPER_TIERS[:1])
    assert generate_master_playlist(catalog).count("#EXT-X-STREAM-INF") == 1


def test_media_playlist_lists_segments_and_end_marker():
    catalog = package_video("v", 10.0, 4.0, PAPER_TIERS)
    text = generate_media_playlist(catalog, catalog.representations[0])
    lines = text.splitlines()
    assert lines[-1] == "#EXT-X-ENDLIST"
    assert sum(1 for l in lines if l.startswith("#EXTINF")) == 3
    assert "#EXTINF:4.000," in text and "#EXTINF:2.000," in text
    assert "seg0.m4s" in text and "seg2.m4s" in text


def test_media_playlist_unknown_rep():
    catalog = package_video("v", 10.0, 4.0, PAPER_TIERS[:2])
    with pytest.raises(UnknownRepresentation):
        generate_media_playlist(catalog, PAPER_TIERS[4])


def test_chunk_payload_cases():
    assert chunk_payload(b"", 100) == [b""]
    assert chunk_payload(b"\x01" * 100, 100) == [b"\x01" * 100]
    pieces = chunk_payload(b"\x02" * 250, 100)
    assert [len(p) for p in pieces] == [100, 100, 50]
    with pytest.raises(InvalidConfig):
        chunk_payload(b"x", 0)


def test_publish_names_and_final_chunk(key):
    repo = Repository(key)
    base = name_parse("/ndn/web/video/foo/playlist.m3u8")
    repo.publish_file(base, b"\x00" * 2500, version=1, chunk_size=1000)
    names = repo.file_chunk_names(base)
    assert [str(n) for n in names] == [
        "/ndn/web/video/foo/playlist.m3u8/v=1/c=0",
        "/ndn/web/video/foo/playlist.m3u8/v=1/c=1",
        "/ndn/web/video/foo/playlist.m3u8/v=1/c=2",
    ]
    assert all(repo.store[n].final_chunk == 2 for n in names)
    # Asked with an equal base parsed afresh, it still hands back the very
    # names the store is keyed by.
    keys = {n: n for n in repo.store}
    again = repo.file_chunk_names(name_parse(str(base)))
    assert again == names and all(keys[n] is n for n in again)


def test_publish_catalog_layout(key):
    repo = Repository(key)
    catalog = package_video("foo", 4.0, 4.0, PAPER_TIERS[:2])
    count = publish(repo, catalog, "/ndn/web/video", chunk_size=8000)
    assert count == len(repo.store)
    master = name_parse("/ndn/web/video/foo/playlist.m3u8")
    assert repo.latest[master] == 1
    assert name_parse("/ndn/web/video/foo/240p/seg0.m4s") in repo.latest
    files = {master}
    for rep in catalog.representations:
        files.update(representation_files(name_parse("/ndn/web/video"), catalog, rep.label))
    assert files == set(repo.latest)


def test_version_regression_rejected(key):
    repo = Repository(key)
    base = name_parse("/f")
    repo.publish_file(base, b"a", version=2)
    with pytest.raises(VersionRegression):
        repo.publish_file(base, b"b", version=2)
    with pytest.raises(VersionRegression):
        repo.publish_file(base, b"b", version=1)


def test_discovery_resolves_latest_version(key):
    repo = Repository(key)
    base = name_parse("/pfx/f/playlist.m3u8")
    for v in (1, 2, 3):
        repo.publish_file(base, f"version {v}".encode(), version=v)
    result = repo.resolve(Interest(base, can_be_prefix=True))
    assert result.name.version == 3 and result.name.chunk == 0
    assert result.content == b"version 3"


def test_exact_missing_chunk_nacks(key):
    repo = Repository(key)
    base = name_parse("/f")
    repo.publish_file(base, b"xyz", version=1, chunk_size=2)
    missing = name_parse("/f/v=1/c=7")
    result = repo.resolve(Interest(missing))
    assert result == Nack(missing, NackReason.NO_CONTENT)


def test_unknown_base_nacks(key):
    repo = Repository(key)
    result = repo.resolve(Interest(name_parse("/nope"), can_be_prefix=True))
    assert isinstance(result, Nack) and result.reason is NackReason.NO_CONTENT


def test_exact_chunk_content_matches_slice(key):
    repo = Repository(key)
    base = name_parse("/f")
    payload = bytes(range(256)) * 40
    repo.publish_file(base, payload, version=1, chunk_size=1000)
    got = repo.resolve(Interest(name_parse("/f/v=1/c=7")))
    assert got.content == payload[7000:8000]


def test_reassembly_round_trip_random_sizes(key):
    rng = random.Random(11)
    repo = Repository(key)
    for i in range(40):
        base = name_parse(f"/files/f{i}")
        payload = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 5000)))
        repo.publish_file(base, payload, version=1, chunk_size=777)
        chunks = [repo.store[n] for n in repo.file_chunk_names(base)]
        assert b"".join(c.content for c in chunks) == payload
        assert all(verify_data(c, key) for c in chunks)


def test_resolved_data_always_verifies(key):
    repo = Repository(key)
    catalog = package_video("foo", 8.0, 4.0, PAPER_TIERS[:1])
    publish(repo, catalog, "/p", chunk_size=4096)
    for full_name in list(repo.store)[:50]:
        data = repo.resolve(Interest(full_name))
        assert verify_data(data, key)


def test_server_stats_constant_delay(key):
    repo = Repository(key, processing_delay_ms=1.0)
    repo.publish_file(name_parse("/f"), b"abc", version=1)
    for _ in range(20):
        repo.resolve(Interest(name_parse("/f"), can_be_prefix=True))
    assert repo.interests == 20


def test_representation_files_playback_order():
    catalog = package_video("foo", 6.0, 2.0, PAPER_TIERS[:1])
    files = representation_files(name_parse("/p"), catalog, "240p")
    assert [str(f) for f in files] == [
        "/p/foo/240p/playlist.m3u8",
        "/p/foo/240p/seg0.m4s",
        "/p/foo/240p/seg1.m4s",
        "/p/foo/240p/seg2.m4s",
    ]


def test_representation_invariant():
    with pytest.raises(InvalidConfig):
        Representation("x", 1, 0)
