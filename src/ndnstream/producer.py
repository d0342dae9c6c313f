"""Video packaging and the chunk repository behind the file server.

Videos are packaged into quality tiers, each tier into a playlist plus
fixed-duration segments. Segment payloads are deterministic pseudo-random
bytes sized by the tier's bitrate: the raw stream of a Philox bit
generator keyed per (video, tier, segment), read as little-endian bytes.
The experiments only depend on sizes and timing, never on real media.

A published file is chunked, named and signed in one pass: the name head
(base components and version marker, with its TLV form), the keyed hash
state and the 16-byte tag trailer are built once per file, and each chunk
is built and signed once. Chunks are kept in an in-memory map.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfig, UnknownRepresentation, VersionRegression
from .names import Name, VersionedChunkName, chunk_name, name_parse
# sign_data and verify_data are not used here; they stay importable as
# producer.sign_data and producer.verify_data because bench/tracing.py
# patches them at those addresses.
from .packets import (  # noqa: F401
    DEFAULT_FRESHNESS_MS,
    Data,
    Interest,
    KeyMaterial,
    Nack,
    NackReason,
    sign_data,
    sign_file,
    verify_data,
)

DEFAULT_CHUNK_SIZE = 8000
DEFAULT_VERSION = 1


@dataclass(frozen=True)
class Representation:
    """One quality tier: resolution plus its bitrate, which sizes its
    segments and is the bandwidth its playlist entry asks for."""

    label: str
    height: int
    bitrate_bps: int

    def __post_init__(self) -> None:
        if self.bitrate_bps <= 0:
            raise InvalidConfig("bitrate must be positive")


@dataclass
class VideoCatalog:
    video_id: str
    duration_s: float
    segment_duration_s: float
    representations: list[Representation]
    segment_sizes: dict[str, list[int]] = field(default_factory=dict)

    @property
    def segment_count(self) -> int:
        return math.ceil(self.duration_s / self.segment_duration_s)

    def segment_durations(self) -> list[float]:
        n = self.segment_count
        durations = [self.segment_duration_s] * n
        remainder = self.duration_s - (n - 1) * self.segment_duration_s
        durations[-1] = remainder
        return durations

    def representation(self, label: str) -> Representation:
        for rep in self.representations:
            if rep.label == label:
                return rep
        raise UnknownRepresentation(label)


def _payload_bits(video_id: str, label: str, index: int) -> np.random.Philox:
    digest = hashlib.blake2b(
        f"{video_id}|{label}|{index}".encode(), digest_size=16
    ).digest()
    key = np.frombuffer(digest, dtype=np.uint64)
    return np.random.Philox(key=key)


def segment_payload(catalog: VideoCatalog, label: str, index: int) -> bytes:
    """Deterministic pseudo-random bytes for one segment of one tier.

    The first ``size`` bytes of the raw Philox stream, each 64-bit word
    little-endian: the bytes ``Generator.bytes`` draws from a fresh Philox
    generator. NumPy aims to keep a bit generator's raw stream stable
    across releases (NEP 19) but promises no such thing for ``Generator``
    methods, so the raw stream is read directly and copied out once.
    """
    size = catalog.segment_sizes[label][index]
    words = _payload_bits(catalog.video_id, label, index).random_raw(-(-size // 8))
    return words.astype("<u8", copy=False).view(np.uint8)[:size].tobytes()


def package_video(
    video_id: str,
    duration_s: float,
    segment_duration_s: float,
    representations: list[Representation],
) -> VideoCatalog:
    """Split a video into equal-length segments across every tier.

    Full segments carry bitrate * segment_duration / 8 bytes; the
    final segment scales with its remaining duration.
    """
    if duration_s <= 0 or segment_duration_s <= 0:
        raise InvalidConfig("durations must be positive")
    if not representations:
        raise InvalidConfig("at least one representation required")
    catalog = VideoCatalog(video_id, duration_s, segment_duration_s, list(representations))
    durations = catalog.segment_durations()
    for rep in representations:
        catalog.segment_sizes[rep.label] = [
            round(rep.bitrate_bps * d / 8) for d in durations
        ]
    return catalog


def generate_master_playlist(catalog: VideoCatalog) -> str:
    """Variant list referencing each tier's media playlist, ascending bandwidth."""
    lines = ["#EXTM3U", "#EXT-X-VERSION:3"]
    for rep in sorted(catalog.representations, key=lambda r: r.bitrate_bps):
        lines.append(
            f"#EXT-X-STREAM-INF:BANDWIDTH={rep.bitrate_bps},"
            f'RESOLUTION={rep.height},NAME="{rep.label}"'
        )
        lines.append(f"{rep.label}/playlist.m3u8")
    return "\n".join(lines) + "\n"


def generate_media_playlist(catalog: VideoCatalog, representation: Representation) -> str:
    if representation not in catalog.representations:
        raise UnknownRepresentation(representation.label)
    lines = [
        "#EXTM3U",
        "#EXT-X-VERSION:3",
        f"#EXT-X-TARGETDURATION:{math.ceil(catalog.segment_duration_s)}",
    ]
    for k, duration in enumerate(catalog.segment_durations()):
        lines.append(f"#EXTINF:{duration:.3f},")
        lines.append(f"seg{k}.m4s")
    lines.append("#EXT-X-ENDLIST")
    return "\n".join(lines) + "\n"


def chunk_payload(payload: bytes, chunk_size: int) -> list[bytes]:
    """Slice a payload into chunk_size pieces; an empty payload still yields
    one empty chunk so every file has a chunk 0."""
    if chunk_size <= 0:
        raise InvalidConfig("chunk_size must be positive")
    if len(payload) == 0:
        return [b""]
    return [payload[i : i + chunk_size] for i in range(0, len(payload), chunk_size)]


class Repository:
    """Stores signed chunks by full name and tracks the latest version per file."""

    def __init__(self, key: KeyMaterial, processing_delay_ms: float = 1.0):
        self.key = key
        self.processing_delay_ms = processing_delay_ms
        self.store: dict[Name, Data] = {}
        self.latest: dict[Name, int] = {}
        self.interests = 0  # answered by resolve, each after processing_delay_ms

    def publish_file(
        self,
        base: Name,
        payload: bytes,
        version: int,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        freshness_ms: int = DEFAULT_FRESHNESS_MS,
    ) -> int:
        """Chunk, name, sign and store one file under the versioned naming
        scheme, in one pass over its chunks."""
        current = self.latest.get(base)
        if current is not None and version <= current:
            raise VersionRegression(f"{base}: version {version} <= stored {current}")
        chunks = chunk_payload(payload, chunk_size)
        names = VersionedChunkName.file_chunks(base, version, len(chunks))
        for data in sign_file(names, chunks, freshness_ms, self.key):
            self.store[data.name.full()] = data
        self.latest[base] = version
        return len(chunks)

    def file_chunk_names(self, base: Name) -> list[Name]:
        """Full names of the chunks of a file's latest version, in chunk
        order: the names the store keys them under when the file was
        published here, found through chunk 0's own base."""
        version = self.latest[base]
        first = self.store.get(chunk_name(base, version, 0))
        if first is None:
            return []
        base = first.name.base
        return [chunk_name(base, version, k) for k in range(first.final_chunk + 1)]

    def resolve(self, interest: Interest) -> Data | Nack:
        """Answer an interest: the chunk named exactly, else, for a
        CanBePrefix interest on a file base, chunk 0 of its latest version."""
        self.interests += 1
        data = self.store.get(interest.name)
        if data is None and interest.can_be_prefix and interest.name in self.latest:
            version = self.latest[interest.name]
            data = self.store[chunk_name(interest.name, version, 0)]
        return data if data is not None else Nack(interest.name, NackReason.NO_CONTENT)


def representation_files(prefix: Name, catalog: VideoCatalog, label: str) -> list[Name]:
    """One tier's files in playback order: media playlist, then segments."""
    catalog.representation(label)
    root = prefix.append(catalog.video_id, label)
    files = [root.append("playlist.m3u8")]
    files.extend(root.append(f"seg{k}.m4s") for k in range(catalog.segment_count))
    return files


def publish(
    repo: Repository,
    catalog: VideoCatalog,
    prefix: Name | str,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    version: int = DEFAULT_VERSION,
    freshness_ms: int = DEFAULT_FRESHNESS_MS,
) -> int:
    """Publish a catalog's playlists and segments; returns chunks stored."""
    if isinstance(prefix, str):
        prefix = name_parse(prefix)
    stored = repo.publish_file(
        prefix.append(catalog.video_id, "playlist.m3u8"),
        generate_master_playlist(catalog).encode(),
        version,
        chunk_size,
        freshness_ms,
    )
    for rep in catalog.representations:
        playlist, *segments = representation_files(prefix, catalog, rep.label)
        stored += repo.publish_file(
            playlist,
            generate_media_playlist(catalog, rep).encode(),
            version,
            chunk_size,
            freshness_ms,
        )
        for k, base in enumerate(segments):
            stored += repo.publish_file(
                base, segment_payload(catalog, rep.label, k), version, chunk_size, freshness_ms
            )
    return stored
