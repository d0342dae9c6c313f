import os
import random

import pytest
from hypothesis import settings

from ndnstream.names import Name, name_parse
from ndnstream.packets import Data, Interest, KeyMaterial, Nack, NackReason, sign_data
from ndnstream.names import VersionedChunkName

# Tier-1 runs every property test on the same examples each time, with no
# example database, so its result depends on the tree alone. The
# ``explore`` profile (HYPOTHESIS_PROFILE=explore) draws fresh random
# examples, five times as many, to look for new failures.
EXPLORE_FACTOR = 5
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile(
    "explore", derandomize=False, database=None, max_examples=EXPLORE_FACTOR * 100
)
PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "tier1")
settings.load_profile(PROFILE)


def examples(count: int) -> int:
    """A property test's example count: ``count`` in tier-1, five times
    that when exploring."""
    return count * EXPLORE_FACTOR if PROFILE == "explore" else count


def run_engine(engine, until: float | None = None) -> None:
    """Run ``engine``'s events in order until none is left or, with
    ``until``, the next one is due after it."""
    while engine.pending() and (until is None or engine._heap[0][0] <= until):
        engine.advance()


@pytest.fixture
def key():
    return KeyMaterial("test-key", b"\x01\x02secret")


def random_name(rng: random.Random, max_components: int = 5) -> Name:
    count = rng.randint(0, max_components)
    components = tuple(
        bytes(rng.randrange(256) for _ in range(rng.randint(1, 12))) for _ in range(count)
    )
    return Name(components)


def random_versioned(rng: random.Random) -> VersionedChunkName:
    base = random_name(rng, 3)
    # regenerate until the base avoids the reserved markers
    while any(c.startswith(b"v=") or c.startswith(b"c=") for c in base.components):
        base = random_name(rng, 3)
    return VersionedChunkName(base, rng.randrange(1 << 16), rng.randrange(1 << 10))


def random_packet(rng: random.Random):
    kind = rng.randrange(3)
    if kind == 0:
        return Interest(
            name=random_name(rng),
            can_be_prefix=rng.random() < 0.5,
            nonce=rng.randrange(1 << 32),
            lifetime_ms=rng.randrange(1 << 20),
        )
    if kind == 1:
        vc = random_versioned(rng)
        return Data(
            name=vc,
            content=bytes(rng.randrange(256) for _ in range(rng.randrange(64))),
            final_chunk=vc.chunk + rng.randrange(1 << 8),
            freshness_ms=rng.randrange(1 << 24),
            integrity_tag=bytes(rng.randrange(256) for _ in range(32)),
        )
    return Nack(
        interest_name=random_name(rng),
        reason=rng.choice([NackReason.NO_CONTENT, NackReason.NO_ROUTE]),
    )


def make_data(name_text: str, version=1, chunk=0, content=b"", final=None, key=None, freshness_ms=3_600_000):
    vc = VersionedChunkName(name_parse(name_text), version, chunk)
    data = Data(vc, content, final if final is not None else chunk, freshness_ms)
    if key is not None:
        data = sign_data(data, key)
    return data


def unplayed_media_playlists(report: dict) -> list[tuple[str, str, str]]:
    """Each (session, video, tier) of a ``report.json`` whose media playlist
    a session that did not abort fetched, though none of that session's
    segments plays that tier of that video. The tier is the playlist path's
    component before ``playlist.m3u8``."""
    unplayed = []
    for session in report["sessions"]:
        if session["aborted"]:
            continue
        files = session["files"]
        played = {(f["video_id"], f["tier"]) for f in files if f["role"] == "segment"}
        for f in files:
            tier = f["name"].split("/")[-2]
            if f["role"] == "media-playlist" and (f["video_id"], tier) not in played:
                unplayed.append((session["session_id"], f["video_id"], tier))
    return unplayed
