"""Pinned bytes of the build: segment payloads and the golden repository.

The digests were taken before the one-pass publish path replaced the
per-chunk one, and must hold on every supported numpy. A change to the
payload stream, the chunk names, the integrity tags or the store order
fails here.
"""

import hashlib
from pathlib import Path

import pytest

from ndnstream.netsim.scenario import ScenarioRun, parse_scenario
from ndnstream.producer import VideoCatalog, segment_payload
from ndnstream.wire import encode_packet

# (video, tier, segment index, size) -> sha256 of the payload. The sizes
# cover 0, the sub-word sizes 1 and 7, the word boundary 8 and 9, and
# sizes above 8000 that are not a multiple of 8.
PAYLOAD_PINS = {
    ("foo", "240p", 0, 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("foo", "240p", 1, 1): "cbecda1c7d37d4c0aa5466243bb4a0018c31bf06d74fa7338290dd3068db4fed",
    ("foo", "480p", 2, 7): "e05a8616c6c6e0bb91b45555fc2c6e4512347ded6fbc7c9b05bf6479ab4e5bce",
    ("foo", "480p", 3, 8): "815377e65705d1e9c2596c02e37481c0dd33430768ac33983fb5f8205ffae929",
    ("bar", "720p", 4, 9): "6d6ec9995e73fe046f1648eef50793abe44cc6fa5ed62d59c20d32e34c488bfc",
    ("bar", "720p", 5, 8001): "fd59727be1fe17e59579ca7502fdecf5291baf87309dee019c3d718da04c2c46",
    ("bar", "1080p", 74, 1_250_001): "002c4a23d7780e83a5e35f31cf34e6efb86df570a716645be6269d56a317fa6e",
}

GOLDEN_CHUNKS = 155
GOLDEN_STORE_SHA256 = "d1974f5e849c49aac38d5b43506af9dc2ab259e36eaa834211472f626a6d22c2"


@pytest.mark.parametrize("pick", sorted(PAYLOAD_PINS), ids=lambda p: f"{p[0]}-{p[1]}-{p[2]}-{p[3]}B")
def test_segment_payload_bytes_pinned(pick):
    video, label, index, size = pick
    catalog = VideoCatalog(video, 1.0, 1.0, [], {label: [size] * (index + 1)})
    payload = segment_payload(catalog, label, index)
    assert type(payload) is bytes and len(payload) == size
    assert hashlib.sha256(payload).hexdigest() == PAYLOAD_PINS[pick]


def test_golden_repository_chunks_pinned():
    text = (Path(__file__).parent / "data" / "golden.scn").read_text()
    run = ScenarioRun(parse_scenario(text))
    h = hashlib.sha256()
    count = 0
    for data in run.repos["srv"].store.values():
        h.update(encode_packet(data))
        count += 1
    assert count == GOLDEN_CHUNKS
    assert h.hexdigest() == GOLDEN_STORE_SHA256
