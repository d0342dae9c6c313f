"""Canned experiment scenarios mirroring the evaluation setups.

Each experiment is a complete scenario file kept as text and fed through
the normal parser, so running one exercises the same code path as a
user-supplied file. The nine CLI names cover: the bit-rate staircase
under egress throttling, cold-cache and warm-cache runs over the same
chain, the gateway prefetching strategy, interest aggregation with two
consumers behind one gateway and the same pair with aggregation and
caching off, a fast-link chain for RTT calibration, a one-tier chain for
the startup-delay oracle, and gateway probing over three hubs.
"""

from __future__ import annotations

from .netsim.scenario import Scenario, parse_scenario

TIER_TABLE = """\
tier {video} 240p height=240 min-bw=0.6Mbps
tier {video} 360p height=360 min-bw=0.9Mbps
tier {video} 480p height=480 min-bw=1.8Mbps
tier {video} 720p height=720 min-bw=3.3Mbps
tier {video} 1080p height=1080 min-bw=6.3Mbps
"""


def _tiers(video: str) -> str:
    return TIER_TABLE.format(video=video)


STAIRCASE_STEPS_MBPS = [20.0, 8.0, 5.0, 2.5, 1.5, 0.8, 1.5, 2.5, 5.0, 8.0, 20.0]
STAIRCASE_STEP_S = 12.0


def _staircase_throttles() -> str:
    lines = []
    for i, rate in enumerate(STAIRCASE_STEPS_MBPS):
        lines.append(f"srv gw at-s={i * STAIRCASE_STEP_S:g} bw={rate:g}Mbps")
    return "\n".join(lines)


ABR_STAIRCASE = f"""\
scenario abr-staircase
seed 7
horizon 220

[nodes]
consumer c1
forwarder gw cs=32MB
producer srv delay-ms=1

[links]
c1 gw prop-ms=2 bw=100Mbps
gw srv prop-ms=5 bw=50Mbps

[routes]
gw /ndn/web/video srv cost=1

[videos]
video foo server=srv prefix=/ndn/web/video duration-s=150 segment-s=2 chunk-bytes=8000
{_tiers("foo")}
[sessions]
session s1 consumer=c1 videos=foo start-s=0 window=8 est-fast-s=0.5 est-slow-s=1.0

[throttles]
{_staircase_throttles()}
"""

# Shared chain for the caching experiments: a short consumer-gateway hop in
# front of a long-haul gateway-server hop. The consumer window holds the
# server path near 4 Mbps, so the cold-cache run settles on 720p while
# warm-cache runs oscillate between 720p (gateway) and 1080p (server). The
# consumer-gateway delay is chosen so a depth-16 prefetcher refills faster
# than a window-4 consumer drains, keeping prefetched files at gateway RTT.
CACHE_CG_PROP_MS = 8.0
CACHE_GS_PROP_MS = 25.0
CACHE_LINK_BPS = 50e6
CACHE_WINDOW = 4
CACHE_CHUNK_BYTES = 8000

_CACHE_CHAIN = f"""\
[nodes]
consumer c1
forwarder gw cs=512MB{{strategy}}
producer srv delay-ms=1

[links]
c1 gw prop-ms={CACHE_CG_PROP_MS:g} bw=50Mbps
gw srv prop-ms={CACHE_GS_PROP_MS:g} bw=50Mbps

[routes]
gw /ndn/web/video srv cost=1

[videos]
video vod server=srv prefix=/ndn/web/video duration-s=180 segment-s=4 chunk-bytes={CACHE_CHUNK_BYTES}
{{tiers}}
[sessions]
session s1 consumer=c1 videos=vod start-s=0 window={CACHE_WINDOW} est-slow-s=10
"""


def _cache_chain(strategy: str) -> str:
    return _CACHE_CHAIN.format(strategy=strategy, tiers=_tiers("vod"))


NO_CACHE = f"""\
scenario no-cache
seed 11
horizon 600

{_cache_chain("")}
"""

_PREWARM = """\
[prewarm]
gw vod 720p 0.92
"""

WITH_CACHE = f"""\
scenario with-cache
seed 11
horizon 600

{_cache_chain("")}
{_PREWARM}
"""

PREFETCH = f"""\
scenario prefetch
seed 11
horizon 600

{_cache_chain(" strategy=prefetch:16")}
{_PREWARM}
"""

MULTICAST = f"""\
scenario multicast
seed 13
horizon 120

[nodes]
consumer c1
consumer c2
forwarder gw cs=256MB
producer srv delay-ms=1

[links]
c1 gw prop-ms=5 bw=50Mbps
c2 gw prop-ms=5 bw=50Mbps
gw srv prop-ms=25 bw=50Mbps

[routes]
gw /ndn/web/video srv cost=1

[videos]
video foo server=srv prefix=/ndn/web/video duration-s=20 segment-s=2 chunk-bytes=8000
tier foo 720p height=720 min-bw=3.3Mbps

[sessions]
session s1 consumer=c1 videos=foo start-s=0 window=8
session s2 consumer=c2 videos=foo start-s=0.005 window=8
"""

# Same two consumers with aggregation and caching disabled; used as the
# baseline that shows roughly doubled server transmissions.
MULTICAST_DISABLED = MULTICAST.replace(
    "scenario multicast", "scenario multicast-disabled"
).replace("forwarder gw cs=256MB", "forwarder gw cs=0 aggregate=off")

RTT_CALIBRATION = """\
scenario rtt-calibration
seed 5
horizon 120

[nodes]
consumer c1
forwarder gw cs=64MB
producer srv delay-ms=1

[links]
c1 gw prop-ms=10 bw=1Gbps
gw srv prop-ms=30 bw=1Gbps

[routes]
gw /ndn/web/video srv cost=1

[videos]
video foo server=srv prefix=/ndn/web/video duration-s=30 segment-s=2 chunk-bytes=8000
tier foo 720p height=720 min-bw=3.3Mbps

[sessions]
session s1 consumer=c1 videos=foo start-s=0 window=8
"""

STARTUP_ORACLE = """\
scenario startup-oracle
seed 3
horizon 120

[nodes]
consumer c1
forwarder gw cs=64MB
producer srv delay-ms=1

[links]
c1 gw prop-ms=5 bw=100Mbps
gw srv prop-ms=10 bw=6Mbps

[routes]
gw /ndn/web/video srv cost=1

[videos]
video foo server=srv prefix=/ndn/web/video duration-s=10 segment-s=2 chunk-bytes=8000
tier foo 720p height=720 min-bw=3.3Mbps

[sessions]
session s1 consumer=c1 videos=foo start-s=0 window=8
"""

FCH_PROBING = """\
scenario fch-probing
seed 9
horizon 120

[nodes]
consumer c1
forwarder hubA cs=16MB
forwarder hubB cs=16MB
forwarder hubC cs=16MB
producer srv delay-ms=1

[links]
c1 hubA prop-ms=12 bw=100Mbps
c1 hubB prop-ms=3 bw=100Mbps
c1 hubC prop-ms=20 bw=100Mbps
hubA srv prop-ms=10 bw=100Mbps
hubB srv prop-ms=10 bw=100Mbps
hubC srv prop-ms=10 bw=100Mbps

[routes]
hubA /ndn/web/video srv cost=1
hubB /ndn/web/video srv cost=1
hubC /ndn/web/video srv cost=1

[videos]
video foo server=srv prefix=/ndn/web/video duration-s=8 segment-s=2 chunk-bytes=8000
tier foo 480p height=480 min-bw=1.8Mbps

[fch]
c1 hubA hubB hubC

[sessions]
session s1 consumer=c1 videos=foo start-s=0 window=8
"""

EXPERIMENTS: dict[str, str] = {
    "abr-staircase": ABR_STAIRCASE,
    "no-cache": NO_CACHE,
    "with-cache": WITH_CACHE,
    "prefetch": PREFETCH,
    "multicast": MULTICAST,
    "multicast-disabled": MULTICAST_DISABLED,
    "rtt-calibration": RTT_CALIBRATION,
    "startup-oracle": STARTUP_ORACLE,
    "fch-probing": FCH_PROBING,
}


def experiment_scenario(name: str, seed: int | None = None) -> Scenario:
    """Parse a canned experiment by CLI name; optional seed override."""
    try:
        text = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        ) from None
    scenario = parse_scenario(text)
    if seed is not None:
        scenario.seed = seed
    return scenario
