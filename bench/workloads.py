"""Scenario texts for the benchmark workloads.

Every workload is plain scenario text fed to ``parse_scenario``, so the
program receives nothing but the generated input. The text depends only
on the workload name and the benchmark's seed.
"""

from __future__ import annotations

import random
import re

from ndnstream.experiments import EXPERIMENTS

FANOUT_CONSUMERS = 16
FANOUT_START_SPREAD_S = 10.0


def _canned(name: str, seed: int) -> str:
    text, n = re.subn(r"(?m)^seed \d+$", f"seed {seed}", EXPERIMENTS[name], count=1)
    if n != 1:
        raise ValueError(f"canned experiment {name!r} has no seed line")
    return text


def fanout(seed: int) -> str:
    """Sixteen consumers behind one caching gateway, one 60 s video in two tiers.

    Session start times are spread over the first 10 s and access-link
    delays are drawn from the seed, so flows overlap on shared content.
    """
    rng = random.Random(seed)
    consumers = [f"c{i:02d}" for i in range(1, FANOUT_CONSUMERS + 1)]
    nodes = [f"consumer {c}" for c in consumers]
    links = [f"{c} gw prop-ms={rng.uniform(2.0, 20.0):.1f} bw=50Mbps" for c in consumers]
    # One start per equal slice of the spread window: seeded, but never
    # clustered, so the share of content flows reuse varies little by seed.
    slot = FANOUT_START_SPREAD_S / FANOUT_CONSUMERS
    starts = [round((i + rng.random()) * slot, 3) for i in range(FANOUT_CONSUMERS)]
    sessions = [
        f"session s{c[1:]} consumer={c} videos=clip start-s={start:g} window=8"
        for c, start in zip(consumers, starts)
    ]
    return "\n".join(
        [
            "scenario fanout",
            f"seed {seed}",
            "horizon 300",
            "",
            "[nodes]",
            *nodes,
            "forwarder gw cs=256MB",
            "producer srv delay-ms=1",
            "",
            "[links]",
            *links,
            "gw srv prop-ms=25 bw=100Mbps",
            "",
            "[routes]",
            "gw /ndn/web/video srv cost=1",
            "",
            "[videos]",
            "video clip server=srv prefix=/ndn/web/video duration-s=60 segment-s=2 chunk-bytes=8000",
            "tier clip 480p height=480 min-bw=1.8Mbps",
            "tier clip 720p height=720 min-bw=3.3Mbps",
            "",
            "[sessions]",
            *sessions,
            "",
        ]
    )


WORKLOADS = {
    "staircase": lambda seed: _canned("abr-staircase", seed),
    "prefetch": lambda seed: _canned("prefetch", seed),
    "fanout": fanout,
}
