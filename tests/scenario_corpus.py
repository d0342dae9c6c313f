"""A deterministic scenario generator: scenario text from one integer.

``generate(seed)`` draws with a plain ``random.Random(seed)``, so the
corpus it makes does not depend on the hypothesis version. Each scenario
is a chain of 1-3 forwarders ending at one producer, with a star of 1-8
consumers on the first forwarder. It draws content store sizes from none
to large, best route or a prefetch depth, aggregation on or off, queue
limits and throttles on the chain's links, a second gateway probed by
every consumer (``[fch]``) and a prewarmed tier. Videos are short, so a
run stays cheap. ``tests/data/corpus_digests.json`` pins the report
digest of each seed it lists.
"""

from __future__ import annotations

import random

# (label, height, bitrate): a video takes the first one to four.
TIERS = [
    ("240p", 240, "0.6Mbps"),
    ("360p", 360, "0.9Mbps"),
    ("480p", 480, "1.8Mbps"),
    ("720p", 720, "3.3Mbps"),
]
CS_SIZES = ["0", "200KB", "1MB", "8MB", "64MB"]
STRATEGIES = ["best-route", "best-route", "prefetch:4", "prefetch:8", "prefetch"]


def generate(seed: int) -> str:
    rng = random.Random(seed)
    chain = [f"gw{i}" for i in range(1, rng.randint(1, 3) + 1)]
    consumers = [f"c{i}" for i in range(1, rng.randint(1, 8) + 1)]
    probing = rng.random() < 0.25  # each consumer also links to "alt" and probes both
    hubs = chain + ["alt"] if probing else chain

    nodes = [f"consumer {c}" for c in consumers]
    cs = {hub: rng.choice(CS_SIZES) for hub in hubs}
    for hub in hubs:
        nodes.append(
            f"forwarder {hub} cs={cs[hub]} strategy={rng.choice(STRATEGIES)}"
            f" aggregate={rng.choice(['on', 'on', 'off'])}"
        )
    nodes.append(f"producer srv delay-ms={rng.choice([0, 1, 3])}")

    links = []
    for c in consumers:
        for gateway in ["gw1", "alt"] if probing else ["gw1"]:
            prop, bw = rng.randint(1, 10), rng.choice([20, 50, 100])
            links.append(f"{c} {gateway} prop-ms={prop} bw={bw}Mbps")
    hops = chain + ["srv"]
    for a, b in zip(hops, hops[1:]):
        queue = f" queue={rng.choice([12, 24, 64])}KB" if rng.random() < 0.3 else ""
        prop, bw = rng.randint(2, 20), rng.choice([5, 10, 20])
        links.append(f"{a} {b} prop-ms={prop} bw={bw}Mbps{queue}")
    routes = [f"{a} /p {b}" for a, b in zip(hops, hops[1:])]
    if probing:
        links.append(f"alt srv prop-ms={rng.randint(2, 20)} bw={rng.choice([5, 10, 20])}Mbps")
        routes.append("alt /p srv")

    tiers = TIERS[: rng.randint(1, 4)]
    videos = [
        f"video v server=srv prefix=/p duration-s={rng.choice([4, 6, 8])} segment-s=2"
        f" chunk-bytes={rng.choice([4000, 8000, 16000])}"
    ]
    videos += [f"tier v {label} height={height} min-bw={bw}" for label, height, bw in tiers]

    sessions = [
        f"session s{k} consumer={c} videos=v start-s={rng.randint(0, 30) / 10}"
        f" window={rng.choice([2, 4, 8])}"
        for k, c in enumerate(consumers, 1)
    ]

    sections = [
        ["[nodes]", *nodes],
        ["[links]", *links],
        ["[routes]", *routes],
        ["[videos]", *videos],
        ["[sessions]", *sessions],
    ]
    if probing:
        sections.append(["[fch]", *(f"{c} gw1 alt" for c in consumers)])
    roomy = [hub for hub in hubs if cs[hub] in ("8MB", "64MB")]
    if roomy and rng.random() < 0.4:
        label = rng.choice(tiers)[0]
        node, fraction = rng.choice(roomy), rng.choice([0.25, 0.5, 1.0])
        sections.append(["[prewarm]", f"{node} v {label} {fraction}"])
    if rng.random() < 0.3:
        at = rng.randint(1, 4)
        sections.append(
            [
                "[throttles]",
                f"srv {chain[-1]} at-s={at} bw={rng.choice([1, 2])}Mbps",
                f"srv {chain[-1]} at-s={at + rng.randint(2, 4)} bw=20Mbps",
            ]
        )
    head = [f"scenario corpus-{seed}", f"seed {seed}", "horizon 60"]
    return "\n\n".join("\n".join(block) for block in [head, *sections]) + "\n"
