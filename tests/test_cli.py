import json
import re
from pathlib import Path

import pytest

from ndnstream.cli import main
from ndnstream.errors import CapacityExceeded, InvalidConfig
from ndnstream.netsim.scenario import ScenarioRun, parse_scenario

GOOD = """
scenario cli-test
seed 2

[nodes]
consumer c1
forwarder gw cs=8MB
producer srv

[links]
c1 gw prop-ms=5 bw=50Mbps
gw srv prop-ms=15 bw=20Mbps

[routes]
gw /p srv

[videos]
video foo server=srv prefix=/p duration-s=4 segment-s=2
tier foo 240p height=240 min-bw=0.6Mbps

[sessions]
session s1 consumer=c1 videos=foo
"""


def test_run_scenario_file(tmp_path, capsys):
    scn = tmp_path / "demo.scn"
    scn.write_text(GOOD)
    out = tmp_path / "out"
    assert main(["run", str(scn), "--seed", "7", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 7
    stdout = capsys.readouterr().out
    assert "session s1" in stdout and "report.json" in stdout


def test_validate_ok(tmp_path, capsys):
    scn = tmp_path / "demo.scn"
    scn.write_text(GOOD)
    assert main(["validate", str(scn)]) == 0
    assert "ok" in capsys.readouterr().out


SESSION = "session s1 consumer=c1 videos=foo"
TIER = "tier foo 240p height=240 min-bw=0.6Mbps"

# Player and tier values that are constants, not keys: each is an unknown key,
# even at the value the constant holds.
REMOVED_KEYS = [
    pytest.param(SESSION, SESSION + " capacity-s=30", id="capacity-s-removed"),
    pytest.param(SESSION, SESSION + " startup-s=2", id="startup-s-removed"),
    pytest.param(SESSION, SESSION + " safety=0.9", id="safety-removed"),
    pytest.param(TIER, TIER + " media=0.6Mbps", id="tier-media-removed"),
]

# Errors parsing finds at one line, which the message names: a second
# declaration of an id, and sizes and rates the key cannot take.
LINE_ERRORS = [
    pytest.param(TIER, TIER + "\n" + TIER, id="tier-duplicate"),
    pytest.param(SESSION, SESSION + "\n" + SESSION, id="session-duplicate"),
    pytest.param(SESSION, SESSION + "\n[fch]\nc1 gw\nc1 gw", id="fch-duplicate"),
    pytest.param("producer srv", "producer srv\nconsumer srv", id="node-duplicate"),
    pytest.param("cs=8MB", "cs=unlimited", id="cs-unlimited"),
    pytest.param("min-bw=0.6Mbps", "min-bw=unlimited", id="min-bw-unlimited"),
    pytest.param("seed 2", "seed 2\nseed 9", id="seed-repeated"),
    pytest.param("seed 2", "seed 2\nscenario again", id="scenario-repeated"),
    pytest.param("seed 2", "seed 2\nhorizon 60\nhorizon 90", id="horizon-repeated"),
    pytest.param("height=240", "height=-5", id="height-negative"),
    pytest.param(
        "segment-s=2", "segment-s=2 freshness-ms=18446744073709551616", id="freshness-2-64"
    ),
    pytest.param(SESSION, "session s,1 consumer=c1 videos=foo", id="session-id-comma"),
]

# Errors building finds, each in one line's entry: the message names that
# line, then says what it said before.
BUILD_ERRORS = [
    pytest.param(
        "c1 gw prop-ms=5", "c1 ghost prop-ms=5", "link references unknown node ghost",
        id="link-unknown-node",
    ),
    pytest.param(
        "producer srv", "producer srv\nproducer p2\n[routes]\ngw /r p2", "gw has no link to p2",
        id="route-via-unlinked-node",
    ),
    pytest.param(SESSION, SESSION + "\n[fch]\nc1 srv", "fch: c1 has no link to srv",
                 id="fch-gateway-unlinked"),
    pytest.param(
        SESSION, SESSION + "\n[throttles]\nc1 srv at-s=1 bw=1Mbps", "no link between c1 and srv",
        id="throttle-unlinked",
    ),
    pytest.param("server=srv", "server=gw", "video 'foo' needs a producer server",
                 id="video-server-not-producer"),
    pytest.param("duration-s=4", "duration-s=0", "durations must be positive",
                 id="video-duration-zero"),
    pytest.param("cs=8MB", "cs=1KB\n[prewarm]\ngw foo 240p 1.0\n[nodes]",
                 "gw: content store too small for prewarm set", id="prewarm-over-capacity"),
]

# Each case edits GOOD into a scenario that must fail validation with a
# config error: malformed values, out-of-range session values and loose
# spellings that used to pass validation or escape as a traceback.
BAD_VALUES = [
    pytest.param(SESSION, SESSION + " window=abc", id="window-not-int"),
    pytest.param("cs=8MB", "cs=8MB strategy=prefetch:x", id="prefetch-depth-not-int"),
    pytest.param("seed 2", "seed 2\nhorizon x", id="horizon-not-float"),
    pytest.param(SESSION, SESSION + "\n[prewarm]\ngw foo 240p most", id="prewarm-not-float"),
    pytest.param(SESSION, SESSION + " window=0", id="window-zero"),
    pytest.param(SESSION, SESSION + " safety=1.5", id="safety-above-one"),
    pytest.param(SESSION, SESSION + " startup-s=40", id="startup-above-capacity"),
    pytest.param(SESSION, SESSION + " max-retx=-1", id="max-retx-negative"),
    pytest.param("cs=8MB", "cs=8MB strategy=prefetchfoo", id="strategy-misspelt"),
    pytest.param("cs=8MB", "cs=8MB strategy=prefetch:0", id="prefetch-depth-zero"),
    pytest.param("cs=8MB", "cs=8MB strategy=prefetch:-2", id="prefetch-depth-negative"),
    pytest.param("cs=8MB", "cs=8MB aggregate=yes", id="aggregate-not-on-off"),
    pytest.param(SESSION, SESSION + "\n[fch]\nc1", id="fch-no-gateways"),
    pytest.param("prefix=/p", "prefix=p", id="video-prefix-malformed"),
    pytest.param("gw /p srv", "gw p srv", id="route-prefix-malformed"),
    pytest.param(SESSION, SESSION + "\n[prewarm]\ngw foo 999p 0.5", id="prewarm-tier-undeclared"),
    pytest.param(SESSION, SESSION + "\n[throttles]\nc1 srv at-s=1 bw=1Mbps", id="throttle-no-link"),
    pytest.param(
        "cs=8MB", "cs=1KB\n[prewarm]\ngw foo 240p 1.0\n[nodes]", id="prewarm-over-capacity"
    ),
    pytest.param(
        "gw srv prop-ms=15 bw=20Mbps",
        "gw srv prop-ms=15 bw=20Mbps\nsrv gw prop-ms=15 bw=1Mbps",
        id="link-duplicate-pair",
    ),
    pytest.param(
        "gw /p srv", "gw /p srv\ngw /r p2\n[nodes]\nproducer p2", id="route-via-not-linked"
    ),
    pytest.param(SESSION, SESSION + "\n[fch]\nc1 srv", id="fch-gateway-not-linked"),
    pytest.param(SESSION, SESSION + "\n[fch]\nc1 gw gw", id="fch-gateway-twice"),
    pytest.param("gw /p srv", "gw /other srv", id="prefix-unreachable"),
    # Reachability walks each video's base name to its own server.
    pytest.param("gw /p srv", "gw /p srv\ngw /p/foo c1", id="video-routed-back-to-consumer"),
    pytest.param(
        "gw /p srv",
        "gw /p srv\ngw /p/foo p2\n[nodes]\nproducer p2\n[links]\ngw p2 prop-ms=1",
        id="video-routed-to-other-producer",
    ),
    # A route under a video's base must lead to its server too: forwarding
    # sends the tier's files down it.
    pytest.param("gw /p srv", "gw /p srv\ngw /p/foo/240p c1", id="tier-routed-back-to-consumer"),
    pytest.param(
        "gw srv prop-ms=15 bw=20Mbps",
        "gw srv prop-ms=15 bw=20Mbps\nc1 srv prop-ms=1",
        id="direct-consumer-two-links",
    ),
    # Values only the content build (package, publish) rejects.
    pytest.param("segment-s=2", "segment-s=2 chunk-bytes=0", id="chunk-bytes-zero"),
    pytest.param("duration-s=4", "duration-s=0", id="duration-zero"),
    pytest.param("segment-s=2", "segment-s=0", id="segment-zero"),
    # Values a run would crash on mid-run if parsing let them through.
    pytest.param("bw=20Mbps", "bw=0Mbps", id="link-bw-zero"),
    pytest.param(SESSION, SESSION + "\n[throttles]\ngw srv at-s=1 bw=0", id="throttle-bw-zero"),
    pytest.param(
        SESSION, SESSION + "\n[throttles]\ngw srv at-s=nan bw=1Mbps", id="throttle-at-nan"
    ),
    pytest.param(
        SESSION, SESSION + "\n[throttles]\ngw srv at-s=-1 bw=1Mbps", id="throttle-at-negative"
    ),
    pytest.param(
        SESSION, SESSION + "\n[throttles]\ngw srv at-s=inf bw=1Mbps", id="throttle-at-inf"
    ),
    pytest.param("prop-ms=15", "prop-ms=-15", id="prop-ms-negative"),
    pytest.param("producer srv", "producer srv delay-ms=-1", id="delay-ms-negative"),
    pytest.param(SESSION, SESSION + " start-s=-1", id="start-s-negative"),
    pytest.param("segment-s=2", "segment-s=2 freshness-ms=-1", id="freshness-negative"),
    pytest.param("duration-s=4", "duration-s=nan", id="duration-nan"),
    pytest.param("segment-s=2", "segment-s=inf", id="segment-inf"),
    pytest.param("gw /p srv", "gw /p srv\ngw /p srv", id="route-repeated"),
    pytest.param("seed 2", "seed 2\nhorizon nan", id="horizon-nan"),
    pytest.param("seed 2", "seed 2\nhorizon -5", id="horizon-negative"),
    # Video ids and tier labels must each be one name component that the
    # consumer can parse back out of playlists and resource paths.
    pytest.param("foo", "a/b", id="video-id-slash"),
    pytest.param("foo", "x%2Fy", id="video-id-escaped-slash"),
    pytest.param("foo", "%zz", id="video-id-bad-escape"),
    pytest.param("foo", "c=1", id="video-id-chunk-marker"),
    pytest.param("foo", "v=2", id="video-id-version-marker"),
    pytest.param("foo", 'a"b', id="video-id-quote"),
    pytest.param("foo", "vidé", id="video-id-non-ascii"),
    pytest.param("240p", "2,4p", id="tier-label-comma"),
    pytest.param("240p", "c=3", id="tier-label-chunk-marker"),
    pytest.param("240p", "24/0p", id="tier-label-slash"),
    *REMOVED_KEYS,
    *LINE_ERRORS,
]


@pytest.mark.parametrize("old,new", BAD_VALUES)
def test_validate_rejects_bad_value(tmp_path, capsys, old, new):
    assert old in GOOD
    scn = tmp_path / "bad.scn"
    scn.write_text(GOOD.replace(old, new))
    assert main(["validate", str(scn)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err
    # run rejects it too: parsing, naming the line at fault, or else while
    # building and before any event runs.
    try:
        scenario = parse_scenario(GOOD.replace(old, new))
    except InvalidConfig as exc:
        assert re.match(r"line \d+: ", str(exc)), str(exc)
    else:
        with pytest.raises(InvalidConfig):
            ScenarioRun(scenario)


@pytest.mark.parametrize("old,new", LINE_ERRORS)
def test_validate_names_the_offending_line(tmp_path, capsys, old, new):
    # The edit's last line is the one at fault.
    line = GOOD[: GOOD.index(old)].count("\n") + 1 + new.count("\n")
    scn = tmp_path / "bad.scn"
    scn.write_text(GOOD.replace(old, new))
    assert main(["validate", str(scn)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: line {line}: ")


@pytest.mark.parametrize("old,new,message", BUILD_ERRORS)
def test_validate_names_the_line_of_a_build_error(tmp_path, capsys, old, new, message):
    # The edit's last line that is no section header is the one at fault.
    edit = new.split("\n")
    last = max(k for k, text in enumerate(edit) if not text.startswith("["))
    line = GOOD[: GOOD.index(old)].count("\n") + 1 + last
    scn = tmp_path / "bad.scn"
    scn.write_text(GOOD.replace(old, new))
    assert main(["validate", str(scn)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: line {line}: {message}")


def test_validate_names_unknown_key(tmp_path, capsys):
    scn = tmp_path / "broken.scn"
    scn.write_text(GOOD.replace("prop-ms=5", "zoom=5"))
    assert main(["validate", str(scn)]) == 1
    assert "unknown key 'zoom'" in capsys.readouterr().err


@pytest.mark.parametrize("old,new", REMOVED_KEYS)
def test_validate_names_removed_key(tmp_path, capsys, old, new):
    scn = tmp_path / "broken.scn"
    scn.write_text(GOOD.replace(old, new))
    assert main(["validate", str(scn)]) == 1
    key = new.split()[-1].partition("=")[0]
    assert f"unknown key {key!r}" in capsys.readouterr().err


def test_validate_prewarm_capacity_boundary_agrees_with_run(tmp_path, capsys):
    # The bytes the prewarm set takes, measured by loading it into a store
    # that holds it all.
    warm = GOOD + "\n[prewarm]\ngw foo 240p 1.0\n"
    need = ScenarioRun(parse_scenario(warm)).sim.hosts["gw"].node.cs.used_bytes
    for capacity, ok in ((need, True), (need - 1, False)):
        text = warm.replace("cs=8MB", f"cs={capacity}")
        scn = tmp_path / f"cs{capacity}.scn"
        scn.write_text(text)
        assert main(["validate", str(scn)]) == (0 if ok else 1)
        assert main(["run", str(scn), "--out", str(tmp_path / f"o{capacity}")]) == (0 if ok else 1)
        assert capsys.readouterr().err.count("content store too small") == (0 if ok else 2)
        # prewarm_cache draws the same line on the real packets: build a
        # scenario validated at the full size with the store cut to this one.
        scenario = parse_scenario(warm)
        gw = next(node for node in scenario.nodes if node.args == ["gw"])
        gw.kw["add_forwarder"]["cs_capacity_bytes"] = capacity
        if ok:
            ScenarioRun(scenario)
        else:
            with pytest.raises(CapacityExceeded, match="gw"):
                ScenarioRun(scenario)


def test_validate_accepts_hub_to_hub_forwarding_over_a_backup_route(capsys):
    # Each hub routes the prefix to the other at cost 1 and to srv at cost
    # 2: forwarding reaches srv through hub2's backup route, and so does
    # the reachability check.
    scn = Path(__file__).parent / "data" / "hub_backup.scn"
    assert main(["validate", str(scn)]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_accepts_a_tier_route_to_the_video_server(tmp_path, capsys):
    # A route under the video's base that leads to its own server passes
    # the reachability check, and the session plays over it.
    scn = tmp_path / "tier-route.scn"
    scn.write_text(GOOD.replace("gw /p srv", "gw /p srv\ngw /p/foo/240p srv cost=2"))
    assert main(["validate", str(scn)]) == 0
    assert main(["run", str(scn), "--out", str(tmp_path / "out")]) == 0
    assert "session s1: startup" in capsys.readouterr().out
    report = ScenarioRun(parse_scenario(scn.read_text())).run()
    assert report.sessions[0].aborted is None and len(report.sessions[0].files) == 4


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8"])
def test_run_missing_file_is_config_error(tmp_path, capsys, case):
    # A path that cannot be read as scenario text is a config error with
    # one line on stderr, not a traceback.
    path = tmp_path / "scenario.scn"
    if case == "directory":
        path.mkdir()
    elif case == "not-utf8":
        path.write_bytes(b"scenario x\n\xff\xfe\n")
    for command in (["run", str(path), "--out", str(tmp_path / "out")], ["validate", str(path)]):
        assert main(command) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert str(path) in err


def test_unreachable_prefix_is_runtime_config_error(tmp_path, capsys):
    scn = tmp_path / "bad.scn"
    scn.write_text(GOOD.replace("gw /p srv", "gw /other srv"))
    assert main(["run", str(scn), "--out", str(tmp_path / "o")]) == 1


def test_canned_experiment_runs(tmp_path):
    out = tmp_path / "exp"
    assert main(["experiments", "multicast", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["scenario_id"] == "multicast"
    assert (out / "quality_timeline.csv").exists()
