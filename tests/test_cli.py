import json

import pytest

from ndnstream.cli import main

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


def test_validate_names_unknown_key(tmp_path, capsys):
    scn = tmp_path / "broken.scn"
    scn.write_text(GOOD.replace("prop-ms=5", "zoom=5"))
    assert main(["validate", str(scn)]) == 1
    assert "zoom" in capsys.readouterr().err


SESSION = "session s1 consumer=c1 videos=foo"

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
    pytest.param("cs=8MB", "cs=8MB strategy=prefetchfoo", id="strategy-misspelt"),
    pytest.param("cs=8MB", "cs=8MB strategy=prefetch:0", id="prefetch-depth-zero"),
    pytest.param("cs=8MB", "cs=8MB strategy=prefetch:-2", id="prefetch-depth-negative"),
    pytest.param("cs=8MB", "cs=8MB aggregate=yes", id="aggregate-not-on-off"),
    pytest.param(SESSION, SESSION + "\n[fch]\nc1", id="fch-no-gateways"),
    pytest.param("prefix=/p", "prefix=p", id="video-prefix-malformed"),
    pytest.param("gw /p srv", "gw p srv", id="route-prefix-malformed"),
    pytest.param(SESSION, SESSION + "\n[prewarm]\ngw foo 999p 0.5", id="prewarm-tier-undeclared"),
    pytest.param(SESSION, SESSION + "\n[throttles]\nc1 srv at-s=1 bw=1Mbps", id="throttle-no-link"),
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


def test_run_missing_file_is_config_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.scn"), "--out", str(tmp_path)]) == 1


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
