"""The generated scenario corpus and the reuse of a parsed scenario.

``tests/data/corpus_digests.json`` maps each pinned seed of
``scenario_corpus.generate`` to the SHA-256 of its ``report.to_json()``.
Seeds whose sessions abort or rebuffer stay pinned as they run today; a
deliberate behaviour change regenerates the table and says which seeds
moved and why.
"""

import hashlib
import json
import pathlib

import pytest

from ndnstream.netsim.scenario import ScenarioRun, parse_scenario

from scenario_corpus import generate

DATA = pathlib.Path(__file__).parent / "data"


def test_corpus_report_digests():
    pinned = json.loads((DATA / "corpus_digests.json").read_text())
    got = {}
    for seed in pinned:
        report = ScenarioRun(parse_scenario(generate(int(seed)))).run()
        got[seed] = hashlib.sha256(report.to_json().encode()).hexdigest()
    if got != pinned:
        print(json.dumps(got, indent=2))
    assert got == pinned


@pytest.mark.parametrize("seed", [22, 27])
def test_parsed_scenario_runs_twice_to_the_same_report(seed):
    # A parsed Scenario is a description, not run state: building it again
    # gives fresh estimators, links and caches. Seed 22 probes two gateways,
    # prewarms and throttles; seed 27 rebuffers eight sessions behind a
    # throttled, queue-limited chain.
    scenario = parse_scenario(generate(seed))
    first = ScenarioRun(scenario).run().to_json()
    assert ScenarioRun(scenario).run().to_json() == first
