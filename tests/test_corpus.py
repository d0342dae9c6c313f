"""The generated scenario corpus and the reuse of a parsed scenario.

``tests/data/corpus_digests.json`` maps each pinned seed of
``scenario_corpus.generate`` to the SHA-256 of its ``report.to_json()``.
Seeds whose sessions abort or rebuffer stay pinned as they run today; a
deliberate behaviour change regenerates the table and says which seeds
moved and why. The same runs also check, once each has ended, the store
and PIT invariants that no report field shows.
"""

import hashlib
import json
import pathlib

import pytest

from ndnstream.netsim.scenario import ScenarioRun, parse_scenario
from ndnstream.netsim.topology import PIT_SWEEP_INTERVAL_S, ForwarderHost

from conftest import unplayed_media_playlists
from scenario_corpus import generate

DATA = pathlib.Path(__file__).parent / "data"


PINNED = json.loads((DATA / "corpus_digests.json").read_text())


@pytest.fixture(scope="module")
def corpus_runs():
    """Each pinned seed's ``ScenarioRun`` once it has run, with its report."""
    runs = {}
    for seed in PINNED:
        run = ScenarioRun(parse_scenario(generate(int(seed))))
        runs[seed] = (run, run.run())
    return runs


def test_corpus_report_digests(corpus_runs):
    got = {
        seed: hashlib.sha256(report.to_json().encode()).hexdigest()
        for seed, (_run, report) in corpus_runs.items()
    }
    if got != PINNED:
        print(json.dumps(got, indent=2))
    assert got == PINNED


def test_corpus_runs_end_with_consistent_stores_and_pits(corpus_runs):
    # Every content store's byte count, base index and freshness bound agree
    # with its entries, and the sweep leaves no PIT entry more than one
    # sweep interval past its expiry.
    for seed, (run, _report) in corpus_runs.items():
        end = run.sim.engine.now
        for node_id, host in run.sim.hosts.items():
            if not isinstance(host, ForwarderHost):
                continue
            where = f"seed {seed}, {node_id}"
            cs = host.node.cs
            entries = cs.entries
            assert cs.used_bytes == sum(e.data._wire_size for e in entries.values()), where
            assert cs.used_bytes <= cs.capacity_bytes, where
            indexed = {}
            for base, chunks in cs.by_base.items():
                assert chunks, where
                for (version, chunk), full_name in chunks.items():
                    vc = entries[full_name].data.name
                    assert (vc.base, vc.version, vc.chunk) == (base, version, chunk), where
                    indexed[full_name] = base
            assert indexed.keys() == entries.keys(), where
            for entry in entries.values():
                assert cs.earliest <= entry.inserted, where
                assert cs.least <= entry.data.freshness_ms, where
            for name, pit_entry in host.node.pit.items():
                assert pit_entry.expiry >= end - PIT_SWEEP_INTERVAL_S, (where, name)


def test_corpus_sessions_fetch_only_media_playlists_they_play(corpus_runs):
    unplayed = {
        seed: found
        for seed, (_run, report) in corpus_runs.items()
        if (found := unplayed_media_playlists(json.loads(report.to_json())))
    }
    assert not unplayed, unplayed


@pytest.mark.parametrize("seed", [22, 27])
def test_parsed_scenario_runs_twice_to_the_same_report(seed):
    # A parsed Scenario is a description, not run state: building it again
    # gives fresh estimators, links and caches. Seed 22 probes two gateways,
    # prewarms and throttles; seed 27 rebuffers eight sessions behind a
    # throttled, queue-limited chain.
    scenario = parse_scenario(generate(seed))
    first = ScenarioRun(scenario).run().to_json()
    assert ScenarioRun(scenario).run().to_json() == first
