"""Golden digests: the regression net for whole-platform results.

``golden_digests.json`` pins the report of every library scenario (at
``scale=300, seed=0``) plus the Fig. 5 trace and Table I rows.  The
digests were recorded while the per-device generator engine and the
wave-scheduled path both existed and agreed byte for byte, so matching
them proves the wave path still reproduces that engine's results.  The
reference model (:mod:`repro.reference`) must reproduce them too.
"""

import dataclasses
import json

import pytest

from repro.experiments import run_fig5_device_trace, run_table1_stage_metrics
from repro.reference import reference_tiers
from repro.scenarios import SCENARIOS, build_scenario, run_scenario


def library_report(name: str, golden: dict) -> str:
    pinned = golden["library_scenarios"]
    return run_scenario(build_scenario(name, scale=pinned["scale"], seed=pinned["seed"])).to_json()


def test_every_library_scenario_is_pinned(golden):
    assert set(golden["library_scenarios"]["digests"]) == set(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_library_scenario_report_matches_golden(name, golden, sha256):
    report = library_report(name, golden)
    assert json.loads(report)["batch"] is True
    assert sha256(report) == golden["library_scenarios"]["digests"][name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_reference_tiers_reproduce_golden(name, golden, sha256):
    with reference_tiers():
        report = library_report(name, golden)
    assert sha256(report) == golden["library_scenarios"]["digests"][name]


def test_fig5_device_trace_matches_golden(golden, sha256):
    trace = run_fig5_device_trace(rounds=2)
    digest = sha256(json.dumps(dataclasses.asdict(trace), sort_keys=True))
    assert digest == golden["experiments"]["fig5_device_trace"]


def test_table1_stage_metrics_match_golden(golden, sha256):
    rows = run_table1_stage_metrics()
    digest = sha256(json.dumps(dataclasses.asdict(rows), sort_keys=True))
    assert digest == golden["experiments"]["table1_stage_metrics"]
