"""Every committed JSON format re-encodes byte-identically after a decode.

Decoding is the exact inverse of encoding: a committed study, golden
result, decision log or Chrome trace read back and written again gives
the file it was read from, and a result cache entry read back and put
again gives the bytes it was written as.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.ablation.spec import StudySpec
from repro.codec import decode, encode
from repro.experiments.cache import ResultCache
from repro.faults.plan import FaultPlan, MessageFaults, SiteOutage
from repro.model.metrics import SystemResults
from repro.runner import RunSpec, run
from repro.telemetry.session import TelemetryConfig
from repro.telemetry.tracing import (
    decisions_from_jsonl,
    decisions_to_jsonl,
    spans_from_chrome_json,
    spans_to_chrome_json,
)
from repro.workloads import AdmissionControl, PoissonOpen, WorkloadSpec

ROOT = pathlib.Path(__file__).resolve().parents[2]
STUDIES = sorted((ROOT / "studies").glob("*.json"))
GOLDEN_RESULTS = sorted((ROOT / "tests" / "golden").glob("results_*.json"))
TELEMETRY_DATA = ROOT / "tests" / "telemetry" / "data"


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("path", STUDIES, ids=lambda p: p.name)
def test_study_reencodes_identically(path):
    text = path.read_text(encoding="utf-8")
    spec = decode(StudySpec, json.loads(text))
    assert json.dumps(encode(spec), indent=2, sort_keys=True) + "\n" == text


@pytest.mark.parametrize("path", GOLDEN_RESULTS, ids=lambda p: p.name)
def test_golden_results_reencode_identically(path):
    text = path.read_text(encoding="utf-8")
    results = decode(SystemResults, json.loads(text))
    assert _canonical(encode(results)) + "\n" == text


def test_decision_log_reencodes_identically():
    text = (TELEMETRY_DATA / "decisions.jsonl").read_text(encoding="utf-8")
    assert decisions_to_jsonl(decisions_from_jsonl(text)) == text


def test_chrome_trace_reencodes_identically():
    text = (TELEMETRY_DATA / "trace.json").read_text(encoding="utf-8")
    assert spans_to_chrome_json(spans_from_chrome_json(text)) == text


OPEN = WorkloadSpec(arrivals=PoissonOpen(rate=0.05), admission=AdmissionControl(max_pending=3))
FAULTS = FaultPlan(
    site_outages=(SiteOutage(site=1, at=60.0, duration=40.0),),
    messages=MessageFaults(loss_prob=0.05),
)

#: Run kind -> (RunSpec options, the result field that kind fills in).
RUNS = {
    "open": (dict(workload=OPEN), "workload"),
    "faulted": (dict(faults=FAULTS), "availability"),
    "audited": (dict(telemetry=TelemetryConfig(spans=True, decisions=True)), "decisions"),
}


@pytest.mark.parametrize("kind", sorted(RUNS))
def test_cache_entry_reencodes_identically(kind, tiny_config, tmp_path):
    options, filled = RUNS[kind]
    spec = RunSpec(warmup=50.0, duration=300.0, seed=3, **options)
    results = run(tiny_config, "LERT", spec).results
    assert getattr(results, filled) is not None
    cache = ResultCache(tmp_path)
    key = "ab" * 32
    cache.put(key, results)
    written = cache.path_for(key).read_bytes()
    cache.put(key, cache.get(key))
    assert cache.path_for(key).read_bytes() == written
