"""Golden-trace equivalence: the standing license for kernel refactors.

Every case replays a recorded (seed x policy x fault-plan) run and
asserts byte-identity — full ``SystemResults`` JSON, telemetry-JSONL
digest, timeline-CSV digest, kernel TraceMessage digest, and the
``--jobs 2`` vs serial batch — against digests recorded from the **seed
kernel** (see ``tests/golden/corpus.py``).  A failure here means the
change is not a refactor: it altered event ordering, floating-point
arithmetic, RNG consumption, or telemetry emission.

Recordings are regenerated only by
``tools/regen_golden.py --i-know-this-changes-behavior``.
"""

import pytest

from tests.golden import corpus


@pytest.fixture(scope="module")
def manifest():
    return corpus.load_manifest()


def test_manifest_format_matches_corpus(manifest):
    assert manifest["format"] == corpus.CORPUS_FORMAT
    assert set(manifest["cases"]) == {case.name for case in corpus.CASES}


@pytest.mark.parametrize("case", corpus.CASES, ids=lambda case: case.name)
class TestRecordedCases:
    def test_replays_byte_identical(self, case, manifest):
        recorded = manifest["cases"][case.name]
        outcome = corpus.run_case(case)
        # Full-dict comparison first: a mismatch shows *which* metric
        # diverged instead of just two hashes.
        assert outcome["results"] == corpus.load_recorded_results(case.name)
        assert outcome["results_sha256"] == recorded["results_sha256"]
        assert outcome["events_sha256"] == recorded["events_sha256"]
        assert outcome["timeline_sha256"] == recorded["timeline_sha256"]


def test_manifest_lists_every_extension_case(manifest):
    assert set(manifest["extensions"]) == {
        case.name for case in corpus.EXTENSION_CASES
    }


@pytest.mark.parametrize(
    "case", corpus.EXTENSION_CASES, ids=lambda case: case.name
)
def test_extension_case_replays_byte_identical(case, manifest):
    recorded = manifest["extensions"][case.name]
    outcome = corpus.run_extension_case(case)
    assert outcome["results"] == corpus.load_recorded_results(case.name)
    assert outcome["results_sha256"] == recorded["results_sha256"]
    assert outcome["counters"] == recorded["counters"]


def test_kernel_trace_stream_byte_identical(manifest):
    outcome = corpus.run_trace_case()
    assert outcome["trace_messages"] == manifest["trace"]["trace_messages"]
    assert outcome["trace_sha256"] == manifest["trace"]["trace_sha256"]


class TestJobsEquivalence:
    def test_serial_batch_matches_recording(self, manifest):
        assert corpus.run_jobs_batch(jobs=1) == manifest["jobs"]["results_sha256"]

    def test_two_workers_match_recording(self, manifest):
        assert corpus.run_jobs_batch(jobs=2) == manifest["jobs"]["results_sha256"]
