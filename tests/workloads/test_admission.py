"""Admission control: shedding, counters, telemetry, results plumbing."""

import pytest

from repro.codec import decode, encode
from repro.model.metrics import WorkloadSummary
from repro.model.serialization import results_from_dict, results_to_dict
from repro.runner import RunSpec, run
from repro.telemetry.events import QueryShed
from repro.telemetry.session import TelemetryConfig
from repro.workloads import (
    AdmissionControl,
    PoissonOpen,
    TraceDriven,
    WorkloadSpec,
)

#: Well past tiny_config's capacity, so a tight limit must shed.
OVERLOAD = PoissonOpen(rate=0.5)


def open_run(config, *, max_pending=2, telemetry=None, seed=11, rate=None):
    arrivals = OVERLOAD if rate is None else PoissonOpen(rate=rate)
    spec = WorkloadSpec(
        arrivals=arrivals,
        admission=AdmissionControl(max_pending=max_pending),
    )
    return run(
        config,
        "LOCAL",
        RunSpec(
            warmup=50.0,
            duration=500.0,
            seed=seed,
            telemetry=telemetry,
            workload=spec,
        ),
    )


class TestCounters:
    def test_offered_splits_into_admitted_and_shed(self, tiny_config):
        summary = open_run(tiny_config).results.workload
        assert summary is not None
        assert summary.kind == "poisson"
        assert summary.offered == summary.admitted + summary.shed
        assert summary.shed > 0  # the overload really bit
        assert summary.shed_fraction == pytest.approx(
            summary.shed / summary.offered
        )

    def test_closed_run_reports_no_workload_summary(self, tiny_config):
        report = run(
            tiny_config, "LOCAL", RunSpec(warmup=50.0, duration=500.0, seed=11)
        )
        assert report.results.workload is None

    def test_unlimited_admission_never_sheds(self, tiny_config):
        spec = WorkloadSpec(arrivals=PoissonOpen(rate=0.02))
        report = run(
            tiny_config,
            "LOCAL",
            RunSpec(warmup=50.0, duration=500.0, seed=11, workload=spec),
        )
        summary = report.results.workload
        assert summary is not None
        assert summary.shed == 0
        assert summary.shed_fraction == 0.0
        assert summary.offered == summary.admitted

    def test_looser_limit_sheds_less(self, tiny_config):
        tight = open_run(tiny_config, max_pending=1).results.workload
        loose = open_run(tiny_config, max_pending=50).results.workload
        assert tight.shed > loose.shed
        assert tight.shed_fraction > loose.shed_fraction


class TestCommonRandomNumbers:
    def test_offered_serials_are_admission_independent(self, tiny_config):
        """Runs differing only in max_pending face the same arrivals.

        Serial numbers count *offered* arrivals, so the n-th arrival at
        a site draws the same derived stream — and the same offered
        count — whatever the admission limit does.
        """
        tight = open_run(tiny_config, max_pending=1).results.workload
        loose = open_run(tiny_config, max_pending=50).results.workload
        assert tight.offered == loose.offered


class TestShedTelemetry:
    def test_shed_arrivals_emit_queryshed_events(self, tiny_config):
        report = open_run(
            tiny_config, telemetry=TelemetryConfig(events=True)
        )
        sheds = [e for e in report.events if isinstance(e, QueryShed)]
        assert sheds
        # The event log spans the whole run; the counter resets at the
        # end of warmup, so it must match the post-warmup events.
        after_warmup = [e for e in sheds if e.time > 50.0]
        assert len(after_warmup) == report.results.workload.shed
        for event in sheds:
            assert event.pending >= 2  # at (or racing past) the limit
            assert 0 <= event.site < tiny_config.num_sites
            assert event.serial >= 1

    def test_trace_overload_sheds_deterministically(self, tiny_config):
        # Three simultaneous arrivals at one site under max_pending=2:
        # exactly the third is shed, no randomness involved.
        spec = WorkloadSpec(
            arrivals=TraceDriven(arrivals=((1.0, 0), (1.0, 0), (1.0, 0))),
            admission=AdmissionControl(max_pending=2),
        )
        report = run(
            tiny_config,
            "LOCAL",
            RunSpec(
                warmup=0.0,
                duration=50.0,
                seed=5,
                telemetry=TelemetryConfig(events=True),
                workload=spec,
            ),
        )
        summary = report.results.workload
        assert (summary.offered, summary.admitted, summary.shed) == (3, 2, 1)
        (shed,) = [e for e in report.events if isinstance(e, QueryShed)]
        assert (shed.time, shed.site, shed.serial) == (1.0, 0, 3)


class TestSummarySerialization:
    def test_summary_roundtrips(self, tiny_config):
        summary = open_run(tiny_config).results.workload
        restored = decode(WorkloadSummary, encode(summary))
        assert restored == summary

    def test_results_with_workload_roundtrip(self, tiny_config):
        results = open_run(tiny_config).results
        assert results.workload is not None
        assert results_from_dict(results_to_dict(results)) == results

    def test_closed_results_payload_has_no_workload_key(self, tiny_config):
        """Golden-digest stability: closed runs serialize exactly as before."""
        report = run(
            tiny_config, "LOCAL", RunSpec(warmup=50.0, duration=500.0, seed=11)
        )
        assert "workload" not in results_to_dict(report.results)
