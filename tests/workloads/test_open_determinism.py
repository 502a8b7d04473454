"""Open-arrival determinism: the same ``(seed, WorkloadSpec)`` replays
byte-identically, serially and under the process pool, with telemetry
and faults in the mix — and the default closed spec is a strict no-op.

The open-system analogue of ``tests/faults/test_chaos_determinism.py``.
"""

import dataclasses

import pytest

from repro.experiments.cache import ResultCache, cache_key
from repro.experiments.context import StudyContext
from repro.experiments.parallel import (
    ReplicationTask,
    replication_tasks,
    run_tasks,
)
from repro.experiments.runconfig import RunSettings
from repro.faults.plan import FaultPlan, SiteOutage
from repro.model.config import paper_defaults
from repro.model.system import DistributedDatabase
from repro.policies.registry import make_policy
from repro.runner import RunSpec, run
from repro.sanitize import compare_replays
from repro.telemetry.exporters import events_to_jsonl
from repro.telemetry.session import TelemetryConfig
from repro.workloads import (
    AdmissionControl,
    MMPP,
    PoissonOpen,
    WorkloadSpec,
)

POISSON = WorkloadSpec(
    arrivals=PoissonOpen(rate=0.08),
    admission=AdmissionControl(max_pending=8),
)
BURSTY = WorkloadSpec(
    arrivals=MMPP(rates=(0.02, 0.30), mean_holding=(100.0, 100.0)),
    admission=AdmissionControl(max_pending=8),
)

SPEC = dict(warmup=50.0, duration=500.0, seed=1234)


def open_report(config, *, policy="BNQ", workload=POISSON, telemetry=None,
                faults=None, seed=1234):
    return run(
        config,
        policy,
        RunSpec(
            warmup=50.0,
            duration=500.0,
            seed=seed,
            telemetry=telemetry,
            faults=faults,
            workload=workload,
        ),
    )


class TestByteIdenticalReplay:
    def test_results_replay_identically(self, tiny_config):
        for workload in (POISSON, BURSTY):
            first = open_report(tiny_config, workload=workload).results
            second = open_report(tiny_config, workload=workload).results
            assert first == second, workload.kind
            assert first.workload is not None

    def test_telemetry_jsonl_is_byte_identical(self, tiny_config):
        config = TelemetryConfig(events=True)
        first = open_report(tiny_config, telemetry=config, workload=BURSTY)
        second = open_report(tiny_config, telemetry=config, workload=BURSTY)
        assert events_to_jsonl(first.events) == events_to_jsonl(second.events)

    def test_faulted_open_run_replays(self, tiny_config):
        plan = FaultPlan(site_outages=(SiteOutage(1, 120.0, 60.0),))
        config = TelemetryConfig(events=True)
        first = open_report(
            tiny_config, workload=POISSON, faults=plan, telemetry=config
        )
        second = open_report(
            tiny_config, workload=POISSON, faults=plan, telemetry=config
        )
        assert first.results == second.results
        assert events_to_jsonl(first.events) == events_to_jsonl(second.events)

    def test_different_seed_diverges(self, tiny_config):
        a = open_report(tiny_config, seed=1).results
        b = open_report(tiny_config, seed=2).results
        assert a != b

    def test_sanitizer_sees_identical_draw_traces(self, tiny_config):
        """Instrumented replay: every draw and event pop matches."""

        def scenario():
            return open_report(
                tiny_config,
                workload=BURSTY,
                telemetry=TelemetryConfig(events=True),
            )

        report = compare_replays(scenario, runs=2)
        assert report.identical, report.first_divergence


class TestDefaultSpecIsStrictNoop:
    def test_default_spec_matches_no_workload(self, tiny_config):
        plain = run(tiny_config, "BNQ", RunSpec(**SPEC)).results
        defaulted = run(
            tiny_config, "BNQ", RunSpec(**SPEC, workload=WorkloadSpec())
        ).results
        assert defaulted == plain
        assert defaulted.workload is None  # normalized away entirely

    def test_default_spec_telemetry_matches_no_workload(self, tiny_config):
        config = TelemetryConfig(events=True)
        plain = run(
            tiny_config, "BNQ", RunSpec(**SPEC, telemetry=config)
        ).events
        defaulted = run(
            tiny_config,
            "BNQ",
            RunSpec(**SPEC, telemetry=config, workload=WorkloadSpec()),
        ).events
        assert events_to_jsonl(plain) == events_to_jsonl(defaulted)

    def test_runspec_normalizes_default_to_none(self):
        assert RunSpec(workload=WorkloadSpec()).workload is None
        assert RunSpec(workload=POISSON).workload == POISSON

    def test_settings_normalize_default_to_none(self):
        settings = RunSettings(
            warmup=10.0, duration=20.0, workload=WorkloadSpec()
        )
        assert settings.workload is None

    def test_task_normalizes_default_to_none(self, tiny_config):
        task = ReplicationTask(
            config=tiny_config,
            policy="BNQ",
            seed=1,
            warmup=10.0,
            duration=20.0,
            workload=WorkloadSpec(),
        )
        assert task.workload is None


class TestExecuteBindsAtConstruction:
    def test_execute_rejects_mismatched_workload(self, tiny_config):
        from repro.runner import execute

        system = DistributedDatabase(tiny_config, make_policy("BNQ"), seed=1)
        with pytest.raises(ValueError, match="bind at construction"):
            execute(
                system,
                RunSpec(warmup=10.0, duration=20.0, seed=1, workload=POISSON),
            )



class TestParallelReplay:
    def test_jobs2_matches_serial(self, tiny_config):
        settings = RunSettings(
            warmup=50.0, duration=400.0, replications=2, workload=BURSTY
        )
        tasks = replication_tasks(tiny_config, "BNQ", settings)
        assert all(task.workload == BURSTY for task in tasks)
        serial = run_tasks(tasks, jobs=1)
        parallel = run_tasks(tasks, jobs=2)
        assert serial == parallel
        assert all(r.workload is not None for r in serial)


class TestCacheSeparation:
    def test_open_key_differs_from_closed(self, tiny_config):
        base = cache_key(tiny_config, "BNQ", seed=1, warmup=10.0, duration=20.0)
        opened = cache_key(
            tiny_config,
            "BNQ",
            seed=1,
            warmup=10.0,
            duration=20.0,
            workload=POISSON,
        )
        assert base != opened

    def test_none_workload_key_is_the_legacy_key(self, tiny_config):
        """``workload=None`` must hash exactly like the pre-workloads
        payload, so existing cache archives stay addressable."""
        base = cache_key(tiny_config, "BNQ", seed=1, warmup=10.0, duration=20.0)
        explicit = cache_key(
            tiny_config,
            "BNQ",
            seed=1,
            warmup=10.0,
            duration=20.0,
            workload=None,
        )
        assert base == explicit

    def test_different_specs_different_keys(self, tiny_config):
        a = cache_key(
            tiny_config,
            "BNQ",
            seed=1,
            warmup=10.0,
            duration=20.0,
            workload=POISSON,
        )
        b = cache_key(
            tiny_config,
            "BNQ",
            seed=1,
            warmup=10.0,
            duration=20.0,
            workload=dataclasses.replace(
                POISSON, admission=AdmissionControl(max_pending=9)
            ),
        )
        assert a != b

    def test_open_run_roundtrips_through_cache(self, tiny_config, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        settings = RunSettings(warmup=50.0, duration=400.0, workload=POISSON)
        tasks = replication_tasks(tiny_config, "BNQ", settings)
        fresh = run_tasks(tasks, cache=cache)
        again = run_tasks(tasks, cache=cache)
        assert fresh == again
        assert fresh[0].workload is not None
        assert cache.stats.hits == len(tasks)

    def test_closed_entry_never_answers_open_task(self, tiny_config, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        plain_settings = RunSettings(warmup=50.0, duration=400.0)
        plain = run_tasks(
            replication_tasks(tiny_config, "BNQ", plain_settings), cache=cache
        )
        opened = run_tasks(
            replication_tasks(
                tiny_config, "BNQ", plain_settings.with_workload(POISSON)
            ),
            cache=cache,
        )
        assert plain != opened  # a cache mixup would make these equal
        assert opened[0].workload is not None
        assert plain[0].workload is None


class TestOpenSystemExperiment:
    def test_grid_runs_and_checks_shed_ordering(self, tmp_path):
        from repro.ablation.catalog import GridOutcome, open_study
        from repro.ablation.study import run_study
        from repro.experiments import open_system

        settings = RunSettings(warmup=50.0, duration=300.0, replications=1)
        outcome = run_study(
            open_study(settings, load_factors=(1.2,), kinds=("poisson",)),
            context=StudyContext(cache=ResultCache(tmp_path / "cache")),
        )
        grid = GridOutcome(outcome)
        assert len(outcome.all_cells()) == len(grid.policies) == 4
        assert open_system.load_sharing_sheds_less_past_saturation(grid)
        table = open_system.format_table(outcome)
        assert "shed%" in table

    def test_grid_replays_from_cache(self, tmp_path):
        from repro.ablation.catalog import open_study
        from repro.ablation.study import run_study
        from repro.experiments import open_system

        settings = RunSettings(warmup=50.0, duration=200.0, replications=1)
        cache = ResultCache(tmp_path / "cache")
        spec = open_study(settings, load_factors=(0.8,), kinds=("mmpp",))
        context = StudyContext(cache=cache)
        first = run_study(spec, context=context)
        second = run_study(spec, context=context)
        assert open_system.format_table(first) == open_system.format_table(
            second
        )
        assert cache.stats.hits > 0
