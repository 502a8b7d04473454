"""Composition: every extension mechanism runs inside the one life cycle.

The mechanisms combine with each other, with a fault plan and with an
open workload — on a bare ``DistributedDatabase``, through the
experiment harness's ``ReplicationTask`` and as a study cell.
"""

import dataclasses

import pytest

from repro.ablation import build_study, expand, run_study
from repro.experiments.context import StudyContext
from repro.experiments.parallel import ReplicationTask, run_tasks
from repro.extensions import (
    MECHANISMS,
    HeterogeneousCPU,
    HeterogeneousCPUSpec,
    Migration,
    PartialReplication,
    ReplicationMap,
    StaleLoadInfo,
    StaleLoadInfoSpec,
    Subqueries,
    Updates,
    UpdatesSpec,
)
from repro.faults.plan import (
    FaultPlan,
    LoadBoardOutage,
    MessageFaults,
    RandomOutages,
    SiteOutage,
)
from repro.model.system import DistributedDatabase
from repro.policies.registry import make_policy
from repro.runner import RunSpec, execute
from repro.telemetry.events import QueryAborted, QueryAllocated
from repro.telemetry.session import TelemetryConfig
from repro.workloads import AdmissionControl, PoissonOpen, WorkloadSpec

CHAOS = FaultPlan(
    site_outages=(SiteOutage(0, 120.0, 40.0),),
    random_outages=(RandomOutages(mtbf=500.0, mttr=25.0),),
    messages=MessageFaults(loss_prob=0.05, retransmit_timeout=2.0),
    loadboard_outages=(LoadBoardOutage(200.0, 50.0),),
    max_retries=10,
    retry_backoff=2.0,
)

POISSON = WorkloadSpec(
    arrivals=PoissonOpen(rate=0.08),
    admission=AdmissionControl(max_pending=8),
)

KIND_SPECS = {
    "stale": StaleLoadInfoSpec(refresh_interval=25.0, broadcast_cost=0.2),
    "updates": UpdatesSpec(update_prob=0.3, update_pages=2, apply_cpu_time=0.1),
    "heterogeneous": HeterogeneousCPUSpec(cpu_speed_factors=(0.5, 1.0, 2.0)),
}


class TestHarnessKinds:
    @pytest.mark.parametrize("kind", sorted(MECHANISMS.classes))
    def test_spec_builds_its_mechanism_from_every_field(self, kind):
        # Every sample field differs from its default, so a build() that
        # drops one fails here.
        spec = KIND_SPECS[kind]
        mechanism = spec.build()
        for field in dataclasses.fields(spec):
            assert getattr(mechanism, field.name) == getattr(spec, field.name)

    @pytest.mark.parametrize("kind", sorted(MECHANISMS.classes))
    def test_faulted_open_task_jobs2_matches_serial(self, tiny_config, kind):
        tasks = [
            ReplicationTask(
                tiny_config,
                "LERT",
                mechanisms=(KIND_SPECS[kind],),
                run=RunSpec(
                    warmup=50.0, duration=500.0, seed=seed, faults=CHAOS, workload=POISSON
                ),
            )
            for seed in (1, 2)
        ]
        serial = run_tasks(tasks, jobs=1)
        assert run_tasks(tasks, jobs=2) == serial
        for results in serial:
            assert results.availability is not None
            workload = results.workload
            assert workload is not None
            assert workload.offered == workload.admitted + workload.shed
            assert results.completions > 0

    def test_bad_mechanism_arguments_fail_at_task_construction(self, tiny_config):
        run = RunSpec(warmup=1.0, duration=2.0, seed=1)
        with pytest.raises(ValueError, match="refresh_interval"):
            StaleLoadInfoSpec(refresh_interval=-1.0)
        with pytest.raises(TypeError, match="nope"):
            UpdatesSpec(nope=1)
        with pytest.raises(ValueError, match="two of kind 'updates'"):
            ReplicationTask(
                tiny_config, "LERT", mechanisms=(UpdatesSpec(), UpdatesSpec()), run=run
            )
        with pytest.raises(ValueError, match="without telemetry"):
            ReplicationTask(
                tiny_config, "LERT", run=RunSpec(1.0, 2.0, telemetry=TelemetryConfig())
            )


class TestComposedStudyCell:
    """The smoke study's stale-info + updates cell is the direct composition."""

    def test_cell_equals_direct_run_and_jobs2_equals_serial(self):
        spec = build_study("smoke")
        serial = run_study(spec)
        cell = serial.cell("mechanisms:stale-updates")
        (task,) = expand(spec).cell(cell.label).tasks
        system = DistributedDatabase(
            spec.config,
            make_policy(spec.policy),
            seed=task.run.seed,
            extensions=(StaleLoadInfo(50.0), Updates(0.2)),
        )
        direct = execute(system, task.run).results
        assert cell.per_replication == (direct,)
        assert direct.completions > 0
        assert run_study(spec, context=StudyContext(jobs=2)) == serial


class TestUpdatesUnderFaults:
    def test_lost_update_is_never_propagated(self, tiny_config):
        # Every site goes down for good: in-flight updates abort, find no
        # site to retry at, and are lost.  Only committed updates propagate.
        blackout = FaultPlan(
            site_outages=tuple(
                SiteOutage(site, 300.0, 1e6) for site in range(tiny_config.num_sites)
            ),
            max_retries=1,
        )
        updates = Updates(update_prob=1.0)
        committed = []
        original = updates.on_commit

        def spy(query):
            committed.append(query.execution_site)
            original(query)

        updates.on_commit = spy
        system = DistributedDatabase(
            tiny_config, make_policy("LERT"), seed=3, faults=blackout, extensions=(updates,)
        )
        system.run(0.0, 1000.0)
        injector = system.fault_injector
        assert injector is not None and injector.queries_lost > 0
        assert committed and None not in committed
        assert updates.updates_executed == len(committed)
        assert updates.applies_started == len(committed) * (tiny_config.num_sites - 1)


def _board_tracker(system):
    """Assert every deregistration names the site the query is registered at."""
    registered = {}
    board = system.load_board
    register, deregister = board.register, board.deregister

    def tracked_register(query, site):
        assert query.qid not in registered
        registered[query.qid] = site
        register(query, site)

    def tracked_deregister(query, site):
        assert registered.pop(query.qid) == site
        deregister(query, site)

    board.register = tracked_register
    board.deregister = tracked_deregister
    return registered


class TestBoundariesUnderFaults:
    def test_migration_never_targets_a_down_site(self, tiny_config):
        loaded = tiny_config.with_site(think_time=15.0)
        plan = FaultPlan(
            site_outages=(SiteOutage(1, 100.0, 1e6),),
            random_outages=(RandomOutages(mtbf=300.0, mttr=30.0, site=2),),
            max_retries=10,
        )
        migration = Migration(check_interval=1, threshold=1.05, max_migrations=5)
        system = DistributedDatabase(
            loaded, make_policy("LERT"), seed=4, faults=plan, extensions=(migration,)
        )
        injector = system.fault_injector
        assert injector is not None
        targets = []
        original = migration.target

        def spy(query, site, left):
            target = original(query, site, left)
            if target != site:
                targets.append((target, injector.is_up(target)))
            return target

        migration.target = spy
        _board_tracker(system)
        system.run(0.0, 2000.0)
        assert targets
        assert all(up for _, up in targets)
        assert migration.total_migrations == len(targets)

    def test_mid_pipeline_crash_deregisters_the_current_site(self, tiny_config):
        replication = ReplicationMap.round_robin_k(tiny_config.num_sites, 6, 1)
        plan = FaultPlan(
            random_outages=(RandomOutages(mtbf=150.0, mttr=20.0),),
            max_retries=20,
        )
        system = DistributedDatabase(
            tiny_config,
            make_policy("LERT"),
            seed=5,
            faults=plan,
            extensions=(
                PartialReplication(replication),
                Subqueries(multi_prob=1.0, subquery_count=3),
            ),
        )
        registered = _board_tracker(system)
        allocated = {}
        moved_aborts = []
        system.sim.bus.subscribe(
            QueryAllocated, lambda e: allocated.__setitem__(e.qid, e.execution_site)
        )
        system.sim.bus.subscribe(
            QueryAborted,
            lambda e: moved_aborts.append(e.qid) if e.site != allocated[e.qid] else None,
        )
        system.run(0.0, 3000.0)
        # Some crash hit a query after its pipeline had moved on from the
        # allocated site; the tracker saw every deregistration name the
        # site the query was registered at.
        assert moved_aborts
        assert system.load_board.total_queries == len(registered)


    def test_stage_with_every_holder_down_aborts_the_attempt(self, tiny_config):
        # Item i lives on site i only, and site 2 is down for good: a
        # pipeline whose next stage reads item 2 cannot go on, so the
        # attempt aborts at that boundary, from the up site it runs at.
        plan = FaultPlan(site_outages=(SiteOutage(2, 50.0, 1e6),), max_retries=2)
        system = DistributedDatabase(
            tiny_config,
            make_policy("LERT"),
            seed=9,
            faults=plan,
            extensions=(
                PartialReplication(ReplicationMap.round_robin_k(3, 3, 1)),
                Subqueries(multi_prob=1.0, subquery_count=2),
            ),
        )
        _board_tracker(system)
        aborted_at = []
        system.sim.bus.subscribe(QueryAborted, lambda e: aborted_at.append(e.site))
        system.run(0.0, 1500.0)
        injector = system.fault_injector
        assert injector is not None and injector.queries_lost > 0
        assert aborted_at and set(aborted_at) - {2}


class TestAllTogether:
    def test_stale_updates_heterogeneous_migration(self, tiny_config):
        loaded = tiny_config.with_site(think_time=15.0)

        def build():
            mechanisms = (
                StaleLoadInfo(refresh_interval=10.0),
                Updates(update_prob=0.2),
                HeterogeneousCPU((0.5, 1.0, 2.0)),
                Migration(threshold=1.1, check_interval=2),
            )
            system = DistributedDatabase(
                loaded, make_policy("LERT-HET"), seed=6, extensions=mechanisms
            )
            return system, mechanisms

        system, (stale, updates, _, migration) = build()
        results = system.run(100.0, 1500.0)
        assert results.completions > 50
        assert stale.refreshes > 0
        assert updates.updates_executed > 0
        assert migration.total_migrations > 0
        again, _ = build()
        assert again.run(100.0, 1500.0) == results

    def test_all_six_with_faults_and_open_arrivals(self, tiny_config):
        def build():
            mechanisms = (
                StaleLoadInfo(refresh_interval=10.0),
                Updates(update_prob=0.2),
                HeterogeneousCPU((0.5, 1.0, 2.0)),
                Migration(threshold=1.1, check_interval=2),
                PartialReplication(ReplicationMap.round_robin_k(3, 6, 2)),
                Subqueries(multi_prob=0.5, subquery_count=2),
            )
            return DistributedDatabase(
                tiny_config,
                make_policy("LERT"),
                seed=7,
                faults=CHAOS,
                workload=POISSON,
                extensions=mechanisms,
            )

        system = build()
        results = system.run(50.0, 1000.0)
        assert results.completions > 20
        assert results.workload is not None
        assert results.workload.offered == results.workload.admitted + results.workload.shed
        assert build().run(50.0, 1000.0) == results
