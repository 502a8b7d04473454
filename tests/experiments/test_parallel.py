"""Serial-vs-parallel equivalence and determinism tests.

The contract under test: for any experiment in the harness, ``jobs=N``
produces results *bit-identical* to ``jobs=1`` — exact float equality, not
approximate.  Common random numbers make this well-defined (each replication
is a pure function of its seed), deterministic reassembly makes it true
regardless of completion order, and fsum-based averaging makes replication
averaging order-independent.
"""

import json
import random

import pytest

from repro.ablation import catalog
from repro.ablation.catalog import GridOutcome, grid_study
from repro.ablation.study import metrics_from_runs, run_study, simulate
from repro.codec import ConfigError, decode, encode
from repro.experiments import (
    ablations,
    msg_sensitivity,
    table8,
    table9,
    table10,
    table11,
    table12,
)
from repro.experiments.context import StudyContext
from repro.experiments.parallel import (
    ReplicationTask,
    replication_tasks,
    resolve_jobs,
    run_task,
    run_tasks,
)
from repro.experiments.runconfig import QUICK, RunSettings
from repro.extensions import StaleLoadInfoSpec
from repro.model.config import paper_defaults
from repro.runner import RunSpec

#: Short but real runs: full paper-defaults systems, reduced horizons.
SMALL = RunSettings(warmup=150.0, duration=600.0, replications=1, base_seed=42)
SMALL3 = RunSettings(warmup=150.0, duration=600.0, replications=3, base_seed=42)


class TestResolveJobs:
    def test_serial_values(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1

    def test_explicit_count(self):
        assert resolve_jobs(7) == 7

    def test_all_cores(self):
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(-1) >= 1


class TestTaskSpec:
    def test_rejects_unknown_kind(self):
        data = encode(ReplicationTask(paper_defaults(), "LOCAL", run=RunSpec(10.0, 20.0)))
        data["mechanisms"] = [{"kind": "warp"}]
        with pytest.raises(ConfigError, match=r"mechanisms\[0\]: unknown mechanism kind 'warp'"):
            decode(ReplicationTask, data)

    def test_kwargs_canonicalized(self):
        """A spec built in code keys like the same spec read from JSON."""
        run = RunSpec(10.0, 20.0, seed=1)
        a = ReplicationTask(
            paper_defaults(), "LERT", mechanisms=(StaleLoadInfoSpec(refresh_interval=5),), run=run
        )
        b = decode(ReplicationTask, json.loads(json.dumps(encode(a))))
        assert a == b
        assert a.key() == b.key()
        assert a.mechanisms[0].refresh_interval == 5.0

    def test_replication_tasks_use_settings_seeds(self):
        tasks = replication_tasks(paper_defaults(), "BNQ", SMALL3)
        assert [t.run for t in tasks] == [SMALL3.spec(r) for r in range(3)]
        assert [t.run.seed for t in tasks] == [SMALL3.seed_for(r) for r in range(3)]


class TestSimulateEquivalence:
    def test_single_pair_jobs4_identical(self, tiny_config):
        serial = simulate(tiny_config, "BNQ", SMALL3, jobs=1)
        parallel = simulate(tiny_config, "BNQ", SMALL3, jobs=4)
        assert serial == parallel  # exact dataclass equality, incl. CIs

    def test_grid_cells_match_individual_simulate(self, tiny_config):
        spec = grid_study(
            "pair",
            config=tiny_config,
            settings=SMALL,
            points=[("tiny", {})],
            policies=("LOCAL", "BNQ"),
        )
        grid = GridOutcome(run_study(spec, context=StudyContext(jobs=4)))
        assert grid.cell("tiny", "LOCAL").metrics == simulate(
            tiny_config, "LOCAL", SMALL
        )
        assert grid.cell("tiny", "BNQ").metrics == simulate(tiny_config, "BNQ", SMALL)

    def test_parallel_runs_are_repeatable(self, tiny_config):
        tasks = replication_tasks(tiny_config, "LERT", SMALL3)
        first = run_tasks(tasks, jobs=2)
        second = run_tasks(tasks, jobs=2)
        assert first == second

    def test_worker_matches_in_process_execution(self, tiny_config):
        """Subprocess workers reproduce in-process results exactly."""
        tasks = replication_tasks(tiny_config, "BNQ", SMALL3)[:2]
        in_process = [run_task(task) for task in tasks]
        via_pool = run_tasks(tasks, jobs=2)
        assert in_process == via_pool

    def test_duplicate_tasks_share_one_simulation(self, tiny_config):
        task = replication_tasks(tiny_config, "LOCAL", SMALL)[0]
        twice = run_tasks([task, task], jobs=1)
        assert twice[0] == twice[1] == run_task(task)


class TestAveragingOrderIndependence:
    def test_fsum_averaging_is_permutation_invariant(self, tiny_config):
        tasks = replication_tasks(tiny_config, "BNQ", SMALL3)
        runs = run_tasks(tasks, jobs=1)
        baseline = metrics_from_runs(runs)
        rng = random.Random(0)
        for _ in range(5):
            shuffled = list(runs)
            rng.shuffle(shuffled)
            permuted = metrics_from_runs(shuffled)
            # Averages are exactly equal under permutation...
            assert permuted.waiting_time == baseline.waiting_time
            assert permuted.response_time == baseline.response_time
            assert permuted.fairness == baseline.fairness
            assert permuted.subnet_utilization == baseline.subnet_utilization
            assert permuted.cpu_utilization == baseline.cpu_utilization
            assert permuted.disk_utilization == baseline.disk_utilization
            assert permuted.remote_fraction == baseline.remote_fraction
            assert permuted.completions == baseline.completions
        # ...while the runner returns replications in task order.
        assert run_tasks(tasks, jobs=2) == runs


#: (study builder, renderer module, grid kwargs) — reduced grids keep the
#: suite fast while still exercising every simulated table through the pool.
TABLE_CASES = [
    pytest.param(catalog.table8_study, table8, {"think_times": (150.0,)}, id="table8"),
    pytest.param(catalog.table9_study, table9, {"mpl_values": (15,)}, id="table9"),
    pytest.param(catalog.table10_study, table10, {"mpl_grid": (6, 10)}, id="table10"),
    pytest.param(catalog.table11_study, table11, {"site_counts": (2, 4)}, id="table11"),
    pytest.param(catalog.table12_study, table12, {"io_probs": (0.4,)}, id="table12"),
    pytest.param(
        catalog.msg_study, msg_sensitivity, {"msg_lengths": (0.5, 2.0)}, id="msg"
    ),
]


JOBS4 = StudyContext(jobs=4)


def both(spec, context=JOBS4):
    """The study run serially and under *context*."""
    return run_study(spec), run_study(spec, context=context)


class TestTableEquivalence:
    @pytest.mark.parametrize("build, module, kwargs", TABLE_CASES)
    def test_jobs4_bit_identical_to_serial(self, build, module, kwargs):
        serial, parallel = both(build(SMALL, **kwargs))
        assert serial == parallel
        assert module.format_table(serial) == module.format_table(parallel)

    def test_table9_quick_scale_equivalence(self):
        """One case at the real ``quick`` preset (the satellite contract)."""
        serial, parallel = both(catalog.table9_study(QUICK, mpl_values=(15,)))
        assert serial == parallel


class TestSweepEquivalence:
    def test_grid_study_jobs_identical(self):
        spec = grid_study(
            "mpl",
            config=paper_defaults(num_sites=3, mpl=4, think_time=50.0),
            settings=SMALL,
            points=[(str(v), {"config_patches": (("site.mpl", v),)}) for v in (3, 5)],
            policies=("LOCAL", "BNQ"),
        )
        serial, parallel = both(spec)
        assert serial.all_cells() == parallel.all_cells()
        serial_grid, parallel_grid = GridOutcome(serial), GridOutcome(parallel)
        assert [serial_grid.waiting(p, "LOCAL") for p in ("3", "5")] == [
            parallel_grid.waiting(p, "LOCAL") for p in ("3", "5")
        ]


class TestAblationEquivalence:
    def test_stale_info_sweep(self):
        serial, parallel = both(catalog.stale_info_study(SMALL, intervals=(0.0, 25.0)))
        assert serial == parallel
        assert ablations.stale_waits(serial) == ablations.stale_waits(parallel)

    def test_update_fraction_sweep(self):
        serial, parallel = both(
            catalog.update_fraction_study(SMALL, fractions=(0.0, 0.2))
        )
        assert serial == parallel

    def test_heterogeneity_study(self):
        serial, parallel = both(
            catalog.heterogeneity_study_spec(SMALL, speed_factors=(0.5, 2.0))
        )
        assert serial == parallel

    def test_disk_organization_study(self):
        serial, parallel = both(
            catalog.disk_organization_study_spec(SMALL, policies=("LOCAL",)),
            StudyContext(jobs=2),
        )
        assert serial == parallel
