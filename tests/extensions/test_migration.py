"""Unit tests for the query-migration mechanism."""

import pytest

from repro.extensions.migration import Migration
from repro.model.system import DistributedDatabase
from repro.policies.registry import make_policy


def _system(config, policy, seed=0, **kwargs):
    migration = Migration(**kwargs)
    system = DistributedDatabase(
        config, make_policy(policy), seed=seed, extensions=(migration,)
    )
    return system, migration


class TestConstruction:
    def test_invalid_arguments(self, tiny_config):
        with pytest.raises(ValueError):
            Migration(check_interval=0)
        with pytest.raises(ValueError):
            Migration(threshold=0.9)
        with pytest.raises(ValueError):
            Migration(max_migrations=-1)


class TestBehaviour:
    def test_migrations_happen_with_cost_based_policy(self, tiny_config):
        system, migration = _system(tiny_config, "LERT", seed=1, threshold=1.1)
        results = system.run(warmup=200.0, duration=1500.0)
        assert results.completions > 50
        assert migration.total_migrations > 0

    def test_local_policy_never_migrates(self, tiny_config):
        # LOCAL is not cost-based: no cost function means no migration.
        system, migration = _system(tiny_config, "LOCAL", seed=1)
        system.run(warmup=200.0, duration=1000.0)
        assert migration.total_migrations == 0

    def test_max_migrations_zero_disables(self, tiny_config):
        system, migration = _system(tiny_config, "LERT", seed=1, max_migrations=0)
        system.run(warmup=200.0, duration=1000.0)
        assert migration.total_migrations == 0

    def test_huge_threshold_suppresses_migration(self, tiny_config):
        system, migration = _system(tiny_config, "LERT", seed=1, threshold=1000.0)
        system.run(warmup=200.0, duration=1000.0)
        assert migration.total_migrations == 0

    def test_load_board_stays_consistent(self, tiny_config):
        system, _ = _system(tiny_config, "LERT", seed=2, threshold=1.1)
        system.run(warmup=200.0, duration=1500.0)
        population = tiny_config.num_sites * tiny_config.site.mpl
        assert 0 <= system.load_board.total_queries <= population

    def test_migration_does_not_hurt_much(self, tiny_config):
        # Conservative hysteresis should keep migration no worse than the
        # base system (common random numbers make this a paired test).
        base = DistributedDatabase(tiny_config, make_policy("LERT"), seed=3)
        w_base = base.run(300.0, 2000.0).mean_waiting_time
        migrating, _ = _system(tiny_config, "LERT", seed=3, threshold=1.5)
        w_migrating = migrating.run(300.0, 2000.0).mean_waiting_time
        assert w_migrating < w_base * 1.25

    def test_query_migration_counter_bounded(self, tiny_config):
        system, _ = _system(
            tiny_config, "LERT", seed=4, threshold=1.05, max_migrations=2
        )
        collected = []
        original_record = system.metrics.record

        def spy(query):
            collected.append(query.migrations)
            original_record(query)

        system.metrics.record = spy
        system.run(warmup=0.0, duration=1500.0)
        assert collected, "no queries completed"
        assert max(collected) <= 2

    def test_migration_decisions_do_not_advance_the_scan(self, tiny_config):
        # Boundary decisions bypass select(): the round-robin scan offset
        # counts allocations only.
        system, migration = _system(tiny_config, "LERT", seed=1, threshold=1.1)
        selects = 0
        original_select = system.policy.select

        def counting_select(query, view):
            nonlocal selects
            selects += 1
            return original_select(query, view)

        system.policy.select = counting_select
        system.run(warmup=0.0, duration=1000.0)
        assert migration.total_migrations > 0
        assert system.policy._scan_offset == selects
