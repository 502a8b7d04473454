"""Unit tests for the update-workload mechanism."""

import pytest

from repro.extensions.updates import Updates
from repro.model.system import DistributedDatabase
from repro.policies.registry import make_policy


def _system(config, policy, seed=0, **kwargs):
    updates = Updates(**kwargs)
    system = DistributedDatabase(
        config, make_policy(policy), seed=seed, extensions=(updates,)
    )
    return system, updates


class TestConstruction:
    def test_invalid_arguments(self, tiny_config):
        with pytest.raises(ValueError):
            Updates(update_prob=1.5)
        with pytest.raises(ValueError):
            Updates(update_pages=0)
        with pytest.raises(ValueError):
            Updates(apply_cpu_time=0.0)


class TestBehaviour:
    def test_zero_update_prob_matches_base_system(self, tiny_config):
        base = DistributedDatabase(tiny_config, make_policy("LERT"), seed=1)
        rb = base.run(200.0, 1000.0)
        system, updates = _system(tiny_config, "LERT", seed=1, update_prob=0.0)
        ru = system.run(200.0, 1000.0)
        assert updates.updates_executed == 0
        # The update draw is keyed on presence: even at 0.0 it consumes
        # one value from each query's private stream, so the run is in
        # the same regime but not identical.
        assert ru.mean_waiting_time == pytest.approx(rb.mean_waiting_time, rel=0.35)

    def test_updates_propagate_to_all_replicas(self, tiny_config):
        system, updates = _system(tiny_config, "LERT", seed=2, update_prob=0.5)
        system.run(200.0, 1500.0)
        assert updates.updates_executed > 0
        expected_applies = updates.updates_executed * (tiny_config.num_sites - 1)
        # Applies started equals updates * (sites - 1); a few may still be
        # in flight at the end of the run.
        assert updates.applies_started == expected_applies
        assert 0 <= updates.pending_applies <= expected_applies
        assert updates.applies_completed > 0

    def test_update_fraction_tracks_probability(self, tiny_config):
        system, updates = _system(tiny_config, "LOCAL", seed=3, update_prob=0.3)
        results = system.run(0.0, 3000.0)
        fraction = updates.updates_executed / results.completions
        assert fraction == pytest.approx(0.3, abs=0.05)

    def test_updates_increase_subnet_load(self, tiny_config):
        quiet, _ = _system(tiny_config, "LERT", seed=4, update_prob=0.0)
        loud, _ = _system(tiny_config, "LERT", seed=4, update_prob=0.5)
        u_quiet = quiet.run(200.0, 1200.0).subnet_utilization
        u_loud = loud.run(200.0, 1200.0).subnet_utilization
        assert u_loud > u_quiet

    def test_updates_slow_the_system(self, tiny_config):
        light, _ = _system(tiny_config, "LERT", seed=5, update_prob=0.0)
        heavy, _ = _system(tiny_config, "LERT", seed=5, update_prob=0.6)
        w_light = light.run(300.0, 2000.0).mean_waiting_time
        w_heavy = heavy.run(300.0, 2000.0).mean_waiting_time
        assert w_heavy > w_light

    def test_policy_ranking_survives_updates(self, tiny_config):
        waits = {}
        for policy in ("LOCAL", "LERT"):
            system, _ = _system(tiny_config, policy, seed=6, update_prob=0.2)
            waits[policy] = system.run(300.0, 2000.0).mean_waiting_time
        assert waits["LERT"] < waits["LOCAL"]
