"""Unit tests for the heterogeneous-sites mechanism."""

import pytest

from repro.extensions.heterogeneous import HeterogeneousCPU
from repro.model.system import DistributedDatabase
from repro.policies.registry import make_policy


def _factors(config, slow=0.5, fast=2.0):
    half = config.num_sites // 2
    return [slow] * half + [fast] * (config.num_sites - half)


def _system(config, policy, factors, seed=0):
    return DistributedDatabase(
        config, make_policy(policy), seed=seed, extensions=(HeterogeneousCPU(factors),)
    )


class TestConstruction:
    def test_factor_count_must_match(self, tiny_config):
        with pytest.raises(ValueError):
            _system(tiny_config, "LERT", [1.0])

    def test_factors_must_be_positive(self, tiny_config):
        with pytest.raises(ValueError):
            HeterogeneousCPU([1.0, 0.0, 1.0])

    def test_speeds_reach_the_sites(self, tiny_config):
        system = _system(tiny_config, "LOCAL", [0.5, 1.0, 2.0])
        assert [site.cpu_speed for site in system.sites] == [0.5, 1.0, 2.0]


class TestBehaviour:
    def test_unit_factors_match_base_system(self, tiny_config):
        base = DistributedDatabase(tiny_config, make_policy("LERT"), seed=1)
        rb = base.run(200.0, 1200.0)
        het = _system(tiny_config, "LERT", [1.0] * tiny_config.num_sites, seed=1)
        rh = het.run(200.0, 1200.0)
        # Same seeds, same workload, unit speeds (dividing by 1.0 is
        # exact): identical runs.
        assert rh == rb

    def test_faster_fleet_responds_faster(self, tiny_config):
        slow = _system(tiny_config, "LOCAL", [1.0] * tiny_config.num_sites, seed=2)
        fast = _system(tiny_config, "LOCAL", [2.0] * tiny_config.num_sites, seed=2)
        rt_slow = slow.run(200.0, 1500.0).mean_response_time
        rt_fast = fast.run(200.0, 1500.0).mean_response_time
        assert rt_fast < rt_slow

    def test_local_hurt_by_heterogeneity(self, tiny_config):
        # LOCAL on a mixed fleet must be worse than speed-aware allocation
        # on the same fleet.
        mixed = _system(tiny_config, "LOCAL", _factors(tiny_config), seed=3)
        rt_mixed_local = mixed.run(300.0, 1500.0).mean_response_time
        informed = _system(tiny_config, "LERT-HET", _factors(tiny_config), seed=3)
        rt_informed = informed.run(300.0, 1500.0).mean_response_time
        assert rt_informed < rt_mixed_local

    def test_lert_het_requires_heterogeneous_system(self, tiny_config):
        system = DistributedDatabase(tiny_config, make_policy("LERT-HET"), seed=4)
        with pytest.raises(RuntimeError, match="HeterogeneousCPU"):
            system.run(10.0, 50.0)

    def test_lert_het_prefers_fast_sites(self, tiny_config):
        factors = [0.25] + [1.0] * (tiny_config.num_sites - 1)
        system = _system(tiny_config, "LERT-HET", factors, seed=5)
        executed_at = []
        original = system.metrics.record

        def spy(query):
            executed_at.append(query.execution_site)
            original(query)

        system.metrics.record = spy
        system.run(200.0, 1200.0)
        slow_share = executed_at.count(0) / len(executed_at)
        # Site 0 is 4x slower; a speed-aware policy sends it well under its
        # fair 1/num_sites share of the work.
        assert slow_share < 1.0 / tiny_config.num_sites
