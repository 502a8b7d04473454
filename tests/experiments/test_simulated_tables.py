"""Smoke tests for the simulation-table experiments at tiny scale.

These verify the harness plumbing (grid studies, the (point, policy)
lookup, formatting) with very short runs; the *shape* assertions versus
the paper live in the benchmark suite, which uses longer runs.
"""

import pytest

from repro.ablation.catalog import (
    GridOutcome,
    msg_study,
    table8_study,
    table9_study,
    table10_study,
    table11_study,
    table12_study,
)
from repro.ablation.study import run_study
from repro.experiments import (
    msg_sensitivity,
    table8,
    table9,
    table10,
    table11,
    table12,
)
from repro.experiments.runconfig import RunSettings

TINY = RunSettings(warmup=300.0, duration=1200.0, replications=1, base_seed=77)


def run(spec):
    outcome = run_study(spec)
    return outcome, GridOutcome(outcome)


class TestTable8Harness:
    def test_reduced_sweep(self):
        outcome, grid = run(table8_study(TINY, think_times=(250.0, 450.0)))
        assert len(grid.points) == 2
        assert set(grid.policies) == {"LOCAL", "BNQ", "BNQRD", "LERT"}
        assert grid.waiting(grid.points[0], "LOCAL") > 0
        text = table8.format_table(outcome)
        assert "250" in text

    def test_improvements_computable(self):
        _, grid = run(table8_study(TINY, think_times=(350.0,)))
        for policy in ("BNQ", "BNQRD", "LERT"):
            assert isinstance(grid.gain("350", policy, "LOCAL"), float)
            assert isinstance(grid.gain("350", policy, "BNQ"), float)


class TestTable9Harness:
    def test_reduced_sweep(self):
        outcome, grid = run(table9_study(TINY, mpl_values=(10, 20)))
        assert [int(point) for point in grid.points] == [10, 20]
        assert grid.waiting("10", "LOCAL") < grid.waiting("20", "LOCAL")
        assert "Table 9" in table9.format_table(outcome)


class TestTable10Harness:
    def test_capacity_extraction(self):
        outcome, grid = run(table10_study(TINY, mpl_grid=(10, 20, 30)))
        # Smoothed curve is monotone by construction.
        for policy in ("LOCAL", "LERT"):
            curve = table10.smoothed_curve(grid, policy)
            assert curve == sorted(curve)
        assert table10.max_mpl(grid, "LOCAL", bound=1e9) == 30
        assert table10.max_mpl(grid, "LOCAL", bound=0.0) == 0
        assert "Table 10" in table10.format_table(outcome)


class TestTable11Harness:
    def test_reduced_sweep(self):
        outcome, grid = run(table11_study(TINY, site_counts=(2, 4)))
        assert [int(point) for point in grid.points] == [2, 4]
        assert table11.peak_improvement_sites(grid, "LERT") in (2, 4)
        assert "Table 11" in table11.format_table(outcome)

    def test_subnet_utilization_present(self):
        _, grid = run(table11_study(TINY, site_counts=(4,)))
        assert grid.cell("4", "BNQ").metrics.subnet_utilization > 0


class TestTable12Harness:
    def test_reduced_sweep(self):
        outcome, grid = run(table12_study(TINY, io_probs=(0.3, 0.8)))
        assert len(grid.points) == 2
        for point in grid.points:
            assert table12.fairness(grid, point) == pytest.approx(
                grid.cell(point, "LOCAL").metrics.fairness or 0.0
            )
        assert "Table 12" in table12.format_table(outcome)

    def test_fairness_improvement_sign_convention(self):
        _, grid = run(table12_study(TINY, io_probs=(0.3,)))
        # Positive means |F| shrank.
        improvement = table12.fairness_improvement(grid, "0.3", "LERT")
        f_local = abs(table12.fairness(grid, "0.3"))
        f_lert = abs(grid.cell("0.3", "LERT").metrics.fairness or 0.0)
        expected = 100.0 * (f_local - f_lert) / f_local if f_local else 0.0
        assert improvement == pytest.approx(expected)


class TestMsgSensitivityHarness:
    def test_reduced_sweep(self):
        outcome, grid = run(msg_study(TINY, msg_lengths=(1.0, 3.0)))
        assert len(grid.points) == 2
        assert isinstance(msg_sensitivity.gap_widens_with_msg_length(grid), bool)
        assert "msg_length" in msg_sensitivity.format_table(outcome)
