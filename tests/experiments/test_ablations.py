"""Smoke tests for the ablation studies and their renderers (tiny scale)."""

from repro.ablation import catalog
from repro.ablation.catalog import GridOutcome
from repro.ablation.study import run_study
from repro.experiments import ablations
from repro.experiments.runconfig import RunSettings

TINY = RunSettings(warmup=300.0, duration=1200.0, replications=1, base_seed=55)


class TestStaleInfoSweep:
    def test_sweep_structure(self):
        outcome = run_study(catalog.stale_info_study(TINY, intervals=(0.0, 200.0)))
        assert set(ablations.stale_waits(outcome)) == {0.0, 200.0}
        assert outcome.baseline.metrics.waiting_time > 0
        text = ablations.format_stale_info(outcome)
        assert "always current" in text

    def test_collapse_interval_semantics(self):
        outcome = run_study(catalog.stale_info_study(TINY, intervals=(0.0, 400.0)))
        collapse = ablations.collapse_interval(outcome)
        if collapse != float("inf"):
            assert (
                ablations.stale_waits(outcome)[collapse]
                > outcome.baseline.metrics.waiting_time
            )


class TestDiskOrganization:
    def test_study_structure(self):
        outcome = run_study(
            catalog.disk_organization_study_spec(TINY, policies=("LOCAL",))
        )
        grid = GridOutcome(outcome)
        assert grid.cell("per_disk", "LOCAL") is outcome.baseline
        assert grid.cell("shared", "LOCAL") is outcome.cells[0]
        text = ablations.format_disk_organization(outcome)
        assert "per-disk" in text

    def test_shared_not_materially_worse(self):
        grid = GridOutcome(
            run_study(catalog.disk_organization_study_spec(TINY, policies=("LOCAL",)))
        )
        assert ablations.shared_advantage(grid, "LOCAL") > -10.0


class TestUpdateFraction:
    def test_sweep_structure(self):
        outcome = run_study(catalog.update_fraction_study(TINY, fractions=(0.0, 0.3)))
        grid = GridOutcome(outcome)
        assert grid.points == ("f0", "f0.3")
        subnet = {p: grid.cell(p, "LERT").metrics.subnet_utilization for p in grid.points}
        assert subnet["f0.3"] > subnet["f0"]
        text = ablations.format_update_fraction(outcome)
        assert "update %" in text

    def test_lert_still_wins_under_updates(self):
        grid = GridOutcome(run_study(catalog.update_fraction_study(TINY, fractions=(0.2,))))
        assert grid.gain("f0.2", "LERT", "LOCAL") > 0


class TestHeterogeneity:
    def test_study_structure(self):
        outcome = run_study(
            catalog.heterogeneity_study_spec(TINY, speed_factors=(0.5, 1.0, 2.0))
        )
        assert set(ablations.response_times(outcome)) == {
            "LOCAL", "BNQ", "LERT", "LERT-HET"
        }
        text = ablations.format_heterogeneity(outcome)
        assert "LERT-HET" in text

    def test_informed_allocation_wins_on_mixed_fleet(self):
        outcome = run_study(
            catalog.heterogeneity_study_spec(
                TINY, speed_factors=(0.5, 0.5, 1.0, 2.0, 2.0)
            )
        )
        assert ablations.informed_advantage(outcome) > 0
