"""Bench E7 — regenerate Table 12 (W̄ and fairness F vs class_io_prob).

Shape checks:
* F_LOCAL crosses zero as the class mix shifts from CPU-heavy to I/O-heavy
  (paper: −0.377 at prob 0.3 rising to +0.224 at 0.8);
* dynamic allocation improves W̄ at every mix;
* away from the F≈0 crossover, dynamic allocation shrinks |F|.
"""

from repro.ablation import build_study, run_study
from repro.ablation.catalog import GridOutcome
from repro.experiments import table12


def test_table12_fairness(benchmark, quick_settings):
    outcome = benchmark.pedantic(
        run_study, args=(build_study("table12", quick_settings),), rounds=1, iterations=1
    )
    print()
    print(table12.format_table(outcome))
    grid = GridOutcome(outcome)

    assert table12.f_local_crosses_zero(grid), "F_LOCAL should change sign across the mix"

    f_values = [table12.fairness(grid, mix) for mix in grid.points]
    assert f_values[0] < 0 < f_values[-1], (
        f"F_LOCAL should go from negative to positive, got {f_values}"
    )

    for mix in grid.points:
        assert grid.gain(mix, "BNQ", "LOCAL") > 0
        assert grid.gain(mix, "LERT", "LOCAL") > 0

    # Fairness improves where the baseline is clearly unfair (|F| large).
    biased = [mix for mix in grid.points if abs(table12.fairness(grid, mix)) > 0.1]
    assert biased, "expected some clearly biased mixes"
    improved = sum(
        1 for mix in biased if table12.fairness_improvement(grid, mix, "LERT") > 0
    )
    assert improved >= len(biased) / 2
    benchmark.extra_info["f_local_range"] = (
        round(f_values[0], 3),
        round(f_values[-1], 3),
    )
