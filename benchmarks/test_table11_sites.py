"""Bench E6 — regenerate Table 11 (waiting time and subnet util vs sites).

Shape checks:
* subnet utilization rises monotonically with the number of sites
  (paper: 6% at 2 sites to ~70% at 10);
* the improvement over LOCAL has an interior maximum — more copies help
  until the shared channel congests (paper: optimum at 6-8 sites);
* dynamic allocation helps at every size.
"""

from repro.ablation import build_study, run_study
from repro.ablation.catalog import GridOutcome
from repro.experiments import table11


def test_table11_sites(benchmark, quick_settings):
    outcome = benchmark.pedantic(
        run_study, args=(build_study("table11", quick_settings),), rounds=1, iterations=1
    )
    print()
    print(table11.format_table(outcome))
    grid = GridOutcome(outcome)

    utils = [
        100.0 * grid.cell(sites, "LERT").metrics.subnet_utilization
        for sites in grid.points
    ]
    assert all(b > a for a, b in zip(utils, utils[1:])), (
        f"subnet utilization must rise with sites, got {utils}"
    )

    for sites in grid.points:
        assert grid.gain(sites, "BNQ", "LOCAL") > 0
        assert grid.gain(sites, "LERT", "LOCAL") > 0

    # Interior maximum: the best site count is neither the smallest nor
    # the largest swept value.
    peak = table11.peak_improvement_sites(grid, "LERT")
    assert int(grid.points[0]) < peak <= int(grid.points[-1])
    benchmark.extra_info["peak_sites"] = peak
    benchmark.extra_info["subnet_util_range"] = (
        round(utils[0], 1),
        round(utils[-1], 1),
    )
