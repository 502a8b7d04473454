"""Bench E4 — regenerate Table 9 (waiting time versus mpl).

Shape checks: dynamic allocation always helps; W̄_LOCAL rises steeply with
the multiprogramming level; the relative improvement over LOCAL shrinks at
the heavy-load end (paper: 36.9% at mpl 15 down to 11% at mpl 35 for BNQ).
"""

from repro.ablation import build_study, run_study
from repro.ablation.catalog import GridOutcome
from repro.experiments import table9


def test_table9_mpl(benchmark, quick_settings):
    outcome = benchmark.pedantic(
        run_study, args=(build_study("table9", quick_settings),), rounds=1, iterations=1
    )
    print()
    print(table9.format_table(outcome))
    grid = GridOutcome(outcome)

    waits = [grid.waiting(mpl, "LOCAL") for mpl in grid.points]
    assert waits == sorted(waits), "W_LOCAL must rise with mpl"

    for mpl in grid.points:
        for policy in ("BNQ", "BNQRD", "LERT"):
            assert grid.gain(mpl, policy, "LOCAL") > 0

    light, heavy = grid.points[0], grid.points[-1]
    assert grid.gain(light, "BNQ", "LOCAL") > grid.gain(heavy, "BNQ", "LOCAL"), (
        "BNQ's improvement should shrink under heavy load"
    )
    # Utilization rises across the sweep (paper: 0.41 -> 0.83).
    rho_c = {mpl: grid.cell(mpl, "LOCAL").metrics.cpu_utilization for mpl in grid.points}
    assert rho_c[heavy] > rho_c[light] + 0.2
    benchmark.extra_info["w_local_range"] = (round(waits[0], 2), round(waits[-1], 2))
