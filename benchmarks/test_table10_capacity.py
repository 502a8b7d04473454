"""Bench E5 — regenerate Table 10 (maximum mpl per response-time bound).

Shape check: at every bound, LERT sustains at least as many terminals as
LOCAL, and over the bound range the capacity gain lands in the paper's
20–50% band (evaluated loosely at quick scale).
"""

from repro.ablation import run_study
from repro.ablation.catalog import GridOutcome, table10_study
from repro.experiments import table10


def test_table10_capacity(benchmark, quick_settings):
    # A coarser mpl grid keeps the quick bench fast; the CLI uses the full one.
    mpl_grid = tuple(range(6, 41, 4))
    outcome = benchmark.pedantic(
        run_study,
        args=(table10_study(quick_settings, mpl_grid),),
        rounds=1,
        iterations=1,
    )
    print()
    print(table10.format_table(outcome))
    grid = GridOutcome(outcome)

    gains = []
    for bound in table10.BOUNDS:
        local = table10.max_mpl(grid, "LOCAL", bound)
        lert = table10.max_mpl(grid, "LERT", bound)
        assert lert >= local, f"LERT capacity below LOCAL at bound {bound}"
        if local:
            gains.append((lert - local) / local)
    assert gains, "no bound was satisfiable on the grid"
    mean_gain = sum(gains) / len(gains)
    assert mean_gain > 0.05, f"expected a clear capacity gain, got {mean_gain:.1%}"
    benchmark.extra_info["mean_capacity_gain_pct"] = round(100 * mean_gain, 1)
