"""Bench E8 — message-length sensitivity (§5.2 text).

Paper: raising msg_length from 1 to 2 widens LERT's advantage over BNQRD
because only LERT charges communication cost in its estimates (16.43% vs
24.12% improvement over BNQ at msg_length 2).  The bench sweeps msg_length
and asserts the LERT-vs-BNQRD gap grows.
"""

from repro.ablation import run_study
from repro.ablation.catalog import GridOutcome, msg_study
from repro.experiments import msg_sensitivity


def test_msg_length_ablation(benchmark, quick_settings):
    lengths = (1.0, 2.0, 4.0)
    outcome = benchmark.pedantic(
        run_study,
        args=(msg_study(quick_settings, lengths),),
        rounds=1,
        iterations=1,
    )
    print()
    print(msg_sensitivity.format_table(outcome))
    grid = GridOutcome(outcome)

    assert msg_sensitivity.gap_widens_with_msg_length(grid), (
        "LERT's advantage over BNQRD should grow with message cost"
    )
    gaps = [msg_sensitivity.lert_advantage(grid, point) for point in grid.points]
    benchmark.extra_info["lert_advantage_by_msg_length"] = [
        round(g, 2) for g in gaps
    ]
