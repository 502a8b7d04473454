"""Bench E3 — regenerate Table 8 (waiting time versus think time).

Shape checks mirror the paper's findings:
* every dynamic policy beats LOCAL at every think time;
* the information-based policies (BNQRD, LERT) beat BNQ;
* improvement over LOCAL grows as utilization falls (think time rises).
"""

from repro.ablation import build_study, run_study
from repro.ablation.catalog import GridOutcome
from repro.experiments import table8


def test_table8_think_time(benchmark, quick_settings):
    outcome = benchmark.pedantic(
        run_study, args=(build_study("table8", quick_settings),), rounds=1, iterations=1
    )
    print()
    print(table8.format_table(outcome))
    grid = GridOutcome(outcome)

    for think in grid.points:
        for policy in ("BNQ", "BNQRD", "LERT"):
            assert grid.gain(think, policy, "LOCAL") > 0, (
                f"{policy} should beat LOCAL at think={think}"
            )
        # Information-based policies beat count-balancing.
        assert grid.gain(think, "BNQRD", "BNQ") > -3.0
        assert grid.gain(think, "LERT", "BNQ") > -3.0

    # Averaged over the sweep, the information advantage is positive.
    points = grid.points
    mean_bnqrd_gain = sum(grid.gain(p, "BNQRD", "BNQ") for p in points) / len(points)
    mean_lert_gain = sum(grid.gain(p, "LERT", "BNQ") for p in points) / len(points)
    assert mean_bnqrd_gain > 2.0
    assert mean_lert_gain > 2.0

    # Low utilization end shows larger improvement than the high end.
    first, last = points[0], points[-1]
    assert grid.gain(last, "LERT", "LOCAL") > grid.gain(first, "LERT", "LOCAL")
    benchmark.extra_info["lert_gain_over_bnq_pct"] = round(mean_lert_gain, 2)
