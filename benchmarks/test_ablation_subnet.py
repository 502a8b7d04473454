"""Ablation bench — subnet topology (Table 11's mechanism, tested).

The paper blames channel congestion for the interior optimum in the number
of sites.  If true, replacing the shared ring with a point-to-point mesh
(aggregate capacity ∝ S·(S−1)) should remove the downturn.
"""

from repro.ablation import run_study
from repro.ablation.catalog import GridOutcome, subnet_scaling_study
from repro.experiments import ablations

SITES = (2, 6, 10)


class _Result:
    """LERT's gain over LOCAL and its subnet utilization per (subnet, sites)."""

    def __init__(self, grid):
        cells = [(subnet, n) for subnet in ("ring", "mesh") for n in SITES]
        self.improvements = {
            (s, n): grid.gain(f"{s}-{n}", "LERT", "LOCAL") for s, n in cells
        }
        self.subnet_utilization = {
            (s, n): grid.cell(f"{s}-{n}", "LERT").metrics.subnet_utilization
            for s, n in cells
        }


def test_ablation_subnet_scaling(benchmark, quick_settings):
    outcome = benchmark.pedantic(
        run_study,
        args=(subnet_scaling_study(quick_settings, SITES),),
        rounds=1,
        iterations=1,
    )
    print()
    print(ablations.format_subnet_scaling(outcome))
    result = _Result(GridOutcome(outcome))

    # The ring's channel utilization climbs steeply with sites; the mesh's
    # per-link utilization stays negligible.
    assert (
        result.subnet_utilization[("ring", SITES[-1])]
        > result.subnet_utilization[("ring", SITES[0])]
    )
    assert result.subnet_utilization[("mesh", SITES[-1])] < 0.10

    # On the mesh, more sites keep helping: the improvement at the largest
    # size is at least that of the smallest (no downturn).
    assert (
        result.improvements[("mesh", SITES[-1])]
        >= result.improvements[("mesh", SITES[0])] - 2.0
    )

    # And the mesh never does worse than the ring at the congested end.
    assert (
        result.improvements[("mesh", SITES[-1])]
        >= result.improvements[("ring", SITES[-1])] - 2.0
    )
    benchmark.extra_info["improvements"] = {
        f"{subnet}@{n}": round(result.improvements[(subnet, n)], 1)
        for subnet in ("ring", "mesh")
        for n in SITES
    }
