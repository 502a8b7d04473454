"""Experiment E2 — allocation policies under open heavy-traffic arrivals.

The paper's §5 experiments close the system: ``mpl`` terminals per site
resubmit only after their previous query returns, so offered load
self-regulates and overload cannot occur.  The ``open`` catalog study
(:func:`~repro.ablation.catalog.open_study`) opens it: each cell drives a
policy with an open arrival process
(:class:`~repro.workloads.arrivals.PoissonOpen` or a bursty
:class:`~repro.workloads.arrivals.MMPP`) at a per-site rate expressed as
a fraction of the estimated per-site service capacity
(:func:`~repro.workloads.spec.estimate_site_capacity`), under bounded
per-site admission control.  Reported per cell: mean response time and
the shed fraction — how much of the offered load the admission limit
turned away.  Past saturation (load factor > 1) response time is bounded
by the admission limit and the shed fraction absorbs the excess;
load-sharing policies shed less than LOCAL because they drain hot sites
through the idle ones.

An open cell can never collide with a closed one in the result cache
because the workload spec is folded into the cache key.
"""

from __future__ import annotations

from repro.ablation.catalog import MAX_PENDING, GridOutcome
from repro.ablation.study import CellOutcome, StudyOutcome
from repro.experiments.report import TextTable
from repro.workloads.spec import estimate_site_capacity


def admission_total(cell: CellOutcome, attribute: str) -> int:
    """One admission counter summed over the cell's replications."""
    total = 0.0
    for run in cell.per_replication:
        if run.workload is not None:
            total += getattr(run.workload, attribute)
    return int(total)


def load_sharing_sheds_less_past_saturation(grid: GridOutcome) -> bool:
    """Sanity check: past saturation, LERT sheds no more than LOCAL."""
    worst = max(float(point.split("@")[1]) for point in grid.points)
    point = f"poisson@{worst:g}"
    return admission_total(grid.cell(point, "LERT"), "shed") <= admission_total(
        grid.cell(point, "LOCAL"), "shed"
    )


def format_table(outcome: StudyOutcome) -> str:
    """Render the response-time grid and the admission detail."""
    grid = GridOutcome(outcome)
    response = TextTable(
        ["arrivals@load", *grid.policies],
        title=(
            "Open-system mean response time "
            f"(per-site capacity ~{estimate_site_capacity(outcome.spec.config):.4f} q/t, "
            f"max_pending={MAX_PENDING})"
        ),
    )
    for point in grid.points:
        response.add_row(
            point,
            *(
                f"{grid.cell(point, policy).metrics.response_time:.2f}"
                for policy in grid.policies
            ),
        )
    detail = TextTable(
        ["arrivals@load", "policy", "offered", "admitted", "shed", "shed%"],
        title="Admission detail (summed over replications)",
    )
    for point in grid.points:
        for policy in grid.policies:
            cell = grid.cell(point, policy)
            offered = admission_total(cell, "offered")
            shed = admission_total(cell, "shed")
            detail.add_row(
                point,
                policy,
                str(offered),
                str(admission_total(cell, "admitted")),
                str(shed),
                f"{shed / offered if offered > 0 else 0.0:.1%}",
            )
    return response.render() + "\n\n" + detail.render()
