"""Experiment F1 — allocation policies under site failures.

The paper's §5 experiments assume perfectly reliable sites.  The
``failures`` catalog study (:func:`~repro.ablation.catalog.failures_study`)
drops that assumption: each cell runs a policy under a stochastic
crash/repair process (:class:`~repro.faults.plan.RandomOutages` at every
site), and this module reports how mean waiting time W̄ degrades as the
failure rate rises, next to a faultless row.  Load-sharing policies keep
their advantage under faults — the degraded life cycle reallocates
aborted queries to the surviving sites — while LOCAL queries issued at a
crashed site must wait out the outage via retry backoff.

A faulted cell can never collide with a faultless one in the result
cache because the plan is folded into the cache key.
"""

from __future__ import annotations

from repro.ablation.catalog import FAULTLESS, MTTR, GridOutcome
from repro.ablation.study import CellOutcome, StudyOutcome
from repro.experiments.report import TextTable


def availability_total(cell: CellOutcome, attribute: str) -> float:
    """One availability counter summed over the cell's replications."""
    total = 0.0
    for run in cell.per_replication:
        if run.availability is not None:
            total += getattr(run.availability, attribute)
    return total


def load_sharing_beats_local_under_faults(grid: GridOutcome) -> bool:
    """Sanity check: at the highest failure rate, LERT still beats LOCAL."""
    worst = min((p for p in grid.points if p != FAULTLESS), key=float)
    return grid.waiting(worst, "LERT") < grid.waiting(worst, "LOCAL")


def format_table(outcome: StudyOutcome) -> str:
    """Render the W̄ grid and the availability detail."""
    grid = GridOutcome(outcome)
    waiting = TextTable(
        ["site MTBF", *grid.policies],
        title=f"Mean waiting time W under site failures (MTTR={MTTR:g})",
    )
    for point in grid.points:
        waiting.add_row(
            point, *(f"{grid.waiting(point, policy):.2f}" for policy in grid.policies)
        )
    detail = TextTable(
        ["site MTBF", "policy", "downtime", "aborted", "retried", "lost"],
        title="Availability detail (summed over replications)",
    )
    for point in grid.points:
        if point == FAULTLESS:
            continue
        for policy in grid.policies:
            cell = grid.cell(point, policy)
            detail.add_row(
                point,
                policy,
                f"{availability_total(cell, 'total_downtime'):.0f}",
                *(
                    str(int(availability_total(cell, counter)))
                    for counter in ("queries_aborted", "queries_retried", "queries_lost")
                ),
            )
    return waiting.render() + "\n\n" + detail.render()
