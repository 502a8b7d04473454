"""Experiment E5 — Table 10: system capacity (max mpl per response bound).

"The multiprogramming level of each of the DB sites can be increased without
decreasing the mean query response time" — Table 10 quantifies that by
reporting, for each expected-response-time bound, the largest mpl the system
sustains under LOCAL versus LERT.

The ``table10`` catalog study (:func:`~repro.ablation.catalog.table10_study`)
measures mean response time over a grid of mpl values for each policy
(response time is monotone in mpl in a closed system); for each bound this
module reports the largest mpl whose measured response stays at or below
the bound.  Simulation noise is handled by isotonic smoothing of the
response curve (running maximum), which preserves monotonicity.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.ablation.catalog import GridOutcome
from repro.ablation.study import StudyOutcome
from repro.experiments.paper_data import TABLE10_CAPACITY
from repro.experiments.report import TextTable

BOUNDS: Tuple[float, ...] = (40.0, 50.0, 60.0, 70.0, 80.0)


def smoothed_curve(grid: GridOutcome, policy: str) -> List[float]:
    """Monotone (running-max) response-time curve over the mpl grid."""
    smoothed: List[float] = []
    best = float("-inf")
    for point in grid.points:
        best = max(best, grid.cell(point, policy).metrics.response_time)
        smoothed.append(best)
    return smoothed


def max_mpl(grid: GridOutcome, policy: str, bound: float) -> int:
    """Largest grid mpl whose smoothed response is within *bound*."""
    curve = smoothed_curve(grid, policy)
    feasible = [int(point) for point, rt in zip(grid.points, curve) if rt <= bound]
    return max(feasible) if feasible else 0


def format_table(outcome: StudyOutcome) -> str:
    grid = GridOutcome(outcome)
    table = TextTable(
        ["RT bound", "LOCAL", "LERT", "paper LOCAL", "paper LERT"],
        title="Table 10: maximum mpl versus response time",
    )
    for bound in BOUNDS:
        paper = TABLE10_CAPACITY.get(bound, ("", ""))
        table.add_row(
            f"<= {bound:.0f}",
            str(max_mpl(grid, "LOCAL", bound)),
            str(max_mpl(grid, "LERT", bound)),
            str(paper[0]),
            str(paper[1]),
        )
    return table.render()
