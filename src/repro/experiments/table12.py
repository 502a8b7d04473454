"""Experiment E7 — Table 12: W̄ and fairness F versus class_io_prob.

Renders the ``table12`` catalog study
(:func:`~repro.ablation.catalog.table12_study`: the I/O-bound class
probability from 0.3 to 0.8, which skews the system toward favoring one
class under LOCAL).  Reproduction targets:

* F_LOCAL moves from negative (I/O class favored) through ~0 to positive
  (CPU class favored) as class_io_prob rises;
* dynamic allocation improves W̄ at every mix;
* dynamic allocation shrinks |F| whenever |F_LOCAL| is appreciable
  (the paper's ΔF entries are negative only around the F≈0 crossover,
  where the baseline is already fair and relative changes are unstable).
"""

from __future__ import annotations

from repro.ablation.catalog import GridOutcome
from repro.ablation.study import StudyOutcome
from repro.experiments.paper_data import TABLE12_FAIRNESS
from repro.experiments.report import TextTable


def fairness(grid: GridOutcome, point: str, policy: str = "LOCAL") -> float:
    """F of one cell (0.0 when undefined)."""
    return grid.cell(point, policy).metrics.fairness or 0.0


def fairness_improvement(grid: GridOutcome, point: str, policy: str) -> float:
    """ΔF_X,LOCAL / F_LOCAL in percent, on |F| (shrinking is positive)."""
    f_local = abs(fairness(grid, point))
    f_policy = abs(fairness(grid, point, policy))
    if f_local == 0:
        return 0.0
    return 100.0 * (f_local - f_policy) / f_local


def f_local_crosses_zero(grid: GridOutcome) -> bool:
    """Whether F_LOCAL changes sign across the sweep (paper: yes)."""
    values = [fairness(grid, point) for point in grid.points]
    return min(values) < 0 < max(values)


def format_table(outcome: StudyOutcome) -> str:
    grid = GridOutcome(outcome)
    table = TextTable(
        [
            "io_prob",
            "who",
            "rho_d/rho_c",
            "W_LOCAL",
            "dBNQ%",
            "dLERT%",
            "F_LOCAL",
            "dF BNQ%",
            "dF LERT%",
        ],
        title="Table 12: W and F versus class_io_prob",
    )
    for point in grid.points:
        local = grid.cell(point, "LOCAL").metrics
        table.add_row(
            f"{float(point):.1f}",
            "repro",
            f"{local.rho_ratio:.2f}",
            f"{local.waiting_time:.2f}",
            f"{grid.gain(point, 'BNQ', 'LOCAL'):.2f}",
            f"{grid.gain(point, 'LERT', 'LOCAL'):.2f}",
            f"{fairness(grid, point):+.3f}",
            f"{fairness_improvement(grid, point, 'BNQ'):.2f}",
            f"{fairness_improvement(grid, point, 'LERT'):.2f}",
        )
        paper = TABLE12_FAIRNESS.get(round(float(point), 1))
        if paper is not None:
            table.add_row(
                "",
                "paper",
                f"{paper[0]:.2f}",
                f"{paper[1]:.2f}",
                f"{paper[2]:.2f}",
                f"{paper[3]:.2f}",
                f"{paper[4]:+.3f}",
                f"{paper[5]:.2f}",
                f"{paper[6]:.2f}",
            )
    return table.render()
