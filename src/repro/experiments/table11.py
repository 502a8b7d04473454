"""Experiment E6 — Table 11: waiting time and subnet utilization vs sites.

Renders the ``table11`` catalog study
(:func:`~repro.ablation.catalog.table11_study`: the number of DB sites
from 2 to 10 for LOCAL, BNQ and LERT).  The paper's observation to
reproduce: improvement over LOCAL peaks at an intermediate number of sites
(6–8 for these parameters) because more sites improve placement options
but also congest the shared token ring.
"""

from __future__ import annotations

from repro.ablation.catalog import GridOutcome
from repro.ablation.study import StudyOutcome
from repro.experiments.paper_data import TABLE11_SITES, TABLE11_W_LOCAL
from repro.experiments.report import TextTable


def peak_improvement_sites(grid: GridOutcome, policy: str = "LERT") -> int:
    """Number of sites where the improvement over LOCAL peaks."""
    return int(max(grid.points, key=lambda point: grid.gain(point, policy, "LOCAL")))


def format_table(outcome: StudyOutcome) -> str:
    grid = GridOutcome(outcome)
    table = TextTable(
        [
            "sites",
            "who",
            "W_LOCAL",
            "dBNQ%",
            "dLERT%",
            "subnet BNQ%",
            "subnet LERT%",
        ],
        title="Table 11: waiting time and subnet utilization versus number of sites",
    )
    for point in grid.points:
        table.add_row(
            point,
            "repro",
            f"{grid.waiting(point, 'LOCAL'):.2f}",
            f"{grid.gain(point, 'BNQ', 'LOCAL'):.2f}",
            f"{grid.gain(point, 'LERT', 'LOCAL'):.2f}",
            *(
                f"{100.0 * grid.cell(point, p).metrics.subnet_utilization:.2f}"
                for p in ("BNQ", "LERT")
            ),
        )
        paper = TABLE11_SITES.get(int(point))
        if paper is not None:
            table.add_row(
                "", "paper", f"{TABLE11_W_LOCAL:.2f}", *[f"{v:.2f}" for v in paper]
            )
    return table.render()
