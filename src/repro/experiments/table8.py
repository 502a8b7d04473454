"""Experiment E3 — Table 8: waiting time versus think time.

Renders the ``table8`` catalog study
(:func:`~repro.ablation.catalog.table8_study`: LOCAL, BNQ, BNQRD and LERT
across the paper's think-time range 150–450) and reports, per think time:

* the CPU utilization ρ_c under LOCAL,
* W̄_LOCAL,
* the percentage improvements of each dynamic policy over LOCAL, and
* the improvements of the information-based policies over BNQ.

Table 9 shares the layout (:func:`improvement_table`).
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Tuple

from repro.ablation.catalog import GridOutcome
from repro.ablation.study import StudyOutcome
from repro.experiments.paper_data import TABLE8_THINK
from repro.experiments.report import TextTable


def improvement_table(
    outcome: StudyOutcome,
    parameter: str,
    title: str,
    label: Callable[[str], str],
    paper: Mapping[Any, Tuple[float, ...]],
) -> str:
    """Tables 8 and 9: ρ_c, W̄_LOCAL and the dynamic policies' gains per point."""
    grid = GridOutcome(outcome)
    table = TextTable(
        [
            parameter,
            "who",
            "rho_c",
            "W_LOCAL",
            "dBNQ%",
            "dBNQRD%",
            "dLERT%",
            "dBNQRD/BNQ%",
            "dLERT/BNQ%",
        ],
        title=title,
    )
    for point in grid.points:
        local = grid.cell(point, "LOCAL").metrics
        table.add_row(
            label(point),
            "repro",
            f"{local.cpu_utilization:.2f}",
            f"{local.waiting_time:.2f}",
            *(f"{grid.gain(point, p, 'LOCAL'):.2f}" for p in ("BNQ", "BNQRD", "LERT")),
            *(f"{grid.gain(point, p, 'BNQ'):.2f}" for p in ("BNQRD", "LERT")),
        )
        row = paper.get(float(point))
        if row is not None:
            table.add_row("", "paper", *[f"{v:.2f}" for v in row])
    return table.render()


def format_table(outcome: StudyOutcome) -> str:
    return improvement_table(
        outcome,
        "think",
        "Table 8: waiting time versus think time",
        lambda point: f"{float(point):.0f}",
        TABLE8_THINK,
    )
