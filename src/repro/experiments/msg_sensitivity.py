"""Experiment E8 — message-length sensitivity (§5.2 text, not a table).

The paper reports that raising ``msg_length`` from 1.0 to 2.0 at
think_time 350 widens the gap between BNQRD (which ignores communication
cost) and LERT (which charges it): improvements over BNQ become 16.43% and
24.12% respectively.  The ``msg`` catalog study
(:func:`~repro.ablation.catalog.msg_study`) sweeps ``msg_length``; this
module reports the two policies' improvement over BNQ at each setting.
"""

from __future__ import annotations

from repro.ablation.catalog import GridOutcome
from repro.ablation.study import StudyOutcome
from repro.experiments.paper_data import (
    MSG_LENGTH2_BNQRD_VS_BNQ,
    MSG_LENGTH2_LERT_VS_BNQ,
)
from repro.experiments.report import TextTable


def lert_advantage(grid: GridOutcome, point: str) -> float:
    """LERT's improvement over BNQ minus BNQRD's (the gap to watch)."""
    return grid.gain(point, "LERT", "BNQ") - grid.gain(point, "BNQRD", "BNQ")


def gap_widens_with_msg_length(grid: GridOutcome) -> bool:
    """Paper's claim: the LERT-vs-BNQRD gap grows with msg_length."""
    gaps = [lert_advantage(grid, point) for point in grid.points]
    return gaps[-1] > gaps[0]


def format_table(outcome: StudyOutcome) -> str:
    grid = GridOutcome(outcome)
    table = TextTable(
        ["msg_length", "dBNQRD/BNQ%", "dLERT/BNQ%", "LERT advantage"],
        title="Message-length sensitivity (paper at 2.0: "
        f"BNQRD {MSG_LENGTH2_BNQRD_VS_BNQ}%, LERT {MSG_LENGTH2_LERT_VS_BNQ}%)",
    )
    for point in grid.points:
        table.add_row(
            f"{float(point):.1f}",
            f"{grid.gain(point, 'BNQRD', 'BNQ'):.2f}",
            f"{grid.gain(point, 'LERT', 'BNQ'):.2f}",
            f"{lert_advantage(grid, point):+.2f}",
        )
    return table.render()
