"""Experiment E4 — Table 9: waiting time versus multiprogramming level.

Renders the ``table9`` catalog study
(:func:`~repro.ablation.catalog.table9_study`): the same comparison as
Table 8, with system load varied by the number of terminals per site
(mpl 15–35) at the default think time 350.
"""

from __future__ import annotations

from repro.ablation.study import StudyOutcome
from repro.experiments.paper_data import TABLE9_MPL
from repro.experiments.table8 import improvement_table


def format_table(outcome: StudyOutcome) -> str:
    return improvement_table(
        outcome, "mpl", "Table 9: waiting time versus mpl", str, TABLE9_MPL
    )
