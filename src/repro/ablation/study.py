"""Study execution: grid in, per-cell metrics out.

:func:`run_study` expands a spec, pushes *all* cells' replication tasks
through the parallel runner as one batch (so ``--jobs N`` fans the whole
study out, duplicates are simulated once, and the cache answers
anything already run), then folds each cell's replications into a
:class:`MetricSet` — the one replication aggregate of the harness.
:func:`simulate` is the one-cell shortcut: one (config, policy) pair at
given settings, folded the same way.

Determinism contract: every aggregate uses :func:`math.fsum` (whose
correctly rounded result is permutation invariant), and the runner
returns results in task order regardless of scheduling — so a study's
outcome, and therefore its rendered report, is byte-identical between
serial and parallel execution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.ablation.grid import StudyCell, StudyGrid, expand
from repro.ablation.spec import StudySpec
from repro.experiments.context import StudyContext
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import ProgressCallback, replication_tasks, run_tasks
from repro.experiments.runconfig import RunSettings
from repro.model.config import SystemConfig
from repro.model.metrics import SystemResults


@dataclass(frozen=True)
class MetricSet:
    """The study metrics of one cell, averaged over its replications.

    Attributes:
        response_time: Mean query response time (waiting + service).
        waiting_time: Mean per-cycle waiting time (the paper's W).
        fairness: Max/min normalized waiting across classes (``None``
            when no replication produced a defined fairness).
        availability: Fraction of offered queries that completed rather
            than being lost to site failures: ``completions /
            (completions + queries_lost)``.  1.0 for fault-free runs.
        shed_rate: Fraction of offered arrivals dropped by admission
            control: ``shed / offered``.  0.0 for closed-workload runs.
        subnet_utilization: Mean communication-subnet utilization.
        cpu_utilization: Mean per-site CPU utilization (the paper's ρ_c).
        disk_utilization: Mean per-disk utilization (ρ_d).
        remote_fraction: Mean fraction of queries executed remotely.
        completions: Total completed queries across replications.
    """

    response_time: float
    waiting_time: float
    fairness: Optional[float]
    availability: float
    shed_rate: float
    subnet_utilization: float
    cpu_utilization: float
    disk_utilization: float
    remote_fraction: float
    completions: int

    @property
    def rho_ratio(self) -> float:
        """ρ_d / ρ_c — measured disk-to-CPU utilization ratio (Table 12).

        ``nan`` when both utilizations are zero (an idle system has no
        meaningful ratio); ``inf`` when only the CPU was idle.
        """
        if self.cpu_utilization == 0:
            if self.disk_utilization == 0:
                return float("nan")
            return float("inf")
        return self.disk_utilization / self.cpu_utilization

    def value(self, metric: str) -> Optional[float]:
        """One metric by study-metric name (see ``STUDY_METRICS``)."""
        if metric not in {
            "response_time",
            "waiting_time",
            "fairness",
            "availability",
            "shed_rate",
            "subnet_utilization",
        }:
            raise KeyError(f"unknown study metric {metric!r}")
        return getattr(self, metric)


def _avg(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values)


def metrics_from_runs(runs: Sequence[SystemResults]) -> MetricSet:
    """Fold one cell's replication results into a :class:`MetricSet`."""
    if not runs:
        raise ValueError("need at least one replication to aggregate")
    fairness_values = [r.fairness for r in runs if r.fairness is not None]
    # Integer totals: int sums are exact, hence permutation invariant.
    completions = sum(r.completions for r in runs)  # reprolint: disable=RL004
    lost = sum(  # reprolint: disable=RL004
        r.availability.queries_lost for r in runs if r.availability is not None
    )
    offered = sum(  # reprolint: disable=RL004
        r.workload.offered for r in runs if r.workload is not None
    )
    shed = sum(  # reprolint: disable=RL004
        r.workload.shed for r in runs if r.workload is not None
    )
    attempted = completions + lost
    return MetricSet(
        response_time=_avg([r.mean_response_time for r in runs]),
        waiting_time=_avg([r.mean_waiting_time for r in runs]),
        fairness=_avg(fairness_values) if fairness_values else None,
        availability=1.0 if attempted == 0 else completions / attempted,
        shed_rate=0.0 if offered == 0 else shed / offered,
        subnet_utilization=_avg([r.subnet_utilization for r in runs]),
        cpu_utilization=_avg([r.cpu_utilization for r in runs]),
        disk_utilization=_avg([r.disk_utilization for r in runs]),
        remote_fraction=_avg([r.remote_fraction for r in runs]),
        completions=completions,
    )


def simulate(
    config: SystemConfig,
    policy: str,
    settings: RunSettings,
    *,
    jobs: Optional[int] = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressCallback] = None,
) -> MetricSet:
    """Run one (config, policy) cell, averaged over replications.

    Replication ``r`` of every policy uses the same master seed, so all
    policies face an identical stream of queries (common random numbers).
    ``jobs``, ``cache`` and ``progress`` mean what they mean for
    :func:`~repro.experiments.parallel.run_tasks`; none changes the result.
    """
    runs = run_tasks(
        replication_tasks(config, policy, settings),
        jobs=jobs,
        cache=cache,
        progress=progress,
    )
    return metrics_from_runs(runs)


@dataclass(frozen=True)
class CellOutcome:
    """One executed cell: identity, run IDs, metrics, raw replications."""

    label: str
    component: Optional[str]
    variant: Optional[str]
    run_ids: Tuple[str, ...]
    metrics: MetricSet
    per_replication: Tuple[SystemResults, ...]


@dataclass(frozen=True)
class StudyOutcome:
    """A fully executed study."""

    spec: StudySpec
    baseline: CellOutcome
    cells: Tuple[CellOutcome, ...]

    def all_cells(self) -> Tuple[CellOutcome, ...]:
        """Baseline first, then every variant cell in spec order."""
        return (self.baseline,) + self.cells

    def cell(self, label: str) -> CellOutcome:
        """Look up one executed cell by label (including ``"baseline"``)."""
        for candidate in self.all_cells():
            if candidate.label == label:
                return candidate
        raise KeyError(f"study {self.spec.name!r} has no cell {label!r}")

    def cells_for(self, component: str) -> Tuple[CellOutcome, ...]:
        """Every executed cell of one component, in spec order."""
        return tuple(c for c in self.cells if c.component == component)


def _cell_outcome(
    cell: StudyCell, runs: Sequence[SystemResults]
) -> CellOutcome:
    return CellOutcome(
        label=cell.label,
        component=cell.component,
        variant=cell.variant,
        run_ids=cell.run_ids,
        metrics=metrics_from_runs(runs),
        per_replication=tuple(runs),
    )


def run_grid(
    grid: StudyGrid, *, context: StudyContext = StudyContext()
) -> StudyOutcome:
    """Execute an already-expanded grid (see :func:`run_study`)."""
    results = context.run_tasks(grid.all_tasks())
    outcomes: List[CellOutcome] = []
    cursor = 0
    for cell in grid.all_cells():
        count = len(cell.tasks)
        outcomes.append(_cell_outcome(cell, results[cursor : cursor + count]))
        cursor += count
    return StudyOutcome(
        spec=grid.spec, baseline=outcomes[0], cells=tuple(outcomes[1:])
    )


def run_study(
    spec: StudySpec, *, context: StudyContext = StudyContext()
) -> StudyOutcome:
    """Expand and execute *spec* under *context*.

    One flat task batch covers the whole study, so ``context.jobs``
    parallelizes across cells *and* replications, and ``context.cache``
    answers any previously simulated cell.  The outcome is byte-identical
    for any ``jobs`` value.
    """
    return run_grid(expand(spec), context=context)


__all__ = [
    "MetricSet",
    "metrics_from_runs",
    "CellOutcome",
    "StudyOutcome",
    "run_grid",
    "run_study",
    "simulate",
]
