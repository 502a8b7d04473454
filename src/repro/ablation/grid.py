"""Deterministic expansion of a study spec into content-addressed runs.

:func:`expand` turns a :class:`~repro.ablation.spec.StudySpec` into a
:class:`StudyGrid`: one :class:`StudyCell` for the baseline plus one per
(component, variant), each holding the cell's
:class:`~repro.experiments.parallel.ReplicationTask` list — the same
task objects the parallel runner executes, so each cell's *run IDs* are
exactly the tasks' content-addressed cache keys
(:meth:`~repro.experiments.parallel.ReplicationTask.key`).  Two
consequences:

* Expansion is a pure function of the spec: the grid — including every
  run ID — is byte-identical across processes and machines (the golden
  snapshot test pins this).
* The result cache dedupes across studies for free: any cell whose
  (config, policy, seed, ...) matches a previous run, in *any* study or
  table experiment, is answered from cache.

A cell's tasks come from
:func:`~repro.experiments.parallel.replication_tasks`, so replication
``r`` of every cell runs ``settings.spec(r)``: all variants face an
identical query stream (common random numbers) and the report's deltas
are CRN-paired.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.ablation.spec import Component, StudySpec, Variant
from repro.experiments.parallel import ReplicationTask, replication_tasks
from repro.experiments.sweep import set_config_parameter

#: Label of the baseline cell (component/variant labels are
#: ``"<component>:<variant>"``, which cannot collide with this).
BASELINE_LABEL = "baseline"


@dataclass(frozen=True)
class StudyCell:
    """One grid cell: a labelled run with its replication tasks.

    Attributes:
        label: ``"baseline"`` or ``"<component>:<variant>"``.
        component: Owning component name (``None`` for the baseline).
        variant: Variant name (``None`` for the baseline).
        tasks: One :class:`~repro.experiments.parallel.ReplicationTask`
            per replication, in replication order.
    """

    label: str
    component: Optional[str]
    variant: Optional[str]
    tasks: Tuple[ReplicationTask, ...]

    @property
    def run_ids(self) -> Tuple[str, ...]:
        """Content-addressed run IDs, one per replication."""
        return tuple(task.key() for task in self.tasks)


@dataclass(frozen=True)
class StudyGrid:
    """The full expansion of one study."""

    spec: StudySpec
    baseline: StudyCell
    cells: Tuple[StudyCell, ...]

    def all_cells(self) -> Tuple[StudyCell, ...]:
        """Baseline first, then every variant cell in spec order."""
        return (self.baseline,) + self.cells

    def all_tasks(self) -> List[ReplicationTask]:
        """Every task of the grid, in cell order (runner input)."""
        return [task for cell in self.all_cells() for task in cell.tasks]

    def cell(self, label: str) -> StudyCell:
        """Look up one cell by label (including ``"baseline"``)."""
        for candidate in self.all_cells():
            if candidate.label == label:
                return candidate
        raise KeyError(f"study {self.spec.name!r} has no cell {label!r}")

    def run_ids(self) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
        """``(label, run IDs)`` for every cell — the snapshot surface."""
        return tuple(
            (cell.label, cell.run_ids) for cell in self.all_cells()
        )


def _cell_tasks(
    spec: StudySpec, variant: Optional[Variant]
) -> Tuple[ReplicationTask, ...]:
    """The replication tasks of one cell (baseline when *variant* is None)."""
    config, policy, mechanisms, settings = (
        spec.config, spec.policy, spec.mechanisms, spec.settings
    )
    if variant is not None:
        for dotted_path, value in variant.config_patches:
            config = set_config_parameter(config, dotted_path, value)
        if variant.policy is not None:
            policy = variant.policy
        if variant.mechanisms is not None:
            mechanisms = variant.mechanisms
        if variant.faults is not None:
            settings = settings.with_faults(variant.faults)
        if variant.workload is not None:
            settings = settings.with_workload(variant.workload)
    return tuple(replication_tasks(config, policy, settings, mechanisms))


def _cell(
    spec: StudySpec, component: Optional[Component], variant: Optional[Variant]
) -> StudyCell:
    label = BASELINE_LABEL
    if component is not None and variant is not None:
        label = f"{component.name}:{variant.name}"
    try:
        tasks = _cell_tasks(spec, variant)
    except ValueError as exc:
        # A mechanism list no system accepts: point at the offending cell.
        raise ValueError(f"study {spec.name!r}, cell {label!r}: {exc}") from exc
    return StudyCell(
        label=label,
        component=component and component.name,
        variant=variant and variant.name,
        tasks=tasks,
    )


def expand(spec: StudySpec) -> StudyGrid:
    """Expand *spec* into its grid (pure; no simulation happens here)."""
    baseline = _cell(spec, None, None)
    cells = tuple(
        _cell(spec, component, variant)
        for component in spec.components
        for variant in component.variants
    )
    return StudyGrid(spec=spec, baseline=baseline, cells=cells)


__all__ = ["BASELINE_LABEL", "StudyCell", "StudyGrid", "expand"]
