"""Experiment harness: the paper's tables as studies, and their renderers.

* E1/E2 — :mod:`repro.experiments.table5`, :mod:`repro.experiments.table6`
  (analytic, exact MVA).
* E3–E7 — :mod:`repro.experiments.table8` … :mod:`repro.experiments.table12`,
  E8 — :mod:`repro.experiments.msg_sensitivity`, and the extension tables
  :mod:`~repro.experiments.failure` and :mod:`~repro.experiments.open_system`
  (simulation grids).

Every simulated table is a catalog study
(:func:`repro.ablation.catalog.grid_study`: named points × policies with
common random numbers), so its cells are content-addressed runs shared
with ``repro-experiments study`` and the result cache; the table module
only renders the executed study (``format_table(outcome)``) and states
its derived checks.  The front door is the experiment registry
(:mod:`repro.experiments.registry`): every experiment — tables,
extensions, ablations, committed studies — is an
:class:`~repro.experiments.registry.Experiment` with a uniform
``run(settings, context)``, and the ``repro-experiments`` CLI generates
its subcommands from it.  Execution options (workers, cache, progress)
travel in one typed :class:`~repro.experiments.context.StudyContext`.

The table modules import :mod:`repro.ablation`, which imports this
package's backend, so they are not imported here: ``from
repro.experiments import table8`` loads one on demand.  One-cell runs
(:func:`repro.ablation.simulate`) live there too.
"""

from repro.experiments.context import SERIAL, StudyContext
from repro.experiments.registry import (
    Experiment,
    all_experiments,
    experiment_names,
    get_experiment,
)
from repro.experiments.cache import (
    ResultCache,
    cache_key,
    default_cache_dir,
)
from repro.experiments.parallel import (
    ReplicationTask,
    resolve_jobs,
    run_tasks,
)
from repro.experiments.report import (
    TextTable,
    generate_report,
    improvement_pct,
    report_sections,
    write_report,
)
from repro.experiments.sweep import (
    CSV_COLUMNS,
    set_config_parameter,
    write_csv,
)
from repro.experiments.runconfig import (
    PAPER,
    QUICK,
    SCALES,
    STANDARD,
    RunSettings,
    settings_for,
)


__all__ = [
    "TextTable",
    "improvement_pct",
    "ResultCache",
    "cache_key",
    "default_cache_dir",
    "ReplicationTask",
    "resolve_jobs",
    "run_tasks",
    "RunSettings",
    "QUICK",
    "STANDARD",
    "PAPER",
    "SCALES",
    "settings_for",
    "set_config_parameter",
    "write_csv",
    "CSV_COLUMNS",
    "generate_report",
    "report_sections",
    "write_report",
    "StudyContext",
    "SERIAL",
    "Experiment",
    "all_experiments",
    "experiment_names",
    "get_experiment",
]
