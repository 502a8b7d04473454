"""The Experiment protocol and registry — one front door for every table.

Before this module, each of the paper-table reproductions
(``table5.py`` … ``table12.py``, ``msg_sensitivity.py``, ``failure.py``,
``open_system.py``, ``validation.py``) and each ablation sweep exposed
its own ``main(settings, *, jobs=1, cache=None)`` spelling, and the CLI
hard-coded two parallel dispatch dicts.  The registry collapses those
entry points behind one shape:

* :class:`Experiment` — name, section title, description, whether the
  experiment is analytic (no simulation, ignores run settings), and a
  ``run(settings, context)`` method that returns the rendered table.
* :func:`all_experiments` / :func:`get_experiment` /
  :func:`experiment_names` — lookup, in stable report order.

The ``repro-experiments`` CLI generates its subcommands from
:func:`experiment_names`, and ``repro-experiments report`` walks
:func:`all_experiments` — registering an experiment here is the single
step that wires it into both.

Every simulated experiment runs the same way: build its catalog study
(:func:`repro.ablation.build_study`), run it, and hand the outcome to
the module that renders it.  The registry imports those modules lazily,
and the report module imports *this* one lazily, so importing the
registry stays cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Tuple

from repro.experiments.context import StudyContext
from repro.experiments.runconfig import STANDARD, RunSettings

#: An experiment body: run at *settings* under *context*, return the
#: rendered table text.
ExperimentRunner = Callable[[RunSettings, StudyContext], str]


@dataclass(frozen=True)
class Experiment:
    """One registered experiment: what it's called and how to run it.

    Attributes:
        name: CLI subcommand and registry key (``"table8"``,
            ``"ablation-stale"``, ...).
        title: Section heading used in generated reports.
        description: One-line help string shown by ``repro-experiments
            list`` and the CLI ``--help``.
        analytic: True when the experiment needs no simulation — it
            ignores run settings and the execution context, never touches
            the result cache, and is excluded from ``--scale`` semantics.
        runner: The body; call through :meth:`run`.
    """

    name: str
    title: str
    description: str
    analytic: bool = False
    runner: ExperimentRunner = field(repr=False, default=None)  # type: ignore[assignment]

    def run(
        self,
        settings: RunSettings = STANDARD,
        context: StudyContext = StudyContext(),
    ) -> str:
        """Execute the experiment and return its rendered table."""
        return self.runner(settings, context)


def _analytic_runner(module_name: str) -> ExperimentRunner:
    """Runner for the analytic tables (``run_experiment()`` takes nothing)."""

    def run(settings: RunSettings, context: StudyContext) -> str:
        import importlib

        del settings, context  # analytic: nothing to scale or cache
        module = importlib.import_module(f"repro.experiments.{module_name}")
        return module.format_table(module.run_experiment())

    return run


def _validation_runner() -> ExperimentRunner:
    """Runner for the substrate cross-validation (settings, no context)."""

    def run(settings: RunSettings, context: StudyContext) -> str:
        del context  # cheap network-level runs; not keyed like DB cells
        from repro.experiments import validation

        return validation.format_table(validation.run_experiment(settings))

    return run


def _study_runner(
    study_name: str, renderer: str, *, one_replication: bool = False
) -> ExperimentRunner:
    """Runner of a catalog study: build it, run it, render it.

    *renderer* is ``"module:function"``, imported lazily so that
    importing the registry stays cheap until an experiment actually runs.
    ``one_replication`` runs every cell once whatever the scale preset
    says (the ablation sweeps always did).
    """

    def run(settings: RunSettings, context: StudyContext) -> str:
        import importlib

        from repro.ablation import build_study, run_study

        if one_replication:
            settings = replace(settings, replications=1)
        module_name, function = renderer.split(":")
        module = importlib.import_module(module_name)
        outcome = run_study(build_study(study_name, settings), context=context)
        return getattr(module, function)(outcome)

    return run


_ABLATIONS = "repro.experiments.ablations"

#: Registration order is report order: analytic foundations first, then
#: the paper's simulation tables, then extensions, then ablations.
_EXPERIMENTS: Tuple[Experiment, ...] = (
    Experiment(
        name="table5",
        title="Table 5 — Waiting Improvement Factor",
        description="analytic WIF(L,i) grid vs the paper's values",
        analytic=True,
        runner=_analytic_runner("table5"),
    ),
    Experiment(
        name="table6",
        title="Table 6 — Fairness Improvement Factor",
        description="analytic FIF(L,i) grid vs the paper's values",
        analytic=True,
        runner=_analytic_runner("table6"),
    ),
    Experiment(
        name="table8",
        title="Table 8 — Think-time sensitivity",
        description="policy improvements across think times (site.think_time)",
        runner=_study_runner("table8", "repro.experiments.table8:format_table"),
    ),
    Experiment(
        name="table9",
        title="Table 9 — MPL sensitivity",
        description="policy improvements across multiprogramming levels (site.mpl)",
        runner=_study_runner("table9", "repro.experiments.table9:format_table"),
    ),
    Experiment(
        name="table10",
        title="Table 10 — System capacity",
        description="max mpl per response-time bound, LOCAL vs LERT (site.mpl)",
        runner=_study_runner("table10", "repro.experiments.table10:format_table"),
    ),
    Experiment(
        name="table11",
        title="Table 11 — Scaling with the number of sites",
        description="policy improvements as the fleet grows (num_sites)",
        runner=_study_runner("table11", "repro.experiments.table11:format_table"),
    ),
    Experiment(
        name="table12",
        title="Table 12 — Class mix and fairness",
        description="W and fairness F across class_io_prob (class_probs)",
        runner=_study_runner("table12", "repro.experiments.table12:format_table"),
    ),
    Experiment(
        name="msg",
        title="Message-length sensitivity",
        description="BNQRD and LERT vs BNQ as messages grow (network.msg_length)",
        runner=_study_runner(
            "msg", "repro.experiments.msg_sensitivity:format_table"
        ),
    ),
    Experiment(
        name="failures",
        title="Site failures and recovery",
        description="policies under a crash/recovery fault plan",
        runner=_study_runner("failures", "repro.experiments.failure:format_table"),
    ),
    Experiment(
        name="open",
        title="Open-system workloads",
        description="policies under open arrivals with admission control",
        runner=_study_runner("open", "repro.experiments.open_system:format_table"),
    ),
    Experiment(
        name="validation",
        title="Substrate cross-validation",
        description="simulator vs exact MVA vs AMVA vs bounds",
        runner=_validation_runner(),
    ),
    Experiment(
        name="ablation-stale",
        title="Ablation A2 — load-information staleness",
        description="LERT's advantage as load snapshots go stale",
        runner=_study_runner(
            "stale-info", f"{_ABLATIONS}:format_stale_info", one_replication=True
        ),
    ),
    Experiment(
        name="ablation-disk",
        title="Ablation A1 — disk organization",
        description="per-disk queues vs one shared disk queue",
        runner=_study_runner(
            "disk-organization", f"{_ABLATIONS}:format_disk_organization", one_replication=True
        ),
    ),
    Experiment(
        name="ablation-updates",
        title="Ablation — update fraction",
        description="read-only assumption relaxed via update propagation",
        runner=_study_runner(
            "update-fraction", f"{_ABLATIONS}:format_update_fraction", one_replication=True
        ),
    ),
    Experiment(
        name="ablation-heterogeneous",
        title="Ablation — heterogeneous CPU speeds",
        description="policies on a fleet with unequal CPU speeds",
        runner=_study_runner(
            "heterogeneity", f"{_ABLATIONS}:format_heterogeneity", one_replication=True
        ),
    ),
    Experiment(
        name="ablation-subnet",
        title="Ablation — subnet topology",
        description="Table 11's sweep on a ring vs a point-to-point mesh",
        runner=_study_runner(
            "subnet-scaling", f"{_ABLATIONS}:format_subnet_scaling", one_replication=True
        ),
    ),
    Experiment(
        name="study-core",
        title="Core component-importance study",
        description=(
            "ranked A1-A4 component importance from the committed core "
            "StudySpec"
        ),
        runner=_study_runner(
            "core", "repro.ablation.report:render_study_report"
        ),
    ),
)

_REGISTRY: Dict[str, Experiment] = {e.name: e for e in _EXPERIMENTS}
if len(_REGISTRY) != len(_EXPERIMENTS):  # pragma: no cover - registration bug
    raise RuntimeError("duplicate experiment names in the registry")


def all_experiments() -> Tuple[Experiment, ...]:
    """Every registered experiment, in report order."""
    return _EXPERIMENTS


def experiment_names() -> Tuple[str, ...]:
    """Registered names, in report order (CLI subcommand set)."""
    return tuple(e.name for e in _EXPERIMENTS)


def get_experiment(name: str) -> Experiment:
    """Look up one experiment by name; raises ``KeyError`` with options."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; choose from "
            f"{', '.join(sorted(_REGISTRY))}"
        ) from None


__all__ = [
    "Experiment",
    "ExperimentRunner",
    "all_experiments",
    "experiment_names",
    "get_experiment",
]
