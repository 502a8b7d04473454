"""JSON round-tripping of configs, fault plans, workloads and results.

Experiments are parameterized by :class:`~repro.model.config.SystemConfig`
objects; serializing them lets users store experiment definitions alongside
results, diff configurations, and drive custom sweeps from files::

    config = load_config("my_experiment.json")
    config = config_from_dict({...})
    save_config(config, "my_experiment.json")

Every function here is a named binding of the generic codec
(:mod:`repro.codec`): the format is the dataclass itself, plus a
``format_version`` key, and a key the dataclass does not know is an error
rather than a silent no-op.  Fault plans are the CLI's ``--faults
plan.json`` format and workload specs its ``--workload plan.json``
format; only the built-in arrival processes serialize (a custom
:class:`~repro.workloads.arrivals.ArrivalProcess` works at run time but
cannot enter cache keys or files).  :func:`results_to_dict` /
:func:`results_from_dict` carry one run's
:class:`~repro.model.metrics.SystemResults` through the result cache.
"""

from __future__ import annotations

import pathlib
from typing import Any, Dict, Union

from repro.codec import decode, encode, load, save
from repro.faults.plan import FaultPlan
from repro.model.config import SystemConfig
from repro.model.metrics import SystemResults
from repro.workloads.spec import WorkloadSpec

PathLike = Union[str, pathlib.Path]

#: Version tags of the serialized formats (declared on each dataclass).
FORMAT_VERSION = SystemConfig.format_version
RESULTS_FORMAT_VERSION = SystemResults.format_version
FAULT_PLAN_FORMAT_VERSION = FaultPlan.format_version
WORKLOAD_FORMAT_VERSION = WorkloadSpec.format_version


def config_to_dict(config: SystemConfig) -> Dict[str, Any]:
    """Flatten a :class:`SystemConfig` into JSON-compatible primitives."""
    return encode(config)


def config_from_dict(data: Dict[str, Any]) -> SystemConfig:
    """Rebuild a :class:`SystemConfig` (raises :class:`ConfigError`)."""
    return decode(SystemConfig, data)


def save_config(config: SystemConfig, path: PathLike) -> None:
    """Write *config* as pretty-printed JSON."""
    save(config, path)


def load_config(path: PathLike) -> SystemConfig:
    """Read a config written by :func:`save_config`."""
    return load(SystemConfig, path)


def fault_plan_to_dict(plan: FaultPlan) -> Dict[str, Any]:
    """Flatten a :class:`~repro.faults.plan.FaultPlan` into JSON primitives."""
    return encode(plan)


def fault_plan_from_dict(data: Dict[str, Any]) -> FaultPlan:
    """Rebuild a :class:`~repro.faults.plan.FaultPlan`."""
    return decode(FaultPlan, data)


def save_fault_plan(plan: FaultPlan, path: PathLike) -> None:
    """Write *plan* as pretty-printed JSON (the ``--faults`` file format)."""
    save(plan, path)


def load_fault_plan(path: PathLike) -> FaultPlan:
    """Read a fault plan written by :func:`save_fault_plan`."""
    return load(FaultPlan, path)


def workload_spec_to_dict(spec: WorkloadSpec) -> Dict[str, Any]:
    """Flatten a :class:`~repro.workloads.spec.WorkloadSpec` into primitives."""
    return encode(spec)


def workload_spec_from_dict(data: Dict[str, Any]) -> WorkloadSpec:
    """Rebuild a :class:`~repro.workloads.spec.WorkloadSpec`."""
    return decode(WorkloadSpec, data)


def save_workload_spec(spec: WorkloadSpec, path: PathLike) -> None:
    """Write *spec* as pretty-printed JSON (the ``--workload`` file format)."""
    save(spec, path)


def load_workload_spec(path: PathLike) -> WorkloadSpec:
    """Read a workload spec written by :func:`save_workload_spec`."""
    return load(WorkloadSpec, path)


def results_to_dict(results: SystemResults) -> Dict[str, Any]:
    """Flatten one run's :class:`SystemResults` into JSON primitives."""
    return encode(results)


def results_from_dict(data: Dict[str, Any]) -> SystemResults:
    """Rebuild a :class:`SystemResults` from :func:`results_to_dict` output."""
    return decode(SystemResults, data)


__all__ = [
    "FORMAT_VERSION",
    "RESULTS_FORMAT_VERSION",
    "FAULT_PLAN_FORMAT_VERSION",
    "WORKLOAD_FORMAT_VERSION",
    "config_to_dict",
    "config_from_dict",
    "save_config",
    "load_config",
    "fault_plan_to_dict",
    "fault_plan_from_dict",
    "save_fault_plan",
    "load_fault_plan",
    "workload_spec_to_dict",
    "workload_spec_from_dict",
    "save_workload_spec",
    "load_workload_spec",
    "results_to_dict",
    "results_from_dict",
]
