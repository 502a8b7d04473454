"""Study specifications: the frozen, serializable *what* of an ablation.

A :class:`StudySpec` is a baseline run plus components:

* the baseline — the study's system config, policy and mechanism list
  (tagged specs such as ``{"kind": "stale", "refresh_interval": 50.0}``;
  empty is the paper's model), run under the study's
  :class:`~repro.experiments.runconfig.RunSettings`, which give every
  cell its CRN-paired replication seeds;
* :class:`Variant` — one alternative setting of a component, expressed
  as a *delta* against the baseline: an optional policy override, an
  optional mechanism list that replaces the baseline's, dotted-path
  config patches (see
  :func:`~repro.experiments.sweep.set_config_parameter`), and optional
  fault-plan / workload overrides;
* :class:`Component` — a named dimension with one or more variants; the
  study runs each variant with every *other* component at baseline
  (one-at-a-time ablation).

Everything is frozen and validated at construction, and round-trips
through JSON (:func:`study_spec_to_dict` / :func:`study_spec_from_dict`,
:func:`save_study_spec` / :func:`load_study_spec`, all bindings of
:mod:`repro.codec`) — the committed specs under ``studies/`` are exactly
this format.  A variant leaves its unset overrides out of the JSON, and a
key no dataclass field names is an error.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Optional, Tuple, Union

from repro.codec import (
    OMIT_EMPTY,
    OMIT_NONE,
    ConfigError,
    decode,
    encode,
    freeze,
    load,
    save,
    tagged,
)
from repro.experiments.runconfig import RunSettings
from repro.extensions import MECHANISMS, MechanismSpec
from repro.experiments.sweep import set_config_parameter
from repro.faults.plan import FaultPlan
from repro.model.config import SystemConfig
from repro.workloads.spec import WorkloadSpec

#: Version tag of the serialized study-spec format (2: the baseline's
#: policy and mechanism list are study fields).
STUDY_FORMAT_VERSION = 2

#: Metrics a study may rank by (the report shows all of them).
STUDY_METRICS = (
    "response_time",
    "waiting_time",
    "fairness",
    "availability",
    "shed_rate",
)


@dataclass(frozen=True)
class Variant:
    """One alternative setting of a component, as a delta vs baseline.

    Unset fields (``None`` / empty) inherit the baseline; set fields
    override it.

    Attributes:
        name: Variant name, unique within its component.
        policy: Optional policy override.
        mechanisms: Optional mechanism list; a tuple, even ``()``,
            replaces the baseline's whole list.
        config_patches: ``(dotted_path, value)`` pairs applied to the
            baseline config in order (see
            :func:`~repro.experiments.sweep.set_config_parameter`).
        faults: Optional fault-plan override for this variant's runs.
        workload: Optional workload override for this variant's runs.
    """

    name: str
    policy: Optional[str] = field(default=None, metadata=OMIT_NONE)
    mechanisms: Optional[Tuple[MechanismSpec, ...]] = field(
        default=None, metadata={**tagged(MECHANISMS), **OMIT_NONE}
    )
    config_patches: Tuple[Tuple[str, Any], ...] = field(default=(), metadata=OMIT_EMPTY)
    faults: Optional[FaultPlan] = field(default=None, metadata=OMIT_NONE)
    workload: Optional[WorkloadSpec] = field(default=None, metadata=OMIT_NONE)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a variant needs a non-empty name")
        object.__setattr__(self, "config_patches", freeze(self.config_patches))
        if (
            self.policy is None
            and self.mechanisms is None
            and not self.config_patches
            and self.faults is None
            and self.workload is None
        ):
            raise ValueError(
                f"variant {self.name!r} is identical to the baseline; "
                "give it at least one override"
            )


@dataclass(frozen=True)
class Component:
    """One ablated dimension: a name and its alternative settings."""

    name: str
    description: str = field(default="", kw_only=True)
    variants: Tuple[Variant, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a component needs a non-empty name")
        if not self.variants:
            raise ValueError(
                f"component {self.name!r} needs at least one variant"
            )
        object.__setattr__(self, "variants", tuple(self.variants))
        names = [variant.name for variant in self.variants]
        if len(set(names)) != len(names):
            raise ValueError(
                f"component {self.name!r} has duplicate variant names"
            )


@dataclass(frozen=True)
class StudySpec:
    """A complete, frozen ablation study.

    Attributes:
        name: Study identifier (file stem of the committed spec).
        title: Human heading used by the report (defaults to ``name``).
        description: One-paragraph summary of what the study probes.
        metric: Primary metric the importance ranking sorts by (one of
            :data:`STUDY_METRICS`); the report still shows every metric.
        config: Baseline system configuration.
        policy: Baseline allocation policy.
        mechanisms: Baseline mechanism list (empty: the paper's model).
        settings: Run lengths, replication count, base seed, and the
            study-wide fault plan / workload (variant overrides win).
        components: The ablated dimensions.
    """

    format_version: ClassVar[int] = STUDY_FORMAT_VERSION

    name: str
    title: Optional[str] = field(default=None, kw_only=True)
    description: str = field(default="", kw_only=True)
    metric: str
    config: SystemConfig
    policy: str
    mechanisms: Tuple[MechanismSpec, ...] = field(
        default=(), kw_only=True, metadata={**tagged(MECHANISMS), **OMIT_EMPTY}
    )
    settings: RunSettings
    components: Tuple[Component, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a study needs a non-empty name")
        if self.title is None:
            object.__setattr__(self, "title", self.name)
        if self.metric not in STUDY_METRICS:
            raise ValueError(
                f"unknown study metric {self.metric!r}; "
                f"expected one of {STUDY_METRICS}"
            )
        if not self.components:
            raise ValueError("a study needs at least one component")
        object.__setattr__(self, "components", tuple(self.components))
        names = [component.name for component in self.components]
        if len(set(names)) != len(names):
            raise ValueError(f"study {self.name!r} has duplicate component names")
        # Fail fast on patch typos before burning simulation time: every
        # variant's patches must apply cleanly to the baseline config.
        for component in self.components:
            for variant in component.variants:
                config = self.config
                for dotted_path, value in variant.config_patches:
                    try:
                        config = set_config_parameter(config, dotted_path, value)
                    except ConfigError as bad:
                        raise ConfigError(
                            f"study {self.name!r}, variant {variant.name!r}: {bad}"
                        ) from None

    def component(self, name: str) -> Component:
        """Look up one component by name."""
        for candidate in self.components:
            if candidate.name == name:
                return candidate
        raise KeyError(f"study {self.name!r} has no component {name!r}")


def study_spec_to_dict(spec: StudySpec) -> Dict[str, Any]:
    """Flatten a :class:`StudySpec` into JSON-compatible primitives."""
    return encode(spec)


def study_spec_from_dict(data: Dict[str, Any]) -> StudySpec:
    """Rebuild a :class:`StudySpec` from :func:`study_spec_to_dict` output."""
    return decode(StudySpec, data)


def save_study_spec(spec: StudySpec, path: Union[str, pathlib.Path]) -> None:
    """Write a study spec as pretty-printed JSON (stable key order)."""
    save(spec, path)


def load_study_spec(path: Union[str, pathlib.Path]) -> StudySpec:
    """Read a study spec written by :func:`save_study_spec`."""
    return load(StudySpec, path)


__all__ = [
    "STUDY_FORMAT_VERSION",
    "STUDY_METRICS",
    "Variant",
    "Component",
    "StudySpec",
    "study_spec_to_dict",
    "study_spec_from_dict",
    "save_study_spec",
    "load_study_spec",
]
