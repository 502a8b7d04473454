"""Every field of every codec class reaches its encoding and the cache key.

For each dataclass the codec serializes — found by walking the type hints
of the root formats, so a new nested class is covered without an edit
here — a base instance is built, each field is changed in turn, and the
test checks that the encoding changes and that decoding it through JSON
text restores the changed instance.  A changed :class:`ReplicationTask`
field must also change :meth:`ReplicationTask.key`, the cache address.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from typing import Any, Dict, List, Tuple, Union

import pytest

from repro import codec
from repro.ablation.spec import BaselineRun, Component, StudySpec, Variant
from repro.codec import decode, encode
from repro.ablation.study import MetricSet
from repro.experiments.parallel import ReplicationTask
from repro.experiments.runconfig import RunSettings
from repro.faults.plan import FaultPlan, MessageFaults, SiteOutage
from repro.model.config import NetworkSpec, SiteSpec, SystemConfig, paper_defaults
from repro.model.metrics import SystemResults
from repro.telemetry.events import EVENT_TYPES
from repro.telemetry.tracing import DecisionRecord, Span
from repro.workloads.arrivals import MMPP, DiurnalRate, PoissonOpen
from repro.workloads.spec import AdmissionControl, WorkloadSpec

#: The top-level formats; every dataclass reachable from them is checked.
ROOTS = (
    SystemConfig,
    FaultPlan,
    WorkloadSpec,
    SystemResults,
    MetricSet,
    StudySpec,
    ReplicationTask,
    Span,
    DecisionRecord,
) + EVENT_TYPES

CONFIG = paper_defaults(num_sites=3)
FAULTS = FaultPlan(
    site_outages=(SiteOutage(site=1, at=5.0, duration=3.0),),
    messages=MessageFaults(loss_prob=0.1),
)
OPEN = WorkloadSpec(arrivals=PoissonOpen(rate=0.1), admission=AdmissionControl(max_pending=3))

#: Base instances of the classes whose validation rejects generic samples.
BASES: Dict[type, Any] = {
    SystemConfig: CONFIG,
    SiteSpec: SiteSpec(),
    NetworkSpec: NetworkSpec(),
    FaultPlan: FAULTS,
    MessageFaults: FAULTS.messages,
    WorkloadSpec: OPEN,
    MMPP: MMPP(rates=(0.5, 0.1), mean_holding=(10.0, 20.0)),
    DiurnalRate: DiurnalRate(base_rate=0.1, amplitude=0.5, period=100.0),
    RunSettings: RunSettings(warmup=10.0, duration=20.0, faults=FAULTS, workload=OPEN),
    ReplicationTask: ReplicationTask(
        CONFIG, "LERT", seed=1, warmup=10.0, duration=20.0, system_kind="stale",
        faults=FAULTS, workload=OPEN,
    ),
    BaselineRun: BaselineRun(policy="LERT"),
    Variant: Variant(
        name="v", policy="BNQ", system_kind="stale",
        system_kwargs=(("refresh_interval", 5.0),),
        config_patches=(("site.mpl", 9),), faults=FAULTS, workload=OPEN,
    ),
    Component: Component(name="c", description="d", variants=(Variant(name="v", policy="BNQ"),)),
}
BASES[StudySpec] = StudySpec(
    name="s", title="t", description="d", metric="response_time", config=CONFIG,
    baseline=BASES[BaselineRun], settings=BASES[RunSettings], components=(BASES[Component],),
)

#: Field changes the generic mutation would make invalid.
CHANGES: Dict[Tuple[type, str], Any] = {
    (SystemConfig, "class_probs"): (0.25, 0.75),
    (SystemConfig, "disk_organization"): "shared",
    (SiteSpec, "disk_time_dev"): 0.5,
    (NetworkSpec, "subnet_kind"): "mesh",
    (MessageFaults, "loss_prob"): 0.2,
    (DiurnalRate, "amplitude"): 0.25,
    (MMPP, "per_site"): None,  # only per_site=True is supported
    (DiurnalRate, "per_site"): None,
    (ReplicationTask, "system_kind"): "updates",
    (ReplicationTask, "system_kwargs"): (("refresh_interval", 5.0),),
    (BaselineRun, "system_kind"): "updates",
    (BaselineRun, "system_kwargs"): (("update_prob", 0.5),),
    (Variant, "system_kind"): "updates",
    (StudySpec, "metric"): "waiting_time",
}


def _hints(cls: type) -> Dict[str, Any]:
    return typing.get_type_hints(cls)


def _members(hint: Any) -> List[Any]:
    """The dataclasses a type hint can hold."""
    if dataclasses.is_dataclass(hint):
        return [hint]
    return [m for arg in typing.get_args(hint) for m in _members(arg)]


def codec_classes() -> List[type]:
    seen: List[type] = []
    pending = list(ROOTS)
    while pending:
        cls = pending.pop(0)
        if cls in seen:
            continue
        seen.append(cls)
        for hint in _hints(cls).values():
            pending.extend(_members(hint))
    return seen


def sample(hint: Any) -> Any:
    """A valid value of *hint* (a base instance for dataclasses)."""
    if hint in BASES:
        return BASES[hint]
    if dataclasses.is_dataclass(hint):
        hints = _hints(hint)
        return hint(**{f.name: sample(hints[f.name]) for f in dataclasses.fields(hint)})
    if hint is Any:
        return 1
    simple = {bool: False, int: 2, float: 1.5, str: "s"}
    if hint in simple:
        return simple[hint]
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Union:
        return sample(next(arg for arg in args if arg is not type(None)))
    if origin is tuple and args[-1] is Ellipsis:
        return (sample(args[0]),)
    return tuple(sample(arg) for arg in args)


def mutate(value: Any, hint: Any) -> Any:
    """A different valid value of *hint*."""
    if value is None:
        return sample(hint)
    if dataclasses.is_dataclass(value):
        first = dataclasses.fields(value)[0].name
        return dataclasses.replace(value, **{first: changed_field(value, first)})
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Union:
        return mutate(value, next(arg for arg in args if arg is not type(None)))
    if not value:
        return sample(hint)
    return (mutate(value[0], args[0]),) + tuple(value[1:])


def changed_field(base: Any, name: str) -> Any:
    """A different valid value for field *name* of *base*."""
    cls = type(base)
    new = CHANGES.get((cls, name), dataclasses.MISSING)
    if new is dataclasses.MISSING:
        new = mutate(getattr(base, name), _hints(cls)[name])
    return new


def field_changes(cls: type) -> List[Tuple[str, Any, Any]]:
    """``(field, base, changed)`` for every field of *cls* with two valid values."""
    base = sample(cls)
    return [
        (spec.name, base, dataclasses.replace(base, **{spec.name: changed_field(base, spec.name)}))
        for spec in dataclasses.fields(cls)
        if CHANGES.get((cls, spec.name), dataclasses.MISSING) is not None
    ]


def coverage_failures(cls: type) -> List[str]:
    failures = []
    for name, base, changed in field_changes(cls):
        if encode(changed) == encode(base):
            failures.append(f"{cls.__name__}.{name}: change not in the encoding")
            continue
        text = json.dumps(encode(changed), sort_keys=True)
        if decode(cls, json.loads(text)) != changed:
            failures.append(f"{cls.__name__}.{name}: round trip lost the change")
        if cls is ReplicationTask and changed.key() == base.key():
            failures.append(f"{cls.__name__}.{name}: change not in the cache key")
    return failures


@pytest.mark.parametrize("cls", codec_classes(), ids=lambda cls: cls.__name__)
def test_every_field_reaches_encoding_and_round_trips(cls):
    assert field_changes(cls) or not dataclasses.fields(cls)
    assert coverage_failures(cls) == []


def test_classes_cover_every_nested_format():
    names = {cls.__name__ for cls in codec_classes()}
    assert {"SiteSpec", "MessageFaults", "TraceDriven", "IntervalEstimate", "Variant"} <= names


def test_excluded_field_is_caught(monkeypatch):
    """Dropping one field from the encoding makes the check fail."""
    plan = codec._plan(SystemConfig)
    kept = tuple(spec for spec in plan.fields if spec.name != "integer_reads")
    monkeypatch.setattr(plan, "fields", kept)
    assert coverage_failures(SystemConfig) == [
        "SystemConfig.integer_reads: change not in the encoding"
    ]


def test_field_left_out_of_the_key_is_caught(monkeypatch):
    """A task field the key ignored would fail the cache-key check."""
    real = codec.encode

    def without_seed(value):
        data = real(value)
        if isinstance(value, ReplicationTask):
            data.pop("seed")
        return data

    monkeypatch.setattr("repro.experiments.cache.encode", without_seed)
    assert "ReplicationTask.seed: change not in the cache key" in coverage_failures(
        ReplicationTask
    )
