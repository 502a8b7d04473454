"""Extensions: the paper's §6.2 future work plus deferred design questions.

Each is a :class:`~repro.model.mechanism.Mechanism` passed to
``DistributedDatabase(..., extensions=(...))``; any set of them combines
with the others, with a fault plan and with an open workload.

* :class:`StaleLoadInfo` — periodic load-information broadcast instead
  of the paper's free always-current oracle.
* :class:`Migration` — query migration between read cycles.
* :class:`PartialReplication` / :class:`ReplicationMap` — allocation
  restricted to sites holding a copy of the query's data.
* :class:`Updates` — update transactions with replica propagation (the
  paper's read-only footnote, made concrete).
* :class:`HeterogeneousCPU` / :class:`HeterogeneousLERTPolicy` — unequal
  CPU speeds across sites and a speed-aware LERT (policy ``"LERT-HET"``).
* :class:`Subqueries` — distributed queries as dynamically allocated
  subquery pipelines with data moves (the paper's §6.2 goal).

Three of them can also be written down as data — a :data:`MechanismSpec`
tagged by kind (``stale``, ``updates``, ``heterogeneous``; see
:data:`MECHANISMS`) — which is how a study, a replication task and a
cache key name the mechanisms of a run, as a list.
"""

import typing
from typing import Union

from repro.codec import TaggedUnion
from repro.extensions.heterogeneous import (
    HeterogeneousCPU,
    HeterogeneousCPUSpec,
    HeterogeneousLERTPolicy,
)
from repro.extensions.migration import Migration
from repro.extensions.partial_replication import PartialReplication, ReplicationMap
from repro.extensions.stale_info import StaleLoadInfo, StaleLoadInfoSpec
from repro.extensions.subqueries import Subqueries
from repro.extensions.updates import Updates, UpdatesSpec

#: The serializable mechanism specs (what studies and cache keys name).
MechanismSpec = Union[StaleLoadInfoSpec, UpdatesSpec, HeterogeneousCPUSpec]

#: The same specs as a JSON tagged union, keyed by their ``kind``.
MECHANISMS = TaggedUnion(
    "kind", {cls.kind: cls for cls in typing.get_args(MechanismSpec)}, "mechanism kind"
)

__all__ = [
    "MECHANISMS",
    "MechanismSpec",
    "StaleLoadInfo",
    "StaleLoadInfoSpec",
    "UpdatesSpec",
    "HeterogeneousCPUSpec",
    "Migration",
    "PartialReplication",
    "ReplicationMap",
    "Subqueries",
    "Updates",
    "HeterogeneousCPU",
    "HeterogeneousLERTPolicy",
]
