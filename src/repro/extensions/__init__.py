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
"""

from repro.extensions.heterogeneous import HeterogeneousCPU, HeterogeneousLERTPolicy
from repro.extensions.migration import Migration
from repro.extensions.partial_replication import PartialReplication, ReplicationMap
from repro.extensions.stale_info import StaleLoadInfo
from repro.extensions.subqueries import Subqueries
from repro.extensions.updates import Updates

__all__ = [
    "StaleLoadInfo",
    "Migration",
    "PartialReplication",
    "ReplicationMap",
    "Subqueries",
    "Updates",
    "HeterogeneousCPU",
    "HeterogeneousLERTPolicy",
]
