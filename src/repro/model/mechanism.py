"""The extension seam of the query life cycle: :class:`Mechanism`.

The paper's §6.2 future work — stale load information, partial
replication, heterogeneous sites, updates, migration, subquery pipelines —
is not a family of system subclasses.  Each is a *mechanism* passed at
construction::

    DistributedDatabase(config, policy, seed=7, extensions=(
        StaleLoadInfo(refresh_interval=25.0),
        Updates(update_prob=0.2),
    ))

and :meth:`DistributedDatabase.execute_query` — the one generator that
implements Figure 2 — consults the hooks below at fixed points.  Since
every mechanism plugs into the same life cycle, they combine with each
other, with a :class:`~repro.faults.plan.FaultPlan` and with an open
:class:`~repro.workloads.spec.WorkloadSpec`.

Hooks and the order they run in (all no-ops here; a mechanism overrides
the ones it needs):

* :meth:`Mechanism.bind` — at construction, before the workload starts;
  mechanisms bind in the order they were passed.
* :meth:`Mechanism.on_start` — after the workload started (processes a
  mechanism launches come after the terminals in the event order).
* :meth:`Mechanism.on_arrival` — once per query, before allocation: the
  mechanism's draws from the query's private stream.
* :meth:`Mechanism.on_commit` — the query's results reached home.  Lost
  queries (fault plans) never commit.

Four seams have a single owner, which its mechanism claims on the system
in :meth:`Mechanism.bind`: the load view policies read
(``system.load_info``), the data placement behind ``candidate_sites``
(``system.placement``), the subquery pipeline whose stage boundaries may
move a query (``system.pipeline``), and migration at the boundaries
inside one operation (``system.migration``).
"""

from __future__ import annotations

import dataclasses
import random
from typing import TYPE_CHECKING, ClassVar, Optional

from repro.codec import check_field
from repro.model.query import Query

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.config import SystemConfig
    from repro.model.system import DistributedDatabase


class Mechanism:
    """One composable extension of the query life cycle."""

    #: The system this mechanism is bound to (set by :meth:`bind`).
    system: Optional["DistributedDatabase"] = None

    def check(self, config: "SystemConfig") -> None:
        """Reject a system *config* this mechanism cannot run on."""

    def bind(self, system: "DistributedDatabase") -> None:
        """Attach to *system* (called once, from its constructor)."""
        if self.system is not None:
            raise RuntimeError(f"{type(self).__name__} is already bound to a system")
        self.system = system

    def on_start(self) -> None:
        """Launch background processes (after the workload started)."""

    def on_arrival(self, query: Query, rng: random.Random) -> None:
        """Draw the query's mechanism-specific attributes from *rng*."""

    def on_commit(self, query: Query) -> None:
        """*query* completed: its results are home."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


class BaseMechanismSpec:
    """The serializable description of one mechanism.

    Each subclass is a frozen dataclass declared beside its mechanism,
    with the mechanism constructor's arguments as fields (same names,
    same defaults); :meth:`build` calls that constructor.  Construction
    reads every field back through its JSON type and builds once, so a
    wrong type or a value the constructor rejects fails here, not in the
    run, and a spec built in code encodes like the same spec read from a
    file.  ``kind`` is the spec's tag in JSON.
    """

    kind: ClassVar[str]

    def __post_init__(self) -> None:
        cls = type(self)
        for spec in dataclasses.fields(self):  # type: ignore[arg-type]
            value = check_field(cls, spec.name, getattr(self, spec.name), spec.name)
            object.__setattr__(self, spec.name, value)
        self.build()

    def build(self) -> Mechanism:
        """A fresh, unbound mechanism for one run."""
        raise NotImplementedError


__all__ = ["Mechanism", "BaseMechanismSpec"]
