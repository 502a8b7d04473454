"""Update transactions and replica propagation.

The paper studies read-only queries and argues in a footnote that this "is
not a major problem, as updates must be propagated to all sites regardless
of the processing site".  This extension makes that argument concrete: a
fraction of the workload are *update* queries that, after executing at
their allocated site, broadcast their write set to every other replica,
where an apply task consumes real disk and CPU time.

Modeling decisions:

* the updating user's response time ends when its own execution finishes
  (asynchronous replication — the propagation is background work);
* one propagation message per remote site crosses the token ring, so
  update-heavy workloads visibly congest the channel;
* each apply task performs ``update_pages`` disk writes and CPU bursts at
  the replica, drawn from a replica-local stream (applies are not part of
  the common-random-numbers contract since they exist only in this
  extension);
* the apply backlog is observable (``pending_applies``) — sustained growth
  means the system cannot keep up with its write rate.

The paper's footnote predicts that update load, being allocation-invariant,
*dilutes* the benefit of dynamic allocation rather than changing the policy
ranking; the update-fraction experiment confirms exactly that.
:class:`UpdatesSpec` is the mechanism as data (kind ``"updates"``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import ClassVar

from repro.model.mechanism import BaseMechanismSpec, Mechanism
from repro.model.query import Query
from repro.model.ring import Message


class Updates(Mechanism):
    """The workload mixes read-only queries and updates.

    The allocation policy places the executing copy; the propagation is
    policy-independent, per the paper's footnote.  Only queries that
    complete propagate: an update lost to a fault plan never commits.

    Args:
        update_prob: Probability that a query is an update.
        update_pages: Pages written per replica when an update is applied.
        apply_cpu_time: Mean CPU burst per applied page.
    """

    def __init__(
        self,
        update_prob: float = 0.2,
        update_pages: int = 4,
        apply_cpu_time: float = 0.05,
    ) -> None:
        if not 0 <= update_prob <= 1:
            raise ValueError("update_prob must be in [0, 1]")
        if update_pages < 1:
            raise ValueError("update_pages must be >= 1")
        if apply_cpu_time <= 0:
            raise ValueError("apply_cpu_time must be > 0")
        self.update_prob = update_prob
        self.update_pages = update_pages
        self.apply_cpu_time = apply_cpu_time
        self.updates_executed = 0
        self.applies_started = 0
        self.applies_completed = 0

    @property
    def pending_applies(self) -> int:
        """Apply tasks announced but not yet finished."""
        return self.applies_started - self.applies_completed

    def on_arrival(self, query: Query, rng: random.Random) -> None:
        # One draw per query whatever update_prob is (0.0 included), so
        # the rest of the query's stream does not depend on it.
        query.update = rng.random() < self.update_prob

    def on_commit(self, query: Query) -> None:
        if not query.update:
            return
        self.updates_executed += 1
        system = self.system
        assert system is not None and query.execution_site is not None
        source = query.execution_site
        network = system.config.network
        if network.msg_length is not None:
            transfer_time = network.msg_length
        else:
            transfer_time = self.update_pages * network.page_size * network.msg_time
        for site_index in range(system.config.num_sites):
            if site_index == source:
                continue
            self.applies_started += 1

            def start_apply(site_index: int = site_index, update_id: int = query.qid) -> None:
                system.sim.launch(
                    self._apply_process(site_index, update_id),
                    name=f"apply.u{update_id}.s{site_index}",
                )

            system.ring.send(
                Message(
                    source=source,
                    destination=site_index,
                    transfer_time=transfer_time,
                    deliver=start_apply,
                    kind="update",
                    size_bytes=self.update_pages * network.page_size,
                )
            )

    def _apply_process(self, site_index: int, update_id: int):
        """Apply one update's write set at one replica."""
        system = self.system
        assert system is not None
        site = system.sites[site_index]
        rng = system.sim.rng.stream(f"apply.s{site_index}.u{update_id}")
        for _ in range(self.update_pages):
            yield site.disk_service(system.workload.disk_time(rng), rng)
            yield site.cpu_service(rng.expovariate(1.0 / self.apply_cpu_time))
        self.applies_completed += 1


@dataclass(frozen=True)
class UpdatesSpec(BaseMechanismSpec):
    """:class:`Updates`' arguments, serialized as kind ``"updates"``."""

    kind: ClassVar[str] = "updates"

    update_prob: float = 0.2
    update_pages: int = 4
    apply_cpu_time: float = 0.05

    def build(self) -> Updates:
        return Updates(self.update_prob, self.update_pages, self.apply_cpu_time)


__all__ = ["Updates", "UpdatesSpec"]
