"""Subquery allocation: the paper's stated eventual goal, implemented.

§1.1 describes how distributed queries are "decomposed into sequences of
*data moves* and *subqueries*", and §6.2 names the end goal: "dynamically
allocating subqueries of distributed queries to sites in an environment
with only partially replicated data".  This extension implements exactly
that pipeline model:

* a fraction ``multi_prob`` of queries are *distributed*: a chain of
  ``subquery_count`` stages, each referencing its own data item (so each
  stage has its own candidate-site set under the replication map);
* each stage is allocated *when it starts*, using the bound policy's cost
  function over the stage's candidate sites — so allocation decisions see
  the load state at stage time, not plan time (the dynamic part);
* between consecutive stages executed at different sites, the intermediate
  result crosses the subnet (a data move), sized by the work done so far;
* the final stage's results return to the home terminal as usual.

The paper's §1.2.4 point is respected: a *running* stage never moves
(unless the :class:`~repro.extensions.migration.Migration` mechanism is
installed too); re-decision happens at stage boundaries, where the only
state to ship is the intermediate result.

Stage allocation reuses the policy's ``site_cost`` with a stage-local
pseudo-query whose "arrival site" is wherever the pipeline currently is,
so LERT's network term naturally prices the data move.
"""

from __future__ import annotations

import random

from repro.model.mechanism import Mechanism
from repro.model.query import Query
from repro.model.system import DistributedDatabase


class Subqueries(Mechanism):
    """Distributed queries as dynamically allocated subquery pipelines.

    Cost-based policies are consulted per stage; others (LOCAL/RANDOM)
    stay put when the current site holds the stage's data, else go to the
    nearest holder.  With :class:`~repro.extensions.partial_replication.PartialReplication`
    each stage draws its own data item; without it every site holds
    everything.

    Args:
        multi_prob: Probability a query is distributed (multi-stage).
        subquery_count: Stages per distributed query (>= 2).
    """

    def __init__(self, multi_prob: float = 0.5, subquery_count: int = 2) -> None:
        if not 0 <= multi_prob <= 1:
            raise ValueError("multi_prob must be in [0, 1]")
        if subquery_count < 2:
            raise ValueError("distributed queries need >= 2 subqueries")
        self.multi_prob = multi_prob
        self.subquery_count = subquery_count
        self.distributed_queries = 0
        self.data_moves = 0

    def bind(self, system: DistributedDatabase) -> None:
        super().bind(system)
        system.pipeline = self

    def place(self, query: Query, site: int, reads: int) -> int:
        """Where a stage of *reads* reads runs, deciding from *site*.

        ``query.data_item`` is the stage's item; a move counts as a data
        move (the stage-0 hop from home included).
        """
        assert self.system is not None
        target = self.system.redecide(query, site, reads)
        if target != site:
            self.data_moves += 1
        return target

    def on_arrival(self, query: Query, rng: random.Random) -> None:
        # One draw per query whatever multi_prob is (0.0 included).
        if rng.random() >= self.multi_prob:
            return
        self.distributed_queries += 1
        assert self.system is not None
        placement = self.system.placement
        stages = self.subquery_count
        # Split the read budget across stages (every stage >= 1 read).
        base, extra = divmod(query.actual_reads, stages)
        query.stages = tuple(
            (
                max(1, base + (1 if s < extra else 0)),
                None if placement is None else placement.draw_item(rng),
            )
            for s in range(stages)
        )


__all__ = ["Subqueries"]
