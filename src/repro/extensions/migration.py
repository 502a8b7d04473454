"""Query migration at operation boundaries (the paper's first future-work item).

§6.2: "we intend to investigate the possibility of moving partially executed
queries from site to site at certain critical times, which will require
determining when a query can be economically moved (probably between its
primitive relational operations)".

This extension implements that idea conservatively:

* every ``check_interval`` completed read cycles, a running query re-costs
  its remaining work at every candidate site using the bound policy's cost
  function (only cost-based policies can migrate — LOCAL/RANDOM have no
  cost notion); under faults a down site is never a candidate;
* the query moves only if the best remote cost times ``threshold`` is
  still below the local cost — hysteresis against thrashing;
* moving transfers the query descriptor *plus the partial results
  accumulated so far* over the token ring (the paper notes partially
  written temporaries make mid-operation moves unreasonable; at operation
  boundaries the state to ship is the intermediate result);
* a per-query migration budget (``max_migrations``) bounds ping-ponging.

Waiting-time accounting is unchanged: transfer time counts as waiting.
"""

from __future__ import annotations

from repro.model.mechanism import Mechanism
from repro.model.query import Query
from repro.model.system import DistributedDatabase
from repro.policies.base import CostBasedPolicy


class Migration(Mechanism):
    """Queries may migrate between read cycles.

    Migration decisions reuse the bound policy's ``site_cost`` (through
    :meth:`DistributedDatabase.redecide`); only cost-based policies
    migrate.

    Args:
        check_interval: Read cycles between migration checks.
        threshold: Required cost advantage factor (>1) before moving.
        max_migrations: Per-query cap on mid-execution moves.
    """

    def __init__(
        self,
        check_interval: int = 5,
        threshold: float = 1.5,
        max_migrations: int = 2,
    ) -> None:
        if check_interval < 1:
            raise ValueError("check_interval must be >= 1")
        if threshold < 1.0:
            raise ValueError("threshold must be >= 1 (hysteresis)")
        if max_migrations < 0:
            raise ValueError("max_migrations must be >= 0")
        self.check_interval = check_interval
        self.threshold = threshold
        self.max_migrations = max_migrations
        self.total_migrations = 0
        self._cost_based = False

    def bind(self, system: DistributedDatabase) -> None:
        super().bind(system)
        self._cost_based = isinstance(system.policy, CostBasedPolicy)
        system.migration = self

    def segment(self, query: Query, left: int) -> int:
        """Reads to run before the next check, of *left* in the operation."""
        if self._cost_based and query.migrations < self.max_migrations:
            return min(self.check_interval, left)
        return left

    def target(self, query: Query, site: int, left: int) -> int:
        """Where the remaining *left* reads run after a check (*site* = stay)."""
        assert self.system is not None
        target = self.system.redecide(query, site, left, self.threshold)
        if target != site:
            query.migrations += 1
            self.total_migrations += 1
        return target


__all__ = ["Migration"]
