"""Partial replication (the paper's second future-work item).

§6.2: "we intend to address the general problem of dynamically allocating
subqueries of distributed queries to sites in an environment with only
partially replicated data".  This extension takes the first step the paper
sketches: each query references one *data item*, each item is replicated at
``k`` of the ``S`` sites, and the allocator may only choose among the
holders.  All of the paper's policies work unchanged — the candidate-site
set simply shrinks from "all sites" to "sites holding a copy".

The replication map is static for a run (data placement changes on a much
slower timescale than query allocation).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.model.mechanism import Mechanism
from repro.model.system import DistributedDatabase


@dataclass(frozen=True)
class ReplicationMap:
    """Static placement of data items onto sites.

    Attributes:
        num_sites: Total sites in the system.
        placement: ``placement[item]`` is the tuple of sites holding a copy
            of that item.
    """

    num_sites: int
    placement: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.placement:
            raise ValueError("need at least one data item")
        for item, holders in enumerate(self.placement):
            if not holders:
                raise ValueError(f"data item {item} has no copies")
            if len(set(holders)) != len(holders):
                raise ValueError(f"data item {item} lists duplicate holders")
            if any(not 0 <= s < self.num_sites for s in holders):
                raise ValueError(f"data item {item} placed on invalid site")

    @property
    def num_items(self) -> int:
        return len(self.placement)

    def holders(self, item: int) -> Tuple[int, ...]:
        return self.placement[item]

    @property
    def mean_copies(self) -> float:
        return sum(len(h) for h in self.placement) / self.num_items

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def full(cls, num_sites: int, num_items: int = 1) -> "ReplicationMap":
        """Every item everywhere — degenerates to the base model."""
        everywhere = tuple(range(num_sites))
        return cls(num_sites, tuple(everywhere for _ in range(num_items)))

    @classmethod
    def random_k(
        cls,
        num_sites: int,
        num_items: int,
        copies: int,
        seed: int = 0,
    ) -> "ReplicationMap":
        """Each item on ``copies`` sites chosen uniformly at random."""
        if not 1 <= copies <= num_sites:
            raise ValueError(f"copies must be in [1, {num_sites}], got {copies}")
        # Placement happens before the simulation starts and is a pure
        # function of the explicit seed argument — it never touches the
        # run's stream registry, so replay cannot be perturbed by it.
        rng = random.Random(seed)  # reprolint: disable=RL014
        placement = tuple(
            tuple(sorted(rng.sample(range(num_sites), copies)))
            for _ in range(num_items)
        )
        return cls(num_sites, placement)

    @classmethod
    def round_robin_k(
        cls, num_sites: int, num_items: int, copies: int
    ) -> "ReplicationMap":
        """Item ``i`` on sites ``i, i+1, ..., i+copies-1`` (mod S).

        A balanced deterministic placement: every site holds the same
        number of items.
        """
        if not 1 <= copies <= num_sites:
            raise ValueError(f"copies must be in [1, {num_sites}], got {copies}")
        placement = tuple(
            tuple(sorted((item + offset) % num_sites for offset in range(copies)))
            for item in range(num_items)
        )
        return cls(num_sites, placement)


class PartialReplication(Mechanism):
    """Queries may only run at sites holding their data.

    Each query draws its data item uniformly at random (from its private
    stream, so the item sequence is policy-independent); optionally a skew
    can be supplied as per-item weights.  The system's
    ``candidate_sites`` — and so every policy's ``view.candidates`` —
    then offers the item's holders only.

    Args:
        replication: The static placement of data items on sites.
        item_weights: Optional access skew over data items.
    """

    def __init__(
        self,
        replication: ReplicationMap,
        item_weights: Optional[Sequence[float]] = None,
    ) -> None:
        if item_weights is not None:
            if len(item_weights) != replication.num_items:
                raise ValueError("item_weights must match the number of items")
            if any(w < 0 for w in item_weights) or sum(item_weights) <= 0:
                raise ValueError("item_weights must be non-negative, positive sum")
            total = float(sum(item_weights))
            cumulative = []
            acc = 0.0
            for w in item_weights:
                acc += w / total
                cumulative.append(acc)
            cumulative[-1] = 1.0
            self._item_cdf: Optional[Tuple[float, ...]] = tuple(cumulative)
        else:
            self._item_cdf = None
        self.replication = replication

    def bind(self, system: DistributedDatabase) -> None:
        if self.replication.num_sites != system.config.num_sites:
            raise ValueError(
                f"replication map covers {self.replication.num_sites} sites, "
                f"config has {system.config.num_sites}"
            )
        super().bind(system)
        system.placement = self

    def draw_item(self, query_rng: random.Random) -> int:
        """One data item, drawn from a query's private stream."""
        if self._item_cdf is None:
            return query_rng.randrange(self.replication.num_items)
        u = query_rng.random()
        for item, threshold in enumerate(self._item_cdf):
            if u < threshold:
                return item
        return len(self._item_cdf) - 1


__all__ = ["ReplicationMap", "PartialReplication"]
