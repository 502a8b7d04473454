"""Telemetry sees extension runs: every completed query was allocated.

Each mechanism runs inside the one query life cycle, so the allocation
events that spans and the decision audit are built from fire for every
query — pipelined and migrating queries included.
"""

import pytest

from repro.extensions import (
    HeterogeneousCPU,
    Migration,
    PartialReplication,
    ReplicationMap,
    StaleLoadInfo,
    Subqueries,
    Updates,
)
from repro.model.system import DistributedDatabase
from repro.policies.registry import make_policy
from repro.telemetry.events import AllocationDecided, QueryAllocated, QueryCompleted

MECHANISMS = {
    "stale": ("LERT", lambda: (StaleLoadInfo(refresh_interval=20.0),)),
    "updates": ("LERT", lambda: (Updates(update_prob=0.3),)),
    "heterogeneous": ("LERT-HET", lambda: (HeterogeneousCPU((0.5, 1.0, 2.0)),)),
    "partial": (
        "LERT",
        lambda: (PartialReplication(ReplicationMap.round_robin_k(3, 6, 2)),),
    ),
    "migration": ("LERT", lambda: (Migration(threshold=1.1, check_interval=1),)),
    "subqueries": (
        "LERT",
        lambda: (
            PartialReplication(ReplicationMap.round_robin_k(3, 6, 1)),
            Subqueries(multi_prob=1.0, subquery_count=3),
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(MECHANISMS))
def test_every_completed_query_was_allocated_and_audited(tiny_config, name):
    policy, mechanisms = MECHANISMS[name]
    system = DistributedDatabase(
        tiny_config.with_site(think_time=15.0),
        make_policy(policy),
        seed=1,
        extensions=mechanisms(),
    )
    seen = {QueryAllocated: [], AllocationDecided: [], QueryCompleted: []}
    for event_type, qids in seen.items():
        system.sim.bus.subscribe(event_type, lambda event, qids=qids: qids.append(event.qid))
    results = system.run(0.0, 1500.0)
    completed = seen[QueryCompleted]
    assert len(completed) == results.completions > 50
    assert set(completed) <= set(seen[QueryAllocated])
    assert set(completed) <= set(seen[AllocationDecided])
    assert len(seen[QueryAllocated]) >= len(completed)
    assert len(seen[AllocationDecided]) >= len(completed)
