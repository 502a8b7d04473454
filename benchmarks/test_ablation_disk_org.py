"""Ablation A1 — disk organization: per-disk queues vs one shared queue.

DESIGN.md models the disks as independent per-disk FCFS queues with random
routing (matching Figure 2); the alternative is a single queue feeding both
disks (M/G/c style).  The shared queue can never be worse (no random
collisions while a disk idles), so the bench quantifies how much the
paper's organization costs and confirms policy rankings are insensitive
to it.
"""

import dataclasses

from repro.ablation.study import simulate
from repro.model.config import DISK_PER_DISK, DISK_SHARED, paper_defaults


def _run(settings):
    results = {}
    for organization in (DISK_PER_DISK, DISK_SHARED):
        config = dataclasses.replace(
            paper_defaults(), disk_organization=organization
        )
        results[organization] = {
            policy: simulate(config, policy, settings)
            for policy in ("LOCAL", "LERT")
        }
    return results


def test_ablation_disk_organization(benchmark, quick_settings):
    results = benchmark.pedantic(
        _run, args=(quick_settings,), rounds=1, iterations=1
    )
    print()
    print("disk organization ablation (W = mean waiting time):")
    for organization, by_policy in results.items():
        for policy, r in by_policy.items():
            print(f"  {organization:9s} {policy:6s} W={r.waiting_time:6.2f}")

    for policy in ("LOCAL", "LERT"):
        per_disk = results[DISK_PER_DISK][policy].waiting_time
        shared = results[DISK_SHARED][policy].waiting_time
        assert shared <= per_disk * 1.05, (
            f"{policy}: shared queue should not be materially worse "
            f"({shared:.2f} vs {per_disk:.2f})"
        )

    # The policy ranking survives the organization change.
    for organization in (DISK_PER_DISK, DISK_SHARED):
        assert (
            results[organization]["LERT"].waiting_time
            < results[organization]["LOCAL"].waiting_time
        )
    benchmark.extra_info["shared_vs_per_disk_local"] = round(
        results[DISK_SHARED]["LOCAL"].waiting_time
        / results[DISK_PER_DISK]["LOCAL"].waiting_time,
        3,
    )
