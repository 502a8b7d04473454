"""Failover study: what do sites crashing do to each allocation policy?

Three scenes, all byte-replayable from the same seed (see docs/faults.md):

1. **A planned outage** — one site goes down for a fixed window; watch
   queries abort, retry at the survivors, and drain back after recovery.
2. **Random failures** — every site runs an exponential crash/repair
   process (MTBF 1500, MTTR 40); compare W-bar and availability metrics
   across policies.
3. **A flaky subnet** — 2% message loss; load-sharing policies pay for
   every remote transfer twice when the ring misbehaves.

Run:  python examples/failover_study.py
"""

from repro import (
    DistributedDatabase,
    FaultPlan,
    MessageFaults,
    RandomOutages,
    SiteOutage,
    make_policy,
    paper_defaults,
)
from repro.experiments.report import TextTable

POLICIES = ("LOCAL", "BNQ", "BNQRD", "LERT")
WARMUP = 2000.0
DURATION = 8000.0
SEED = 23


def run_under(plan):
    """One row of numbers per policy under *plan* (None = faultless)."""
    config = paper_defaults()
    rows = {}
    for name in POLICIES:
        system = DistributedDatabase(
            config, make_policy(name), seed=SEED, faults=plan
        )
        rows[name] = system.run(warmup=WARMUP, duration=DURATION)
    return rows


def scene_planned_outage() -> None:
    plan = FaultPlan(
        site_outages=(SiteOutage(site=0, at=4000.0, duration=800.0),),
        max_retries=10,
        retry_backoff=5.0,
    )
    table = TextTable(
        ["policy", "W-bar", "aborted", "retried", "lost", "degraded RT"],
        title="Scene 1: site 0 down for t=4000..4800",
    )
    for name, results in run_under(plan).items():
        a = results.availability
        table.add_row(
            name,
            f"{results.mean_waiting_time:.2f}",
            str(a.queries_aborted),
            str(a.queries_retried),
            str(a.queries_lost),
            f"{a.degraded_response_time:.1f}",
        )
    print(table.render())
    print()


def scene_random_failures() -> None:
    plan = FaultPlan(
        random_outages=(RandomOutages(mtbf=1500.0, mttr=40.0),),
        max_retries=10,
        retry_backoff=5.0,
    )
    baseline = run_under(None)
    faulted = run_under(plan)
    table = TextTable(
        ["policy", "W-bar clean", "W-bar faulted", "downtime", "crashes"],
        title="Scene 2: MTBF 1500 / MTTR 40 at every site",
    )
    for name in POLICIES:
        a = faulted[name].availability
        table.add_row(
            name,
            f"{baseline[name].mean_waiting_time:.2f}",
            f"{faulted[name].mean_waiting_time:.2f}",
            f"{a.total_downtime:.0f}",
            str(a.crashes),
        )
    print(table.render())
    print(
        "Load sharing keeps its edge under failures: survivors absorb the\n"
        "retried queries instead of letting them pile up at a dead site.\n"
    )


def scene_flaky_subnet() -> None:
    plan = FaultPlan(
        messages=MessageFaults(loss_prob=0.02, retransmit_timeout=5.0)
    )
    table = TextTable(
        ["policy", "W-bar", "remote %", "drops", "degraded"],
        title="Scene 3: 2% message loss on the ring",
    )
    for name, results in run_under(plan).items():
        a = results.availability
        table.add_row(
            name,
            f"{results.mean_waiting_time:.2f}",
            f"{results.remote_fraction:.1%}",
            str(a.messages_dropped),
            str(a.degraded_completions),
        )
    print(table.render())
    print(
        "LOCAL never transfers, so it never drops a message; the sharing\n"
        "policies trade retransmission stalls for shorter queues."
    )


def main() -> None:
    scene_planned_outage()
    scene_random_failures()
    scene_flaky_subnet()


if __name__ == "__main__":
    main()
