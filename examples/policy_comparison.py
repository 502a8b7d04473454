"""Compare all six allocation policies across a range of system loads.

Sweeps terminal think time (shorter think = heavier load) and prints mean
waiting time per policy, including the two policies that are not in the
paper: RANDOM (spreads load with zero information) and LERT-MVA (LERT's
decision rule with a real queueing-model cost estimate).

Run:  python examples/policy_comparison.py
"""

from repro import DistributedDatabase, make_policy, paper_defaults
from repro.experiments.report import TextTable, improvement_pct

POLICIES = ("LOCAL", "RANDOM", "BNQ", "BNQRD", "LERT", "LERT-MVA")
THINK_TIMES = (200.0, 350.0, 500.0)
WARMUP = 2000.0
DURATION = 8000.0
SEED = 11


def main() -> None:
    table = TextTable(
        ["think"] + [f"W {p}" for p in POLICIES] + ["best vs LOCAL %"],
        title="Mean waiting time by policy and load",
    )
    for think in THINK_TIMES:
        config = paper_defaults(think_time=think)
        waits = {}
        for name in POLICIES:
            system = DistributedDatabase(config, make_policy(name), seed=SEED)
            result = system.run(warmup=WARMUP, duration=DURATION)
            waits[name] = result.mean_waiting_time
        best = min(waits, key=waits.get)
        table.add_row(
            f"{think:.0f}",
            *[f"{waits[p]:.2f}" for p in POLICIES],
            f"{best}: {improvement_pct(waits[best], waits['LOCAL']):.1f}",
        )
    print(table.render())
    print()
    print(
        "Expected ordering: RANDOM is worst (in a homogeneous closed system "
        "arrivals are already spread, so blind transfers only add message "
        "cost); LOCAL next; BNQ adds load state; BNQRD/LERT/LERT-MVA add "
        "resource-demand knowledge."
    )


if __name__ == "__main__":
    main()
