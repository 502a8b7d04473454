"""Ablation A2 — load-information staleness.

The paper assumes free, always-current load information (§2) and defers the
exchange-policy design (§4.4).  This ablation quantifies what that
assumption is worth: LERT's waiting time as the load snapshot refresh
interval grows.  Expected shape: graceful degradation at first, then a
collapse past the system's natural time constant as every site herds onto
the same stale "least-loaded" victim (eventually worse than LOCAL).
"""

from repro.extensions import StaleLoadInfo
from repro.model.config import paper_defaults
from repro.model.system import DistributedDatabase
from repro.policies.registry import make_policy

INTERVALS = (0.0, 10.0, 50.0, 200.0)


def _run(settings):
    config = paper_defaults()
    waits = {}
    local = DistributedDatabase(config, make_policy("LOCAL"), seed=settings.seed_for(0))
    waits["LOCAL"] = local.run(settings.warmup, settings.duration).mean_waiting_time
    for interval in INTERVALS:
        system = DistributedDatabase(
            config,
            make_policy("LERT"),
            seed=settings.seed_for(0),
            extensions=(StaleLoadInfo(refresh_interval=interval),),
        )
        result = system.run(settings.warmup, settings.duration)
        waits[interval] = result.mean_waiting_time
    return waits


def test_ablation_stale_info(benchmark, quick_settings):
    waits = benchmark.pedantic(_run, args=(quick_settings,), rounds=1, iterations=1)
    print()
    print("load-information staleness (LERT):")
    print(f"  LOCAL baseline        W={waits['LOCAL']:6.2f}")
    for interval in INTERVALS:
        print(f"  refresh {interval:6.1f}        W={waits[interval]:6.2f}")

    # Fresh information (interval 0) must beat LOCAL clearly.
    assert waits[0.0] < waits["LOCAL"]
    # Staleness monotonically costs performance across the sweep ends.
    assert waits[INTERVALS[-1]] > waits[0.0]
    # The herding collapse: very stale info is worse than no dynamic
    # allocation at all.
    assert waits[INTERVALS[-1]] > waits["LOCAL"], (
        "very stale load info should underperform LOCAL (herd effect)"
    )
    benchmark.extra_info["waits"] = {str(k): round(v, 2) for k, v in waits.items()}
