"""Ablation A3 — LERT's crude cost model vs a real MVA estimate.

Figure 6's response-time estimate makes three rough approximations (frozen
populations, PS disks, same-boundness competition only).  LERT-MVA keeps
LERT's decision rule but estimates response times with approximate Mean
Value Analysis of each site's two-station network.  If Figure 6 left much
on the table, LERT-MVA should win clearly; the paper's implicit claim —
that the simple formula captures what matters — predicts a near-tie.
"""

from repro.ablation.study import simulate
from repro.model.config import paper_defaults


def _run(settings):
    config = paper_defaults()
    return {
        policy: simulate(config, policy, settings)
        for policy in ("BNQ", "LERT", "LERT-MVA")
    }


def test_ablation_lert_mva(benchmark, quick_settings):
    results = benchmark.pedantic(_run, args=(quick_settings,), rounds=1, iterations=1)
    print()
    print("LERT cost-model ablation:")
    for policy, r in results.items():
        print(f"  {policy:9s} W={r.waiting_time:6.2f}")

    bnq = results["BNQ"].waiting_time
    lert = results["LERT"].waiting_time
    lert_mva = results["LERT-MVA"].waiting_time

    # Both estimate-based variants beat count balancing.
    assert lert < bnq
    assert lert_mva < bnq
    # And they land close together: Figure 6's approximations are adequate.
    assert abs(lert - lert_mva) / lert < 0.25, (
        f"LERT {lert:.2f} vs LERT-MVA {lert_mva:.2f} diverge more than expected"
    )
    benchmark.extra_info["w_lert"] = round(lert, 2)
    benchmark.extra_info["w_lert_mva"] = round(lert_mva, 2)
