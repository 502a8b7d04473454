"""Extension bench — heterogeneous CPU speeds.

Relaxes the paper's homogeneity assumption.  Expected shape: LOCAL
deteriorates badly on a mixed fleet (terminals chained to slow sites),
informed dynamic allocation recovers most of the loss, and the speed-aware
LERT-HET at least matches plain LERT.
"""

from repro.ablation import run_study
from repro.ablation.catalog import heterogeneity_study_spec
from repro.experiments import ablations

SPEEDS = (0.5, 0.5, 1.0, 1.0, 2.0, 2.0)


def test_extension_heterogeneous(benchmark, quick_settings):
    outcome = benchmark.pedantic(
        run_study,
        args=(heterogeneity_study_spec(quick_settings, SPEEDS),),
        rounds=1,
        iterations=1,
    )
    print()
    print(ablations.format_heterogeneity(outcome))

    rt = ablations.response_times(outcome)
    # Dynamic allocation beats LOCAL decisively on a mixed fleet.
    assert rt["LERT"] < rt["LOCAL"]
    assert rt["BNQ"] < rt["LOCAL"]
    # The informed policies' advantage over LOCAL exceeds the homogeneous
    # case's typical ~20% response-time gain.
    assert ablations.informed_advantage(outcome) > 15.0
    # Speed awareness does not hurt relative to plain LERT.
    assert rt["LERT-HET"] < rt["LERT"] * 1.10
    benchmark.extra_info["response_times"] = {
        k: round(v, 2) for k, v in rt.items()
    }
