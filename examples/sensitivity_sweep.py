"""Custom sensitivity analysis with grid studies.

The paper fixes disk_time = 1.0 and num_reads = 20; this example asks a
question the paper doesn't: *how does the value of dynamic allocation
change when queries get shorter?*  Short queries mean the (fixed)
msg_length is a larger fraction of the work — transfers should pay off
less, and LERT's network-awareness should matter more relative to BNQ.

Also demonstrates a one-parameter sweep — a grid study of named points
crossed with policies — and its CSV export for downstream analysis.

Run:  python examples/sensitivity_sweep.py
"""

import dataclasses
import tempfile

from repro import paper_defaults
from repro.ablation import run_study
from repro.ablation.catalog import GridOutcome, grid_study
from repro.ablation.study import simulate
from repro.experiments import RunSettings, write_csv
from repro.experiments.report import TextTable, improvement_pct

SETTINGS = RunSettings(warmup=1000.0, duration=5000.0, replications=1, base_seed=17)


def config_with_reads(num_reads: float):
    base = paper_defaults()
    classes = tuple(
        dataclasses.replace(spec, num_reads=num_reads) for spec in base.classes
    )
    return dataclasses.replace(base, classes=classes)


def main() -> None:
    table = TextTable(
        ["num_reads", "W LOCAL", "W BNQ", "W LERT", "dBNQ%", "dLERT%", "LERT-BNQ gap"],
        title="Query length sensitivity (shorter queries, relatively pricier transfers)",
    )
    for num_reads in (5.0, 10.0, 20.0, 40.0):
        config = config_with_reads(num_reads)
        local, bnq, lert = (
            simulate(config, policy, SETTINGS).waiting_time
            for policy in ("LOCAL", "BNQ", "LERT")
        )
        table.add_row(
            f"{num_reads:g}",
            f"{local:.2f}",
            f"{bnq:.2f}",
            f"{lert:.2f}",
            f"{improvement_pct(bnq, local):.1f}",
            f"{improvement_pct(lert, local):.1f}",
            f"{improvement_pct(lert, bnq):+.1f}",
        )
    print(table.render())
    print()

    # A proper one-dimensional sweep with CSV export.
    spec = grid_study(
        "msg-length",
        config=paper_defaults(),
        settings=SETTINGS,
        points=[
            (f"{length:g}", {"config_patches": (("network.msg_length", length),)})
            for length in (0.5, 1.0, 2.0)
        ],
        policies=("BNQ", "LERT"),
    )
    grid = GridOutcome(run_study(spec))
    with tempfile.NamedTemporaryFile(
        suffix=".csv", delete=False, mode="w"
    ) as handle:
        path = handle.name
    write_csv(grid, path)
    print(f"msg_length sweep exported to {path}")
    for policy in ("LERT", "BNQ"):
        series = [round(grid.waiting(point, policy), 2) for point in grid.points]
        print(f"  {policy:<4} W series:", series)


if __name__ == "__main__":
    main()
