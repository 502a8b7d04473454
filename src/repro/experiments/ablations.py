"""Ablation experiments (DESIGN.md A1–A4) and extension studies: renderers.

These go beyond the paper's tables: each quantifies one modeling choice or
relaxes one of the paper's assumptions.  Each is a catalog study
(:mod:`repro.ablation.catalog`), so the table here, the committed spec
under ``studies/`` and ``repro-experiments study`` all run the *same*
content-addressed cells; this module only renders executed studies and
states their derived checks.

* ``stale-info`` — value of load-information freshness (A2).
* ``disk-organization`` — per-disk queues vs shared queue (A1).
* ``update-fraction`` — read-only assumption relaxed (footnote).
* ``heterogeneity`` — homogeneity assumption relaxed.
* ``subnet-scaling`` — Table 11's sweep on a ring vs a mesh.
* The LERT-vs-LERT-MVA comparison (A3) and tie-break study (A4) live in
  the benchmark suite since they are single-shot comparisons.

The registry runs these experiments at one replication per cell (the
behavior they always had), whatever the scale preset says.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.ablation.catalog import GridOutcome
from repro.ablation.study import StudyOutcome
from repro.experiments.report import TextTable, improvement_pct
from repro.model.config import DISK_PER_DISK, DISK_SHARED


# ----------------------------------------------------------------------
# A2: load-information staleness
# ----------------------------------------------------------------------


def stale_waits(outcome: StudyOutcome) -> Dict[float, float]:
    """W per snapshot refresh interval, in spec order."""
    (component,) = outcome.spec.components
    return {
        variant.mechanisms[0].refresh_interval: cell.metrics.waiting_time
        for variant, cell in zip(component.variants, outcome.cells)
    }


def collapse_interval(outcome: StudyOutcome) -> float:
    """First swept interval at which the informed policy falls behind LOCAL."""
    w_local = outcome.baseline.metrics.waiting_time
    for interval, w in stale_waits(outcome).items():
        if w > w_local:
            return interval
    return float("inf")


def format_stale_info(outcome: StudyOutcome) -> str:
    w_local = outcome.baseline.metrics.waiting_time
    table = TextTable(
        ["refresh interval", "W", "vs LOCAL %"],
        title=f"Load-information staleness (W_LOCAL = {w_local:.2f})",
    )
    for interval, w in stale_waits(outcome).items():
        table.add_row(
            "always current" if interval == 0 else f"{interval:.0f}",
            f"{w:.2f}",
            f"{improvement_pct(w, w_local):.1f}",
        )
    return table.render()


# ----------------------------------------------------------------------
# A1: disk organization
# ----------------------------------------------------------------------


def shared_advantage(grid: GridOutcome, policy: str) -> float:
    """Percent W reduction from pooling the disk queue."""
    return improvement_pct(
        grid.waiting(DISK_SHARED, policy), grid.waiting(DISK_PER_DISK, policy)
    )


def format_disk_organization(outcome: StudyOutcome) -> str:
    grid = GridOutcome(outcome)
    table = TextTable(
        ["policy", "per-disk W", "shared W", "shared advantage %"],
        title="Disk organization ablation",
    )
    for policy in sorted(grid.policies):
        table.add_row(
            policy,
            f"{grid.waiting(DISK_PER_DISK, policy):.2f}",
            f"{grid.waiting(DISK_SHARED, policy):.2f}",
            f"{shared_advantage(grid, policy):.1f}",
        )
    return table.render()


# ----------------------------------------------------------------------
# Read-only footnote: update fraction
# ----------------------------------------------------------------------


def format_update_fraction(outcome: StudyOutcome) -> str:
    grid = GridOutcome(outcome)
    table = TextTable(
        ["update %", "W LOCAL", "W LERT", "dLERT %", "subnet %"],
        title="Update-fraction sweep (asynchronous replica propagation)",
    )
    for point in grid.points:  # "f<fraction>"
        table.add_row(
            f"{100 * float(point[1:]):.0f}",
            f"{grid.waiting(point, 'LOCAL'):.2f}",
            f"{grid.waiting(point, 'LERT'):.2f}",
            f"{grid.gain(point, 'LERT', 'LOCAL'):.1f}",
            f"{100 * grid.cell(point, 'LERT').metrics.subnet_utilization:.1f}",
        )
    return table.render()


# ----------------------------------------------------------------------
# Homogeneity assumption: heterogeneous CPU speeds
# ----------------------------------------------------------------------

#: The heterogeneity study's cells: LOCAL is its baseline.
HETEROGENEITY_CELLS = (
    ("LOCAL", "baseline"),
    ("BNQ", "allocation-policy:bnq"),
    ("LERT", "allocation-policy:lert"),
    ("LERT-HET", "allocation-policy:lert-het"),
)


def response_times(outcome: StudyOutcome) -> Dict[str, float]:
    """Mean response time per policy of the heterogeneity study."""
    return {
        policy: outcome.cell(label).metrics.response_time
        for policy, label in HETEROGENEITY_CELLS
    }


def informed_advantage(outcome: StudyOutcome) -> float:
    """LERT-HET's response-time advantage over LOCAL, percent."""
    rt = response_times(outcome)
    return improvement_pct(rt["LERT-HET"], rt["LOCAL"])


def format_heterogeneity(outcome: StudyOutcome) -> str:
    speed_factors = outcome.spec.mechanisms[0].cpu_speed_factors
    table = TextTable(
        ["policy", "mean response time", "vs LOCAL %"],
        title=f"Heterogeneous CPU speeds {speed_factors}",
    )
    rt = response_times(outcome)
    for policy, _ in HETEROGENEITY_CELLS:
        table.add_row(
            policy, f"{rt[policy]:.2f}", f"{improvement_pct(rt[policy], rt['LOCAL']):.1f}"
        )
    return table.render()


# ----------------------------------------------------------------------
# Subnet topology: is the shared channel really what caps Table 11?
# ----------------------------------------------------------------------


def subnet_site_counts(grid: GridOutcome) -> Tuple[int, ...]:
    """The swept site counts (points are ``"<subnet>-<sites>"``)."""
    return tuple(int(p.split("-")[1]) for p in grid.points if p.startswith("ring-"))


def peak_sites(grid: GridOutcome, subnet: str) -> int:
    """Site count of the largest LERT improvement over LOCAL on *subnet*."""
    return max(
        subnet_site_counts(grid),
        key=lambda n: grid.gain(f"{subnet}-{n}", "LERT", "LOCAL"),
    )


def format_subnet_scaling(outcome: StudyOutcome) -> str:
    grid = GridOutcome(outcome)
    table = TextTable(
        ["sites", "ring dLERT%", "ring util%", "mesh dLERT%", "mesh util%"],
        title="Subnet scaling: shared ring vs point-to-point mesh",
    )
    for n in subnet_site_counts(grid):
        row = [str(n)]
        for point in (f"ring-{n}", f"mesh-{n}"):
            lert = grid.cell(point, "LERT").metrics
            row += [
                f"{grid.gain(point, 'LERT', 'LOCAL'):.1f}",
                f"{100 * lert.subnet_utilization:.1f}",
            ]
        table.add_row(*row)
    return table.render()


__all__ = [
    "stale_waits",
    "collapse_interval",
    "format_stale_info",
    "shared_advantage",
    "format_disk_organization",
    "format_update_fraction",
    "HETEROGENEITY_CELLS",
    "response_times",
    "informed_advantage",
    "format_heterogeneity",
    "subnet_site_counts",
    "peak_sites",
    "format_subnet_scaling",
]
