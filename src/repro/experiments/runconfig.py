"""Run-length presets for the simulation experiments.

Each experiment can run at three scales:

* ``quick`` — short runs for the benchmark harness and smoke tests;
  trends are visible but individual cells are noisy.
* ``standard`` — the default for regenerating tables interactively.
* ``paper`` — long runs with replications, used to produce the numbers
  recorded in EXPERIMENTS.md.

A :class:`RunSettings` also carries the replication count; replications use
independently derived master seeds (:meth:`RunSettings.spec` gives each
one's :class:`~repro.runner.RunSpec`) and results are averaged.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.codec import OMIT_NONE, REQUIRED
from repro.faults.plan import FaultPlan
from repro.runner import RunSpec, settle_run
from repro.workloads.spec import WorkloadSpec


@dataclass(frozen=True)
class RunSettings:
    """Warmup/measurement lengths and replication control for one run.

    ``faults`` optionally installs a fault plan in every run made from
    these settings (each replication executes the same plan under its own
    derived seed); ``None`` — and a no-op plan — keeps the runs faultless.
    ``workload`` optionally drives the runs with an open workload spec;
    ``None`` — and the default closed spec — keeps the paper's closed
    terminals.  Both keys are left out of the JSON form while ``None``.
    """

    warmup: float = field(default=3000.0, metadata=REQUIRED)
    duration: float = field(default=15000.0, metadata=REQUIRED)
    replications: int = field(default=1, metadata=REQUIRED)
    base_seed: int = field(default=20250705, metadata=REQUIRED)
    faults: Optional[FaultPlan] = field(default=None, metadata=OMIT_NONE)
    workload: Optional[WorkloadSpec] = field(default=None, metadata=OMIT_NONE)

    def __post_init__(self) -> None:
        settle_run(self)
        if self.replications < 1:
            raise ValueError("need at least one replication")

    def with_faults(self, faults: Optional[FaultPlan]) -> "RunSettings":
        """These settings with *faults* installed (``None`` to clear)."""
        return replace(self, faults=faults)

    def with_workload(
        self, workload: Optional[WorkloadSpec]
    ) -> "RunSettings":
        """These settings driven by *workload* (``None`` to go closed)."""
        return replace(self, workload=workload)

    def seed_for(self, replication: int) -> int:
        """Master seed of one replication (stable, well separated)."""
        return self.base_seed + 1_000_003 * replication

    def spec(self, replication: int = 0) -> RunSpec:
        """The run of one replication: this window, plan and workload
        under the replication's seed (telemetry off)."""
        return RunSpec(
            warmup=self.warmup,
            duration=self.duration,
            seed=self.seed_for(replication),
            faults=self.faults,
            workload=self.workload,
        )

    def scaled(self, factor: float) -> "RunSettings":
        """Proportionally longer/shorter runs (factor > 0)."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return replace(
            self, warmup=self.warmup * factor, duration=self.duration * factor
        )


#: Scale presets, by name.
QUICK = RunSettings(warmup=1500.0, duration=6000.0, replications=1)
STANDARD = RunSettings(warmup=3000.0, duration=15000.0, replications=1)
PAPER = RunSettings(warmup=5000.0, duration=30000.0, replications=3)

SCALES = {"quick": QUICK, "standard": STANDARD, "paper": PAPER}


def settings_for(scale: str) -> RunSettings:
    """Look up a preset by name ('quick', 'standard', 'paper')."""
    try:
        return SCALES[scale]
    except KeyError:
        raise ValueError(
            f"unknown scale {scale!r}; expected one of {sorted(SCALES)}"
        ) from None


__all__ = ["RunSettings", "QUICK", "STANDARD", "PAPER", "SCALES", "settings_for"]
