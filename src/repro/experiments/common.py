"""Shared machinery for the table-reproduction experiments.

Provides:

* :func:`simulate` — run one (config, policy) pair at given settings,
  averaging over replications with common random numbers; ``jobs=`` fans
  replications over a process pool and ``cache=`` reuses cached results
  (see :mod:`repro.experiments.parallel` / :mod:`repro.experiments.cache`);
* :func:`average_results` — order-independent replication averaging.

:class:`TextTable` and :func:`improvement_pct` now live in
:mod:`repro.experiments.report` (the one rendering path for text and
Markdown output); they are re-exported here for compatibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence, Tuple

from repro.experiments.report import TextTable, improvement_pct
from repro.experiments.runconfig import RunSettings
from repro.model.config import SystemConfig
from repro.model.metrics import SystemResults


@dataclass(frozen=True)
class AveragedResults:
    """Replication-averaged run results for one (config, policy) pair."""

    format_version: ClassVar[int] = 1

    policy: str
    mean_waiting_time: float
    mean_response_time: float
    fairness: Optional[float]
    subnet_utilization: float
    cpu_utilization: float
    disk_utilization: float
    remote_fraction: float
    completions: int
    per_replication: Tuple[SystemResults, ...]

    @property
    def rho_ratio(self) -> float:
        """ρ_d / ρ_c — measured disk-to-CPU utilization ratio (Table 12).

        ``nan`` when both utilizations are zero (an idle system has no
        meaningful ratio); ``inf`` when only the CPU was idle.
        """
        if self.cpu_utilization == 0:
            if self.disk_utilization == 0:
                return float("nan")
            return float("inf")
        return self.disk_utilization / self.cpu_utilization


def average_results(
    policy_name: str, runs: Sequence[SystemResults]
) -> AveragedResults:
    """Average per-replication results into one :class:`AveragedResults`.

    Uses :func:`math.fsum` (exactly rounded), so the averages are invariant
    under permutation of *runs* — parallel execution can reassemble
    replications in any order and still reproduce the serial numbers bit
    for bit.  ``per_replication`` preserves the order given.
    """
    if not runs:
        raise ValueError("need at least one replication to average")

    def avg(values: Sequence[float]) -> float:
        return math.fsum(values) / len(values)

    fairness_values = [r.fairness for r in runs if r.fairness is not None]
    return AveragedResults(
        policy=policy_name,
        mean_waiting_time=avg([r.mean_waiting_time for r in runs]),
        mean_response_time=avg([r.mean_response_time for r in runs]),
        fairness=avg(fairness_values) if fairness_values else None,
        subnet_utilization=avg([r.subnet_utilization for r in runs]),
        cpu_utilization=avg([r.cpu_utilization for r in runs]),
        disk_utilization=avg([r.disk_utilization for r in runs]),
        remote_fraction=avg([r.remote_fraction for r in runs]),
        # Integer count: int sum() is exact, hence permutation invariant.
        completions=sum(r.completions for r in runs),  # reprolint: disable=RL004
        per_replication=tuple(runs),
    )


def simulate(
    config: SystemConfig,
    policy_name: str,
    settings: RunSettings,
    *,
    jobs: Optional[int] = 1,
    cache=None,
    progress=None,
) -> AveragedResults:
    """Run the system under one policy, averaged over replications.

    Replication ``r`` of every policy uses the same master seed, so all
    policies face an identical stream of queries (common random numbers).

    Args:
        config: System description.
        policy_name: Registered allocation policy to run.
        settings: Run lengths, replication count, and base seed.
        jobs: Worker processes for the replications (default 1 = serial,
            in-process; 0 or negative = all cores).  Results are identical
            regardless of the value.
        cache: Optional :class:`~repro.experiments.cache.ResultCache`;
            cached replications are reused instead of re-simulated.
        progress: Optional per-replication progress callback (see
            :class:`~repro.experiments.parallel.RunProgress`).  Defaults to
            the callback installed by
            :func:`~repro.experiments.parallel.progress_reporting`, if any.
            Display only; results are unaffected.
    """
    # Imported lazily: the execution backend imports this module for
    # AveragedResults/average_results.
    from repro.experiments.parallel import simulate_many

    return simulate_many(
        [(config, policy_name)], settings, jobs=jobs, cache=cache, progress=progress
    )[0]


__all__ = [
    "AveragedResults",
    "average_results",
    "simulate",
    "improvement_pct",
    "TextTable",
]
