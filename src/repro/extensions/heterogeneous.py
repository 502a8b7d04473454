"""Heterogeneous sites: unequal CPU speeds across replicas.

The paper "assume[s] throughout ... that the system is completely
homogeneous".  Real fleets are not: replicas differ in CPU generation.
This extension gives each site a CPU *speed factor* (1.0 = baseline; 2.0
serves CPU bursts twice as fast) and adds a speed-aware LERT variant.

What to expect (and what the heterogeneity experiment shows):

* LOCAL suffers — terminals attached to slow sites are stuck with them;
* count-based balancing (BNQ) misreads slow sites as attractive whenever
  their queue is numerically short;
* speed-aware LERT (:class:`HeterogeneousLERTPolicy`) divides estimated
  CPU time by the target site's speed and recovers most of the loss,
  widening the information-based policies' edge relative to the
  homogeneous case.

:class:`HeterogeneousCPUSpec` is the mechanism as data (kind
``"heterogeneous"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence, Tuple

from repro.model.config import SystemConfig
from repro.model.mechanism import BaseMechanismSpec, Mechanism
from repro.model.query import Query
from repro.model.system import DistributedDatabase
from repro.policies.lert import LERTPolicy


class HeterogeneousCPU(Mechanism):
    """Sites with unequal CPU speeds.

    CPU bursts drawn from the workload are divided by the executing site's
    speed factor; disk hardware stays identical (mixing disk generations is
    left as data, not code: pass a slower ``disk_time`` instead).  Plain
    paper policies work but are blind to speed; see
    :class:`HeterogeneousLERTPolicy`.

    Args:
        cpu_speed_factors: One positive factor per site.
    """

    def __init__(self, cpu_speed_factors: Sequence[float]) -> None:
        factors = tuple(float(f) for f in cpu_speed_factors)
        if any(f <= 0 for f in factors):
            raise ValueError("speed factors must be > 0")
        self.cpu_speed_factors = factors

    def check(self, config: SystemConfig) -> None:
        if len(self.cpu_speed_factors) != config.num_sites:
            raise ValueError(
                f"{len(self.cpu_speed_factors)} speed factors for {config.num_sites} sites"
            )

    def bind(self, system: DistributedDatabase) -> None:
        self.check(system.config)
        super().bind(system)
        for site, speed in zip(system.sites, self.cpu_speed_factors):
            site.cpu_speed = speed


@dataclass(frozen=True)
class HeterogeneousCPUSpec(BaseMechanismSpec):
    """:class:`HeterogeneousCPU`'s argument, serialized as kind ``"heterogeneous"``."""

    kind: ClassVar[str] = "heterogeneous"

    cpu_speed_factors: Tuple[float, ...]

    def build(self) -> HeterogeneousCPU:
        return HeterogeneousCPU(self.cpu_speed_factors)


class HeterogeneousLERTPolicy(LERTPolicy):
    """LERT with per-site CPU speed awareness.

    Figure 6's ``cpu_time`` and ``cpu_wait`` terms are divided by the
    candidate site's speed factor — the natural generalization when the
    optimizer's CPU estimates are expressed in baseline-CPU seconds.
    Requires a system with the :class:`HeterogeneousCPU` mechanism.
    Registered as ``"LERT-HET"``.
    """

    name = "LERT-HET"

    def __init__(self) -> None:
        super().__init__()
        self._speeds: Optional[Sequence[float]] = None

    def bind(self, system: DistributedDatabase) -> None:
        super().bind(system)
        mechanism = system.extension(HeterogeneousCPU)
        if mechanism is not None:
            self._speeds = mechanism.cpu_speed_factors

    def site_cost(self, query: Query, site: int) -> float:
        system = self.system
        if system is None or self._speeds is None:
            raise RuntimeError("LERT-HET requires a system with HeterogeneousCPU")
        config = system.config
        site_spec = config.site
        speed = self._speeds[site]
        cpu_time = query.estimated_cpu_demand / speed
        io_time = query.estimated_io_demand(site_spec.disk_time)
        assert self._view is not None
        if site == self._view.arrival_site:
            net_time = 0.0
        else:
            net_time = system.estimated_transfer_time(
                query
            ) + system.estimated_return_time(query)
        cpu_wait = cpu_time * self.loads.num_cpu_queries(site)
        io_wait = io_time * (self.loads.num_io_queries(site) / site_spec.num_disks)
        return cpu_time + cpu_wait + io_time + io_wait + net_time


__all__ = ["HeterogeneousCPU", "HeterogeneousCPUSpec", "HeterogeneousLERTPolicy"]
