"""Stale load information: relaxing the paper's free-oracle assumption.

The paper assumes every site knows the *instantaneous* loads of all other
sites and explicitly defers the design of the information-exchange policy
("a good information exchange policy will not overburden either the sites
or the communications subnetwork, and yet it will provide the sites with
information that is sufficiently current...").  This extension implements
the obvious candidate — periodic broadcast — and lets the ablation bench
measure how quickly the heuristics' advantage decays with staleness:

* every ``refresh_interval`` time units a snapshot of the true load board
  is taken; allocation decisions between refreshes use the snapshot;
* optionally, each refresh charges the token ring ``broadcast_cost`` of
  channel time per site (the status messages the paper chose to neglect).

With ``refresh_interval=0`` this degenerates to the paper's oracle.
:class:`StaleLoadInfoSpec` is the mechanism as data (kind ``"stale"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.model.loadboard import FrozenLoadView
from repro.model.mechanism import BaseMechanismSpec, Mechanism
from repro.model.ring import Message
from repro.model.system import DistributedDatabase
from repro.sim.process import Hold


class StaleLoadInfo(Mechanism):
    """Policies see periodically refreshed load snapshots.

    Args:
        refresh_interval: Time between snapshot refreshes; 0 means
            always-current (the paper's assumption).
        broadcast_cost: Channel time per site charged to the token ring at
            every refresh (0 reproduces the paper's "overhead of load
            status messages is negligible").
    """

    #: The snapshot policies see (set once bound with a positive interval).
    view: FrozenLoadView

    def __init__(self, refresh_interval: float = 50.0, broadcast_cost: float = 0.0) -> None:
        if refresh_interval < 0:
            raise ValueError("refresh_interval must be >= 0")
        if broadcast_cost < 0:
            raise ValueError("broadcast_cost must be >= 0")
        self.refresh_interval = refresh_interval
        self.broadcast_cost = broadcast_cost
        self.refreshes = 0
        #: When :attr:`view` was taken.
        self.refreshed_at = 0.0

    def bind(self, system: DistributedDatabase) -> None:
        super().bind(system)
        if self.refresh_interval > 0:
            self.view = system.load_board.snapshot()
            self.refreshed_at = system.sim.now
            system.load_info = self

    def on_start(self) -> None:
        system = self.system
        if system is not None and self.refresh_interval > 0:
            system.sim.launch(self._refresher(system), name="load-broadcaster")

    def _refresher(self, system: DistributedDatabase):
        """Periodic snapshot process (plus optional channel charges)."""
        num_sites = system.config.num_sites
        while True:
            yield Hold(self.refresh_interval)
            self.view = system.load_board.snapshot()
            self.refreshed_at = system.sim.now
            self.refreshes += 1
            if self.broadcast_cost > 0 and num_sites > 1:
                for site in range(num_sites):
                    system.ring.send(
                        Message(
                            source=site,
                            destination=(site + 1) % num_sites,
                            transfer_time=self.broadcast_cost,
                            deliver=lambda: None,
                            kind="control",
                        )
                    )


@dataclass(frozen=True)
class StaleLoadInfoSpec(BaseMechanismSpec):
    """:class:`StaleLoadInfo`'s arguments, serialized as kind ``"stale"``."""

    kind: ClassVar[str] = "stale"

    refresh_interval: float = 50.0
    broadcast_cost: float = 0.0

    def build(self) -> StaleLoadInfo:
        return StaleLoadInfo(self.refresh_interval, self.broadcast_cost)


__all__ = ["StaleLoadInfo", "StaleLoadInfoSpec"]
