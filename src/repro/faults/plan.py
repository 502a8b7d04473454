"""Declarative, hashable fault plans.

A :class:`FaultPlan` *describes* every fault a run should experience —
deterministic site outages, stochastic crash/repair processes, token-ring
message faults, and load-board broadcast outages — without executing any
of them.  Execution belongs to :class:`~repro.faults.injector.FaultInjector`,
which derives all of its randomness from the run's named
:class:`~repro.sim.rng.RandomStreams`, so the same ``(seed, plan)`` pair
replays byte-identically.

Plans are frozen dataclasses built from primitives and tuples only: they
are hashable (usable as cache-key components), comparable, and round-trip
through JSON via :mod:`repro.codec` (the ``--faults`` file format).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, List, Optional, Sequence, Tuple

from repro.faults.errors import FaultError


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise FaultError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True, slots=True)
class SiteOutage:
    """One deterministic site outage: down at ``at``, up at ``at + duration``.

    Attributes:
        site: The site taken down.
        at: Absolute simulated time the outage starts.
        duration: How long the site stays down (> 0).
    """

    site: int
    at: float
    duration: float

    def __post_init__(self) -> None:
        if self.site < 0:
            raise FaultError(f"site must be >= 0, got {self.site}")
        _require_finite("at", self.at)
        _require_finite("duration", self.duration)
        if self.at < 0:
            raise FaultError(f"at must be >= 0, got {self.at}")
        if self.duration <= 0:
            raise FaultError(f"duration must be > 0, got {self.duration}")


@dataclass(frozen=True, slots=True)
class RandomOutages:
    """A stochastic crash/repair process (exponential MTBF / MTTR).

    Up-times are exponential with mean ``mtbf`` and down-times exponential
    with mean ``mttr``, drawn from a named random stream per affected site,
    so the schedule is a deterministic function of ``(seed, plan)``.

    Attributes:
        mtbf: Mean time between failures (mean up-time, > 0).
        mttr: Mean time to repair (mean down-time, > 0).
        site: The affected site, or ``None`` to run one independent
            crash/repair process at *every* site.
    """

    mtbf: float
    mttr: float
    site: Optional[int] = None

    def __post_init__(self) -> None:
        _require_finite("mtbf", self.mtbf)
        _require_finite("mttr", self.mttr)
        if self.mtbf <= 0:
            raise FaultError(f"mtbf must be > 0, got {self.mtbf}")
        if self.mttr <= 0:
            raise FaultError(f"mttr must be > 0, got {self.mttr}")
        if self.site is not None and self.site < 0:
            raise FaultError(f"site must be >= 0 or None, got {self.site}")


@dataclass(frozen=True, slots=True)
class MessageFaults:
    """Token-ring message faults: i.i.d. loss and constant extra delay.

    Attributes:
        loss_prob: Probability that any one query/result transfer is lost
            (per transmission attempt, in ``[0, 1)``).
        extra_delay: Constant extra latency added to every transfer.
        retransmit_timeout: How long a sender waits before retransmitting
            a lost message (> 0).
        max_retransmits: Bound on retransmissions per transfer; exceeding
            it aborts the query's current attempt (>= 1).
    """

    loss_prob: float = 0.0
    extra_delay: float = 0.0
    retransmit_timeout: float = 10.0
    max_retransmits: int = 10

    def __post_init__(self) -> None:
        _require_finite("loss_prob", self.loss_prob)
        _require_finite("extra_delay", self.extra_delay)
        _require_finite("retransmit_timeout", self.retransmit_timeout)
        if not 0.0 <= self.loss_prob < 1.0:
            raise FaultError(f"loss_prob must be in [0, 1), got {self.loss_prob}")
        if self.extra_delay < 0:
            raise FaultError(f"extra_delay must be >= 0, got {self.extra_delay}")
        if self.retransmit_timeout <= 0:
            raise FaultError(
                f"retransmit_timeout must be > 0, got {self.retransmit_timeout}"
            )
        if self.max_retransmits < 1:
            raise FaultError(
                f"max_retransmits must be >= 1, got {self.max_retransmits}"
            )

    @property
    def is_noop(self) -> bool:
        """Whether these message faults change nothing."""
        return self.loss_prob == 0.0 and self.extra_delay == 0.0


@dataclass(frozen=True, slots=True)
class LoadBoardOutage:
    """A load-board broadcast outage: load information goes dark.

    While dark, policies see the last snapshot taken at outage start
    (stale-frozen), not live counts.  Site up/down knowledge is *not*
    affected — failure detection is modelled as a separate, faster channel.

    Attributes:
        at: Absolute simulated time the outage starts.
        duration: How long broadcasts stay dark (> 0).
    """

    at: float
    duration: float

    def __post_init__(self) -> None:
        _require_finite("at", self.at)
        _require_finite("duration", self.duration)
        if self.at < 0:
            raise FaultError(f"at must be >= 0, got {self.at}")
        if self.duration <= 0:
            raise FaultError(f"duration must be > 0, got {self.duration}")


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """Everything that can go wrong in one run, declared up front.

    The default ``FaultPlan()`` is a strict no-op: installing it is
    guaranteed (and pinned by tests) to leave results byte-identical to a
    run with no plan at all.

    Attributes:
        site_outages: Deterministic site outages.
        random_outages: Stochastic MTBF/MTTR crash/repair processes.
        messages: Token-ring message faults, or ``None`` for a perfect
            subnet.
        loadboard_outages: Load-information broadcast outages.
        max_retries: How many times an aborted query is re-allocated
            before being counted lost (>= 0; 0 means never retry).
        retry_backoff: Base delay before the first retry (> 0).
        backoff_factor: Multiplier applied to the backoff per further
            retry (>= 1; exponential backoff).
    """

    format_version: ClassVar[int] = 1

    site_outages: Tuple[SiteOutage, ...] = ()
    random_outages: Tuple[RandomOutages, ...] = ()
    messages: Optional[MessageFaults] = None
    loadboard_outages: Tuple[LoadBoardOutage, ...] = ()
    max_retries: int = 5
    retry_backoff: float = 1.0
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "site_outages", tuple(self.site_outages))
        object.__setattr__(self, "random_outages", tuple(self.random_outages))
        object.__setattr__(self, "loadboard_outages", tuple(self.loadboard_outages))
        if self.max_retries < 0:
            raise FaultError(f"max_retries must be >= 0, got {self.max_retries}")
        _require_finite("retry_backoff", self.retry_backoff)
        _require_finite("backoff_factor", self.backoff_factor)
        if self.retry_backoff <= 0:
            raise FaultError(f"retry_backoff must be > 0, got {self.retry_backoff}")
        if self.backoff_factor < 1:
            raise FaultError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    @property
    def is_noop(self) -> bool:
        """Whether installing this plan can change a run at all.

        A no-op plan injects nothing: the system treats it exactly like
        ``faults=None`` (the runner normalizes it away before caching).
        """
        return (
            not self.site_outages
            and not self.random_outages
            and (self.messages is None or self.messages.is_noop)
            and not self.loadboard_outages
        )

    def backoff(self, attempt: int) -> float:
        """Backoff delay before retry number *attempt* (1-based)."""
        if attempt < 1:
            raise FaultError(f"attempt must be >= 1, got {attempt}")
        return self.retry_backoff * self.backoff_factor ** (attempt - 1)

    def validate_for(self, num_sites: int) -> None:
        """Check that every referenced site exists in a ``num_sites`` system.

        Raises:
            FaultError: If any outage names a site outside
                ``range(num_sites)``, or a deterministic outage schedule
                would leave *every* site down simultaneously forever.
        """
        for outage in self.site_outages:
            if outage.site >= num_sites:
                raise FaultError(
                    f"site outage names site {outage.site}, but the system "
                    f"has only {num_sites} sites"
                )
        for process in self.random_outages:
            if process.site is not None and process.site >= num_sites:
                raise FaultError(
                    f"random outage names site {process.site}, but the "
                    f"system has only {num_sites} sites"
                )


def site_outage_schedule(
    outages: Sequence[SiteOutage],
) -> Tuple[Tuple[float, int, int], ...]:
    """Flatten deterministic outages into sorted ``(time, site, delta)`` edges.

    ``delta`` is ``+1`` for a crash edge and ``-1`` for a recovery edge.
    Sorted by time then site then delta so overlapping outages resolve
    deterministically.  Exposed mainly for tests and plan visualization.
    """
    edges: List[Tuple[float, int, int]] = []
    for outage in outages:
        edges.append((outage.at, outage.site, +1))
        edges.append((outage.at + outage.duration, outage.site, -1))
    return tuple(sorted(edges))


__all__ = [
    "SiteOutage",
    "RandomOutages",
    "MessageFaults",
    "LoadBoardOutage",
    "FaultPlan",
    "site_outage_schedule",
]
