"""Run one kernel scenario down both resume paths and compare the outcomes.

A station's completion resumes its process either through a zero-delay
resume event (the *hop*) or, when that event is provably the next pop,
in place (:meth:`repro.sim.process.Process.resume_now`).  An explicit
``TraceMessage`` subscriber forces the hop everywhere; without one the
fast loop takes the in-place path wherever the proof holds.  Both runs
must leave the same observable record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from repro.sim.engine import Simulator
from repro.sim.events import EventQueue
from repro.telemetry.events import TraceMessage

#: ``build(sim, log)`` sets a scenario up on a fresh simulator; model code
#: appends what it observes to ``log``.
Scenario = Callable[[Simulator, List[Any]], Optional[Callable[[], Any]]]


@dataclass
class PathRun:
    """What one run of a scenario left behind."""

    log: List[Any]
    events_fired: int
    next_seq: int
    final: Any = None
    #: Result of every ``EventQueue.claim_next`` call: the claimed seq,
    #: or ``None`` when the claim was refused.
    claims: List[Optional[int]] = field(default_factory=list)

    @property
    def in_place(self) -> int:
        return sum(1 for seq in self.claims if seq is not None)

    @property
    def refused(self) -> int:
        return sum(1 for seq in self.claims if seq is None)

    def observable(self) -> tuple:
        return (self.log, self.events_fired, self.next_seq, self.final)


def run_path(
    build: Scenario,
    traced: bool,
    drive: Optional[Callable[[Simulator], Any]] = None,
) -> PathRun:
    """Build and run a scenario; ``traced`` subscribes to ``TraceMessage``.

    ``build`` may return a zero-argument callable whose result is stored
    in :attr:`PathRun.final` after the run (monitor read-outs and the
    like).  ``drive`` replaces the default ``sim.run()``.
    """
    sim = Simulator(seed=1)
    if traced:
        sim.bus.subscribe(TraceMessage, lambda message: None)
    log: List[Any] = []
    claims: List[Optional[int]] = []
    finish = build(sim, log)
    original = EventQueue.claim_next

    def spy(queue: EventQueue, time: float, label: Optional[str]) -> Optional[int]:
        seq = original(queue, time, label)
        claims.append(seq)
        return seq

    EventQueue.claim_next = spy
    try:
        (drive or Simulator.run)(sim)
    finally:
        EventQueue.claim_next = original
    events_fired = sim.events_fired
    final = finish() if finish is not None else None
    next_seq = sim.schedule(0.0, lambda: None).seq
    return PathRun(log, events_fired, next_seq, final, claims)


def run_both(
    build: Scenario, drive: Optional[Callable[[Simulator], Any]] = None
) -> tuple:
    """``(hop, in_place)`` runs of *build*; asserts they are indistinguishable."""
    hop = run_path(build, traced=True, drive=drive)
    fast = run_path(build, traced=False, drive=drive)
    assert hop.claims == []  # the tracing loop never tries the in-place path
    assert fast.observable() == hop.observable()
    return hop, fast
