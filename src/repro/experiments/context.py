"""The one typed execution-context object every experiment accepts.

Before this module, every experiment function re-spelled the execution
options as untyped keyword arguments (``jobs: int = 1, cache=None``),
which meant N copies of the same plumbing and no single place to add an
option.  :class:`StudyContext` is that place: it bundles *how* to run —
worker processes, result cache, progress callback — while the study
spec says *what* to run.  The name comes from the study harness
(:mod:`repro.ablation`): every table is a catalog study now, so a table
regeneration, a committed study and an ablation all run through
:func:`~repro.ablation.study.run_study` with this one object.

A context never affects results: ``jobs`` and ``cache`` are
bit-for-bit-neutral by the parallel runner's contract, and ``progress``
is display-only.  The default ``StudyContext()`` is serial and uncached —
exactly what the old default kwargs meant.

Typical use::

    from repro.ablation import build_study, run_study
    from repro.experiments import StudyContext
    from repro.experiments.cache import ResultCache, default_cache_dir

    ctx = StudyContext(jobs=4, cache=ResultCache(default_cache_dir()))
    outcome = run_study(build_study("table9", settings), context=ctx)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, List, Optional, Sequence

if TYPE_CHECKING:  # imported lazily at run time to keep the module a leaf
    from repro.experiments.cache import ResultCache
    from repro.experiments.parallel import ProgressCallback, ReplicationTask
    from repro.model.metrics import SystemResults


@dataclass(frozen=True)
class StudyContext:
    """How to execute a batch of simulation runs (never *what* to run).

    Attributes:
        jobs: Worker processes (1 = serial in-process; 0 or negative =
            all cores).  Results are bit-identical regardless.
        cache: Optional content-addressed result cache
            (:class:`~repro.experiments.cache.ResultCache`); cached runs
            are answered from disk and fresh results written back.
        progress: Optional live progress callback (see
            :class:`~repro.experiments.parallel.RunProgress`).  Display
            only.  When ``None``, the callback installed by
            :func:`~repro.experiments.parallel.progress_reporting` (if
            any) still applies.
    """

    jobs: int = 1
    cache: Optional["ResultCache"] = None
    progress: Optional["ProgressCallback"] = None

    def run_tasks(
        self, tasks: Sequence["ReplicationTask"]
    ) -> List["SystemResults"]:
        """Execute *tasks* under this context (see
        :func:`repro.experiments.parallel.run_tasks`)."""
        from repro.experiments.parallel import run_tasks

        return run_tasks(
            tasks, jobs=self.jobs, cache=self.cache, progress=self.progress
        )

    def with_cache(self, cache: Optional["ResultCache"]) -> "StudyContext":
        """This context writing to (and reading from) *cache*."""
        return replace(self, cache=cache)

    def with_jobs(self, jobs: int) -> "StudyContext":
        """This context fanning out over *jobs* workers."""
        return replace(self, jobs=jobs)


#: The default context: serial, uncached, silent.
SERIAL = StudyContext()

__all__ = ["StudyContext", "SERIAL"]
