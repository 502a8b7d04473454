"""Process-pool execution backend for the experiment harness.

Every simulation cell the harness runs — one ``(config, policy, seed)``
replication — is a pure, picklable function of its inputs, so the
replications of every study cell (:func:`~repro.ablation.study.run_study`,
and through it every table) can fan out across cores with
:class:`concurrent.futures.ProcessPoolExecutor` and be reassembled
deterministically: results are returned *in task order*, never completion
order, and replication averaging uses :func:`math.fsum` (whose
correctly-rounded sum is permutation invariant), so output is bit-identical
to a serial run regardless of scheduling.

The backend composes with the content-addressed result cache
(:mod:`repro.experiments.cache`): cached tasks are answered without touching
the pool, duplicate tasks inside one batch are simulated once, and fresh
results are written back atomically.

Public surface:

* :class:`ReplicationTask` — picklable spec of one simulation run;
* :func:`run_task` — execute one task (also the worker entry point);
* :func:`run_tasks` — execute a batch, optionally parallel and cached;
* :func:`resolve_jobs` — normalize a ``--jobs`` value to a worker count;
* :class:`RunProgress` / :func:`progress_reporting` — live progress:
  ``run_tasks`` invokes a callback as each task resolves (from cache or
  simulation).  Progress is *observational only* — it is reported in
  resolution order, which under a pool is nondeterministic, but the
  returned results remain in task order and bit-identical regardless.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.codec import OMIT_NONE
from repro.experiments.cache import ResultCache, task_key
from repro.experiments.runconfig import RunSettings
from repro.extensions.heterogeneous import HeterogeneousCPU
from repro.extensions.stale_info import StaleLoadInfo
from repro.extensions.updates import Updates
from repro.faults.plan import FaultPlan
from repro.model.config import SystemConfig
from repro.model.mechanism import Mechanism
from repro.model.metrics import SystemResults
from repro.runner import RunSpec, execute, settle_run
from repro.workloads.spec import WorkloadSpec

#: Serialized extension kinds: name -> mechanism factory, called with the
#: task's ``system_kwargs`` (the way policy names map to policies).
EXTENSION_KINDS: Dict[str, Callable[..., Mechanism]] = {
    "stale": StaleLoadInfo,
    "updates": Updates,
    "heterogeneous": HeterogeneousCPU,
}

#: Every valid ``system_kind``: the paper's model plus one extension.
SYSTEM_KINDS = ("standard",) + tuple(EXTENSION_KINDS)


@dataclass(frozen=True)
class RunProgress:
    """One progress tick of a :func:`run_tasks` batch.

    Attributes:
        completed: Tasks resolved so far (including this one).
        total: Tasks in the batch.
        cached: How many of the resolved tasks came from the cache.
        policy: Policy name of the task that just resolved.
        seed: Seed of the task that just resolved.
    """

    completed: int
    total: int
    cached: int
    policy: str
    seed: int


#: A live progress consumer (e.g. a CLI spinner).
ProgressCallback = Callable[[RunProgress], None]

#: Process-wide default progress callback (see :func:`progress_reporting`).
_active_progress: Optional[ProgressCallback] = None


@contextmanager
def progress_reporting(callback: ProgressCallback) -> Iterator[None]:
    """Install *callback* as the default progress consumer for this process.

    Every :func:`run_tasks` batch inside the ``with`` block reports to it
    unless the call passes an explicit ``progress=``.  This lets the CLI
    thread live progress through the table modules without changing their
    signatures.  Nestable; the previous callback is restored on exit.
    """
    global _active_progress
    previous = _active_progress
    _active_progress = callback
    try:
        yield
    finally:
        _active_progress = previous


@dataclass(frozen=True)
class ReplicationTask:
    """Picklable description of one simulation run.

    ``system_kind`` is "standard" (the paper's model) or one of
    :data:`EXTENSION_KINDS`, whose mechanism is built from
    ``system_kwargs``: a sorted tuple of ``(name, value)`` pairs, so the
    task stays hashable and its cache key stays canonical.

    ``faults`` optionally installs a fault plan for the run.  A no-op
    plan is normalized to ``None`` at construction (same run, same cache
    key), and non-``None`` plans are folded into :meth:`key`, so a
    faulted task can never be answered from a faultless cache entry.

    ``workload`` optionally drives the run with an open workload spec.
    The default closed spec is normalized to ``None`` at construction
    (same run, same cache key), and non-``None`` specs are folded into
    :meth:`key`.  Both compose with every system kind.
    """

    config: SystemConfig
    policy: str
    seed: int
    warmup: float
    duration: float
    system_kind: str = "standard"
    system_kwargs: Tuple[Tuple[str, Any], ...] = field(default=())
    faults: Optional[FaultPlan] = field(default=None, metadata=OMIT_NONE)
    workload: Optional[WorkloadSpec] = field(default=None, metadata=OMIT_NONE)

    def __post_init__(self) -> None:
        if self.system_kind not in SYSTEM_KINDS:
            raise ValueError(
                f"unknown system kind {self.system_kind!r}; "
                f"expected one of {SYSTEM_KINDS}"
            )
        ordered = tuple(sorted(self.system_kwargs))
        object.__setattr__(self, "system_kwargs", ordered)
        self.extensions()  # fail early on bad mechanism arguments
        settle_run(self)

    def extensions(self) -> Tuple[Mechanism, ...]:
        """Fresh extension mechanisms for one run of this task."""
        if self.system_kind == "standard":
            if self.system_kwargs:
                raise ValueError("system_kwargs need an extension system kind")
            return ()
        try:
            return (EXTENSION_KINDS[self.system_kind](**dict(self.system_kwargs)),)
        except TypeError as exc:
            raise ValueError(
                f"bad system_kwargs for kind {self.system_kind!r}: {exc}"
            ) from None

    def key(self) -> str:
        """Content address of this task (see :func:`task_key`)."""
        return task_key(self)


def replication_tasks(
    config: SystemConfig,
    policy: str,
    settings: RunSettings,
    *,
    system_kind: str = "standard",
    system_kwargs: Tuple[Tuple[str, Any], ...] = (),
) -> List[ReplicationTask]:
    """One task per replication of a (config, policy, settings) cell.

    ``settings.faults`` and ``settings.workload`` (when set) are carried
    onto every task.
    """
    return [
        ReplicationTask(
            config=config,
            policy=policy,
            seed=settings.seed_for(replication),
            warmup=settings.warmup,
            duration=settings.duration,
            system_kind=system_kind,
            system_kwargs=system_kwargs,
            faults=settings.faults,
            workload=settings.workload,
        )
        for replication in range(settings.replications)
    ]


def run_task(task: ReplicationTask) -> SystemResults:
    """Execute one task to completion (the process-pool worker function).

    Goes through :func:`repro.runner.execute` — the shared run
    entry point — always with telemetry disabled: cached results are
    telemetry-free, so telemetry options can never perturb cache keys or
    cached content.
    """
    from repro.model.system import DistributedDatabase
    from repro.policies.registry import make_policy

    # Workloads bind at construction (arrival processes start at time
    # 0), unlike fault plans which execute() installs.
    system = DistributedDatabase(
        task.config,
        make_policy(task.policy),
        seed=task.seed,
        workload=task.workload,
        extensions=task.extensions(),
    )
    spec = RunSpec(
        warmup=task.warmup,
        duration=task.duration,
        seed=task.seed,
        faults=task.faults,
        workload=task.workload,
    )
    return execute(system, spec).results


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` style value to a positive worker count.

    ``None`` or ``1`` mean serial; ``0`` and negative values mean "all
    cores" (:func:`os.cpu_count`).
    """
    if jobs is None:
        return 1
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def _pool_context():
    """Prefer fork on platforms that have it (cheap workers, no re-import)."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


def run_tasks(
    tasks: Sequence[ReplicationTask],
    *,
    jobs: Optional[int] = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressCallback] = None,
) -> List[SystemResults]:
    """Execute *tasks* and return their results **in task order**.

    * With ``jobs > 1`` outstanding work fans out over a process pool;
      completion order never affects the returned list.
    * With a *cache*, each task is answered from disk when possible and
      fresh results are written back; duplicate tasks within the batch are
      simulated only once.
    * With *progress* (or an enclosing :func:`progress_reporting`), the
      callback fires once per task as it resolves — from cache or
      simulation — in resolution order.  Display only; results are
      unaffected.
    """
    report = progress if progress is not None else _active_progress
    total = len(tasks)
    resolved = 0
    from_cache = 0

    def tick(task: ReplicationTask, count: int, cached: bool) -> None:
        nonlocal resolved, from_cache
        resolved += count
        if cached:
            from_cache += count
        if report is not None:
            report(
                RunProgress(
                    completed=resolved,
                    total=total,
                    cached=from_cache,
                    policy=task.policy,
                    seed=task.seed,
                )
            )

    results: List[Optional[SystemResults]] = [None] * len(tasks)

    # Resolve cache hits up front; collect one representative index per
    # distinct outstanding task (duplicates share the computed result).
    representatives: Dict[ReplicationTask, List[int]] = {}
    for index, task in enumerate(tasks):
        if cache is not None:
            hit = cache.get(task.key())
            if hit is not None:
                results[index] = hit
                tick(task, 1, cached=True)
                continue
        representatives.setdefault(task, []).append(index)

    pending = [(task, indices) for task, indices in representatives.items()]
    workers = min(resolve_jobs(jobs), len(pending)) if pending else 0
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=_pool_context()
        ) as pool:
            futures = {
                pool.submit(run_task, task): (task, indices)
                for task, indices in pending
            }
            for future in as_completed(futures):
                outcome = future.result()
                task, indices = futures[future]
                for index in indices:
                    results[index] = outcome
                tick(task, len(indices), cached=False)
    else:
        for task, indices in pending:
            outcome = run_task(task)
            for index in indices:
                results[index] = outcome
            tick(task, len(indices), cached=False)

    if cache is not None:
        for task, indices in pending:
            cache.put(task.key(), results[indices[0]])
    return results  # type: ignore[return-value]


__all__ = [
    "EXTENSION_KINDS",
    "SYSTEM_KINDS",
    "ProgressCallback",
    "ReplicationTask",
    "RunProgress",
    "progress_reporting",
    "replication_tasks",
    "resolve_jobs",
    "run_task",
    "run_tasks",
]
