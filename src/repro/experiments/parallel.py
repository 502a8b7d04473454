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
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.codec import OMIT_EMPTY, tagged
from repro.experiments.cache import ResultCache, task_key
from repro.experiments.runconfig import RunSettings
from repro.extensions import MECHANISMS, MechanismSpec
from repro.model.config import SystemConfig
from repro.model.metrics import SystemResults
from repro.runner import RunSpec, execute


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

    A task is a system — config, policy name and the mechanisms built
    into it (none is the paper's model) — and the :class:`RunSpec` it
    runs under: window, seed, fault plan and workload.  Every field is in
    :meth:`key`, so a task can never be answered from another run's
    cache entry.  Cached results are telemetry-free, so ``run`` must not
    ask for telemetry.  A mechanism list no system could be built with
    fails here, not in a pool worker.
    """

    config: SystemConfig
    policy: str
    mechanisms: Tuple[MechanismSpec, ...] = field(
        default=(), kw_only=True, metadata={**tagged(MECHANISMS), **OMIT_EMPTY}
    )
    run: RunSpec

    def __post_init__(self) -> None:
        kinds = [spec.kind for spec in self.mechanisms]
        for kind in kinds:
            if kinds.count(kind) > 1:
                raise ValueError(f"mechanisms: two of kind {kind!r}; at most one per kind")
        for spec in self.mechanisms:
            spec.build().check(self.config)
        if self.run.telemetry is not None:
            raise ValueError("a replication task runs without telemetry (results are cached)")

    def key(self) -> str:
        """Content address of this task (see :func:`task_key`)."""
        return task_key(self)


def replication_tasks(
    config: SystemConfig,
    policy: str,
    settings: RunSettings,
    mechanisms: Tuple[MechanismSpec, ...] = (),
) -> List[ReplicationTask]:
    """One task per replication of a (config, policy, mechanisms) cell.

    Replication ``r`` runs ``settings.spec(r)``: the settings' window,
    fault plan and workload under the replication's seed.
    """
    return [
        ReplicationTask(config, policy, mechanisms=mechanisms, run=settings.spec(replication))
        for replication in range(settings.replications)
    ]


def run_task(task: ReplicationTask) -> SystemResults:
    """Execute one task to completion (the process-pool worker function).

    Goes through :func:`repro.runner.execute` — the shared run entry
    point.  Workloads bind at construction (arrival processes start at
    time 0); ``execute`` installs the fault plan.
    """
    from repro.model.system import DistributedDatabase
    from repro.policies.registry import make_policy

    system = DistributedDatabase(
        task.config,
        make_policy(task.policy),
        seed=task.run.seed,
        workload=task.run.workload,
        extensions=tuple(spec.build() for spec in task.mechanisms),
    )
    return execute(system, task.run).results


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
                    seed=task.run.seed,
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
    "ProgressCallback",
    "ReplicationTask",
    "RunProgress",
    "progress_reporting",
    "replication_tasks",
    "resolve_jobs",
    "run_task",
    "run_tasks",
]
