"""Definition and runner for the golden-trace corpus.

The corpus is a small matrix of (seed x policy x fault-plan) runs whose
telemetry JSONL, timeline CSV, kernel trace stream, and ``SystemResults``
JSON were digest-recorded from the **seed kernel** (the straightforward
heap + coroutine event loop, before the hot-path overhaul).  The suite in
``tests/sim/test_golden_equivalence.py`` replays every case and asserts
byte-identity, which makes engine refactors mechanically verifiable: any
change that perturbs event ordering, floating-point arithmetic, RNG
consumption, or telemetry emission fails loudly.

Digests are **never** regenerated as part of a refactoring PR.  The only
sanctioned path is ``tools/regen_golden.py --i-know-this-changes-behavior``
for PRs whose whole point is a behaviour change (and whose review covers
the new recordings).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments.parallel import ReplicationTask, run_tasks
from repro.extensions import (
    HeterogeneousCPU,
    Migration,
    PartialReplication,
    ReplicationMap,
    StaleLoadInfo,
    Subqueries,
    Updates,
)
from repro.faults.plan import (
    FaultPlan,
    LoadBoardOutage,
    MessageFaults,
    RandomOutages,
    SiteOutage,
)
from repro.model.config import (
    NetworkSpec,
    QueryClassSpec,
    SiteSpec,
    SystemConfig,
)
from repro.model.mechanism import Mechanism
from repro.model.serialization import results_to_dict
from repro.model.system import DistributedDatabase
from repro.policies.registry import make_policy
from repro.runner import RunSpec, run
from repro.telemetry.events import TraceMessage
from repro.telemetry.exporters import events_to_jsonl, timeline_to_csv
from repro.telemetry.session import TelemetryConfig

GOLDEN_DIR = Path(__file__).resolve().parent
MANIFEST_PATH = GOLDEN_DIR / "manifest.json"

#: Bump when the corpus *shape* changes (cases added/removed); the digests
#: themselves only ever change through tools/regen_golden.py.
CORPUS_FORMAT = 2


def golden_config() -> SystemConfig:
    """The corpus system: 3 sites, 2 disks each, a CPU- and an IO-class.

    Small enough that the whole corpus replays in a few seconds, rich
    enough to exercise every kernel path (PS + FCFS servers, ring
    messaging, load-board broadcasts, warmup truncation).
    """
    return SystemConfig(
        num_sites=3,
        site=SiteSpec(
            num_disks=2, disk_time=1.0, disk_time_dev=0.2, mpl=4, think_time=50.0
        ),
        classes=(
            QueryClassSpec("io", page_cpu_time=0.05, num_reads=5.0),
            QueryClassSpec("cpu", page_cpu_time=1.0, num_reads=5.0),
        ),
        class_probs=(0.5, 0.5),
        network=NetworkSpec(msg_length=1.0),
    )


def golden_fault_plan() -> FaultPlan:
    """The corpus chaos plan: every fault kind at once, deterministically."""
    return FaultPlan(
        site_outages=(SiteOutage(site=1, at=800.0, duration=300.0),),
        random_outages=(RandomOutages(mtbf=2500.0, mttr=120.0, site=2),),
        messages=MessageFaults(loss_prob=0.05, extra_delay=0.2),
        loadboard_outages=(LoadBoardOutage(at=1500.0, duration=250.0),),
        max_retries=3,
    )


@dataclass(frozen=True)
class GoldenCase:
    """One recorded run of the corpus matrix."""

    name: str
    policy: str
    seed: int
    warmup: float = 300.0
    duration: float = 2500.0
    faulted: bool = False


#: The recorded matrix.  Order is part of the corpus format.
CASES: Tuple[GoldenCase, ...] = (
    GoldenCase(name="lert_seed1", policy="LERT", seed=1),
    GoldenCase(name="bnqrd_seed2", policy="BNQRD", seed=2),
    GoldenCase(name="local_seed3", policy="LOCAL", seed=3),
    GoldenCase(name="random_faulted_seed5", policy="RANDOM", seed=5, faulted=True),
)

#: The --jobs equivalence batch: replayed serially and with two workers;
#: both orderings must produce byte-identical serialized results.
JOBS_BATCH_POLICIES: Tuple[str, ...] = ("LERT", "BNQ")
JOBS_BATCH_SEEDS: Tuple[int, ...] = (11, 12)
JOBS_WARMUP = 100.0
JOBS_DURATION = 800.0

#: The kernel-trace case: a short run with an explicit TraceMessage
#: subscriber, pinning the engine's per-event trace emission (the guard
#: the hot-path overhaul hoists out of ``step()``).
TRACE_POLICY = "LERT"
TRACE_SEED = 1
TRACE_WARMUP = 50.0
TRACE_DURATION = 400.0


@dataclass(frozen=True)
class ExtensionCase:
    """One recorded run of a §6.2 extension (``SystemResults`` pinned).

    ``mechanisms`` builds the case's extension mechanisms; their
    :data:`EXTENSION_COUNTERS` are pinned next to the results.
    """

    name: str
    policy: str
    seed: int
    mechanisms: Callable[[], Tuple[Mechanism, ...]]
    warmup: float = 300.0
    duration: float = 2500.0


#: The extension mechanisms' own counters, read after the run.
EXTENSION_COUNTERS: Tuple[str, ...] = (
    "refreshes",
    "updates_executed",
    "applies_completed",
    "pending_applies",
    "total_migrations",
    "distributed_queries",
    "data_moves",
)

#: The recorded extension runs (on the 3-site corpus config), one per
#: mechanism setting.  Order is part of the corpus format.
EXTENSION_CASES: Tuple[ExtensionCase, ...] = (
    ExtensionCase(
        "stale_lert_seed1",
        "LERT",
        1,
        lambda: (StaleLoadInfo(refresh_interval=50.0, broadcast_cost=0.2),),
    ),
    ExtensionCase("updates_p0_lert_seed2", "LERT", 2, lambda: (Updates(update_prob=0.0),)),
    ExtensionCase("updates_p20_lert_seed2", "LERT", 2, lambda: (Updates(update_prob=0.2),)),
    ExtensionCase("het_lert_seed3", "LERT", 3, lambda: (HeterogeneousCPU((0.5, 1.0, 2.0)),)),
    ExtensionCase(
        "het_lerthet_seed3", "LERT-HET", 3, lambda: (HeterogeneousCPU((0.5, 1.0, 2.0)),)
    ),
    ExtensionCase(
        "partial_lert_seed4",
        "LERT",
        4,
        lambda: (
            PartialReplication(
                ReplicationMap.random_k(3, 6, 2, seed=7),
                item_weights=(4.0, 2.0, 1.0, 1.0, 1.0, 1.0),
            ),
        ),
    ),
    ExtensionCase("migration_lert_seed5", "LERT", 5, lambda: (Migration(threshold=1.1),)),
    *(
        ExtensionCase(
            f"subqueries_{policy.lower()}_seed6",
            policy,
            6,
            lambda: (
                PartialReplication(ReplicationMap.round_robin_k(3, 6, 2)),
                Subqueries(multi_prob=0.5, subquery_count=3),
            ),
        )
        for policy in ("LOCAL", "LERT")
    ),
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_json(payload: Any) -> str:
    """Canonical JSON: sorted keys, minimal separators (digest-stable)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def run_case(case: GoldenCase) -> Dict[str, Any]:
    """Replay one corpus case; returns its digests and full results dict."""
    spec = RunSpec(
        warmup=case.warmup,
        duration=case.duration,
        seed=case.seed,
        telemetry=TelemetryConfig(events=True, sample_interval=100.0),
        faults=golden_fault_plan() if case.faulted else None,
    )
    report = run(golden_config(), case.policy, spec)
    results = results_to_dict(report.results)
    return {
        "results": results,
        "results_sha256": _sha256(canonical_json(results)),
        "events_sha256": _sha256(events_to_jsonl(report.events)),
        "timeline_sha256": _sha256(timeline_to_csv(report.timeline)),
    }


def run_extension_case(case: ExtensionCase) -> Dict[str, Any]:
    """Replay one extension case; returns its results, digest and counters."""
    mechanisms = case.mechanisms()
    system = DistributedDatabase(
        golden_config(), make_policy(case.policy), seed=case.seed, extensions=mechanisms
    )
    results = results_to_dict(system.run(case.warmup, case.duration))
    counters = {
        name: getattr(mechanism, name)
        for mechanism in mechanisms
        for name in EXTENSION_COUNTERS
        if hasattr(mechanism, name)
    }
    return {
        "results": results,
        "results_sha256": _sha256(canonical_json(results)),
        "counters": counters,
    }


def run_trace_case() -> Dict[str, Any]:
    """Replay the kernel-trace case; returns the trace-stream digest."""
    system = DistributedDatabase(
        golden_config(), make_policy(TRACE_POLICY), seed=TRACE_SEED
    )
    digest = hashlib.sha256()
    count = 0

    def record(event: Any) -> None:
        nonlocal count
        count += 1
        digest.update(f"{event.time!r}|{event.label}\n".encode("utf-8"))

    system.sim.bus.subscribe(TraceMessage, record)
    system.run(TRACE_WARMUP, TRACE_DURATION)
    return {"trace_sha256": digest.hexdigest(), "trace_messages": count}


def jobs_batch_tasks() -> List[ReplicationTask]:
    """The --jobs equivalence batch (includes one faulted task)."""
    config = golden_config()
    tasks = [
        ReplicationTask(
            config, policy, run=RunSpec(warmup=JOBS_WARMUP, duration=JOBS_DURATION, seed=seed)
        )
        for policy in JOBS_BATCH_POLICIES
        for seed in JOBS_BATCH_SEEDS
    ]
    tasks.append(
        ReplicationTask(
            config,
            "RANDOM",
            run=RunSpec(
                warmup=JOBS_WARMUP, duration=JOBS_DURATION, seed=13, faults=golden_fault_plan()
            ),
        )
    )
    return tasks


def run_jobs_batch(jobs: int) -> str:
    """Run the equivalence batch with *jobs* workers; returns its digest."""
    results = run_tasks(jobs_batch_tasks(), jobs=jobs)
    payload = [results_to_dict(result) for result in results]
    return _sha256(canonical_json(payload))


def build_manifest() -> Dict[str, Any]:
    """Run the whole corpus and assemble a manifest (regeneration path)."""
    cases: Dict[str, Dict[str, Any]] = {}
    for case in CASES:
        outcome = run_case(case)
        cases[case.name] = {
            "results_sha256": outcome["results_sha256"],
            "events_sha256": outcome["events_sha256"],
            "timeline_sha256": outcome["timeline_sha256"],
        }
        results_path = GOLDEN_DIR / f"results_{case.name}.json"
        results_path.write_text(
            canonical_json(outcome["results"]) + "\n", encoding="utf-8"
        )
    extensions: Dict[str, Dict[str, Any]] = {}
    for extension in EXTENSION_CASES:
        outcome = run_extension_case(extension)
        extensions[extension.name] = {
            "results_sha256": outcome["results_sha256"],
            "counters": outcome["counters"],
        }
        results_path = GOLDEN_DIR / f"results_{extension.name}.json"
        results_path.write_text(
            canonical_json(outcome["results"]) + "\n", encoding="utf-8"
        )
    trace = run_trace_case()
    return {
        "format": CORPUS_FORMAT,
        "recorded_from": "seed kernel (pre hot-path overhaul)",
        "cases": cases,
        "extensions": extensions,
        "trace": trace,
        "jobs": {"results_sha256": run_jobs_batch(jobs=1)},
    }


def load_manifest() -> Dict[str, Any]:
    """The recorded manifest (raises if the corpus was never generated)."""
    with MANIFEST_PATH.open(encoding="utf-8") as handle:
        manifest: Dict[str, Any] = json.load(handle)
    return manifest


def load_recorded_results(name: str) -> Dict[str, Any]:
    """The recorded full ``SystemResults`` dict for one case."""
    path = GOLDEN_DIR / f"results_{name}.json"
    with path.open(encoding="utf-8") as handle:
        results: Dict[str, Any] = json.load(handle)
    return results
