"""The benchmark's three workloads, as seen from inside one repetition.

Each workload turns a seed into inputs, builds what it runs, and hands
back a timed phase.  ``repro`` only ever receives the generated inputs
(a config, a policy name, a spec); the seed-to-input mapping lives here.

A workload class has three steps, called by ``rep.py``:

* ``import_modules()`` — the imports the run needs (timed as
  ``setup.import_s``);
* ``build(seed)`` — config, model or grid construction (``setup.build_s``);
* ``run()`` — the timed phase; returns the outcome that ``summarize``
  turns into JSON-ready statistics and a digest.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pathlib
import resource
import time
from typing import Any, Dict, List, Optional, Tuple

#: The paper's Table 8 LERT waiting time at think time 350: the LOCAL
#: value 22.71 improved by 43.54%.
PAPER_LERT_WAIT = 22.71 * (1 - 0.4354)

#: Relative error against the paper beyond which a closed-paper run is
#: wrong rather than noisy (seed 42 reads 7.2%).
PAPER_ERR_LIMIT_PCT = 25.0

STUDY_SPEC = pathlib.Path("studies") / "core.json"


def digest(payload: Any) -> str:
    """SHA-256 of the canonical JSON of *payload*."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def self_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class ClosedPaper:
    """LERT at ``paper_defaults()``: one long closed run (the paper's §5)."""

    warmup = 3000.0
    duration = 60000.0
    traced_modules: Tuple[str, ...] = ()

    def import_modules(self) -> None:
        from repro.model import config, serialization, system  # noqa: F401
        from repro import policies, runner  # noqa: F401

    def build(self, seed: int) -> None:
        from repro.model.config import paper_defaults
        from repro.model.system import DistributedDatabase
        from repro.policies.registry import make_policy
        from repro.runner import RunSpec

        self.system = DistributedDatabase(paper_defaults(), make_policy("LERT"), seed=seed)
        self.spec = RunSpec(warmup=self.warmup, duration=self.duration, seed=seed)

    def run(self) -> Any:
        from repro.runner import execute

        return execute(self.system, self.spec)

    def summarize(self, report: Any) -> Dict[str, Any]:
        from repro.model.serialization import results_to_dict

        results = report.results
        err = abs(results.mean_waiting_time - PAPER_LERT_WAIT) / PAPER_LERT_WAIT * 100
        problems = []
        if results.completions <= 0:
            problems.append("no completions")
        if err > PAPER_ERR_LIMIT_PCT:
            problems.append(f"waiting time {results.mean_waiting_time:.3f} is {err:.1f}% "
                            f"from the paper's {PAPER_LERT_WAIT:.3f}")
        return {
            "digest": digest(results_to_dict(results)),
            "completions": results.completions,
            "paper_err_pct": err,
            "problems": problems,
        }


class OpenStorm(ClosedPaper):
    """LERT under an MMPP overload storm with outages, message loss,
    admission control, spans and the decision audit."""

    duration = 30000.0

    def import_modules(self) -> None:
        super().import_modules()
        from repro import faults, telemetry, workloads  # noqa: F401

    def build(self, seed: int) -> None:
        from repro.faults.plan import FaultPlan, MessageFaults, RandomOutages
        from repro.model.config import paper_defaults
        from repro.model.system import DistributedDatabase
        from repro.policies.registry import make_policy
        from repro.runner import RunSpec
        from repro.telemetry.session import TelemetryConfig
        from repro.workloads.arrivals import MMPP
        from repro.workloads.spec import AdmissionControl, WorkloadSpec, estimate_site_capacity

        config = paper_defaults()
        rate = 1.1 * estimate_site_capacity(config)
        workload = WorkloadSpec(
            arrivals=MMPP(rates=(0.2 * rate, 1.8 * rate), mean_holding=(400.0, 400.0)),
            admission=AdmissionControl(max_pending=32),
        )
        faults = FaultPlan(
            random_outages=(RandomOutages(mtbf=3000.0, mttr=150.0),),
            messages=MessageFaults(loss_prob=0.01),
        )
        self.system = DistributedDatabase(config, make_policy("LERT"), seed=seed, workload=workload)
        self.spec = RunSpec(
            warmup=self.warmup, duration=self.duration, seed=seed,
            telemetry=TelemetryConfig(events=False, spans=True, decisions=True),
            faults=faults, workload=workload,
        )

    def summarize(self, report: Any) -> Dict[str, Any]:
        from repro.model.serialization import results_to_dict

        results = report.results
        load = results.workload
        avail = results.availability
        problems = []
        if results.completions <= 0:
            problems.append("no completions")
        if load is None or load.offered != load.admitted + load.shed or load.shed <= 0:
            problems.append(f"admission accounting broken: {load}")
        if avail is None or avail.crashes <= 0 or avail.queries_retried <= 0:
            problems.append(f"fault plan did not act: {avail}")
        if results.decisions is None or results.spans is None or not report.spans:
            problems.append("spans or decision audit missing")
        return {
            "digest": digest({
                "results": results_to_dict(results),
                "spans": len(report.spans),
                "decisions": len(report.decisions),
            }),
            "completions": results.completions,
            "admit_frac": load.admitted / load.offered if load else 0.0,
            "problems": problems,
        }


class StudyCore:
    """``studies/core.json`` through ``repro.ablation`` into a fresh
    result cache (cold pass), or answered from it (warm pass)."""

    #: Imported before tracing so the lazily imported extension classes
    #: the grid's cells build get wrapped too.
    traced_modules = ("repro.extensions.stale_info", "repro.policies.lert_mva")

    def __init__(self, workdir: pathlib.Path, jobs: int = 2,
                 cache_dir: Optional[pathlib.Path] = None) -> None:
        self.jobs = jobs
        self.cache_dir = cache_dir or workdir / "cache"
        self.probe_dir = workdir / "cells"

    def import_modules(self) -> None:
        from repro import ablation  # noqa: F401
        from repro.experiments import cache, context  # noqa: F401
        from repro.model import serialization  # noqa: F401

    def build(self, seed: int) -> None:
        from repro.ablation import grid, spec as spec_module
        from repro.experiments.cache import ResultCache
        from repro.experiments.context import StudyContext

        data = json.loads(STUDY_SPEC.read_text(encoding="utf-8"))
        data["settings"]["base_seed"] = seed
        spec = spec_module.study_spec_from_dict(data)
        self.grid = grid.expand(spec)
        self.cache = ResultCache(self.cache_dir)
        self.context = StudyContext(jobs=self.jobs, cache=self.cache)
        self.probe_dir.mkdir(parents=True, exist_ok=True)
        _install_cell_probe(self.probe_dir)

    def run(self) -> Tuple[Any, str]:
        from repro.ablation import report, study

        outcome = study.run_grid(self.grid, context=self.context)
        return outcome, report.render_study_report(outcome)

    def summarize(self, result: Tuple[Any, str]) -> Dict[str, Any]:
        from repro.model.serialization import results_to_dict

        outcome, text = result
        cells = (outcome.baseline,) + outcome.cells
        tasks = len(self.grid.all_tasks())
        stats = self.cache.stats
        problems = []
        local = outcome.cell("allocation-information:local").metrics.response_time
        lert = outcome.baseline.metrics.response_time
        if not local > lert:
            problems.append(f"LOCAL ({local:.3f}) does not lose to LERT ({lert:.3f})")
        if stats.errors:
            problems.append(f"result cache errors: {stats}")
        cell_times, worker_rss = _read_cell_probe(self.probe_dir)
        return {
            "digest": digest({
                "cells": [[c.label, [results_to_dict(r) for r in c.per_replication]]
                          for c in cells],
                "report": text,
            }),
            "completions": sum(c.metrics.completions for c in cells),
            "tasks": tasks,
            "cache_hits": stats.hits,
            "cache_misses": stats.misses,
            "cell_s": cell_times,
            "worker_rss_kib": worker_rss,
            "problems": problems,
        }


def _install_cell_probe(probe_dir: pathlib.Path) -> None:
    """Record each cell's run time and its process's peak RSS to a file.

    Wraps ``repro.experiments.parallel.run_task``, the pool's worker
    function: pool workers are forked after this, so they run the
    wrapper and leave one file per cell behind.  Pickling still finds the
    function under its module path.  One call per cell, so the probe
    costs nothing measurable.
    """
    from repro.experiments import parallel

    inner = parallel.run_task
    counter = [0]

    def run_task(task: Any) -> Any:
        start = time.perf_counter()
        result = inner(task)
        elapsed = time.perf_counter() - start
        counter[0] += 1
        pid = os.getpid()
        path = probe_dir / f"cell-{pid}-{counter[0]}.json"
        path.write_text(json.dumps({"pid": pid, "cell_s": elapsed,
                                    "maxrss_kib": self_rss_kib()}), encoding="utf-8")
        return result

    parallel.run_task = functools.update_wrapper(run_task, inner)


def _read_cell_probe(probe_dir: pathlib.Path) -> Tuple[List[float], int]:
    """Per-cell run times, and the summed peak RSS of the pool workers."""
    cell_times: List[float] = []
    peaks: Dict[int, int] = {}
    me = os.getpid()
    for path in sorted(probe_dir.glob("cell-*.json")):
        row = json.loads(path.read_text(encoding="utf-8"))
        cell_times.append(row["cell_s"])
        if row["pid"] != me:
            peaks[row["pid"]] = max(peaks.get(row["pid"], 0), row["maxrss_kib"])
    return cell_times, sum(peaks.values())


WORKLOADS = {
    "closed-paper": ClosedPaper,
    "open-storm-traced": OpenStorm,
    "study-core": StudyCore,
}
