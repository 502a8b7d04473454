"""Per-layer tracing for the benchmark, installed from outside ``repro``.

:func:`install` replaces the public functions and methods of each layer
with timing wrappers.  It must run after ``repro`` is imported and before
the system is built, so that bound methods a constructor caches (a
process's resume callback, a server's completion callback) already point
at the wrappers.

Every wrapped call is one span: name, start, end, parent.  Kernel layers
fire millions of calls per run, so spans are aggregated per
``(name, parent)`` into call count, total time and self time (total minus
the time covered by wrapped children).  Calls of the query life-cycle
layers (:data:`QUERY_LAYERS`) that receive a ``Query`` are also kept one
by one with the query id, in memory, and written out by
:meth:`LayerTracer.write_query_spans` after the run.

The layer names match the benchmark's per-layer metrics; see
``perfbench/manifest.json`` for what each one should move.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

ROOT = "bench.run"

#: Layers whose calls are kept one by one when they receive a ``Query``:
#: a handful per query.  Views and the kernel see a query many times per
#: decision and stay aggregated only.
QUERY_LAYERS = frozenset({"policy", "loadboard", "metrics", "faults"})

#: (layer, dotted owner, attribute names).  An owner is a class or a
#: module; for a class every subclass that overrides an attribute is
#: wrapped too, for a module every loaded ``repro`` module holding the
#: same function object is patched.
TARGETS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("engine", "repro.sim.engine.Simulator", ("run", "schedule", "schedule_at", "cancel", "launch")),
    ("events", "repro.sim.events.EventQueue", ("push", "rent", "recycle", "cancel", "peek_time", "pop", "pop_due")),
    ("process", "repro.sim.process.Process", ("_resume", "_throw", "resume_now", "activate", "reactivate", "interrupt")),
    ("process", "repro.sim.process.Hold", ("execute",)),
    ("process", "repro.sim.process.WaitFor", ("execute",)),
    ("resources", "repro.sim.resources.ServiceRequest", ("execute",)),
    ("monitor", "repro.sim.monitor.Tally", ("record",)),
    ("monitor", "repro.sim.monitor.TimeWeighted", ("set", "add")),
    ("rng", "repro.sim.rng.RandomStreams", ("stream", "spawn")),
    ("rng", "repro.sim.rng", ("bernoulli", "choose_index")),
    ("model.view", "repro.model.system.DistributedDatabase", ("view_for",)),
    ("model.view", "repro.model.view.SystemView", ("candidates", "is_available", "load_info_age", "estimated_transfer_time", "estimated_return_time", "rng", "loads")),
    ("loadboard", "repro.model.loadboard.LoadBoard", ("register", "deregister", "num_queries", "num_io_queries", "num_cpu_queries", "query_distribution", "snapshot")),
    ("loadboard", "repro.model.view.MaskedLoadView", ("num_queries", "num_io_queries", "num_cpu_queries", "query_distribution")),
    ("ring", "repro.model.ring.TokenRing", ("send",)),
    ("ring", "repro.model.subnet.PointToPointNetwork", ("send",)),
    ("metrics", "repro.model.metrics.MetricsCollector", ("record",)),
    ("workload_gen", "repro.model.workload.WorkloadGenerator", ("new_query", "new_open_query", "think_time", "disk_time", "cpu_burst")),
    ("policy", "repro.policies.base.AllocationPolicy", ("select",)),
    ("queueing", "repro.queueing.amva", ("solve_amva",)),
    ("workloads", "repro.workloads.driver.WorkloadDriver", ("submit",)),
    ("workloads", "repro.workloads.arrivals", ("next_thinned_gap",)),
    ("workloads", "repro.workloads.arrivals.PhaseTrack", ("phase_at",)),
    ("faults", "repro.faults.injector.FaultInjector", ("is_up", "available_sites", "dark_view", "net_rng", "begin_execution", "end_execution", "record_completion", "_crash", "_recover", "_board_dark", "_board_restore")),
    ("telemetry", "repro.telemetry.bus.EventBus", ("emit",)),
    ("telemetry.read", "repro.telemetry.tracing.spans.SpanCollector", ("spans", "summary")),
    ("telemetry.read", "repro.telemetry.tracing.decisions.DecisionAudit", ("records", "summary")),
    ("harness.expand", "repro.ablation.grid", ("expand",)),
    ("harness.tasks", "repro.experiments.parallel", ("run_tasks",)),
    ("harness.cell", "repro.experiments.parallel", ("run_task",)),
    ("harness.cache_get", "repro.experiments.cache.ResultCache", ("get",)),
    ("harness.cache_put", "repro.experiments.cache.ResultCache", ("put",)),
    ("harness.report", "repro.ablation.report", ("render_study_report",)),
)


class LayerTracer:
    """Aggregated spans of one traced run, kept in memory.

    ``stats[(name, parent)]`` is ``[calls, total_s, self_s]``; ``name`` is
    ``layer:function``.  ``query_spans`` holds
    ``(name, start_s, end_s, parent, qid)`` for calls that received a
    ``Query``.
    """

    def __init__(self) -> None:
        self.stats: Dict[Tuple[str, str], List[float]] = {}
        self.setup_stats: Dict[Tuple[str, str], List[float]] = {}
        self.query_spans: List[Tuple[str, float, float, str, int]] = []
        # Open frames: [name, time covered by finished children].
        self._stack: List[List[Any]] = [[ROOT, 0.0]]
        self._root_start: Optional[float] = None
        self.root_s = 0.0

    # -- the root span: the benchmark's timed phase ----------------------
    def start(self) -> None:
        """Open the root span; calls made so far become set-up calls."""
        self.setup_stats = dict(self.stats)
        self.stats.clear()
        self._stack[:] = [[ROOT, 0.0]]
        self._root_start = time.perf_counter()

    def stop(self) -> None:
        if self._root_start is None:
            raise RuntimeError("LayerTracer.stop() without start()")
        self.root_s = time.perf_counter() - self._root_start
        self._root_start = None

    # -- wrappers ---------------------------------------------------------
    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` recording one span per call under *name* (``layer:function``)."""
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter
        query_index = _query_arg_index(fn) if name.split(":")[0] in QUERY_LAYERS else None
        query_spans = self.query_spans

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent[1] += elapsed
                key = (name, parent[0])
                entry = stats.get(key)
                if entry is None:
                    stats[key] = [1, elapsed, elapsed - frame[1]]
                else:
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += elapsed - frame[1]
                if query_index is not None and len(args) > query_index:
                    qid = getattr(args[query_index], "qid", None)
                    if qid is not None:
                        query_spans.append((name, start, end, parent[0], qid))

        functools.update_wrapper(traced, fn)
        return traced

    # -- read-out ---------------------------------------------------------
    def rows(self, setup: bool = False) -> List[Dict[str, Any]]:
        """The aggregated spans as JSON-ready rows, largest self time first.

        ``setup=True`` gives the calls made before :meth:`start`.
        """
        stats = self.setup_stats if setup else self.stats
        return [
            {"name": name, "parent": parent, "calls": calls,
             "total_s": total, "self_s": self_s}
            for (name, parent), (calls, total, self_s) in sorted(
                stats.items(), key=lambda item: -item[1][2])
        ]

    def write_query_spans(self, path: str) -> None:
        """Write the per-query spans as JSON lines (times in µs from start)."""
        origin = min((span[1] for span in self.query_spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, qid in self.query_spans:
                handle.write(json.dumps({
                    "name": name, "parent": parent, "qid": qid,
                    "start_us": round((start - origin) * 1e6, 3),
                    "end_us": round((end - origin) * 1e6, 3),
                }) + "\n")


def _query_arg_index(fn: Callable[..., Any]) -> Optional[int]:
    """Positional index of a parameter named ``query``, if any."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    return params.index("query") if "query" in params else None


def _resolve(dotted: str) -> Any:
    """The module ``dotted``, or the class ``module.Class``, if imported."""
    if dotted in sys.modules:
        return sys.modules[dotted]
    module_name, _, attr = dotted.rpartition(".")
    if module_name not in sys.modules:
        raise LookupError(f"{dotted}: module not imported")
    return getattr(sys.modules[module_name], attr)


def _subclasses(cls: type) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def _wrap_class_attr(tracer: LayerTracer, layer: str, cls: type, attr: str) -> int:
    """Wrap *attr* on *cls* and every subclass that defines its own."""
    wrapped = 0
    for owner in _subclasses(cls):
        if attr not in owner.__dict__:
            continue
        raw = owner.__dict__[attr]
        name = f"{layer}:{owner.__name__}.{attr}"
        if isinstance(raw, property):
            setattr(owner, attr, property(tracer.wrap(name, raw.fget)))
        elif callable(raw):
            setattr(owner, attr, tracer.wrap(name, raw))
        else:
            raise TypeError(f"{owner.__name__}.{attr} is not callable")
        wrapped += 1
    return wrapped


def _wrap_module_function(tracer: LayerTracer, layer: str, module: Any, attr: str) -> int:
    """Wrap a module function and every ``repro`` alias of it."""
    original = getattr(module, attr)
    wrapper = tracer.wrap(f"{layer}:{attr}", original)
    patched = 0
    for name, loaded in list(sys.modules.items()):
        if loaded is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for alias, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, alias, wrapper)
                patched += 1
    return patched


def install(tracer: LayerTracer) -> None:
    """Wrap every target that is imported.

    Modules a workload never imports are skipped, since nothing in the
    run can call into them.
    """
    for layer, dotted, attrs in TARGETS:
        try:
            owner = _resolve(dotted)
        except LookupError:
            continue
        for attr in attrs:
            if isinstance(owner, type):
                count = _wrap_class_attr(tracer, layer, owner, attr)
            else:
                count = _wrap_module_function(tracer, layer, owner, attr)
            if count == 0:
                raise LookupError(f"{dotted}.{attr}: nothing to wrap")
