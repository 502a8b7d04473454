"""Drilling into a run with completion events and spans.

The aggregate metrics say *how well* a policy did; the per-query record
says *why*.  This example runs LERT on the paper's defaults and answers
questions the summary cannot: which queries waited longest and where,
how the two classes' waits compare per site, and how remote execution's
delays break down.  Two bus consumers supply the data:

* a :class:`~repro.telemetry.events.QueryCompleted` subscription — each
  event carries the whole life cycle of one query (home and execution
  site, timestamps, service and waiting time);
* a :class:`~repro.telemetry.tracing.SpanCollector` — its ``queue``
  spans (allocation to service start, subnet transit included) and
  ``transfer.*`` spans (the channel time of each hop) split a remote
  query's delays.

Run:  python examples/trace_analysis.py
"""

from collections import Counter, defaultdict
from typing import Dict, List, Tuple

from repro import (
    DistributedDatabase,
    Span,
    SpanCollector,
    SystemConfig,
    SystemResults,
    make_policy,
    paper_defaults,
)
from repro.telemetry.events import QueryCompleted


def traced_run(
    config: SystemConfig, seed: int, warmup: float, duration: float
) -> Tuple[SystemResults, List[QueryCompleted], Tuple[Span, ...]]:
    """Run LERT once with both consumers attached."""
    system = DistributedDatabase(config, make_policy("LERT"), seed=seed)
    completions: List[QueryCompleted] = []
    system.sim.bus.subscribe(QueryCompleted, completions.append)
    collector = SpanCollector(system.sim.bus)
    results = system.run(warmup=warmup, duration=duration)
    collector.close()
    return results, completions, collector.spans


def mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def waiting_by_class_and_site(
    completions: List[QueryCompleted],
) -> Dict[Tuple[str, int], float]:
    """Mean waiting time per (class, execution site)."""
    waits: Dict[Tuple[str, int], List[float]] = defaultdict(list)
    for event in completions:
        waits[(event.class_name, event.execution_site)].append(event.waiting_time)
    return {key: mean(values) for key, values in waits.items()}


def remote_delays(
    completions: List[QueryCompleted], spans: Tuple[Span, ...]
) -> Dict[str, float]:
    """Mean outbound and return delays of completed remote queries.

    ``outbound`` is the ``queue`` span (allocation to service start);
    ``return`` runs from the end of the ``service`` span to the end of
    the ``query`` span.  ``*_hop`` are the matching ``transfer.*``
    spans, the part of each delay spent on the channel itself.
    """
    remote = {event.qid for event in completions if event.remote}
    by_kind: Dict[str, Dict[int, Span]] = defaultdict(dict)
    for span in spans:
        if span.qid in remote:
            by_kind[span.kind][span.qid] = span
    queued, services, queries = by_kind["queue"], by_kind["service"], by_kind["query"]
    returned = [qid for qid in queries if qid in services]
    return {
        "outbound": mean([span.duration for span in queued.values()]),
        "outbound_hop": mean(
            [span.duration for span in by_kind["transfer.query"].values()]
        ),
        "return": mean([queries[qid].end - services[qid].end for qid in returned]),
        "return_hop": mean(
            [span.duration for span in by_kind["transfer.result"].values()]
        ),
    }


def report(
    config: SystemConfig, completions: List[QueryCompleted], spans: Tuple[Span, ...]
) -> str:
    lines = [f"traced {len(completions)} completed queries, {len(spans)} spans", ""]
    lines.append("Ten slowest queries:")
    lines.append(" qid      class  home->exec   waited   service")
    slowest = sorted(completions, key=lambda event: event.waiting_time, reverse=True)
    for event in slowest[:10]:
        route = f"{event.home_site}->{event.execution_site}"
        lines.append(
            f" {event.qid:7d}  {event.class_name:5s}  {route:10s} "
            f"{event.waiting_time:8.2f}  {event.service_time:8.2f}"
        )
    lines.append("")

    lines.append("Mean waiting by class and execution site:")
    waits = waiting_by_class_and_site(completions)
    for spec in config.classes:
        row = " ".join(
            f"{waits.get((spec.name, site), 0.0):6.2f}"
            for site in range(config.num_sites)
        )
        lines.append(f"  {spec.name:4s} {row}")
    lines.append("")

    remote = [event for event in completions if event.remote]
    if remote:
        delays = remote_delays(completions, spans)
        lines.append(
            f"Remote queries: {len(remote)} "
            f"(avg outbound delay {delays['outbound']:.2f}, "
            f"{delays['outbound_hop']:.2f} on the channel; "
            f"avg return delay {delays['return']:.2f}, "
            f"{delays['return_hop']:.2f} on the channel)"
        )
    routes = Counter(
        (event.home_site, event.execution_site) for event in remote
    ).most_common(5)
    lines.append(f"Most common transfer routes: {routes}")
    return "\n".join(lines)


def main() -> None:
    config = paper_defaults()
    results, completions, spans = traced_run(
        config, seed=21, warmup=1000.0, duration=6000.0
    )
    print(results)
    print(report(config, completions, spans))


if __name__ == "__main__":
    main()
