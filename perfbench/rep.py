"""One repetition of one workload, in a fresh interpreter.

Run by ``perfbench/run.py``; prints one JSON line with the repetition's
timestamps (``time.monotonic``, comparable with the parent's), outputs
digest and statistics, and — when traced — the per-layer aggregate.

    python3 perfbench/rep.py WORKLOAD SEED WORKDIR [--trace] [--jobs N]
        [--cache-dir DIR] [--spans PATH]

Traced repetitions write their per-query spans to ``--spans`` (JSON lines).
"""

import argparse
import importlib
import json
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def _install_results_probe() -> list:
    """Collect each in-process system's PS depth as its run ends.

    Returns the list that ``DistributedDatabase.results`` appends
    ``cpu_mean_jobs`` (time-average jobs per CPU, mean over sites) to.
    """
    from repro.model.system import DistributedDatabase

    inner = DistributedDatabase.results
    seen: list = []

    def results(self):  # type: ignore[no-untyped-def]
        jobs = [site.cpu.population.time_average for site in self.sites]
        seen.append(sum(jobs) / len(jobs))
        return inner(self)

    DistributedDatabase.results = results  # type: ignore[method-assign]
    return seen


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("workdir", type=pathlib.Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--cache-dir", type=pathlib.Path)
    parser.add_argument("--spans", type=pathlib.Path)
    args = parser.parse_args()

    from workloads import WORKLOADS, StudyCore, self_rss_kib

    if args.workload == "study-core":
        workload = StudyCore(args.workdir, jobs=args.jobs, cache_dir=args.cache_dir)
    else:
        workload = WORKLOADS[args.workload]()

    t_import = time.monotonic()
    workload.import_modules()
    tracer = None
    if args.trace:
        import layers

        for name in workload.traced_modules:
            importlib.import_module(name)
        tracer = layers.LayerTracer()
        layers.install(tracer)
        systems = _install_results_probe()
    t_build = time.monotonic()
    workload.build(args.seed)
    t_ready = time.monotonic()
    if tracer is not None:
        tracer.start()
    outcome = workload.run()
    if tracer is not None:
        tracer.stop()
        trace_rows = tracer.rows()
    t_done = time.monotonic()

    summary = workload.summarize(outcome)
    row = {
        "import_s": t_build - t_import,
        "build_s": t_ready - t_build,
        "t_ready": t_ready,
        "wall_s": t_done - t_ready,
        "rss_kib": self_rss_kib(),
        **summary,
    }
    if tracer is not None:
        row["trace"] = {"root_s": tracer.root_s, "rows": trace_rows,
                        "setup_rows": tracer.rows(setup=True), "systems": systems}
        if args.spans is not None:
            tracer.write_query_spans(str(args.spans))
    print(json.dumps(row))


if __name__ == "__main__":
    main()
