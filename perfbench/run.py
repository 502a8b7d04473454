#!/usr/bin/env python3
"""The repository's benchmark: host time to a simulated result.

    python3 perfbench/run.py --workload closed-paper --seed 42 --seconds 20 --trace 0

Runs one workload (or ``all``; see ``manifest.json``) for ``--seconds``,
every repetition in a fresh interpreter (``rep.py``).  With ``--trace 0``
it reports the end-to-end metrics, measured with no tracing installed;
with ``--trace 1`` it alternates untraced and traced repetitions and
reports the per-layer metrics.  Each repetition's simulated outputs are
digested and must agree with every other repetition, traced or not, with
the warm pass (study-core), and at a workload's default seed with the
digest pinned in ``manifest.json``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` where ``metrics`` holds
the ``BENCHMARK.json`` metrics of the chosen mode.  The exit code is 0
when every output check passed, 1 when one failed and 2 on bad arguments
or a checkout without the program.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
REP = HERE / "rep.py"
WORK_ROOT = ROOT / ".perfbench"
#: Per-query spans of the last traced repetition of each workload and seed.
SPANS_DIR = WORK_ROOT / "spans"

#: Every run ends within this many seconds, whatever --seconds says.
HARD_LIMIT_S = 170.0
#: Untraced repetitions per run, at least (set-up time is a median of these).
MIN_PLAIN_REPS = 3
#: Traced repetitions per run, at least (exact counts are compared).
MIN_TRACED_REPS = 2


class RepFailed(Exception):
    """A repetition raised, timed out or printed no result."""


# ---------------------------------------------------------------------------
# Arguments
# ---------------------------------------------------------------------------
def _seed(text: str) -> int:
    try:
        value = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be a whole number, got {text!r}")
    if not 0 <= value < 2**63:
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2**63), got {value}")
    return value


def _seconds(text: str) -> int:
    try:
        value = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seconds must be a whole number, got {text!r}")
    if not 1 <= value <= 150:
        raise argparse.ArgumentTypeError(f"seconds must be in [1, 150], got {value}")
    return value


def _writable_file(path: pathlib.Path) -> bool:
    if path.is_dir():
        return False
    if path.exists():
        return os.access(path, os.W_OK)
    return path.parent.is_dir() and os.access(path.parent, os.W_OK | os.X_OK)


def parse_args(argv: List[str], manifest: Dict[str, Any]) -> argparse.Namespace:
    names = list(manifest["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help=f"one of {', '.join(names)}, or all")
    parser.add_argument("--seed", type=_seed,
                        help="workload seed (default: each workload's own, from manifest.json)")
    parser.add_argument("--seconds", type=_seconds, default=20,
                        help="measuring time per workload (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced runs")
    parser.add_argument("--out", type=pathlib.Path,
                        help="also write the full report (all metrics, layer rows) as JSON")
    args = parser.parse_args(argv)
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)} or all")
    args.workloads = names if args.workload == "all" else [args.workload]
    if args.out is not None and not _writable_file(args.out):
        parser.error(f"--out {args.out}: not a writable file path")
    return args


def check_checkout() -> Optional[str]:
    """Why this directory cannot run the benchmark, or ``None``."""
    for needed in ("src/repro/__init__.py", "studies/core.json", "BENCHMARK.json"):
        if not (ROOT / needed).is_file():
            return f"{needed} is missing: run from a checkout of the repository"
    return None


# ---------------------------------------------------------------------------
# Repetitions
# ---------------------------------------------------------------------------
def _stop_group(pgid: int) -> None:
    """Kill what is left of a repetition's process group (pool workers of
    a crashed repetition) and wait, at most 5 s, until it is gone."""
    give_up = time.monotonic() + 5.0
    while time.monotonic() < give_up:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def spawn(argv: List[str], deadline: float) -> Tuple[Dict[str, Any], float, float]:
    """Run ``rep.py`` once; returns its JSON row, spawn and exit times."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(REP), *argv], cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - t_spawn, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RepFailed("timed out")
    finally:
        _stop_group(proc.pid)
    t_exit = time.monotonic()
    if proc.returncode != 0:
        tail = "\n".join(err.strip().splitlines()[-5:])
        raise RepFailed(f"exit code {proc.returncode}: {tail}")
    try:
        row = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise RepFailed("printed no result")
    return row, t_spawn, t_exit


class Runner:
    """Repetitions of one workload at one seed, and their checks."""

    def __init__(self, name: str, seed: int, pinned: Optional[str], work: pathlib.Path,
                 deadline: float) -> None:
        self.name = name
        self.seed = seed
        self.pinned = pinned
        self.work = work
        self.deadline = deadline
        self.study = name == "study-core"
        self.reps: List[Dict[str, Any]] = []
        self.digests: List[str] = []

    def _rep(self, kind: str) -> None:
        index = len(self.reps)
        rep: Dict[str, Any] = {"kind": kind, "problems": []}
        self.reps.append(rep)
        started = time.monotonic()
        work = self.work / f"rep{index}"
        argv = [self.name, str(self.seed), str(work)]
        if kind == "traced":
            argv += ["--trace", "--spans", str(self.spans_path)]
        if self.study:
            argv += ["--jobs", "1" if kind != "plain" else "2"]
        try:
            row, t_spawn, _ = spawn(argv, self.deadline)
            rep["row"] = row
            rep["setup_s"] = row["t_ready"] - t_spawn
            rep["problems"] += row["problems"]
            self._check_digest(rep, row["digest"], "run")
            if self.study:
                warm_argv = [self.name, str(self.seed), str(work / "warm"),
                             "--cache-dir", str(work / "cache")]
                if kind == "traced":
                    warm_argv.append("--trace")
                warm, w_spawn, w_exit = spawn(warm_argv, self.deadline)
                rep["warm"] = warm
                rep["warm_wall_s"] = w_exit - w_spawn
                rep["problems"] += warm["problems"]
                self._check_digest(rep, warm["digest"], "warm pass")
                if warm["cache_misses"] or warm["cache_hits"] != warm["tasks"]:
                    rep["problems"].append(
                        f"warm pass: {warm['cache_hits']} hits, {warm['cache_misses']} "
                        f"misses for {warm['tasks']} tasks")
        except RepFailed as exc:
            rep["problems"].append(f"{kind} repetition failed: {exc}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
            rep["elapsed"] = time.monotonic() - started

    @property
    def spans_path(self) -> pathlib.Path:
        return SPANS_DIR / f"{self.name}-seed{self.seed}.jsonl"

    def _check_digest(self, rep: Dict[str, Any], digest: str, what: str) -> None:
        reference = self.pinned or (self.digests[0] if self.digests else None)
        self.digests.append(digest)
        if reference is not None and digest != reference:
            source = "pinned" if self.pinned else "first repetition's"
            rep["problems"].append(
                f"{rep['kind']} {what} digest {digest[:16]} differs from the {source} "
                f"{reference[:16]}")

    def run(self, seconds: int, trace: bool) -> None:
        until = time.monotonic() + seconds
        plan = ["plain"] * MIN_PLAIN_REPS
        if trace:
            plan = ["plain"] + (["serial"] if self.study else []) + ["traced"] * MIN_TRACED_REPS
        while plan or time.monotonic() < until:
            kind = plan.pop(0) if plan else self._next_kind(trace)
            longest = max((rep["elapsed"] for rep in self.reps if rep["kind"] == kind),
                          default=0.0)
            if time.monotonic() + 1.5 * longest > self.deadline:
                break
            self._rep(kind)
        if trace:
            self._check_counts()

    def _next_kind(self, trace: bool) -> str:
        """Past the plan, traced runs alternate untraced and traced repetitions."""
        if trace and self._count("plain") > self._count("traced"):
            return "traced"
        return "plain"

    def _count(self, kind: str) -> int:
        return sum(1 for rep in self.reps if rep["kind"] == kind)

    def _check_counts(self) -> None:
        """Exact counts and simulated values must repeat between traced repetitions."""
        reference = None
        for rep in self.reps:
            if rep["kind"] != "traced" or "row" not in rep:
                continue
            trace = rep["row"]["trace"]
            counts: Dict[str, Any] = {**call_counts(trace), "cpu_mean_jobs": trace["systems"]}
            if "warm" in rep:
                counts.update({f"warm/{k}": v for k, v in call_counts(rep["warm"]["trace"]).items()})
            if reference is None:
                reference = counts
            elif counts != reference:
                changed = sorted(k for k in set(counts) | set(reference)
                                 if counts.get(k) != reference.get(k))
                rep["problems"].append(f"exact counts differ between traced repetitions: "
                                       f"{', '.join(changed[:5])}")

    def ok(self, kind: str) -> List[Dict[str, Any]]:
        return [rep for rep in self.reps if rep["kind"] == kind and not rep["problems"]]

    @property
    def failed(self) -> int:
        return sum(1 for rep in self.reps if rep["problems"])


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
def summary_stats(values: List[float]) -> Dict[str, float]:
    """Median, spread (interquartile range over median) and sample count."""
    median = statistics.median(values)
    spread = 0.0
    if len(values) >= 2 and median:
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
    return {"median": median, "spread": spread, "n": len(values)}


def end_to_end(runner: Runner) -> Dict[str, List[float]]:
    samples: Dict[str, List[float]] = defaultdict(list)
    for rep in runner.ok("plain"):
        row = rep["row"]
        samples["setup_s"].append(rep["setup_s"])
        samples["wall_s"].append(row["wall_s"])
        samples["completions_per_s"].append(row["completions"] / row["wall_s"])
        samples["peak_rss_mib"].append((row["rss_kib"] + row.get("worker_rss_kib", 0)) / 1024)
        if "warm_wall_s" in rep:
            samples["warm_wall_s"].append(rep["warm_wall_s"])
        if "paper_err_pct" in row:
            samples["paper_err_pct"].append(row["paper_err_pct"])
    return samples


def call_counts(trace: Dict[str, Any]) -> Dict[str, int]:
    counts: Dict[str, int] = defaultdict(int)
    for row in trace["rows"]:
        counts[row["name"]] += row["calls"]
    return dict(counts)


def layer_metrics(row: Dict[str, Any], warm: Optional[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition (see manifest.json)."""
    trace = row["trace"]
    rows = trace["rows"]
    self_s: Dict[str, float] = defaultdict(float)
    for r in rows:
        self_s[r["name"].split(":")[0]] += r["self_s"]
    counts = call_counts(trace)

    def calls(suffix: str) -> int:
        return sum(c for name, c in counts.items() if name.endswith(suffix))

    def layer_calls(layer: str) -> int:
        return sum(c for name, c in counts.items() if name.split(":")[0] == layer)

    def total(rows_: List[Dict[str, Any]], prefix: str) -> float:
        return sum(r["total_s"] for r in rows_ if r["name"].startswith(prefix))

    top_selects = [r for r in rows if r["name"].startswith("policy:")
                   and not r["parent"].startswith("policy:")]
    selects = sum(r["calls"] for r in top_selects)
    select_total = sum(r["total_s"] for r in top_selects)
    done = calls("MetricsCollector.record")
    if done <= 0 or selects <= 0:
        raise RepFailed("traced run completed no queries")
    created = calls("WorkloadGenerator.new_query") + calls("WorkloadGenerator.new_open_query")
    scheduled = calls("EventQueue.push") + calls("EventQueue.rent")
    fired = calls("EventQueue.pop_due") - calls("Simulator.run")
    systems = trace["systems"]
    metrics = {
        "events.ops_per_completion": layer_calls("events") / done,
        "events.cancel_frac": calls("EventQueue.cancel") / scheduled,
        "events.self_s": self_s["events"],
        "engine.events_per_completion": fired / done,
        "engine.self_s": trace["root_s"] - sum(v for k, v in self_s.items() if k != "engine"),
        "process.resumes_per_completion": calls("Process._resume") / done,
        "process.self_s": self_s["process"],
        "resources.services_per_completion": calls("ServiceRequest.execute") / done,
        "resources.accept_s": self_s["resources"],
        "resources.cpu_mean_jobs": sum(systems) / len(systems),
        "monitor.updates_per_completion": layer_calls("monitor") / done,
        "monitor.self_s": self_s["monitor"],
        "rng.streams_per_completion": calls("RandomStreams.stream") / done,
        "rng.sample_s": self_s["rng"],
        "model.view_s": self_s["model.view"],
        "loadboard.self_s": self_s["loadboard"],
        "ring.sends_per_completion": layer_calls("ring") / done,
        "ring.send_s": self_s["ring"],
        "metrics.record_s": self_s["metrics"],
        "workload_gen.self_s": self_s["workload_gen"],
        "policy.selects_per_completion": selects / done,
        "policy.select_s": self_s["policy"],
        "policy.select_us": select_total / selects * 1e6,
        "queueing.amva_s": self_s["queueing"],
        "workloads.self_s": self_s["workloads"],
        "workloads.admit_frac": row.get("admit_frac", 1.0),
        "faults.self_s": self_s["faults"],
        "faults.retries_per_completion": (selects - created) / done,
        "faults.goodput_frac": done / selects,
        "telemetry.emits_per_completion": layer_calls("telemetry") / done,
        "telemetry.emit_s": self_s["telemetry"],
        "telemetry.read_s": self_s["telemetry.read"],
        "harness.self_s": sum(v for k, v in self_s.items() if k.startswith("harness.")),
        "harness.expand_s": total(trace["setup_rows"], "harness.expand:"),
        "harness.cache_put_s": total(rows, "harness.cache_put:"),
        "harness.report_s": total(rows, "harness.report:"),
        "harness.cache_get_s": total(warm["trace"]["rows"], "harness.cache_get:") if warm else 0.0,
        "traced_wall_s": trace["root_s"],
    }
    return metrics


def per_layer(runner: Runner) -> Dict[str, List[float]]:
    samples: Dict[str, List[float]] = defaultdict(list)
    for rep in runner.ok("traced"):
        try:
            values = layer_metrics(rep["row"], rep.get("warm"))
        except RepFailed as exc:
            rep["problems"].append(str(exc))
            continue
        for name, value in values.items():
            samples[name].append(value)
    plain = runner.ok("plain")
    for rep in plain:
        samples["setup.import_s"].append(rep["row"]["import_s"])
        samples["setup.build_s"].append(rep["row"]["build_s"])
        if runner.study:
            cells = rep["row"]["cell_s"]
            samples["harness.cell_s_median"].append(statistics.median(cells))
            samples["harness.cell_s_max"].append(max(cells))
            samples["harness.jobs2_efficiency"].append(sum(cells) / (2 * rep["row"]["wall_s"]))
            warm = rep["warm"]
            samples["harness.cache_hit_frac"].append(
                warm["cache_hits"] / (warm["cache_hits"] + warm["cache_misses"]))
    for name in ("harness.cell_s_median", "harness.cell_s_max", "harness.jobs2_efficiency",
                 "harness.cache_hit_frac"):
        samples.setdefault(name, [0.0])
    baseline = runner.ok("serial") if runner.study else plain
    if baseline and samples.get("traced_wall_s"):
        untraced = statistics.median(rep["row"]["wall_s"] for rep in baseline)
        traced = statistics.median(samples["traced_wall_s"])
        samples["bench.trace_overhead_pct"].append((traced / untraced - 1) * 100)
    return samples


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------
#: The metrics that are a layer's self time in the timed phase; with
#: engine.self_s (the remainder) they add up to the traced wall time.
SELF_TIME_METRICS = (
    "events.self_s", "engine.self_s", "process.self_s", "resources.accept_s", "monitor.self_s",
    "rng.sample_s", "model.view_s", "loadboard.self_s", "ring.send_s", "metrics.record_s",
    "workload_gen.self_s", "policy.select_s", "queueing.amva_s", "workloads.self_s",
    "faults.self_s", "telemetry.emit_s", "telemetry.read_s", "harness.self_s",
)


def print_end_to_end(name: str, stats: Dict[str, Dict[str, float]], spec: List[Dict[str, Any]],
                     runner: Runner) -> None:
    print(f"\n== {name} (seed {runner.seed}): end-to-end, untraced ==")
    print(f"{'metric':<20} {'unit':<6} {'median':>12} {'spread':>8} {'n':>3}")
    for metric in spec:
        if metric["name"] in stats:
            s = stats[metric["name"]]
            print(f"{metric['name']:<20} {metric['unit']:<6} {s['median']:>12.6g} "
                  f"{s['spread']:>8.2%} {s['n']:>3}")


def print_per_layer(name: str, stats: Dict[str, Dict[str, float]], spec: List[Dict[str, Any]],
                    runner: Runner) -> None:
    print(f"\n== {name} (seed {runner.seed}): per layer, traced ==")
    print(f"{'metric':<34} {'unit':<6} {'median':>12} {'n':>3}  moves / where")
    for metric in spec:
        if metric["name"] in stats:
            s = stats[metric["name"]]
            print(f"{metric['name']:<34} {metric['unit']:<6} {s['median']:>12.6g} {s['n']:>3}  "
                  f"{metric['moves']} / {metric['where']}")
    if "traced_wall_s" in stats:
        covered = sum(stats[name]["median"] for name in SELF_TIME_METRICS if name in stats)
        print(f"layer self times add up to {covered:.4f} s; traced wall "
              f"{stats['traced_wall_s']['median']:.4f} s")
        print(f"per-query spans of the last traced repetition: {runner.spans_path}")
    failed = stats["failed_frac"]
    print(f"failed_frac {failed['median']:.6g} of {failed['n']} repetitions")


def main(argv: List[str]) -> int:
    manifest = json.loads((HERE / "manifest.json").read_text(encoding="utf-8"))
    args = parse_args(argv, manifest)
    problem = check_checkout()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    SPANS_DIR.mkdir(parents=True, exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    report: Dict[str, Any] = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    attempted = failed = 0
    metrics: Dict[str, Dict[str, Any]] = {}
    try:
        for name in args.workloads:
            info = manifest["workloads"][name]
            seed = info["default_seed"] if args.seed is None else args.seed
            pinned = info["digest"] if seed == info["default_seed"] else None
            deadline = time.monotonic() + HARD_LIMIT_S
            runner = Runner(name, seed, pinned, work / name, deadline)
            runner.run(args.seconds, bool(args.trace))
            if args.trace:
                samples, spec, wanted = per_layer(runner), manifest["per_layer"], bench["per_layer"]
            else:
                samples, spec, wanted = end_to_end(runner), manifest["end_to_end"], bench["end_to_end"]
            stats = {k: summary_stats(v) for k, v in samples.items() if v}
            attempted += len(runner.reps)
            failed += runner.failed
            stats["failed_frac"] = {"median": runner.failed / len(runner.reps),
                                    "spread": 0.0, "n": len(runner.reps)}
            (print_per_layer if args.trace else print_end_to_end)(name, stats, spec, runner)
            for rep in runner.reps:
                for text in rep["problems"]:
                    print(f"FAILED {name}: {text}")
            units = {m["name"]: m["unit"] for m in manifest["end_to_end"] + manifest["per_layer"]}
            prefix = "" if len(args.workloads) == 1 else f"{name}/"
            for metric in wanted:
                if metric["name"] in stats:
                    metrics[prefix + metric["name"]] = {
                        "value": stats[metric["name"]]["median"], "unit": metric["unit"]}
            report["workloads"][name] = {
                "seed": seed,
                "digests": sorted(set(runner.digests)),
                "metrics": {k: {**v, "unit": units.get(k, "s")} for k, v in stats.items()},
                "repetitions": [{k: v for k, v in rep.items() if k not in ("row", "warm")}
                                for rep in runner.reps],
                "layer_rows": [rep["row"]["trace"]["rows"] for rep in runner.ok("traced")][:1],
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = failed == 0
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
