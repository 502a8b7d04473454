"""End-to-end tests for the ``python -m repro`` single-run CLI."""

import json
import os
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def _env_with_src() -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return env


def invoke(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=_env_with_src(),
    )


class TestMainCli:
    def test_plain_run_prints_results(self):
        proc = invoke(
            "--policy", "BNQRD", "--seed", "3", "--warmup", "100",
            "--duration", "400",
        )
        assert proc.returncode == 0, proc.stderr
        assert "BNQRD" in proc.stdout

    def test_trace_flags_write_valid_artifacts(self, tmp_path):
        trace = tmp_path / "trace.json"
        decisions = tmp_path / "decisions.jsonl"
        proc = invoke(
            "--policy", "BNQRD", "--seed", "3", "--warmup", "100",
            "--duration", "400",
            "--trace-spans", str(trace),
            "--decision-audit", str(decisions),
        )
        assert proc.returncode == 0, proc.stderr
        document = json.loads(trace.read_text(encoding="utf-8"))
        assert document["traceEvents"]
        lines = decisions.read_text(encoding="utf-8").strip().splitlines()
        assert lines
        record = json.loads(lines[0])
        assert "regret" in record

    def test_trace_flags_are_deterministic(self, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            trace = tmp_path / f"trace_{tag}.json"
            decisions = tmp_path / f"dec_{tag}.jsonl"
            proc = invoke(
                "--seed", "3", "--warmup", "50", "--duration", "300",
                "--trace-spans", str(trace),
                "--decision-audit", str(decisions),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(
                (trace.read_bytes(), decisions.read_bytes())
            )
        assert outputs[0] == outputs[1]

    def test_timeline_requires_sample_interval(self, tmp_path):
        proc = invoke(
            "--warmup", "10", "--duration", "50",
            "--timeline", str(tmp_path / "t.csv"),
        )
        assert proc.returncode != 0
        assert "sample-interval" in proc.stderr
