"""Meta-tests: the real source tree is lint-clean, and the tooling gates work.

``test_src_repro_is_clean`` is the point of the whole exercise — it turns
every determinism invariant into a test-suite guarantee, so a PR that
reintroduces (say) ``sum()`` aggregation or a wall-clock read fails CI
twice: once here and once in the dedicated lint job.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

from repro.lint.base import iter_rules, rule_codes
from repro.lint.engine import lint_paths

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC_REPRO = REPO_ROOT / "src" / "repro"


def _env_with_src() -> dict:
    """Subprocess env whose PYTHONPATH can import repro from src/."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return env


def test_src_repro_is_clean():
    result = lint_paths([SRC_REPRO])
    assert result.errors == []
    assert result.violations == [], "\n" + "\n".join(
        violation.render() for violation in result.violations
    )
    assert result.files_checked > 70  # the whole package was really scanned
    assert result.exit_code == 0


def test_all_advertised_rules_are_registered():
    codes = rule_codes()
    # RL006 (serialization coverage) is retired; tests/model/test_codec_coverage.py
    # checks the same property on the codec.
    expected = [f"RL{n:03d}" for n in range(1, 20) if n != 6]
    assert codes == expected
    for rule in iter_rules():
        assert rule.summary, f"{rule.code} has no summary"
        assert rule.scope, f"{rule.code} has no scope"


def test_flow_rules_are_gated_behind_flow_flag():
    flow_codes = {rule.code for rule in iter_rules() if rule.flow}
    assert flow_codes == {f"RL{n:03d}" for n in range(13, 19)}


def test_src_repro_is_flow_clean_modulo_baseline(monkeypatch):
    """The whole-program rules hold on the real tree.

    Findings accepted in ``lint-baseline.json`` are subtracted (each must
    still match — a stale entry fails); anything new fails outright.
    """
    from repro.lint.baseline import Baseline, apply_baseline

    # Fingerprints are repo-relative; anchor the cwd accordingly.
    monkeypatch.chdir(REPO_ROOT)
    result = lint_paths([SRC_REPRO], flow=True)
    assert result.errors == []
    baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
    outcome = apply_baseline(result, baseline, rule_codes())
    assert outcome.new_violations == [], "\n" + "\n".join(
        violation.render() for violation in outcome.new_violations
    )
    assert outcome.stale_entries == []
    assert outcome.matched == len(baseline.entries)


def test_python_dash_m_entry_point_clean_tree():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", str(SRC_REPRO)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=_env_with_src(),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 violations" in proc.stdout


def test_python_dash_m_entry_point_detects_violation(tmp_path):
    bad = tmp_path / "repro" / "sim" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\nt = time.time()\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", str(tmp_path)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=_env_with_src(),
    )
    assert proc.returncode == 1
    assert "RL002" in proc.stdout
    assert "bad.py:2:" in proc.stdout
