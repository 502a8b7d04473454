"""Report formats, JSON schema, SARIF, CLI behaviour, and exit codes."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.lint.cli import main
from repro.lint.engine import (
    Suppressions,
    lint_paths,
    module_name_for,
    parse_suppressions,
)
from repro.lint.base import rule_codes
from repro.lint.report import (
    JSON_VERSION,
    SARIF_VERSION,
    render_json,
    render_sarif,
    render_text,
)

from tests.lint.util import write_tree

DIRTY = {
    "repro/sim/stats.py": (
        "def avg(xs):\n"
        "    return sum(xs) / len(xs)\n"
    )
}

CLEAN = {"repro/sim/ok.py": "X = 1\n"}


def test_json_schema(tmp_path):
    write_tree(tmp_path, DIRTY)
    result = lint_paths([tmp_path])
    document = json.loads(render_json(result))
    assert set(document) == {
        "version",
        "files_checked",
        "violation_count",
        "errors",
        "violations",
    }
    assert document["version"] == JSON_VERSION
    assert document["files_checked"] == 1
    assert document["violation_count"] == 1
    assert document["errors"] == []
    (violation,) = document["violations"]
    assert set(violation) == {"code", "message", "path", "line", "column"}
    assert violation["code"] == "RL004"
    assert violation["line"] == 2
    assert violation["path"].endswith("repro/sim/stats.py")


def test_text_output_format(tmp_path):
    write_tree(tmp_path, DIRTY)
    result = lint_paths([tmp_path])
    text = render_text(result)
    lines = text.splitlines()
    assert lines[0].startswith(str(tmp_path))
    assert ":2:" in lines[0]
    assert "RL004" in lines[0]
    assert lines[-1] == "1 violation in 1 files checked"


def test_cli_exit_zero_on_clean_tree(tmp_path, capsys):
    write_tree(tmp_path, CLEAN)
    assert main([str(tmp_path)]) == 0
    assert "0 violations" in capsys.readouterr().out


def test_cli_exit_one_with_rule_code_and_location(tmp_path, capsys):
    write_tree(tmp_path, DIRTY)
    assert main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "RL004" in out
    assert "stats.py:2:" in out


def test_cli_json_flag(tmp_path, capsys):
    write_tree(tmp_path, DIRTY)
    assert main(["--format", "json", str(tmp_path)]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["violation_count"] == 1


def test_cli_missing_path_is_usage_error(tmp_path, capsys):
    assert main([str(tmp_path / "nope")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_cli_unknown_select_code_is_usage_error(tmp_path, capsys):
    write_tree(tmp_path, CLEAN)
    assert main(["--select", "RL999", str(tmp_path)]) == 2
    assert "unknown rule code" in capsys.readouterr().err


def test_cli_syntax_error_exit_two(tmp_path, capsys):
    write_tree(tmp_path, {"repro/sim/broken.py": "def f(:\n"})
    assert main([str(tmp_path)]) == 2
    assert "syntax error" in capsys.readouterr().out


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("RL001", "RL004", "RL007", "RL010"):
        assert code in out


def test_cli_ignore_flag(tmp_path, capsys):
    write_tree(tmp_path, DIRTY)
    assert main(["--ignore", "RL004", str(tmp_path)]) == 0
    capsys.readouterr()


def test_sarif_document(tmp_path):
    write_tree(tmp_path, DIRTY)
    result = lint_paths([tmp_path])
    document = json.loads(render_sarif(result))
    assert document["version"] == SARIF_VERSION
    assert document["$schema"].endswith("sarif-schema-2.1.0.json")
    (run,) = document["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "reprolint"
    # Every registered rule is documented, not just the ones that fired.
    assert [rule["id"] for rule in driver["rules"]] == rule_codes()
    (finding,) = run["results"]
    assert finding["ruleId"] == "RL004"
    region = finding["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 2
    assert region["startColumn"] >= 1  # SARIF columns are 1-based
    (invocation,) = run["invocations"]
    assert invocation["executionSuccessful"] is True
    assert invocation["toolExecutionNotifications"] == []


def test_sarif_errors_become_notifications(tmp_path):
    write_tree(tmp_path, {"repro/sim/broken.py": "def f(:\n"})
    result = lint_paths([tmp_path])
    (run,) = json.loads(render_sarif(result))["runs"]
    (invocation,) = run["invocations"]
    assert invocation["executionSuccessful"] is False
    (notification,) = invocation["toolExecutionNotifications"]
    assert "syntax error" in notification["message"]["text"]


def test_cli_sarif_flag(tmp_path, capsys):
    write_tree(tmp_path, DIRTY)
    assert main(["--format", "sarif", str(tmp_path)]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["version"] == SARIF_VERSION


MANY_FILES = {
    f"repro/sim/mod_{letter}.py": (
        "import time\n"
        f"def f_{letter}():\n"
        "    return time.time()\n"
    )
    for letter in "abcde"
}


def test_reports_are_stable_across_walk_order(tmp_path, monkeypatch):
    """Byte-identical output no matter what order the filesystem yields."""
    write_tree(tmp_path, MANY_FILES)
    forward = lint_paths([tmp_path])

    original_rglob = pathlib.Path.rglob

    def reversed_rglob(self, pattern):
        return reversed(list(original_rglob(self, pattern)))

    monkeypatch.setattr(pathlib.Path, "rglob", reversed_rglob)
    backward = lint_paths([tmp_path])
    assert render_text(backward) == render_text(forward)
    assert render_json(backward) == render_json(forward)
    assert render_sarif(backward) == render_sarif(forward)


def test_errors_are_sorted(tmp_path):
    write_tree(
        tmp_path,
        {
            "repro/sim/z_broken.py": "def f(:\n",
            "repro/sim/a_broken.py": "class :\n",
        },
    )
    result = lint_paths([tmp_path])
    assert len(result.errors) == 2
    assert result.errors == sorted(result.errors)
    assert "a_broken.py" in result.errors[0]


# ----------------------------------------------------------------------
# Tokenizer failures in pragma scanning surface as RL000, not silence
# ----------------------------------------------------------------------


def test_parse_suppressions_records_tokenizer_failure():
    pragmas = parse_suppressions("(\n", rule_codes())
    assert pragmas.failure is not None
    assert "TokenError" in pragmas.failure
    # A failed scan never silences anything.
    assert not pragmas.silences("RL004", 1)


def test_tokenizer_failure_is_an_rl000_finding(tmp_path, monkeypatch, capsys):
    # ast accepts more than tokenize only in exotic cases, so simulate
    # the split by forcing the pragma scan to fail on a parseable file.
    write_tree(tmp_path, CLEAN)

    def failing_scan(source, known_codes):
        return Suppressions(failure="TokenError: simulated")

    monkeypatch.setattr("repro.lint.engine.parse_suppressions", failing_scan)
    result = lint_paths([tmp_path])
    (violation,) = result.violations
    assert violation.code == "RL000"
    assert "could not be scanned" in violation.message
    assert "TokenError: simulated" in violation.message
    assert result.exit_code == 1


def test_cli_exits_nonzero_on_tokenizer_failure(tmp_path, monkeypatch, capsys):
    write_tree(tmp_path, CLEAN)
    monkeypatch.setattr(
        "repro.lint.engine.parse_suppressions",
        lambda source, known: Suppressions(failure="TokenError: simulated"),
    )
    assert main([str(tmp_path)]) == 1
    assert "RL000" in capsys.readouterr().out


@pytest.mark.parametrize(
    "path, expected",
    [
        ("src/repro/sim/engine.py", "repro.sim.engine"),
        ("src/repro/__init__.py", "repro"),
        ("src/repro/model/__init__.py", "repro.model"),
        ("elsewhere/repro/policies/lert.py", "repro.policies.lert"),
        ("scripts/standalone.py", "standalone"),
    ],
)
def test_module_name_for(path, expected):
    assert module_name_for(pathlib.Path(path)) == expected
