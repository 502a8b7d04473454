"""Rendering of lint results: human text, machine JSON, and SARIF.

The JSON document is schema-versioned (``"version": 1``) and its key
order is stable (``sort_keys``), so CI jobs and tools can parse and diff
it::

    {
      "version": 1,
      "files_checked": 74,
      "violation_count": 2,
      "errors": [],
      "violations": [
        {"code": "RL004", "column": 15, "line": 81,
         "message": "...", "path": "src/repro/experiments/sweep.py"}
      ]
    }
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, List

from repro.lint.base import iter_rules
from repro.lint.engine import LintResult

#: Schema version of the JSON report.
JSON_VERSION = 1

#: SARIF spec version emitted by :func:`render_sarif`.
SARIF_VERSION = "2.1.0"

_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def render_text(result: LintResult) -> str:
    """One ``path:line:col: CODE message`` line per violation + summary."""
    lines = [error for error in result.errors]
    lines.extend(violation.render() for violation in result.violations)
    count = len(result.violations)
    noun = "violation" if count == 1 else "violations"
    summary = f"{count} {noun} in {result.files_checked} files checked"
    if result.errors:
        summary += f" ({len(result.errors)} files could not be analyzed)"
    lines.append(summary)
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """The schema-versioned JSON report (see module docstring)."""
    document = {
        "version": JSON_VERSION,
        "files_checked": result.files_checked,
        "violation_count": len(result.violations),
        "errors": list(result.errors),
        "violations": [violation.to_dict() for violation in result.violations],
    }
    return json.dumps(document, indent=2, sort_keys=True)


def _sarif_uri(path: str) -> str:
    """A ``/``-separated, preferably relative artifact URI for *path*."""
    candidate = pathlib.Path(path)
    if candidate.is_absolute():
        try:
            candidate = candidate.relative_to(pathlib.Path.cwd())
        except ValueError:
            pass
    return candidate.as_posix()


def render_sarif(result: LintResult) -> str:
    """A SARIF 2.1.0 log of the run, for code-scanning UIs.

    Every registered rule is listed in the driver (so suppressed-to-zero
    runs still document the rule set); findings become ``results`` with
    1-based line/column regions; per-file analysis errors become
    tool-execution notifications on the invocation.
    """
    rules: List[Dict[str, Any]] = [
        {
            "id": rule.code,
            "name": rule.name,
            "shortDescription": {"text": rule.summary},
            "defaultConfiguration": {"level": "error"},
        }
        for rule in iter_rules()
    ]
    results: List[Dict[str, Any]] = [
        {
            "ruleId": violation.code,
            "level": "error",
            "message": {"text": violation.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": _sarif_uri(violation.path)},
                        "region": {
                            "startLine": violation.line,
                            "startColumn": violation.column + 1,
                        },
                    }
                }
            ],
        }
        for violation in result.violations
    ]
    notifications: List[Dict[str, Any]] = [
        {"level": "error", "message": {"text": error}}
        for error in result.errors
    ]
    document: Dict[str, Any] = {
        "$schema": _SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "reprolint",
                        "informationUri": "docs/linting.md",
                        "rules": rules,
                    }
                },
                "results": results,
                "invocations": [
                    {
                        "executionSuccessful": not result.errors,
                        "toolExecutionNotifications": notifications,
                    }
                ],
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)


def render_rule_list() -> str:
    """The ``--list-rules`` table: code, name, scope, and summary."""
    lines = []
    for rule in iter_rules():
        scope = ", ".join(rule.scope)
        lines.append(f"{rule.code}  {rule.name}")
        lines.append(f"       scope: {scope}")
        lines.append(f"       {rule.summary}")
    return "\n".join(lines)


__all__ = [
    "JSON_VERSION",
    "SARIF_VERSION",
    "render_text",
    "render_json",
    "render_sarif",
    "render_rule_list",
]
