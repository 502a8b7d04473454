"""reprolint — determinism & simulation-invariant static analysis.

The repository's results are only credible if every simulation run is
exactly reproducible: the parallel runner and the content-addressed result
cache (PR 1) both *assume* bit-identical re-execution.  That assumption
rests on project-specific coding invariants that no off-the-shelf linter
knows about — named RNG streams instead of global random state, simulated
time instead of wall-clock time, order-independent aggregation.

``reprolint`` enforces those invariants *by construction*, with a custom
AST-based static-analysis pass:

* a pluggable rule framework (:mod:`repro.lint.base`) with a registry,
  per-rule codes (``RL001``...), and module/project scopes;
* the determinism rules themselves (:mod:`repro.lint.rules`);
* an engine (:mod:`repro.lint.engine`) handling file discovery, parsing,
  and ``# reprolint: disable=RL0xx`` suppression pragmas;
* human-readable and JSON reporting (:mod:`repro.lint.report`);
* a CLI (:mod:`repro.lint.cli`), installed as ``repro-lint`` and runnable
  as ``python -m repro.lint``.

Typical use::

    $ repro-lint src/repro
    $ repro-lint --list-rules
    $ repro-lint --format json src/repro | jq .violation_count

Exit codes: 0 = clean, 1 = violations found, 2 = usage or parse error.
See ``docs/linting.md`` for every rule's rationale.
"""

from __future__ import annotations

from repro.lint.base import (
    ModuleContext,
    ProjectContext,
    Rule,
    Violation,
    iter_rules,
    rule_codes,
)
from repro.lint.cli import main
from repro.lint.engine import LintResult, lint_paths

__all__ = [
    "Violation",
    "Rule",
    "ModuleContext",
    "ProjectContext",
    "iter_rules",
    "rule_codes",
    "LintResult",
    "lint_paths",
    "main",
]
