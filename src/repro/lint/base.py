"""Rule framework: violations, module/project contexts, and the registry.

A rule is a small class with a unique code (``RL001``...), a *scope* (the
dotted-module prefixes it applies to), and one or both of two hooks:

* :meth:`Rule.check_module` — called once per in-scope module with a
  parsed :class:`ModuleContext`; yields :class:`Violation` objects.
* :meth:`Rule.check_project` — called once per lint run with the
  :class:`ProjectContext` holding *every* parsed module, for cross-module
  invariants (e.g. the RL013–RL018 flow rules).

Rules self-register via the :func:`register` decorator; the engine asks
:func:`iter_rules` for one instance of each, sorted by code.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Type, TypeVar

from repro.lint.astutils import collect_imports, resolve_imported, resolve_name


@dataclass(frozen=True)
class Violation:
    """One rule finding at a specific source location."""

    code: str
    message: str
    path: str
    line: int
    column: int

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (schema version 1)."""
        return {
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "column": self.column,
        }

    def render(self) -> str:
        """``path:line:col: CODE message`` — the human output line."""
        return f"{self.path}:{self.line}:{self.column}: {self.code} {self.message}"

    @property
    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.column, self.code)


@dataclass
class ModuleContext:
    """One parsed source file, plus derived lookup tables."""

    path: pathlib.Path
    module: str
    source: str
    tree: ast.Module
    imports: Mapping[str, str] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: pathlib.Path, module: str, source: str) -> "ModuleContext":
        """Parse *source* and build the import-resolution table.

        Raises:
            SyntaxError: When the file does not parse.
        """
        tree = ast.parse(source, filename=str(path))
        return cls(
            path=path,
            module=module,
            source=source,
            tree=tree,
            imports=collect_imports(tree, module),
        )

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name of *node* (import-alias aware).

        Local names resolve to themselves, so builtins like ``sum`` and
        ``print`` are matchable.
        """
        return resolve_name(node, self.imports)

    def resolve_imported(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name of *node*, only if rooted in an import.

        ``None`` for chains headed by a local name — use this when
        matching module-level functions so that a parameter named (say)
        ``random`` never matches ``random.*``.
        """
        return resolve_imported(node, self.imports)


@dataclass(eq=False)
class ProjectContext:
    """Every module parsed in this lint run, keyed by dotted module name.

    Identity semantics (``eq=False``): two contexts are never "the same
    run", and the flow layer keys its per-run analysis cache on context
    identity (see :func:`repro.lint.flow.flow_program`).
    """

    modules: Dict[str, ModuleContext] = field(default_factory=dict)

    def get(self, module: str) -> Optional[ModuleContext]:
        return self.modules.get(module)


class Rule:
    """Base class for lint rules; subclass and :func:`register`."""

    #: Unique rule code, e.g. ``"RL001"``.
    code: str = "RL000"
    #: Short kebab-case rule name for listings.
    name: str = "unnamed-rule"
    #: One-line human summary of what the rule enforces and why.
    summary: str = ""
    #: Dotted-module prefixes :meth:`check_module` applies to.
    scope: Tuple[str, ...] = ("repro",)
    #: Whole-program rules (RL013+) are more expensive — they build a
    #: project-wide symbol table and call graph — so the engine only runs
    #: them when ``--flow`` is passed or the code is named in ``--select``.
    flow: bool = False

    def applies_to(self, module: str) -> bool:
        """Whether *module* falls under this rule's scope prefixes."""
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self.scope
        )

    def check_module(self, ctx: ModuleContext) -> Iterator[Violation]:
        """Per-module hook; default: no findings."""
        return iter(())

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        """Whole-project hook for cross-module rules; default: no findings."""
        return iter(())

    def violation(
        self, ctx: ModuleContext, node: ast.AST, message: str
    ) -> Violation:
        """Build a :class:`Violation` located at *node* in *ctx*."""
        return Violation(
            code=self.code,
            message=message,
            path=str(ctx.path),
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
        )


_REGISTRY: Dict[str, Type[Rule]] = {}

RuleT = TypeVar("RuleT", bound=Type[Rule])


def register(cls: RuleT) -> RuleT:
    """Class decorator adding a rule to the global registry.

    Raises:
        ValueError: On duplicate rule codes — each code must be unique so
            suppression pragmas and ``--select``/``--ignore`` are
            unambiguous.
    """
    if cls.code in _REGISTRY:
        raise ValueError(
            f"duplicate rule code {cls.code}: "
            f"{_REGISTRY[cls.code].__name__} vs {cls.__name__}"
        )
    _REGISTRY[cls.code] = cls
    return cls


def iter_rules() -> List[Rule]:
    """One instance of every registered rule, sorted by code."""
    # Importing the rule modules populates the registry on first use.
    import repro.lint.flow.rules  # noqa: F401  (import for side effect)
    import repro.lint.rules  # noqa: F401  (import for side effect)

    return [_REGISTRY[code]() for code in sorted(_REGISTRY)]


def rule_codes() -> List[str]:
    """All registered rule codes, sorted."""
    import repro.lint.flow.rules  # noqa: F401  (import for side effect)
    import repro.lint.rules  # noqa: F401  (import for side effect)

    return sorted(_REGISTRY)


__all__ = [
    "Violation",
    "ModuleContext",
    "ProjectContext",
    "Rule",
    "register",
    "iter_rules",
    "rule_codes",
]
