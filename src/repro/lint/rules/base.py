"""The rule protocol and small shared AST helpers."""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..findings import Finding
from ..symbols import ModuleInfo, Project


class Rule:
    """One analyzer: a stable id, a severity, and a project-wide check.

    Rules see the whole :class:`~repro.lint.symbols.Project` so the
    contract rules can correlate modules; per-module rules just iterate
    ``project.iter_modules()``.  Findings must come out in a deterministic
    order — the engine sorts, but rule output order feeds tie-breaking.
    """

    id: str = ""
    severity: str = "error"
    doc: str = ""

    def check(self, project: Project) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleInfo, node: ast.AST, message: str,
                suggestion: str = "") -> Finding:
        return Finding(rule=self.id, severity=self.severity,
                       path=module.relpath,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0),
                       message=message, suggestion=suggestion)


def enclosing_map(tree: ast.AST) -> dict:
    """child node -> parent node, for the handful of rules that look up."""
    parents = {}
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent
    return parents


def literal_or_none(node: Optional[ast.expr]):
    """``ast.literal_eval`` that answers ``(ok, value)`` instead of raising."""
    if node is None:
        return False, None
    try:
        return True, ast.literal_eval(node)
    except (ValueError, SyntaxError):
        return False, None


def contains_raise(nodes) -> bool:
    """Whether any statement subtree contains a ``raise``."""
    for stmt in nodes:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Raise):
                return True
    return False
