"""Import rule: a module imports only what it reads.

An import nothing reads is dead weight that outlives the code it served —
deleting a function leaves its imports behind, and the next reader takes
them for a dependency.  Package ``__init__`` modules are exempt (their
imports *are* the package's surface), as are names listed in ``__all__``
and ``from __future__`` imports.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from ..findings import Finding
from ..symbols import ModuleInfo, Project
from .base import Rule


def _module_imports(tree: ast.Module) -> Iterator[Tuple[ast.alias, str]]:
    """``(alias, bound name)`` of every import at module level.

    Imports nested in module-level ``if``/``try`` blocks (``TYPE_CHECKING``
    guards, optional dependencies) count; imports inside functions and
    classes do not.
    """
    pending: List[ast.stmt] = list(tree.body)
    while pending:
        stmt = pending.pop(0)
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                if alias.name != "*":
                    yield alias, alias.asname or alias.name.partition(".")[0]
        elif isinstance(stmt, (ast.If, ast.Try)):
            pending.extend(ast.iter_child_nodes(stmt))
        elif isinstance(stmt, ast.ExceptHandler):
            pending.extend(stmt.body)


def _string_annotation_names(node: ast.AST) -> Iterator[str]:
    """Names read by quoted annotations inside an annotation subtree."""
    for inner in ast.walk(node):
        if isinstance(inner, ast.Constant) and isinstance(inner.value, str):
            try:
                parsed = ast.parse(inner.value, mode="eval")
            except SyntaxError:
                continue
            for name in ast.walk(parsed):
                if isinstance(name, ast.Name):
                    yield name.id


def _read_names(tree: ast.Module) -> Set[str]:
    """Every name the module reads, ``__all__`` and string annotations too."""
    read: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        annotations: List[ast.AST] = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        for annotation in annotations:
            if annotation is not None:
                read.update(_string_annotation_names(annotation))
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            read.update(element.value for element in ast.walk(node.value)
                        if isinstance(element, ast.Constant)
                        and isinstance(element.value, str))
    return read


class UnusedImportRule(Rule):
    id = "imports/unused"
    severity = "error"
    doc = ("a module-level import nothing in the module reads (outside "
           "package __init__ modules and __all__) is dead: delete it")

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.iter_modules():
            if module.path.name == "__init__.py":
                continue
            yield from self._check_module(module)

    def _check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        read = _read_names(module.tree)
        for alias, bound in _module_imports(module.tree):
            if bound not in read:
                yield self.finding(
                    module, alias, f"{bound!r} is imported but never read",
                    "delete the import, or waive it with what needs it")
