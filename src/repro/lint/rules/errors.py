"""Error-handling rules: fail-stop stays fail-stop, no silent broad catches.

The durability story (journals, checkpoints, the supervision ladder) is
built on **fail-stop** semantics: when a :class:`~repro.runtime.errors.
FabricError` family exception fires, it must either propagate or be turned
into a structured record — a handler that quietly swallows one converts a
loud crash into silent data loss.  Similarly, ``except Exception`` hides
exactly the programming errors the property tests exist to surface, so
every broad handler needs either a re-raise or a written justification.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from ..findings import Finding
from ..symbols import ModuleInfo, Project
from .base import Rule, contains_raise

#: The fail-stop vocabulary of :mod:`repro.runtime.errors`.  Catching one
#: of these obliges the handler to re-raise or to carry the exception into
#: a structured record (trail entry, metric, response body).
FAILSTOP_ERRORS = frozenset({
    "FabricError", "WorkerDiedError", "WorkerTimeoutError",
    "CheckpointWriteError",
    "SupervisionExhaustedError",
})

_BROAD = frozenset({"Exception", "BaseException"})


def _handler_type_names(handler: ast.ExceptHandler,
                        module: ModuleInfo) -> List[str]:
    """The last-segment names of every exception type a handler catches."""
    node = handler.type
    if node is None:
        return []
    elements = node.elts if isinstance(node, ast.Tuple) else [node]
    names = []
    for element in elements:
        dotted = module.resolve(element)
        if dotted is not None:
            names.append(dotted.rpartition(".")[2])
        elif isinstance(element, ast.Name):
            names.append(element.id)
        elif isinstance(element, ast.Attribute):
            names.append(element.attr)
    return names


def _uses_bound_exception(handler: ast.ExceptHandler) -> bool:
    """Whether the handler body reads the exception it bound with ``as``."""
    if handler.name is None:
        return False
    for stmt in handler.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id == handler.name \
                    and isinstance(node.ctx, ast.Load):
                return True
    return False


class SwallowedFailstopRule(Rule):
    id = "errors/swallowed-failstop"
    severity = "error"
    doc = ("a caught FabricError/CheckpointWriteError must re-raise or "
           "flow into a structured record; fail-stop paths stay fail-stop")

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.iter_modules():
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ExceptHandler):
                    continue
                caught = [name for name in _handler_type_names(node, module)
                          if name in FAILSTOP_ERRORS]
                if not caught:
                    continue
                if contains_raise(node.body):
                    continue
                if _uses_bound_exception(node):
                    # The exception's content flows somewhere (a trail
                    # entry, a metric, an HTTP error body) — recorded.
                    continue
                yield self.finding(
                    module, node,
                    f"fail-stop error {', '.join(sorted(caught))} caught "
                    f"and discarded",
                    "re-raise, or bind it (`as exc`) and record it in a "
                    "trail/metric/response")


class BroadExceptRule(Rule):
    id = "errors/broad-except"
    severity = "warning"
    doc = ("bare except / except Exception without a re-raise needs a "
           "waiver explaining what failure class it intentionally absorbs")

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.iter_modules():
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ExceptHandler):
                    continue
                names = _handler_type_names(node, module)
                broad = node.type is None or any(name in _BROAD
                                                 for name in names)
                if not broad:
                    continue
                if contains_raise(node.body):
                    continue  # cleanup-and-re-raise is the sanctioned shape
                label = "bare except" if node.type is None \
                    else f"except {' / '.join(names)}"
                yield self.finding(
                    module, node,
                    f"{label} without a re-raise",
                    "narrow the exception types, re-raise, or waive with "
                    "the failure class this absorbs and why")
