"""Durability rule: durable writes go through the one durable-log module.

Crash safety — atomic creation, torn-tail repair, the fsync policy — is
decided once, in :mod:`repro.api.durable`.  A rename or an fsync anywhere
else is a log rolling its own copy of that discipline, which is how the
sweep checkpoint, the serve journal and the mc checkpoint once drifted
apart.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..symbols import Project
from .base import Rule

#: The calls that make a write durable: atomic renames and syncs.
_DURABLE_CALLS = frozenset({"os.replace", "os.rename", "os.fsync"})

#: The one module allowed to make them, relative to the package root.
DURABLE_MODULE = "api/durable.py"


class HandRolledDurabilityRule(Rule):
    id = "durability/hand-rolled"
    severity = "error"
    doc = ("os.replace / os.rename / os.fsync only inside api/durable.py: "
           "durable writes go through the one durable-log module")

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.iter_modules():
            if module.relpath == DURABLE_MODULE:
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                dotted = module.resolve(node.func)
                if dotted in _DURABLE_CALLS:
                    yield self.finding(
                        module, node,
                        f"{dotted} outside {DURABLE_MODULE}",
                        "write through repro.api.durable (DurableLog, "
                        "replace_file)")
