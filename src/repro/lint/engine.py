"""The lint engine: parse, run rules, apply waivers and baseline, score.

One :func:`run_lint` call is the whole pipeline:

1. :class:`~repro.lint.symbols.Project` parses every module under the
   root (sorted walk — the linter obeys its own determinism rules);
2. every selected rule runs over the project;
3. inline waivers suppress matching findings, and malformed or unused
   waivers become findings themselves (``lint/bad-waiver``,
   ``lint/unused-waiver``), so suppressions cannot silently rot;
4. the committed baseline grandfathers known findings;
5. everything is sorted into one deterministic report with an exit code:
   0 clean, 1 findings, 2 internal error (the CLI maps exceptions).

Parse failures are findings (``lint/parse-error``), not crashes: a tree
with one broken file still gets the other files audited.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..runtime.errors import ConfigurationError
from .baseline import apply_baseline, load_baseline
from .findings import Finding
from .rules import rule_registry
from .symbols import Project
from .waivers import (
    Waiver,
    apply_waivers,
    collect_waivers,
    unused_waiver_findings,
)

PARSE_ERROR = "lint/parse-error"

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_INTERNAL = 2


@dataclass
class LintResult:
    """Everything one lint run produced, ready for a reporter."""

    root: Path
    rules: Tuple[str, ...]
    findings: List[Finding] = field(default_factory=list)
    #: Baseline entries that matched nothing — fixed findings to prune.
    stale_baseline: List[Tuple[str, str, str]] = field(default_factory=list)
    modules_checked: int = 0

    @property
    def active(self) -> List[Finding]:
        """Findings that gate the exit code (not waived, not baselined)."""
        return [finding for finding in self.findings
                if not finding.suppressed]

    @property
    def counts(self) -> Dict[str, int]:
        """``{severity: active count}`` plus waived/baselined totals."""
        counts = {"error": 0, "warning": 0, "waived": 0, "baselined": 0}
        for finding in self.findings:
            if finding.waived:
                counts["waived"] += 1
            elif finding.baselined:
                counts["baselined"] += 1
            else:
                counts[finding.severity] += 1
        return counts

    @property
    def exit_code(self) -> int:
        return EXIT_FINDINGS if self.active else EXIT_CLEAN


def _select_rules(names: Optional[Sequence[str]]):
    registry = rule_registry()
    if names is None:
        return [registry[name] for name in sorted(registry)]
    selected = []
    for name in names:
        if name not in registry:
            raise ConfigurationError(
                f"unknown lint rule {name!r}; known rules: "
                f"{', '.join(sorted(registry))}")
        selected.append(registry[name])
    return selected


def run_lint(root: Path, package: Optional[str] = None,
             rules: Optional[Sequence[str]] = None,
             baseline_path: Optional[Path] = None) -> LintResult:
    """Lint every module under *root*; see the module docstring."""
    if not root.exists():
        raise ConfigurationError(f"lint root {root} does not exist")
    selected = _select_rules(rules)
    project = Project.load(root, package=package)

    findings: List[Finding] = []
    for path, error in project.failures:
        findings.append(Finding(
            rule=PARSE_ERROR, severity="error",
            path=path.relative_to(project.root).as_posix(),
            line=error.lineno or 1, col=(error.offset or 1) - 1,
            message=f"file does not parse: {error.msg}",
            suggestion="fix the syntax error; this file was not audited"))

    for rule in selected:
        findings.extend(rule.check(project))

    # Waivers: collect per module, index by (path, line), apply, then
    # report the malformed and the unused ones.
    module_waivers: List[Tuple[object, List[Waiver]]] = []
    by_path_line: Dict[Tuple[str, int], List[Waiver]] = {}
    for module in project.iter_modules():
        waivers, problems = collect_waivers(module)
        findings.extend(problems)
        module_waivers.append((module, waivers))
        for waiver in waivers:
            by_path_line.setdefault(
                (module.relpath, waiver.target_line), []).append(waiver)
    flat = [waiver for _, waivers in module_waivers for waiver in waivers]
    findings = apply_waivers(findings, flat, by_path_line)
    active_rules = tuple(rule.id for rule in selected)
    for module, waivers in module_waivers:
        findings.extend(
            unused_waiver_findings(module, waivers, active_rules))

    stale: List[Tuple[str, str, str]] = []
    if baseline_path is not None and baseline_path.exists():
        baseline = load_baseline(baseline_path)
        findings, unmatched = apply_baseline(findings, baseline)
        stale = sorted(key for key, count in unmatched.items()
                       for _ in range(count))

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule, f.message))
    return LintResult(
        root=project.root,
        rules=tuple(rule.id for rule in selected),
        findings=findings,
        stale_baseline=stale,
        modules_checked=len(project.modules))
