"""The structured result vocabulary of the linter: :class:`Finding`.

Every analyzer emits findings in one shape — rule id, severity, location,
message, optional suggested fix — so the engine can apply waivers and the
baseline uniformly and the reporters can render text or JSON without
knowing which rule produced what.  Findings round-trip through
``to_dict``/``from_dict`` exactly (the same contract every other
serializable object in this package honours), which is what lets a CI job
diff two JSON lint reports or commit one as a baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Mapping, Tuple

from ..runtime.errors import ConfigurationError

#: Finding severities, most severe first.  Both gate the exit code — the
#: split is informational (an ``error`` names a broken invariant, a
#: ``warning`` a site that needs a human-written justification).
SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Finding:
    """One rule hit at one source location."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    suggestion: str = ""
    #: Set by the engine when an inline waiver suppressed this finding.
    waived: bool = False
    waive_reason: str = ""
    #: Set by the engine when the committed baseline grandfathered it.
    baselined: bool = False

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ConfigurationError(
                f"unknown finding severity {self.severity!r}; expected one "
                f"of {SEVERITIES}")

    @property
    def suppressed(self) -> bool:
        """Whether this finding counts against the exit code."""
        return self.waived or self.baselined

    def key(self) -> Tuple[str, str, str]:
        """The identity the baseline matches on: rule, file, message.

        The line number is deliberately excluded so that unrelated edits
        above a grandfathered site do not invalidate the baseline entry.
        """
        return (self.rule, self.path, self.message)

    def waive(self, reason: str) -> "Finding":
        return replace(self, waived=True, waive_reason=reason)

    def grandfather(self) -> "Finding":
        return replace(self, baselined=True)

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "suggestion": self.suggestion,
        }
        # Suppression state is serialized only when set, so a clean report
        # stays minimal and byte-stable.
        if self.waived:
            data["waived"] = True
            data["waive_reason"] = self.waive_reason
        if self.baselined:
            data["baselined"] = True
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Finding":
        return cls(
            rule=data["rule"],
            severity=data["severity"],
            path=data["path"],
            line=data["line"],
            col=data["col"],
            message=data["message"],
            suggestion=data.get("suggestion", ""),
            waived=data.get("waived", False),
            waive_reason=data.get("waive_reason", ""),
            baselined=data.get("baselined", False),
        )
