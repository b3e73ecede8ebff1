"""The rule registry: every analyzer the engine can run, by stable id.

Mirrors the protocol/adversary registry idiom of :mod:`repro.api`: a
function returning a fresh ``{rule-id: Rule}`` dict, so callers can subset
(``repro lint --rules determinism/...``) without mutating shared state.
"""

from __future__ import annotations

from typing import Dict, List

from .base import Rule
from .contracts import RegistrySchemaSyncRule, RoundtripParityRule
from .determinism import (
    GlobalRngRule,
    SetIterationRule,
    UnsortedFsScanRule,
    WallClockRule,
)
from .durability import HandRolledDurabilityRule
from .errors import BroadExceptRule, SwallowedFailstopRule

_RULE_CLASSES = (
    GlobalRngRule,
    WallClockRule,
    UnsortedFsScanRule,
    SetIterationRule,
    RegistrySchemaSyncRule,
    RoundtripParityRule,
    SwallowedFailstopRule,
    BroadExceptRule,
    HandRolledDurabilityRule,
)


def rule_registry() -> Dict[str, Rule]:
    """A fresh ``{rule-id: rule-instance}`` of every registered analyzer."""
    registry: Dict[str, Rule] = {}
    for rule_class in _RULE_CLASSES:
        rule = rule_class()
        registry[rule.id] = rule
    return registry


def rule_names() -> List[str]:
    """All registered rule ids, sorted."""
    return sorted(rule_registry())
