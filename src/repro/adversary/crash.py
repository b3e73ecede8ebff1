"""Crash and omission failures.

Crash faults are the mildest Byzantine behaviour: a processor follows the
protocol until some round, possibly sends to only a subset of the
destinations in that round (the classic "crash in the middle of a broadcast"),
and is silent forever after.  They are useful both as an easy correctness
check and because staggered crashes are the classic worst case for
round-count lower bounds.
"""

from __future__ import annotations

from typing import Dict, Mapping

from ..core.sequences import ProcessorId
from .base import ShadowAdversary


class CrashAdversary(ShadowAdversary):
    """Faulty processors crash at configurable rounds.

    Parameters
    ----------
    crash_round:
        Either a single round number applied to every faulty processor or a
        mapping from processor id to its crash round.  A processor behaves
        correctly strictly before its crash round, delivers to only its first
        ``partial_deliveries`` destinations (in id order) during the crash
        round, and sends nothing afterwards.
    partial_deliveries:
        How many destinations still receive the crash-round message.
        0 models a clean stop before sending; a positive value models the
        mid-broadcast crash that makes crash faults non-trivial.
    """

    name = "crash"

    def __init__(self, crash_round=2, partial_deliveries: int = 0) -> None:
        super().__init__()
        self._crash_round_config = crash_round
        self.partial_deliveries = partial_deliveries
        self._crash_rounds: Dict[ProcessorId, int] = {}

    def bind(self, context) -> None:
        super().bind(context)
        if isinstance(self._crash_round_config, Mapping):
            rounds = dict(self._crash_round_config)
        else:
            rounds = {pid: int(self._crash_round_config) for pid in context.faulty}
        self._crash_rounds = {
            pid: max(1, rounds.get(pid, 1)) for pid in context.faulty
        }
        self.name = f"crash(round={sorted(set(self._crash_rounds.values()))})"

    def crash_round_of(self, pid: ProcessorId) -> int:
        return self._crash_rounds[pid]

    def suppress(self, round_number: int, sender: ProcessorId,
                 dest: ProcessorId) -> bool:
        crash_round = self._crash_rounds[sender]
        if round_number < crash_round:
            return False
        if round_number > crash_round:
            return True
        correct_destinations = sorted(
            p for p in self._require_context().correct if p != sender)
        allowed = set(correct_destinations[:self.partial_deliveries])
        return dest not in allowed


class StaggeredCrashAdversary(CrashAdversary):
    """One crash per round, the classic worst case for early stopping.

    The ``i``-th faulty processor (in id order) crashes in round ``i + 1``
    while mid-broadcast, so the adversary reveals exactly one new fault per
    round for as long as it can.
    """

    name = "staggered-crash"

    def __init__(self, partial_deliveries: int = 1, first_round: int = 1) -> None:
        super().__init__(crash_round=first_round,
                         partial_deliveries=partial_deliveries)
        self.first_round = first_round

    def bind(self, context) -> None:
        schedule = {
            pid: self.first_round + index
            for index, pid in enumerate(sorted(context.faulty))
        }
        self._crash_round_config = schedule
        super().bind(context)
        self.name = "staggered-crash"


class SilentAdversary(ShadowAdversary):
    """Faulty processors that never send anything at all.

    Receivers substitute the default value for every missing message, so this
    adversary exercises the "inappropriate message" path of every protocol.
    """

    name = "silent"

    def suppress(self, round_number: int, sender: ProcessorId,
                 dest: ProcessorId) -> bool:
        return True
