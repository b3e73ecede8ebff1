"""Detection-avoiding ("stealth") adversaries.

The shifting technique's progress argument is a dichotomy: every block either
produces a persistent value or globally detects a batch of new faults.  The
adversary that stresses this argument hardest is one that lies *only where a
lie cannot be pinned on it* — at tree nodes whose entire label sequence
consists of faulty processors — and keeps every other report honest, so the
Fault Discovery Rule has as little to work with as possible.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from ..core.sequences import ProcessorId, SequenceIndex
from ..runtime.messages import LevelMessage, Message, Outbox
from .base import ShadowAdversary
from .liars import another_value


class StealthPathAdversary(ShadowAdversary):
    """Lie only about nodes whose path is entirely faulty, differently per side.

    For an entry keyed by sequence ``α`` the message is left untouched unless
    every processor named in ``α`` is faulty; in that case even-numbered
    destinations get the shadow's (honest) value and odd-numbered destinations
    get the flipped value.  Because every correct processor on a path forces
    commonness (the Correctness Lemma), these all-faulty paths are exactly the
    places where disagreement can survive a conversion — and exactly the nodes
    the Hidden Fault Lemma reasons about.

    The all-faulty node-ids of a level depend only on the tree shape and the
    faulty set, so they are computed once per ``(index, level)`` and reused by
    the slot-wise rewrite of every level broadcast — the dict walk survives
    only for round-1-style explicit messages.
    """

    name = "stealth-path"

    def __init__(self) -> None:
        super().__init__()
        #: (index identity, level) -> node-ids whose path is entirely faulty
        self._all_faulty_ids: Dict[Tuple[int, int], List[int]] = {}

    def bind(self, context) -> None:
        # The cached ids depend on the bound faulty set; clearing keeps the
        # cache tied to this binding (rebinding itself raises in the base
        # class, so this is belt-and-braces for subclasses).
        super().bind(context)
        self._all_faulty_ids.clear()

    def _all_faulty_node_ids(self, index: SequenceIndex,
                             level: int) -> List[int]:
        key = (id(index), level)
        ids = self._all_faulty_ids.get(key)
        if ids is None:
            faulty = self._require_context().faulty
            ids = [node_id
                   for node_id, seq in enumerate(index.sequences(level))
                   if all(pid in faulty for pid in seq)]
            self._all_faulty_ids[key] = ids
        return ids

    def tamper(self, round_number: int, sender: ProcessorId, dest: ProcessorId,
               message: Message,
               correct_outboxes: Mapping[ProcessorId, Outbox]) -> Message:
        context = self._require_context()
        faulty = context.faulty
        domain = context.config.domain
        if dest % 2 == 0:
            return message
        # Every odd destination gets the same selectively flipped buffer.
        return self.cached_rewrite(
            message, "stealth-flip", lambda: self._flip_all_faulty(message,
                                                                   faulty,
                                                                   domain))

    def _flip_all_faulty(self, message: Message, faulty, domain) -> Message:
        if isinstance(message, LevelMessage):
            ids = self._all_faulty_node_ids(message.index, message.level)
            return message.map_values_at(
                ids, lambda value: another_value(value, domain))
        tampered = {}
        for seq, value in message.items():
            path_all_faulty = all(pid in faulty for pid in seq)
            if path_all_faulty:
                tampered[seq] = another_value(value, domain)
            else:
                tampered[seq] = value
        return message.with_entries(tampered)


class MinimalExposureAdversary(ShadowAdversary):
    """Sacrifice the faulty processors one at a time.

    Faulty processors are ordered; in any round only the first not-yet-exposed
    one lies (two-faced, about every entry), while the rest behave correctly.
    Once a block completes, the next faulty processor takes over as the liar.
    This approximates the paper's worst case in which each block without a
    persistent value costs the adversary only the minimum number of newly
    detected faults, so executions run close to the worst-case round bounds.
    """

    name = "minimal-exposure"

    def __init__(self, rounds_per_liar: int = 2) -> None:
        super().__init__()
        self.rounds_per_liar = max(1, rounds_per_liar)
        self.name = f"minimal-exposure(block={self.rounds_per_liar})"

    def _active_liar(self, round_number: int) -> ProcessorId:
        context = self._require_context()
        order = sorted(context.faulty)
        index = ((round_number - 1) // self.rounds_per_liar) % len(order)
        return order[index]

    def tamper(self, round_number: int, sender: ProcessorId, dest: ProcessorId,
               message: Message,
               correct_outboxes: Mapping[ProcessorId, Outbox]) -> Message:
        context = self._require_context()
        if sender != self._active_liar(round_number):
            return message
        domain = context.config.domain
        if dest % 2 == 0:
            return message
        return self.cached_rewrite(
            message, "flip",
            lambda: message.map_values(lambda value: another_value(value,
                                                                   domain)))
