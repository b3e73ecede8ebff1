"""The shift operator and the generic shifting EIG processor.

Definition 1 of the paper: a *shifting* ``shift_{k→j}`` converts the data
structures appropriate to the end of round ``k`` of one algorithm into those
appropriate to the end of round ``j`` of another.  All of the paper's
algorithms (the Exponential Algorithm, Algorithm A, Algorithm B, and the A/B
portion of the hybrid) are instances of one machine: run Information
Gathering for a block of rounds, then apply ``shift_{b+1→1}`` — convert the
tree with ``resolve`` or ``resolve'`` and collapse it back to a root holding
the new preferred value — while the auxiliary structure ``L_p`` (the list of
discovered faults) is carried across shifts unchanged.

:class:`ShiftSchedule` describes such an execution as a sequence of
*segments* (blocks); :class:`ShiftingEIGProcessor` executes it.  The concrete
algorithm modules (:mod:`.exponential`, :mod:`.algorithm_a`,
:mod:`.algorithm_b`, :mod:`.hybrid`) only build schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .engine import FAST, NUMPY, tree_engine
from .fault_discovery import (FaultTracker, discover_during_conversion,
                              discover_during_conversion_flat,
                              discover_during_conversion_numpy)
from .fault_masking import (discover_and_mask, gather_level_flat,
                            gather_level_numpy, mask_inbox)
from .protocol import AgreementProtocol, ProtocolConfig
from .resolve import flat_resolve_levels, numpy_resolve_levels, resolve_all
from .sequences import LabelSequence, ProcessorId
from .tree import InfoGatheringTree, make_tree
from .values import DEFAULT_VALUE, Value, coerce_value, is_bottom
from ..runtime.errors import ConfigurationError, ProtocolViolationError
from ..runtime.messages import (Inbox, Message, Outbox, broadcast,
                                broadcast_message)

#: Conversion function names accepted by a :class:`Segment`.
CONVERSIONS = ("resolve", "resolve_prime")


@dataclass(frozen=True)
class Segment:
    """One block of Information Gathering rounds followed by a shift.

    Attributes
    ----------
    rounds:
        Number of Information Gathering rounds in the block (the block builds
        a tree of ``rounds + 1`` levels before converting).
    conversion:
        Conversion function applied by the shift: ``"resolve"`` (recursive
        majority) or ``"resolve_prime"`` (Algorithm A's ``t+1`` threshold).
    conversion_discovery:
        Whether the Fault Discovery Rule During Conversion is applied while
        shifting (Algorithm A does, Algorithm B does not).
    """

    rounds: int
    conversion: str = "resolve"
    conversion_discovery: bool = False

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ConfigurationError("a segment needs at least one round")
        if self.conversion not in CONVERSIONS:
            raise ConfigurationError(
                f"unknown conversion {self.conversion!r}; expected one of {CONVERSIONS}")


@dataclass(frozen=True)
class ShiftSchedule:
    """A full execution plan: the initial source round plus a list of segments."""

    segments: Tuple[Segment, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ConfigurationError("a schedule needs at least one segment")

    @property
    def total_rounds(self) -> int:
        """Rounds of communication: the initial round plus every block round."""
        return 1 + sum(segment.rounds for segment in self.segments)

    def segment_end_rounds(self) -> Dict[int, Segment]:
        """Map from the global round ending each segment to that segment."""
        ends: Dict[int, Segment] = {}
        round_number = 1
        for segment in self.segments:
            round_number += segment.rounds
            ends[round_number] = segment
        return ends

    def block_lengths(self) -> List[int]:
        return [segment.rounds for segment in self.segments]

    @staticmethod
    def uniform(block_lengths: Sequence[int], conversion: str,
                conversion_discovery: bool = False) -> "ShiftSchedule":
        """Build a schedule in which every segment shares one conversion."""
        return ShiftSchedule(tuple(
            Segment(rounds, conversion, conversion_discovery)
            for rounds in block_lengths))


class ShiftingEIGProcessor(AgreementProtocol):
    """A processor executing Exponential Information Gathering under a
    :class:`ShiftSchedule`, with the Fault Discovery and Fault Masking Rules.

    The Exponential Algorithm is the single-segment schedule ``[t]``;
    Algorithms A and B are multi-segment schedules; the hybrid's A→B portion
    is a schedule whose segments change conversion function midway.

    The tree storage follows ``config.engine``
    (:func:`~repro.core.engine.tree_engine`): ``"fast"`` (flat-array buffers,
    batched conversion, by-reference level messages), ``"numpy"`` (the same
    layout on ndarrays, also used by every machine of a ``"batched"`` run)
    or ``"reference"`` (the dict-based executable specification).  All
    engines produce identical decisions, discoveries and metrics.

    Parameters
    ----------
    decide_at_end:
        When ``True`` (standalone algorithms) the processor records an
        irreversible decision after the final conversion.  The hybrid embeds
        this machine as its first phase and sets this to ``False`` so the
        preferred value can be handed to Algorithm C instead.
    """

    def __init__(self, pid: ProcessorId, config: ProtocolConfig,
                 schedule: ShiftSchedule, decide_at_end: bool = True,
                 enable_fault_discovery: bool = True) -> None:
        super().__init__(pid, config)
        self.schedule = schedule
        self.decide_at_end = decide_at_end
        self.enable_fault_discovery = enable_fault_discovery
        self.engine = tree_engine(config.engine)
        self._fast = self.engine == FAST
        self._numpy = self.engine == NUMPY
        self._array_backed = self._fast or self._numpy
        self.tree = make_tree(config.source, config.processors, self.engine)
        self._domain_set = frozenset(v for v in config.domain
                                     if not is_bottom(v))
        self.tracker = FaultTracker(pid, config.t)
        self._segment_ends = schedule.segment_end_rounds()
        #: round -> number of newly discovered faults (for block-progress experiments)
        self.discovery_log: Dict[int, int] = {}
        #: round -> preferred value after the conversion ending that round
        self.preferred_log: Dict[int, Value] = {}

    # -- AgreementProtocol API ------------------------------------------------
    @property
    def total_rounds(self) -> int:
        return self.schedule.total_rounds

    def outgoing(self, round_number: int) -> Outbox:
        self._check_round(round_number)
        if round_number == 1:
            if self.pid != self.config.source:
                return {}
            entries = {self.tree.root: self.config.initial_value}
            return broadcast(entries, self.pid, round_number,
                             self.config.processors)
        if self.pid == self.config.source:
            # The source decides in round 1 and halts (it never sends again).
            return {}
        if self._array_backed and self.tree.num_levels > 0:
            # Wrap the leaf level by reference: one LevelMessage object is
            # shared by every destination and the level buffer is never
            # copied (the tree installs a fresh buffer on every later rewrite,
            # so the wrapped buffer is immutable from here on).
            message = self.tree.level_message(self.tree.num_levels, self.pid,
                                              round_number)
            return broadcast_message(message, self.config.processors)
        return broadcast(self.tree.leaves(), self.pid, round_number,
                         self.config.processors)

    def incoming(self, round_number: int, inbox: Inbox) -> None:
        if self.pid == self.config.source:
            if round_number == 1:
                self._decide(self.config.initial_value)
            return
        if round_number == 1:
            self._store_root(inbox.get(self.config.source))
            self._maybe_convert(round_number)
            return
        self._gather(round_number, inbox)
        self._maybe_convert(round_number)

    # -- information gathering ---------------------------------------------------
    def _store_root(self, source_message: Optional[Message]) -> None:
        claimed = None
        if source_message is not None:
            claimed = source_message.value_for(self.tree.root)
        self.tree.set_root(coerce_value(claimed, self.config.domain))

    def _gather(self, round_number: int, inbox: Inbox) -> None:
        """Add one level to the tree from the round's inbox, then run the
        Fault Discovery and Fault Masking Rules to a fixpoint."""
        level = self.tree.num_levels + 1
        if self._array_backed:
            self._gather_array(level, inbox)
        else:
            self._gather_reference(level, inbox)
        if not self.enable_fault_discovery:
            return
        newly = discover_and_mask(self.tree, level, self.tracker, round_number)
        if newly:
            self.discovery_log[round_number] = (
                self.discovery_log.get(round_number, 0) + len(newly))

    def _gather_reference(self, level: int, inbox: Inbox) -> None:
        """The executable specification: grow via a per-node claim callback."""
        suspects = self.tracker.suspects
        masked = mask_inbox(inbox, suspects)
        domain = self.config.domain

        def claimed_value(parent: LabelSequence, child: ProcessorId) -> Value:
            if child == self.pid:
                # A processor's own child reflects its own stored value; no
                # message to itself is needed.
                return self.tree.value(parent)
            message = masked.get(child)
            if message is None:
                return DEFAULT_VALUE
            return coerce_value(message.value_for(parent), domain)

        self.tree.grow_level(level, claimed_value)

    def _gather_array(self, level: int, inbox: Inbox) -> None:
        """Populate the new level's buffer directly from the inbox (see
        :func:`~repro.core.fault_masking.gather_level_flat` and its ndarray
        twin :func:`~repro.core.fault_masking.gather_level_numpy`); the only
        special label is the processor's own, whose children echo its own
        stored values (no self-message)."""
        gather = gather_level_numpy if self._numpy else gather_level_flat
        gather(self.tree, level, inbox, self.tracker,
               self._domain_set, echo_labels=(self.pid,))

    # -- shifting ---------------------------------------------------------------
    def _maybe_convert(self, round_number: int) -> None:
        segment = self._segment_ends.get(round_number)
        if segment is None:
            return
        if self._array_backed:
            if self._numpy:
                converted_levels = numpy_resolve_levels(
                    self.tree, segment.conversion, self.config.t)
                discover = discover_during_conversion_numpy
            else:
                converted_levels = flat_resolve_levels(
                    self.tree, segment.conversion, self.config.t)
                discover = discover_during_conversion_flat
            if segment.conversion_discovery and self.enable_fault_discovery:
                fresh = discover(
                    self.tree.index, converted_levels, self.tree.num_levels,
                    self.tracker.suspects, self.config.t,
                    meter=self.tree.meter)
                added = self.tracker.add_all(fresh, round_number)
                if added:
                    self.discovery_log[round_number] = (
                        self.discovery_log.get(round_number, 0) + len(added))
            new_root = converted_levels[0][0]
            if self._numpy:
                from .npsupport import VALUE_CODEC
                new_root = VALUE_CODEC.value(int(new_root))
        else:
            converted = resolve_all(self.tree, segment.conversion,
                                    self.config.t)
            if segment.conversion_discovery and self.enable_fault_discovery:
                fresh = discover_during_conversion(
                    self.tree, converted, self.tracker.suspects, self.config.t,
                    meter=self.tree.meter)
                added = self.tracker.add_all(fresh, round_number)
                if added:
                    self.discovery_log[round_number] = (
                        self.discovery_log.get(round_number, 0) + len(added))
            new_root = converted[self.tree.root]
        if is_bottom(new_root):
            new_root = DEFAULT_VALUE
        self.tree.reset_to_root(new_root)
        self.preferred_log[round_number] = new_root
        if round_number == self.total_rounds and self.decide_at_end:
            self._decide(new_root)

    # -- introspection -------------------------------------------------------------
    def preferred_value(self) -> Value:
        if self.pid == self.config.source:
            return self.config.initial_value
        return self.tree.root_value()

    def discovered_faults(self) -> Sequence[ProcessorId]:
        return tuple(sorted(self.tracker.suspects))

    def computation_units(self) -> int:
        return self.tree.meter.units


def run_rounds_for_blocks(block_lengths: Sequence[int]) -> int:
    """Total communication rounds for a schedule with the given block lengths."""
    return 1 + sum(block_lengths)
