"""State-corruption views: the transient-corruption fault model's surface.

Dolev–Herman-style adversarial environments corrupt *stored state* between
rounds rather than lying on the wire.  The :meth:`Adversary.corrupt_state
<repro.adversary.base.Adversary.corrupt_state>` hook receives, once per
round, one :class:`StateView` per correct non-source EIG participant — a
read/write window onto the processor's **current top tree level** in
canonical node-id order.  Both execution paths construct observationally
identical views:

* the per-processor driver wraps each participant's
  :class:`~repro.core.tree.InfoGatheringTree` (any engine) in a
  :class:`TreeStateView`, reading and writing through the meter-free
  ``peek``/``poke`` accessors (corruption is the adversary's doing, not the
  victim's computation);
* the batched whole-run driver wraps each participant's row of the stacked
  claims matrix in a :class:`BatchedRowStateView`.

Timing is aliasing-safe by construction: the hook runs after every delivery
and conversion of a round and before the next round's broadcasts wrap the
level buffers, so an in-place edit is indistinguishable from the processor
having stored the corrupted value in the first place.  Written values must
stay inside the configured value domain — the batched state never stores a
missing sentinel, and the kernels rely on that invariant.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from ..core.sequences import ProcessorId, sequence_index
from ..core.tree import MISSING
from ..core.values import Value
from .errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..adversary.base import Adversary
    from ..core.protocol import AgreementProtocol, ProtocolConfig


class StateView:
    """Read/write access to one processor's current top tree level.

    Slots are indexed ``0 .. width - 1`` in the canonical node-id order of
    the level (the shared :class:`~repro.core.sequences.SequenceIndex`
    enumeration), identically in every execution mode.
    """

    pid: ProcessorId
    level: int

    @property
    def width(self) -> int:
        raise NotImplementedError

    def get(self, slot: int) -> Value:
        raise NotImplementedError

    def set(self, slot: int, value: Value) -> None:
        raise NotImplementedError

    def values(self) -> List[Value]:
        return [self.get(slot) for slot in range(self.width)]


class TreeStateView(StateView):
    """Per-processor view backed by an Information Gathering Tree."""

    def __init__(self, pid: ProcessorId, tree) -> None:
        self.pid = pid
        self._tree = tree
        self.level = tree.num_levels
        index = sequence_index(tree.source, tree.processors,
                               tree.allow_repetitions)
        self._sequences = index.sequences(self.level)

    @property
    def width(self) -> int:
        return len(self._sequences)

    def get(self, slot: int) -> Value:
        value = self._tree.peek(self._sequences[slot])
        if value is MISSING:
            raise SimulationError(
                f"corruption view read an absent node of processor "
                f"{self.pid} (level {self.level}, slot {slot})")
        return value

    def set(self, slot: int, value: Value) -> None:
        self._tree.poke(self._sequences[slot], value)


class BatchedRowStateView(StateView):
    """Batched-driver view backed by one row of the stacked claims state."""

    def __init__(self, pid: ProcessorId, level: int, row) -> None:
        from ..core.npsupport import VALUE_CODEC
        self.pid = pid
        self.level = level
        self._row = row
        self._code = VALUE_CODEC.code
        self._value = VALUE_CODEC.value

    @property
    def width(self) -> int:
        return len(self._row)

    def get(self, slot: int) -> Value:
        return self._value(int(self._row[slot]))

    def set(self, slot: int, value: Value) -> None:
        self._row[slot] = self._code(value)


def corruption_enabled(adversary: "Adversary") -> bool:
    """True when *adversary* overrides the ``corrupt_state`` hook.

    Drivers skip view construction entirely for the (vast) majority of
    adversaries that never corrupt state.
    """
    from ..adversary.base import Adversary
    return type(adversary).corrupt_state is not Adversary.corrupt_state


def tree_state_views(processors: Dict[ProcessorId, "AgreementProtocol"],
                     config: "ProtocolConfig"
                     ) -> Dict[ProcessorId, TreeStateView]:
    """Views over the correct non-source EIG participants of one round.

    Only processors of the exact EIG shifting class expose corruption
    surface, and the batched driver exposes the same rows, so the view
    population is identical across all four execution modes.  Protocols
    outside the class (Algorithm C, the hybrid, the baselines) present no
    views in either driver, and transient corruption degrades to a no-op for
    them.
    """
    from ..core.shifting import ShiftingEIGProcessor
    views: Dict[ProcessorId, TreeStateView] = {}
    for pid, proc in processors.items():
        if pid == config.source or type(proc) is not ShiftingEIGProcessor:
            continue
        if proc.tree.num_levels < 1:
            continue
        views[pid] = TreeStateView(pid, proc.tree)
    return views
