"""Information Gathering Trees — the principal data structure of the paper.

Two flavours are provided:

* :class:`InfoGatheringTree` — the tree *without repetitions* used by the
  Exponential Algorithm and by Algorithms A and B.  A node is identified by
  the sequence of labels on its root-to-node path; the root is ``(s,)`` and
  the children of a node ``α`` are labelled by every processor not in ``α``.
* :class:`RepetitionTree` — the tree *with repetitions* used by Algorithm C:
  every internal node has exactly ``n`` children, one per processor, and the
  tree never grows beyond three levels because ``shift_{3→2}`` collapses it at
  every round.

Both classes store values per *level* (level ℓ = sequences of length ℓ) which
makes the round structure of the protocols explicit: the messages received in
round ``h + 1`` populate level ``h + 1``, the leaves of the round-``h`` tree
are exactly level ``h``, and a shift truncates the tree back to its first
level.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .sequences import (LabelSequence, ProcessorId, SequenceIndex,
                        child_labels, sequence_index)
from .values import DEFAULT_VALUE, Value
from ..runtime.metrics import ComputationMeter

#: Sentinel marking an absent node in a flat level buffer.  Never visible
#: through the public API: reads substitute the caller's default, exactly as
#: a missing dictionary key does in the reference trees.
MISSING = object()


class InfoGatheringTree:
    """Information Gathering Tree without repetitions.

    Parameters
    ----------
    source:
        Identifier of the distinguished source processor ``s``.
    processors:
        All processor identifiers (including the source).
    meter:
        Optional :class:`ComputationMeter` charged one unit per store and per
        read performed through the public API, so the local-computation
        bounds of the theorems can be checked as growth shapes.
    """

    allow_repetitions = False

    def __init__(self, source: ProcessorId,
                 processors: Sequence[ProcessorId],
                 meter: Optional[ComputationMeter] = None) -> None:
        self.source = source
        self.processors: Tuple[ProcessorId, ...] = tuple(processors)
        if source not in self.processors:
            raise ValueError("the source must be one of the processors")
        self.n = len(self.processors)
        self._meter = meter if meter is not None else ComputationMeter()
        #: level index (1-based) -> {sequence: value}
        self._levels: Dict[int, Dict[LabelSequence, Value]] = {}

    # -- basic structure ---------------------------------------------------
    @property
    def meter(self) -> ComputationMeter:
        return self._meter

    @property
    def root(self) -> LabelSequence:
        return (self.source,)

    @property
    def num_levels(self) -> int:
        """Number of populated levels (0 for an empty tree)."""
        return max(self._levels, default=0)

    @property
    def height(self) -> int:
        """Height as defined by the paper (−1 for an empty tree, 0 for a root-only tree)."""
        return self.num_levels - 1

    def child_labels(self, seq: LabelSequence) -> List[ProcessorId]:
        """Labels of the children of node *seq* (processors not on the path)."""
        return child_labels(seq, self.processors, self.allow_repetitions)

    def is_leaf(self, seq: LabelSequence) -> bool:
        """A node is a leaf iff it sits on the deepest populated level."""
        return len(seq) >= self.num_levels

    # -- storage -----------------------------------------------------------
    def store(self, seq: Sequence[ProcessorId], value: Value) -> None:
        """Store *value* at node *seq*, creating the node's level if needed."""
        seq = tuple(seq)
        level = len(seq)
        self._levels.setdefault(level, {})[seq] = value
        self._meter.charge()

    def value(self, seq: Sequence[ProcessorId],
              default: Value = DEFAULT_VALUE) -> Value:
        """The value stored at node *seq* (default if the node is absent)."""
        seq = tuple(seq)
        self._meter.charge()
        return self._levels.get(len(seq), {}).get(seq, default)

    def has(self, seq: Sequence[ProcessorId]) -> bool:
        seq = tuple(seq)
        return seq in self._levels.get(len(seq), {})

    def peek(self, seq: Sequence[ProcessorId]) -> Value:
        """Meter-free read of node *seq* (:data:`MISSING` when absent).

        Adversarial state inspection, not protocol computation — the
        transient-corruption fault model reads and overwrites stored state
        without charging the victim's computation meter (see
        :mod:`repro.runtime.corruption`).
        """
        seq = tuple(seq)
        return self._levels.get(len(seq), {}).get(seq, MISSING)

    def poke(self, seq: Sequence[ProcessorId], value: Value) -> None:
        """Meter-free adversarial overwrite of an already-stored node."""
        seq = tuple(seq)
        level = self._levels.get(len(seq))
        if level is None or seq not in level:
            raise KeyError(seq)
        level[seq] = value

    def set_root(self, value: Value) -> None:
        """Store *value* at the root (level 1)."""
        self.store(self.root, value)

    def root_value(self, default: Value = DEFAULT_VALUE) -> Value:
        """The *preferred value* of the owning processor (value at the root)."""
        return self.value(self.root, default)

    # -- level access --------------------------------------------------------
    def level(self, index: int) -> Dict[LabelSequence, Value]:
        """A copy of the mapping {sequence: value} for level *index*."""
        return dict(self._levels.get(index, {}))

    def level_sequences(self, index: int) -> List[LabelSequence]:
        return list(self._levels.get(index, {}).keys())

    def leaves(self) -> Dict[LabelSequence, Value]:
        """The deepest populated level (empty dict for an empty tree)."""
        if not self._levels:
            return {}
        return dict(self._levels[self.num_levels])

    def level_size(self, index: int) -> int:
        return len(self._levels.get(index, {}))

    def node_count(self) -> int:
        return sum(len(level) for level in self._levels.values())

    def sequences(self) -> Iterator[LabelSequence]:
        for index in sorted(self._levels):
            yield from self._levels[index].keys()

    # -- growing the tree ----------------------------------------------------
    def grow_level(self, level: int,
                   claimed_value) -> None:
        """Populate level *level* from a claim function.

        ``claimed_value(parent_seq, child_label)`` must return the value to be
        stored at ``parent_seq + (child_label,)``.  The claim function is where
        the protocol consults received messages (and applies masking and the
        default-value substitution); the tree itself is policy-free.
        """
        if level != self.num_levels + 1:
            raise ValueError(
                f"cannot grow level {level}: tree currently has "
                f"{self.num_levels} level(s)")
        new_level: Dict[LabelSequence, Value] = {}
        for parent in self.level_sequences(level - 1):
            for child in self.child_labels(parent):
                seq = parent + (child,)
                new_level[seq] = claimed_value(parent, child)
                self._meter.charge()
        self._levels[level] = new_level

    # -- shifting --------------------------------------------------------------
    def truncate_to_level(self, level: int) -> None:
        """Drop every level strictly deeper than *level* (part of a shift)."""
        for index in [idx for idx in self._levels if idx > level]:
            del self._levels[index]

    def reset_to_root(self, value: Value) -> None:
        """``shift_{k→1}``: collapse the whole tree to a root holding *value*."""
        self._levels = {1: {self.root: value}}
        self._meter.charge()

    def overwrite_level(self, index: int,
                        values: Dict[LabelSequence, Value]) -> None:
        """Replace the value mapping of an existing level (used by Algorithm C's
        conversion, which rewrites level 2 in place)."""
        self._levels[index] = dict(values)
        self._meter.charge(len(values))

    # -- misc -------------------------------------------------------------------
    def copy(self) -> "InfoGatheringTree":
        """A deep copy sharing no state with the original (meter excluded)."""
        clone = type(self)(self.source, self.processors)
        clone._levels = {index: dict(level)
                         for index, level in self._levels.items()}
        return clone

    def __repr__(self) -> str:
        sizes = [self.level_size(i) for i in range(1, self.num_levels + 1)]
        return (f"{type(self).__name__}(n={self.n}, levels={sizes})")


class RepetitionTree(InfoGatheringTree):
    """Information Gathering Tree *with repetitions* (Algorithm C).

    Every internal node has exactly ``n`` children, one per processor name
    (names may repeat along a path, and the source reappears as a child).
    Algorithm C keeps the tree at no more than three levels.
    """

    allow_repetitions = True

    def reorder_leaves(self) -> None:
        """Swap ``tree(spq)`` and ``tree(sqp)`` for every pair ``p ≠ q``.

        After the reordering, the subtree rooted at ``sq`` contains exactly
        the values received *from* ``q`` in the current round (``q``'s report
        of every processor's level-2 value), which is what Algorithm C's
        conversion votes over.
        """
        if self.num_levels < 3:
            raise ValueError("reordering requires a populated third level")
        level3 = self._levels[3]
        reordered: Dict[LabelSequence, Value] = {}
        for seq, value in level3.items():
            s, p, q = seq
            reordered[(s, q, p)] = value
            self._meter.charge()
        self._levels[3] = reordered

    def convert_intermediate(self, resolver) -> None:
        """``shift_{3→2}``: set ``tree(sq) = resolver(sq)`` for every q, drop level 3.

        *resolver* is called with each intermediate sequence ``(s, q)`` and
        must return its converted value (normally ``resolve`` over the current
        three-level tree).
        """
        if self.num_levels < 3:
            raise ValueError("conversion requires a populated third level")
        new_level2 = {seq: resolver(seq) for seq in self.level_sequences(2)}
        self.overwrite_level(2, new_level2)
        self.truncate_to_level(2)


class FlatEIGTree(InfoGatheringTree):
    """Information Gathering Tree stored as flat level-major buffers.

    Drop-in replacement for :class:`InfoGatheringTree` (same public API, same
    deterministic shape, same meter accounting) backed by the fast engine's
    data layout: one Python list per level, indexed by the dense node-ids of
    the shared :class:`~repro.core.sequences.SequenceIndex`.  No dictionary
    keyed by label-sequence tuples exists on any hot path; the dict-returning
    accessors (:meth:`level`, :meth:`leaves`) materialise views on demand and
    are intended for tests, reporting, and the reference engine only.

    The flat buffers are exposed by reference through :meth:`raw_level` so
    that messages can wrap a level slice without copying.  The aliasing
    discipline is: a level buffer may be mutated only during the
    ``incoming()`` call that created it (gathering + masking); every later
    rewrite (conversion, reordering, reset) installs a **new** list, so a
    buffer captured by an outgoing message is immutable from the moment it is
    sent.
    """

    def __init__(self, source: ProcessorId,
                 processors: Sequence[ProcessorId],
                 meter: Optional[ComputationMeter] = None) -> None:
        super().__init__(source, processors, meter)
        self._index: SequenceIndex = sequence_index(
            source, self.processors, self.allow_repetitions)
        #: level ℓ values live in _flat[ℓ - 1]; absent nodes hold MISSING
        self._flat: List[List[Value]] = []
        #: number of non-MISSING nodes per level (kept exact for level_size)
        self._stored: List[int] = []

    # -- engine interface -----------------------------------------------------
    @property
    def index(self) -> SequenceIndex:
        return self._index

    def raw_level(self, level: int) -> List[Value]:
        """The flat value buffer of *level*, by reference (no meter charge)."""
        return self._flat[level - 1]

    def level_message(self, level: int, sender: ProcessorId,
                      round_number: int):
        """Wrap *level* in a by-reference broadcast message.

        One message object is shared by every destination and the buffer is
        never copied; the aliasing discipline of this class guarantees the
        wrapped buffer is immutable from the moment it is exposed.
        """
        from ..runtime.messages import LevelMessage
        return LevelMessage(self._index, level, self._flat[level - 1],
                            sender, round_number)

    def append_level(self, values: List[Value]) -> None:
        """Install *values* as the next level (fast-path sibling of
        :meth:`grow_level`; charges one unit per stored node)."""
        level = len(self._flat) + 1
        expected = self._index.level_size(level)
        if len(values) != expected:
            raise ValueError(
                f"level {level} of this tree shape has {expected} nodes, "
                f"got {len(values)} values")
        self._flat.append(values)
        self._stored.append(len(values))
        self._meter.charge(len(values))

    def replace_level(self, level: int, values: List[Value]) -> None:
        """Replace the buffer of an existing *level* (fast-path sibling of
        :meth:`overwrite_level`; installs the new list by reference)."""
        if not 1 <= level <= len(self._flat):
            raise ValueError(f"level {level} is not populated")
        if len(values) != self._index.level_size(level):
            raise ValueError("replacement buffer has the wrong size")
        self._flat[level - 1] = values
        self._stored[level - 1] = len(values)
        self._meter.charge(len(values))

    def _ensure_levels(self, level: int) -> None:
        while len(self._flat) < level:
            new_level = len(self._flat) + 1
            self._flat.append([MISSING] * self._index.level_size(new_level))
            self._stored.append(0)

    # -- basic structure -------------------------------------------------------
    @property
    def num_levels(self) -> int:
        return len(self._flat)

    # -- storage ---------------------------------------------------------------
    def store(self, seq: Sequence[ProcessorId], value: Value) -> None:
        seq = tuple(seq)
        level = len(seq)
        node_id = self._index.node_id(seq)
        self._ensure_levels(level)
        buffer = self._flat[level - 1]
        if buffer[node_id] is MISSING:
            self._stored[level - 1] += 1
        buffer[node_id] = value
        self._meter.charge()

    def value(self, seq: Sequence[ProcessorId],
              default: Value = DEFAULT_VALUE) -> Value:
        seq = tuple(seq)
        self._meter.charge()
        level = len(seq)
        if not 1 <= level <= len(self._flat):
            return default
        node_id = self._index.id_map(level).get(seq)
        if node_id is None:
            return default
        stored = self._flat[level - 1][node_id]
        return default if stored is MISSING else stored

    def has(self, seq: Sequence[ProcessorId]) -> bool:
        seq = tuple(seq)
        level = len(seq)
        if not 1 <= level <= len(self._flat):
            return False
        node_id = self._index.id_map(level).get(seq)
        return node_id is not None and self._flat[level - 1][node_id] is not MISSING

    def peek(self, seq: Sequence[ProcessorId]) -> Value:
        seq = tuple(seq)
        level = len(seq)
        if not 1 <= level <= len(self._flat):
            return MISSING
        node_id = self._index.id_map(level).get(seq)
        if node_id is None:
            return MISSING
        return self._flat[level - 1][node_id]

    def poke(self, seq: Sequence[ProcessorId], value: Value) -> None:
        seq = tuple(seq)
        if self.peek(seq) is MISSING:
            raise KeyError(seq)
        self._flat[len(seq) - 1][self._index.node_id(seq)] = value

    # -- level access ----------------------------------------------------------
    def level(self, index: int) -> Dict[LabelSequence, Value]:
        if not 1 <= index <= len(self._flat):
            return {}
        sequences = self._index.sequences(index)
        return {seq: value
                for seq, value in zip(sequences, self._flat[index - 1])
                if value is not MISSING}

    def level_sequences(self, index: int) -> List[LabelSequence]:
        if not 1 <= index <= len(self._flat):
            return []
        buffer = self._flat[index - 1]
        if self._stored[index - 1] == len(buffer):
            return list(self._index.sequences(index))
        return [seq for seq, value in zip(self._index.sequences(index), buffer)
                if value is not MISSING]

    def leaves(self) -> Dict[LabelSequence, Value]:
        if not self._flat:
            return {}
        return self.level(len(self._flat))

    def level_size(self, index: int) -> int:
        if not 1 <= index <= len(self._flat):
            return 0
        return self._stored[index - 1]

    def node_count(self) -> int:
        return sum(self._stored)

    def sequences(self) -> Iterator[LabelSequence]:
        for index in range(1, len(self._flat) + 1):
            yield from self.level_sequences(index)

    # -- growing the tree ------------------------------------------------------
    def grow_level(self, level: int, claimed_value) -> None:
        if level != self.num_levels + 1:
            raise ValueError(
                f"cannot grow level {level}: tree currently has "
                f"{self.num_levels} level(s)")
        index = self._index
        size = index.level_size(level)
        buffer: List[Value] = [MISSING] * size
        stored = 0
        if level > 1:
            branch = index.branch(level - 1)
            labels = index.last_labels(level)
            parent_buffer = self._flat[level - 2]
            for parent_id, parent in enumerate(index.sequences(level - 1)):
                if parent_buffer[parent_id] is MISSING:
                    continue
                base = parent_id * branch
                for offset in range(branch):
                    slot = base + offset
                    buffer[slot] = claimed_value(parent, labels[slot])
                    stored += 1
        self._flat.append(buffer)
        self._stored.append(stored)
        self._meter.charge(stored)

    # -- shifting ----------------------------------------------------------------
    def truncate_to_level(self, level: int) -> None:
        if level < len(self._flat):
            del self._flat[level:]
            del self._stored[level:]

    def reset_to_root(self, value: Value) -> None:
        self._flat = [[value]]
        self._stored = [1]
        self._meter.charge()

    def overwrite_level(self, index: int,
                        values: Dict[LabelSequence, Value]) -> None:
        if not 1 <= index <= len(self._flat):
            raise KeyError(index)
        id_map = self._index.id_map(index)
        buffer: List[Value] = [MISSING] * self._index.level_size(index)
        for seq, value in values.items():
            buffer[id_map[tuple(seq)]] = value
        self._flat[index - 1] = buffer
        self._stored[index - 1] = len(values)
        self._meter.charge(len(values))

    # -- misc ----------------------------------------------------------------------
    def copy(self) -> "FlatEIGTree":
        clone = type(self)(self.source, self.processors)
        clone._flat = [list(buffer) for buffer in self._flat]
        clone._stored = list(self._stored)
        return clone


class FlatRepetitionTree(FlatEIGTree):
    """Flat-buffer counterpart of :class:`RepetitionTree` (Algorithm C)."""

    allow_repetitions = True

    def reorder_leaves(self) -> None:
        """Swap ``tree(spq)`` and ``tree(sqp)`` for every pair ``p ≠ q``.

        With the parent-major layout the level-3 buffer is an ``n × n``
        matrix (row = intermediate vertex, column = reporting child), so the
        reordering is a transpose.
        """
        if self.num_levels < 3:
            raise ValueError("reordering requires a populated third level")
        n = self.n
        old = self._flat[2]
        self._flat[2] = [old[(i % n) * n + i // n] for i in range(n * n)]
        self._meter.charge(n * n)

    def convert_intermediate(self, resolver) -> None:
        """``shift_{3→2}`` — see :meth:`RepetitionTree.convert_intermediate`."""
        if self.num_levels < 3:
            raise ValueError("conversion requires a populated third level")
        new_level2 = {seq: resolver(seq) for seq in self.level_sequences(2)}
        self.overwrite_level(2, new_level2)
        self.truncate_to_level(2)


class NumpyEIGTree(FlatEIGTree):
    """Information Gathering Tree stored as small-int code ndarrays.

    The ``"numpy"`` engine's storage mode: same level-major layout, node-ids
    and aliasing discipline as :class:`FlatEIGTree`, but each level buffer is
    an ``int32`` ndarray of codes of the process-wide
    :data:`~repro.core.npsupport.VALUE_CODEC` (``MISSING_CODE`` marks absent
    nodes).  On top of the array buffers, gathering becomes fancy-indexed
    assignment and the conversion/discovery rules become per-level
    ``bincount`` majority votes — see :func:`repro.core.resolve.numpy_resolve_levels`
    and :func:`repro.core.fault_discovery.discover_at_level_numpy`.  The
    dict-shaped accessors decode on demand for tests and reporting, and the
    meter accounting is identical to both other engines by construction.
    """

    def __init__(self, source: ProcessorId,
                 processors: Sequence[ProcessorId],
                 meter: Optional[ComputationMeter] = None) -> None:
        super().__init__(source, processors, meter)
        from .npsupport import (BOTTOM_CODE, CODE_DTYPE_NAME, DEFAULT_CODE,
                                MISSING_CODE, VALUE_CODEC, require_numpy)
        self._np = require_numpy()
        self._codec = VALUE_CODEC
        self._dtype = CODE_DTYPE_NAME
        self._missing_code = MISSING_CODE
        self._default_code = DEFAULT_CODE
        self._bottom_code = BOTTOM_CODE

    # -- engine interface -----------------------------------------------------
    def level_message(self, level: int, sender: ProcessorId,
                      round_number: int):
        from ..runtime.messages import NumpyLevelMessage
        return NumpyLevelMessage(self._index, level, self._flat[level - 1],
                                 sender, round_number)

    def _empty_level(self, level: int):
        return self._np.full(self._index.level_size(level),
                             self._missing_code, dtype=self._dtype)

    def _ensure_levels(self, level: int) -> None:
        while len(self._flat) < level:
            self._flat.append(self._empty_level(len(self._flat) + 1))
            self._stored.append(0)

    # -- storage ---------------------------------------------------------------
    def store(self, seq: Sequence[ProcessorId], value: Value) -> None:
        seq = tuple(seq)
        level = len(seq)
        node_id = self._index.node_id(seq)
        self._ensure_levels(level)
        buffer = self._flat[level - 1]
        if buffer[node_id] == self._missing_code:
            self._stored[level - 1] += 1
        buffer[node_id] = self._codec.code(value)
        self._meter.charge()

    def value(self, seq: Sequence[ProcessorId],
              default: Value = DEFAULT_VALUE) -> Value:
        seq = tuple(seq)
        self._meter.charge()
        level = len(seq)
        if not 1 <= level <= len(self._flat):
            return default
        node_id = self._index.id_map(level).get(seq)
        if node_id is None:
            return default
        code = int(self._flat[level - 1][node_id])
        return default if code == self._missing_code else self._codec.value(code)

    def has(self, seq: Sequence[ProcessorId]) -> bool:
        seq = tuple(seq)
        level = len(seq)
        if not 1 <= level <= len(self._flat):
            return False
        node_id = self._index.id_map(level).get(seq)
        return (node_id is not None
                and self._flat[level - 1][node_id] != self._missing_code)

    def peek(self, seq: Sequence[ProcessorId]) -> Value:
        seq = tuple(seq)
        level = len(seq)
        if not 1 <= level <= len(self._flat):
            return MISSING
        node_id = self._index.id_map(level).get(seq)
        if node_id is None:
            return MISSING
        code = int(self._flat[level - 1][node_id])
        return MISSING if code == self._missing_code else self._codec.value(code)

    def poke(self, seq: Sequence[ProcessorId], value: Value) -> None:
        seq = tuple(seq)
        if self.peek(seq) is MISSING:
            raise KeyError(seq)
        node_id = self._index.node_id(seq)
        self._flat[len(seq) - 1][node_id] = self._codec.code(value)

    # -- level access ----------------------------------------------------------
    def _decoded_level(self, index: int) -> List[Value]:
        """Level *index* decoded to values, ``MISSING`` marking absent nodes."""
        return self._codec.decode_buffer(self._flat[index - 1], missing=MISSING)

    def level(self, index: int) -> Dict[LabelSequence, Value]:
        if not 1 <= index <= len(self._flat):
            return {}
        sequences = self._index.sequences(index)
        return {seq: value
                for seq, value in zip(sequences, self._decoded_level(index))
                if value is not MISSING}

    def level_sequences(self, index: int) -> List[LabelSequence]:
        if not 1 <= index <= len(self._flat):
            return []
        buffer = self._flat[index - 1]
        sequences = self._index.sequences(index)
        if self._stored[index - 1] == len(buffer):
            return list(sequences)
        present = (buffer != self._missing_code).tolist()
        return [seq for seq, keep in zip(sequences, present) if keep]

    # -- growing the tree ------------------------------------------------------
    def grow_level(self, level: int, claimed_value) -> None:
        """Generic (callback-driven) growth: encode through a scratch list.

        Hot paths use :func:`~repro.core.fault_masking.gather_level_numpy`
        instead; this slow path keeps the public tree API complete.
        """
        if level != self.num_levels + 1:
            raise ValueError(
                f"cannot grow level {level}: tree currently has "
                f"{self.num_levels} level(s)")
        index = self._index
        buffer = self._empty_level(level)
        stored = 0
        if level > 1:
            branch = index.branch(level - 1)
            labels = index.last_labels(level)
            parent_buffer = self._flat[level - 2]
            code_of = self._codec.code
            for parent_id, parent in enumerate(index.sequences(level - 1)):
                if parent_buffer[parent_id] == self._missing_code:
                    continue
                base = parent_id * branch
                for offset in range(branch):
                    slot = base + offset
                    buffer[slot] = code_of(claimed_value(parent, labels[slot]))
                    stored += 1
        self._flat.append(buffer)
        self._stored.append(stored)
        self._meter.charge(stored)

    # -- shifting ----------------------------------------------------------------
    def reset_to_root(self, value: Value) -> None:
        self._flat = [self._np.asarray([self._codec.code(value)],
                                       dtype=self._dtype)]
        self._stored = [1]
        self._meter.charge()

    def overwrite_level(self, index: int,
                        values: Dict[LabelSequence, Value]) -> None:
        if not 1 <= index <= len(self._flat):
            raise KeyError(index)
        id_map = self._index.id_map(index)
        buffer = self._empty_level(index)
        code_of = self._codec.code
        for seq, value in values.items():
            buffer[id_map[tuple(seq)]] = code_of(value)
        self._flat[index - 1] = buffer
        self._stored[index - 1] = len(values)
        self._meter.charge(len(values))

    # -- misc ----------------------------------------------------------------------
    def copy(self) -> "NumpyEIGTree":
        clone = type(self)(self.source, self.processors)
        clone._flat = [buffer.copy() for buffer in self._flat]
        clone._stored = list(self._stored)
        return clone

    @classmethod
    def adopt_levels(cls, source: ProcessorId,
                     processors: Sequence[ProcessorId],
                     buffers: Sequence,
                     meter: Optional[ComputationMeter] = None) -> "NumpyEIGTree":
        """Build a tree around existing per-level code buffers, by reference.

        The bridge from a :class:`~repro.core.npsupport.BatchedEIGState` row
        back to a per-processor tree: *buffers* are adopted as the level
        buffers without copying and without meter charges (the batched
        executor accounts for stores itself), so the full per-processor
        accessor/kernel surface works against a batched execution's state.
        """
        tree = cls(source, processors, meter)
        for level, buffer in enumerate(buffers, start=1):
            expected = tree._index.level_size(level)
            if len(buffer) != expected:
                raise ValueError(
                    f"level {level} of this tree shape has {expected} nodes, "
                    f"got {len(buffer)} codes")
            tree._flat.append(buffer)
            tree._stored.append(int((buffer != tree._missing_code).sum()))
        return tree


class NumpyRepetitionTree(NumpyEIGTree):
    """ndarray-backed counterpart of :class:`RepetitionTree` (Algorithm C)."""

    allow_repetitions = True

    def reorder_leaves(self) -> None:
        """Swap ``tree(spq)`` and ``tree(sqp)``: a transpose of the ``n × n``
        level-3 code matrix (installs a fresh buffer, like every rewrite)."""
        if self.num_levels < 3:
            raise ValueError("reordering requires a populated third level")
        n = self.n
        self._flat[2] = self._np.ascontiguousarray(
            self._flat[2].reshape(n, n).T).reshape(-1)
        self._meter.charge(n * n)

    def convert_intermediate(self, resolver) -> None:
        """``shift_{3→2}`` — see :meth:`RepetitionTree.convert_intermediate`."""
        if self.num_levels < 3:
            raise ValueError("conversion requires a populated third level")
        new_level2 = {seq: resolver(seq) for seq in self.level_sequences(2)}
        self.overwrite_level(2, new_level2)
        self.truncate_to_level(2)


def make_tree(source: ProcessorId, processors: Sequence[ProcessorId],
              engine: str, repetitions: bool = False,
              meter: Optional[ComputationMeter] = None) -> InfoGatheringTree:
    """Build the tree flavour for an engine (``"fast"`` → flat list buffers,
    ``"numpy"`` → code ndarrays, anything else → the dict reference)."""
    if engine == "fast":
        cls = FlatRepetitionTree if repetitions else FlatEIGTree
    elif engine == "numpy":
        cls = NumpyRepetitionTree if repetitions else NumpyEIGTree
    else:
        cls = RepetitionTree if repetitions else InfoGatheringTree
    return cls(source, processors, meter)
