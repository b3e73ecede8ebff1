"""Message types exchanged over the synchronous network.

Every protocol in this package exchanges *information-gathering messages*: a
mapping from label sequences (paths in the sender's tree) to values.  The
round-1 message from the source is the degenerate case of a single entry for
the root.  Messages are immutable once constructed so the adversary cannot
mutate a correct processor's outbox in place — it must construct new messages,
exactly like a real Byzantine sender would.

Two concrete layouts exist:

* :class:`Message` — an explicit ``{sequence: value}`` mapping.  Used for the
  source's round-1 broadcast and by adversaries, which rewrite entries.
* :class:`LevelMessage` — the fast engine's broadcast: it wraps one flat tree
  level **by reference** (the shared
  :class:`~repro.core.sequences.SequenceIndex` plus the level's value buffer)
  and materialises the entry mapping only if a slow-path consumer asks for
  it.  Receivers that share the same index copy values by node-id without
  ever building a dictionary; ``size_bits`` is O(1) because every entry of a
  level has the same path length.

Immutability of the mapping view is provided by
:class:`types.MappingProxyType`: accessors hand out read-only views of the
internal dict rather than defensive copies, so iterating entries in hot loops
allocates nothing.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Tuple)

from ..core.npsupport import (CODE_DTYPE_NAME, MISSING_CODE, VALUE_CODEC,
                              require_numpy)
from ..core.sequences import LabelSequence, ProcessorId, SequenceIndex
from ..core.values import Value
from .metrics import entry_bits


class Message:
    """An immutable information-gathering message.

    Parameters
    ----------
    entries:
        Mapping from label sequence to the value the sender claims for that
        node of its tree.
    sender:
        The (claimed) sender.  The model guarantees that a correct receiver
        can identify the true source of a message, so the network stamps this
        field; adversaries cannot spoof it.
    round_number:
        The communication round in which the message is sent.
    """

    __slots__ = ("_entries", "sender", "round_number")

    def __init__(self, entries: Mapping[LabelSequence, Value],
                 sender: ProcessorId, round_number: int) -> None:
        self._entries: Optional[Dict[LabelSequence, Value]] = {
            tuple(seq): value for seq, value in entries.items()
        }
        self.sender = sender
        self.round_number = round_number

    # -- internal ----------------------------------------------------------
    def _mapping(self) -> Dict[LabelSequence, Value]:
        """The entry dict (subclasses may materialise it lazily)."""
        return self._entries

    # -- accessors -------------------------------------------------------
    @property
    def entries(self) -> Mapping[LabelSequence, Value]:
        """A **read-only view** of the entry mapping (no copy is made)."""
        return MappingProxyType(self._mapping())

    def items(self) -> Iterable[Tuple[LabelSequence, Value]]:
        """Iterate ``(sequence, value)`` pairs without copying."""
        return self._mapping().items()

    def value_for(self, seq: LabelSequence) -> Optional[Value]:
        """The claimed value for *seq*, or ``None`` if the entry is missing.

        A missing entry models "an inappropriate message was received"; the
        receiver substitutes the default value per the paper.
        """
        return self._mapping().get(tuple(seq))

    def sequences(self) -> Iterable[LabelSequence]:
        return self._mapping().keys()

    def __iter__(self) -> Iterator[LabelSequence]:
        return iter(self._mapping())

    def __len__(self) -> int:
        return len(self._mapping())

    def __contains__(self, seq: object) -> bool:
        return seq in self._mapping()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Message):
            return NotImplemented
        return (self._mapping() == other._mapping()
                and self.sender == other.sender
                and self.round_number == other.round_number)

    def __hash__(self) -> int:  # pragma: no cover - messages rarely hashed
        return hash((frozenset(self._mapping().items()), self.sender,
                     self.round_number))

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(sender={self.sender}, "
                f"round={self.round_number}, entries={len(self)})")

    # -- cost accounting ---------------------------------------------------
    def entry_count(self) -> int:
        return len(self)

    def size_bits(self, n: int, value_domain_size: int = 2) -> int:
        """Encoded size in bits under the accounting of :mod:`..runtime.metrics`."""
        return sum(entry_bits(len(seq), value_domain_size, n)
                   for seq in self._mapping())

    # -- constructors ------------------------------------------------------
    @classmethod
    def single(cls, seq: LabelSequence, value: Value, sender: ProcessorId,
               round_number: int) -> "Message":
        """A one-entry message (the source's round-1 broadcast)."""
        return cls({tuple(seq): value}, sender, round_number)

    def replace_values(self, value: Value) -> "Message":
        """A copy of this message with every entry replaced by *value*.

        Used by the Fault Masking Rule, which substitutes the default value
        for every entry of a discovered-faulty sender's message.
        """
        return Message({seq: value for seq in self._mapping()},
                       self.sender, self.round_number)

    def with_entries(self, entries: Mapping[LabelSequence, Value]) -> "Message":
        """A copy with a different entry mapping (same sender and round)."""
        return Message(entries, self.sender, self.round_number)

    def with_sender(self, sender: ProcessorId) -> "Message":
        """A copy attributed to *sender* (used by the network's stamping)."""
        return Message(self._mapping(), sender, self.round_number)

    # -- slot-wise tamper helpers -------------------------------------------
    # Adversaries rewrite messages per destination; these helpers let them do
    # so against whatever layout the message already has.  On a plain Message
    # they are ordinary dict comprehensions; the LevelMessage overrides
    # rewrite the wrapped value buffer directly (never in place — a fresh
    # buffer per call, preserving the by-reference aliasing discipline), so a
    # lie about an n^h-entry broadcast never materialises an n^h-entry dict.

    def map_values(self, fn: Callable[[Value], Value]) -> "Message":
        """A copy with ``fn`` applied to every entry's value.

        *fn* must be a pure function of the value: array-backed messages may
        evaluate it once per *distinct* value rather than once per entry.
        Stateful rewrites (e.g. per-entry randomness) should build the new
        contents explicitly and use :meth:`with_entries` /
        :meth:`LevelMessage.with_level_values` instead.
        """
        return self.with_entries({seq: fn(value)
                                  for seq, value in self.items()})


class LevelMessage(Message):
    """A message wrapping one flat tree level by reference.

    The sender's tree guarantees the wrapped buffer is never mutated after
    the message is constructed (see
    :class:`~repro.core.tree.FlatEIGTree`), so sharing it is safe.  Receivers
    call :meth:`matches` + :meth:`level_values` to copy values by node-id;
    every dict-shaped accessor inherited from :class:`Message` materialises
    the mapping lazily, exactly once, so adversaries and tests see the usual
    interface.
    """

    __slots__ = ("_index", "_level", "_values")

    def __init__(self, index: SequenceIndex, level: int, values: List[Value],
                 sender: ProcessorId, round_number: int) -> None:
        if len(values) != index.level_size(level):
            raise ValueError(
                f"level {level} of this tree shape has "
                f"{index.level_size(level)} nodes, got {len(values)} values")
        self._index = index
        self._level = level
        self._values = values
        self._entries = None  # materialised on demand
        self.sender = sender
        self.round_number = round_number

    # -- fast-path accessors ------------------------------------------------
    def matches(self, index: SequenceIndex, level: int) -> bool:
        """True when this message's entries are exactly *level* of *index*
        (same shared shape), so node-ids line up with the receiver's."""
        return self._index is index and self._level == level

    def level_values(self) -> List[Value]:
        """The wrapped value buffer, by reference (index order)."""
        return self._values

    @property
    def level(self) -> int:
        return self._level

    @property
    def index(self) -> SequenceIndex:
        """The shared shape index whose node-ids order the buffer."""
        return self._index

    # -- lazy dict interop --------------------------------------------------
    def _mapping(self) -> Dict[LabelSequence, Value]:
        if self._entries is None:
            self._entries = dict(zip(self._index.sequences(self._level),
                                     self._values))
        return self._entries

    def value_for(self, seq: LabelSequence) -> Optional[Value]:
        node_id = self._index.id_map(self._level).get(tuple(seq))
        if node_id is None:
            return None
        return self._values[node_id]

    def __len__(self) -> int:
        return len(self._values)

    def entry_count(self) -> int:
        return len(self._values)

    def size_bits(self, n: int, value_domain_size: int = 2) -> int:
        # Every entry of a level shares one path length: O(1) instead of a
        # per-entry sum.
        return len(self._values) * entry_bits(self._level, value_domain_size, n)

    def replace_values(self, value: Value) -> "LevelMessage":
        return LevelMessage(self._index, self._level,
                            [value] * len(self._values),
                            self.sender, self.round_number)

    def with_sender(self, sender: ProcessorId) -> "LevelMessage":
        return LevelMessage(self._index, self._level, self._values,
                            sender, self.round_number)

    # -- slot-wise tamper helpers -------------------------------------------
    def with_level_values(self, values: List[Value]) -> "LevelMessage":
        """A copy wrapping *values* (node-id order) instead of the original
        buffer — the level-layout twin of :meth:`Message.with_entries`."""
        return LevelMessage(self._index, self._level, list(values),
                            self.sender, self.round_number)

    def map_values(self, fn: Callable[[Value], Value]) -> "LevelMessage":
        return self.with_level_values([fn(v) for v in self._values])

    def map_values_at(self, node_ids: Sequence[int],
                      fn: Callable[[Value], Value]) -> "LevelMessage":
        """A copy with ``fn`` applied only at the given level node-ids.

        This is the stealth-attack fast path: the adversary precomputes which
        node-ids of a level it wants to lie about (e.g. the all-faulty paths)
        and flips exactly those slots, leaving the rest of the buffer shared
        semantics-wise (the new buffer is still a fresh list/array).
        """
        if len(node_ids) == 0:
            return self
        values = list(self._values)
        for node_id in node_ids:
            values[node_id] = fn(values[node_id])
        return self.with_level_values(values)


class NumpyLevelMessage(LevelMessage):
    """A :class:`LevelMessage` whose buffer is a small-int **code** ndarray.

    The numpy engine's broadcast: the wrapped array holds codes of the shared
    :data:`~repro.core.npsupport.VALUE_CODEC` (the codec is process-wide, so a
    receiver copies codes by fancy indexing with no translation).  Every
    value-shaped accessor decodes lazily; the slot-wise tamper helpers rewrite
    the code array vectorized, evaluating the rewrite function once per
    *distinct* code.
    """

    __slots__ = ()

    def __init__(self, index: SequenceIndex, level: int, codes,
                 sender: ProcessorId, round_number: int) -> None:
        super().__init__(index, level, codes, sender, round_number)

    # -- fast-path accessors -------------------------------------------------
    def level_codes(self):
        """The wrapped code ndarray, by reference (index order)."""
        return self._values

    def level_values(self) -> List[Value]:
        return VALUE_CODEC.decode_buffer(self._values)

    # -- lazy dict interop ---------------------------------------------------
    def _mapping(self) -> Dict[LabelSequence, Value]:
        if self._entries is None:
            self._entries = dict(zip(self._index.sequences(self._level),
                                     self.level_values()))
        return self._entries

    def value_for(self, seq: LabelSequence) -> Optional[Value]:
        node_id = self._index.id_map(self._level).get(tuple(seq))
        if node_id is None:
            return None
        code = int(self._values[node_id])
        if code == MISSING_CODE:
            return None
        return VALUE_CODEC.value(code)

    # -- constructors / rewrites ---------------------------------------------
    def replace_values(self, value: Value) -> "NumpyLevelMessage":
        np = require_numpy()
        codes = np.full(len(self._values), VALUE_CODEC.code(value),
                        dtype=CODE_DTYPE_NAME)
        return NumpyLevelMessage(self._index, self._level, codes,
                                 self.sender, self.round_number)

    def with_sender(self, sender: ProcessorId) -> "NumpyLevelMessage":
        return NumpyLevelMessage(self._index, self._level, self._values,
                                 sender, self.round_number)

    def with_level_values(self, values: List[Value]) -> "NumpyLevelMessage":
        return NumpyLevelMessage(self._index, self._level,
                                 VALUE_CODEC.encode_buffer(values),
                                 self.sender, self.round_number)

    def _with_codes(self, codes) -> "NumpyLevelMessage":
        return NumpyLevelMessage(self._index, self._level, codes,
                                 self.sender, self.round_number)

    def _code_translation(self, codes, fn):
        """``{old code: new code}`` with *fn* evaluated once per distinct code.

        Distinct codes are visited in sorted order: ``VALUE_CODEC.code``
        interns previously unseen values, so visiting order decides which
        code a new value receives — set order would make the codec table
        depend on hash seeding.
        """
        return {int(c): VALUE_CODEC.code(fn(VALUE_CODEC.value(int(c))))
                for c in sorted(set(codes.tolist())) if c != MISSING_CODE}

    def map_values(self, fn: Callable[[Value], Value]) -> "NumpyLevelMessage":
        codes = self._values
        new_codes = codes.copy()
        for old, new in self._code_translation(codes, fn).items():
            if old != new:
                new_codes[codes == old] = new
        return self._with_codes(new_codes)

    def map_values_at(self, node_ids,
                      fn: Callable[[Value], Value]) -> "NumpyLevelMessage":
        if len(node_ids) == 0:
            return self
        np = require_numpy()
        node_ids = np.asarray(node_ids, dtype=np.int64)
        codes = self._values
        selected = codes[node_ids]
        new_codes = codes.copy()
        for old, new in self._code_translation(selected, fn).items():
            if old != new:
                new_codes[node_ids[selected == old]] = new
        return self._with_codes(new_codes)


Outbox = Dict[ProcessorId, Message]
"""Messages produced by one processor in one round, keyed by destination."""

Inbox = Dict[ProcessorId, Message]
"""Messages delivered to one processor in one round, keyed by sender."""


def broadcast(entries: Mapping[LabelSequence, Value], sender: ProcessorId,
              round_number: int, destinations: Iterable[ProcessorId]) -> Outbox:
    """Build an outbox sending the same entry mapping to every destination.

    The sender itself is excluded: processors account for their own
    contribution to their trees locally (storing ``tree(αp) = tree(α)``)
    rather than by sending themselves a message.
    """
    message = Message(entries, sender, round_number)
    return {dest: message for dest in destinations if dest != sender}


def broadcast_message(message: Message,
                      destinations: Iterable[ProcessorId]) -> Outbox:
    """Build an outbox sending one prebuilt message to every destination
    (shares the single message object; excludes the sender)."""
    sender = message.sender
    return {dest: message for dest in destinations if dest != sender}


def total_entries(outbox: Outbox) -> int:
    return sum(message.entry_count() for message in outbox.values())


def total_bits(outbox: Outbox, n: int, value_domain_size: int = 2) -> int:
    return sum(message.size_bits(n, value_domain_size)
               for message in outbox.values())


def largest_message_entries(outbox: Outbox) -> int:
    return max((message.entry_count() for message in outbox.values()), default=0)


def stamp_sender(message: Message, true_sender: ProcessorId) -> Message:
    """Return *message* with the sender field forced to *true_sender*.

    The synchronous network calls this on every adversary-produced message so
    that a faulty processor can never impersonate another processor — the
    model's "a correct processor can always correctly identify the source of
    any message it receives".
    """
    if message.sender == true_sender:
        return message
    return message.with_sender(true_sender)
