"""Label sequences (root-to-node paths) of Information Gathering Trees.

A *sequence* is an ordered tuple of processor identifiers, always beginning
with the source ``s``.  The paper uses two flavours:

* **without repetitions** (the Exponential Algorithm, Algorithms A and B):
  no processor name appears twice on a root-to-leaf path, so a node
  ``α`` of length ``|α|`` has exactly ``n − |α|`` children;
* **with repetitions** (Algorithm C): every internal node has exactly ``n``
  children, one per processor name.

Sequences are plain tuples of ints so they can be dictionary keys, sorted,
and serialised into messages without any wrapper object; this module collects
the helpers for generating and validating them.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

ProcessorId = int
LabelSequence = Tuple[ProcessorId, ...]


def validate_sequence(seq: Sequence[ProcessorId], source: ProcessorId,
                      n: int, allow_repetitions: bool = False) -> LabelSequence:
    """Validate and normalise a label sequence.

    Raises :class:`ValueError` when the sequence is empty, does not start with
    the source, mentions an unknown processor, or (for trees without
    repetitions) repeats a label.
    """
    seq = tuple(seq)
    if not seq:
        raise ValueError("a label sequence must not be empty")
    if seq[0] != source:
        raise ValueError(f"sequence {seq!r} must begin with the source {source}")
    for pid in seq:
        if not 0 <= pid < n:
            raise ValueError(f"unknown processor id {pid} in sequence {seq!r}")
    if not allow_repetitions and len(set(seq)) != len(seq):
        raise ValueError(f"sequence {seq!r} repeats a processor name")
    return seq


def child_labels(seq: Sequence[ProcessorId], processors: Sequence[ProcessorId],
                 allow_repetitions: bool = False) -> List[ProcessorId]:
    """Return the labels of the children of node *seq*.

    Without repetitions the children are every processor not already on the
    path (the source is on every path, so it never reappears); with
    repetitions every processor, including those on the path, is a child.
    """
    if allow_repetitions:
        return list(processors)
    on_path = set(seq)
    return [pid for pid in processors if pid not in on_path]


def sequences_of_length(length: int, source: ProcessorId,
                        processors: Sequence[ProcessorId],
                        allow_repetitions: bool = False) -> Iterator[LabelSequence]:
    """Yield every valid sequence of the given *length* (root included).

    ``length == 1`` yields only the root ``(source,)``.  The enumeration order
    is deterministic (depth-first, children in processor-id order) so that the
    full tree shape can be reproduced independently of any particular
    execution.
    """
    if length < 1:
        return
    stack: List[LabelSequence] = [(source,)]
    while stack:
        seq = stack.pop()
        if len(seq) == length:
            yield seq
            continue
        for pid in reversed(child_labels(seq, processors, allow_repetitions)):
            stack.append(seq + (pid,))


def count_sequences_of_length(length: int, n: int,
                              allow_repetitions: bool = False) -> int:
    """Number of sequences of a given length over *n* processors.

    Without repetitions this is ``(n−1)(n−2)···(n−length+1)`` (the root label
    is fixed to the source); with repetitions it is ``n^(length−1)``.
    This matches the paper's ``O(n^{h−1})`` leaf-count bound for the round-h
    tree.
    """
    if length < 1:
        return 0
    if allow_repetitions:
        return n ** (length - 1)
    count = 1
    for i in range(1, length):
        remaining = n - i
        if remaining <= 0:
            return 0
        count *= remaining
    return count


def corresponding_processor(seq: Sequence[ProcessorId]) -> ProcessorId:
    """The processor *corresponding to* a node: the last name in the sequence."""
    if not seq:
        raise ValueError("empty sequence has no corresponding processor")
    return seq[-1]


def strict_prefixes(seq: Sequence[ProcessorId]) -> Iterator[LabelSequence]:
    """Yield every strict prefix of *seq* (shortest first)."""
    seq = tuple(seq)
    for i in range(1, len(seq)):
        yield seq[:i]


def is_prefix(prefix: Sequence[ProcessorId], seq: Sequence[ProcessorId]) -> bool:
    """Return ``True`` iff *prefix* is a (not necessarily strict) prefix of *seq*."""
    prefix = tuple(prefix)
    seq = tuple(seq)
    return len(prefix) <= len(seq) and seq[:len(prefix)] == prefix


class SequenceIndex:
    """Interned label sequences with level-major integer node-ids.

    The fast EIG engine never uses tuples as dictionary keys on its hot paths.
    Instead, every valid sequence of a given tree shape is assigned a dense
    integer *node-id* within its level, and the per-level tables below are
    computed **once** per ``(source, processors, allow_repetitions)`` and
    shared by every processor of every run with that shape (the tables depend
    only on the tree's combinatorics, not on any execution).

    Level ``ℓ`` (1-based, sequences of length ``ℓ``) is laid out
    *parent-major*: the children of the node with id ``i`` at level ``ℓ``
    occupy the contiguous id range ``[i·b, (i+1)·b)`` at level ``ℓ + 1``,
    where ``b = branch(ℓ)`` is the uniform branching factor of the level
    (``n − ℓ`` without repetitions, ``n`` with).  Within a parent, children
    appear in processor-id order — exactly the enumeration order of
    :func:`child_labels` — so the flat layout reproduces the reference tree's
    deterministic shape.  Parent ids are pure arithmetic:
    ``parent_of(ℓ + 1, j) == j // branch(ℓ)``.

    Tables per level:

    * ``sequences(ℓ)`` — node-id → label sequence (tuple), for interop with
      dict-based messages and for reporting;
    * ``id_map(ℓ)`` — label sequence → node-id (the interning direction);
    * ``last_labels(ℓ)`` — node-id → last label (the *corresponding
      processor* of the node), used by fault discovery and masking;
    * ``slots_for(ℓ)`` — label ``c`` → ``(slots, parents)`` arrays: the level
      ``ℓ`` node-ids whose last label is ``c`` and their parent ids at level
      ``ℓ − 1``.  Gathering a round's level from the network is one zip-copy
      per sender over these arrays; masking a discovered sender rewrites
      exactly ``slots``.
    """

    def __init__(self, source: ProcessorId, processors: Sequence[ProcessorId],
                 allow_repetitions: bool = False) -> None:
        self.source = source
        self.processors: Tuple[ProcessorId, ...] = tuple(processors)
        if source not in self.processors:
            raise ValueError("the source must be one of the processors")
        self.n = len(self.processors)
        self.allow_repetitions = allow_repetitions
        self._seqs: List[List[LabelSequence]] = [[(source,)]]
        self._id_of: List[Dict[LabelSequence, int]] = [{(source,): 0}]
        self._last: List[List[ProcessorId]] = [[source]]
        self._slots: List[Dict[ProcessorId, Tuple[List[int], List[int]]]] = [{}]
        #: lazily built ndarray twins of the tables above (numpy engine only)
        self._np_tables: Dict[Tuple[str, int], object] = {}

    # -- shape ---------------------------------------------------------------
    def branch(self, level: int) -> int:
        """Children per node at *level* (uniform within a level)."""
        if self.allow_repetitions:
            return self.n
        return max(0, self.n - level)

    def max_levels(self) -> int:
        """Deepest buildable level (unbounded with repetitions)."""
        if self.allow_repetitions:
            return 1 << 30
        return self.n

    def ensure_level(self, level: int) -> None:
        """Materialise the tables for every level up to *level* (idempotent)."""
        if level > self.max_levels():
            raise ValueError(
                f"a tree without repetitions over {self.n} processors has no "
                f"level {level}")
        while len(self._seqs) < level:
            self._grow_one_level()

    def _grow_one_level(self) -> None:
        parent_level = len(self._seqs)
        parents = self._seqs[parent_level - 1]
        seqs: List[LabelSequence] = []
        last: List[ProcessorId] = []
        id_of: Dict[LabelSequence, int] = {}
        slots: Dict[ProcessorId, Tuple[List[int], List[int]]] = {}
        append_seq = seqs.append
        append_last = last.append
        for parent_id, parent in enumerate(parents):
            for child in child_labels(parent, self.processors,
                                      self.allow_repetitions):
                node_id = len(seqs)
                seq = parent + (child,)
                append_seq(seq)
                append_last(child)
                id_of[seq] = node_id
                entry = slots.get(child)
                if entry is None:
                    entry = slots[child] = ([], [])
                entry[0].append(node_id)
                entry[1].append(parent_id)
        self._seqs.append(seqs)
        self._id_of.append(id_of)
        self._last.append(last)
        self._slots.append(slots)

    # -- per-level tables ------------------------------------------------------
    def level_size(self, level: int) -> int:
        self.ensure_level(level)
        return len(self._seqs[level - 1])

    def sequences(self, level: int) -> List[LabelSequence]:
        """Node-id → sequence table for *level* (do not mutate)."""
        self.ensure_level(level)
        return self._seqs[level - 1]

    def id_map(self, level: int) -> Dict[LabelSequence, int]:
        """Sequence → node-id table for *level* (do not mutate)."""
        self.ensure_level(level)
        return self._id_of[level - 1]

    def last_labels(self, level: int) -> List[ProcessorId]:
        """Node-id → last label (corresponding processor) for *level*."""
        self.ensure_level(level)
        return self._last[level - 1]

    def slots_for(self, level: int) -> Dict[ProcessorId,
                                            Tuple[List[int], List[int]]]:
        """Label → ``(slots, parents)`` arrays for *level* (do not mutate)."""
        self.ensure_level(level)
        return self._slots[level - 1]

    # -- ndarray twins (numpy engine) ------------------------------------------
    # Like everything else in the index these depend only on the tree shape,
    # so they are built once per level and shared by every numpy-engine tree
    # and every run of that shape.  They are only reachable from the "numpy"
    # engine, which is gated on numpy availability at selection time.

    def last_labels_np(self, level: int):
        """Node-id → last label as an int ndarray (numpy engine)."""
        cached = self._np_tables.get(("last", level))
        if cached is None:
            from .npsupport import require_numpy
            np = require_numpy()
            cached = np.asarray(self.last_labels(level), dtype=np.int64)
            self._np_tables[("last", level)] = cached
        return cached

    def slots_np(self, level: int):
        """Label → ``(slots, parents)`` id ndarrays for *level* (numpy engine)."""
        cached = self._np_tables.get(("slots", level))
        if cached is None:
            from .npsupport import require_numpy
            np = require_numpy()
            cached = {
                label: (np.asarray(slots, dtype=np.int64),
                        np.asarray(parents, dtype=np.int64))
                for label, (slots, parents) in self.slots_for(level).items()
            }
            self._np_tables[("slots", level)] = cached
        return cached

    def parent_ids_np(self, level: int):
        """Node-id → parent node-id at ``level − 1`` (int ndarray, cached).

        Pure arithmetic (``id // branch(level − 1)``), materialised once per
        level so the batched gather reuses it every round.
        """
        cached = self._np_tables.get(("parents", level))
        if cached is None:
            from .npsupport import require_numpy
            np = require_numpy()
            branch = self.branch(level - 1)
            cached = np.arange(self.level_size(level),
                               dtype=np.int64) // branch
            self._np_tables[("parents", level)] = cached
        return cached

    def child_mask_np(self, parent_level: int):
        """``mask[c, p]``: whether label ``c`` names a child of node ``p``.

        A ``(n, level_size(parent_level))`` bool ndarray over the nodes of
        *parent_level* — ``c ∉ seq(p)`` without repetitions, every label
        with them — read off the parent level's ancestry, so the child
        level's own tables are never built.  The batched executor counts a
        conversion level's children through it instead of gathering them
        (:class:`~repro.core.fault_masking.ChildCounts`).  Labels are the
        processor ids ``0 … n − 1``; cached once per level per shape.
        """
        cached = self._np_tables.get(("child_mask", parent_level))
        if cached is None:
            from .npsupport import require_numpy
            np = require_numpy()
            size = self.level_size(parent_level)
            cached = np.ones((self.n, size), dtype=bool)
            if not self.allow_repetitions:
                columns = np.arange(size, dtype=np.int64)
                ancestors = columns.copy()
                for level in range(parent_level, 0, -1):
                    cached[self.last_labels_np(level)[ancestors], columns] = False
                    if level > 1:
                        ancestors //= self.branch(level - 1)
            self._np_tables[("child_mask", parent_level)] = cached
        return cached

    def ids_by_label_py(self, level: int) -> Dict[ProcessorId, List[int]]:
        """Label → ascending list of the *level* node-ids ending in that label.

        Plain-python twin of :meth:`ids_by_label_np` (the same interned
        ``slots`` lists, no copies), used by the batched discovery passes'
        fired-row fast scan; cached once per level per shape.
        """
        cached = self._np_tables.get(("ids_py", level))
        if cached is None:
            if level == 1:
                self.ensure_level(1)
                cached = {self.source: [0]}
            else:
                cached = {label: slots
                          for label, (slots, _parents)
                          in self.slots_for(level).items()}
            self._np_tables[("ids_py", level)] = cached
        return cached

    def ids_by_label_np(self, level: int):
        """Label → ndarray of the *level* node-ids ending in that label.

        Level 1 is the root-only special case (its ``slots_for`` table is
        empty because the root has no parent): the single node-id 0 belongs to
        the source's label.
        """
        cached = self._np_tables.get(("ids", level))
        if cached is None:
            from .npsupport import require_numpy
            np = require_numpy()
            if level == 1:
                self.ensure_level(1)
                cached = {self.source: np.asarray([0], dtype=np.int64)}
            else:
                cached = {label: slots
                          for label, (slots, _parents)
                          in self.slots_np(level).items()}
            self._np_tables[("ids", level)] = cached
        return cached

    def node_id(self, seq: Sequence[ProcessorId]) -> int:
        """The node-id of *seq* within its level (raises for invalid sequences)."""
        seq = tuple(seq)
        self.ensure_level(len(seq))
        try:
            return self._id_of[len(seq) - 1][seq]
        except KeyError:
            raise ValueError(f"{seq!r} is not a node of this tree shape") from None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "with" if self.allow_repetitions else "without"
        return (f"SequenceIndex(n={self.n}, source={self.source}, "
                f"{kind} repetitions, built_levels={len(self._seqs)})")


#: Shared per-shape index cache.  Keyed by the full shape so arbitrary
#: processor-id sets (used in tests) get their own tables; in simulation use
#: the processors are always ``range(n)`` so one entry serves every processor
#: of every run at a given ``(n, source)``.
_INDEX_CACHE: Dict[Tuple[ProcessorId, Tuple[ProcessorId, ...], bool],
                   "SequenceIndex"] = {}


def sequence_index(source: ProcessorId, processors: Sequence[ProcessorId],
                   allow_repetitions: bool = False) -> SequenceIndex:
    """The shared :class:`SequenceIndex` for a tree shape (built on demand)."""
    key = (source, tuple(processors), allow_repetitions)
    index = _INDEX_CACHE.get(key)
    if index is None:
        index = _INDEX_CACHE[key] = SequenceIndex(source, key[1],
                                                  allow_repetitions)
    return index


def clear_sequence_index_cache() -> None:
    """Drop every cached index (their tables are O(n^levels) tuples each).

    Long-lived processes sweeping many distinct ``(n, source)`` shapes can
    call this between sweeps to release the retained tables; live trees keep
    their own references, so clearing is always safe.
    """
    _INDEX_CACHE.clear()


def all_faulty(seq: Sequence[ProcessorId], faulty: Iterable[ProcessorId]) -> bool:
    """Return ``True`` iff every processor named in *seq* is faulty.

    Used by tests that check the Hidden Fault Lemma and its corollaries, which
    are stated for nodes ``αr`` in which all processors are faulty.
    """
    faulty_set = set(faulty)
    return all(pid in faulty_set for pid in seq)
