"""Optional-numpy support: lazy import plus the shared value↔code codec.

The ``"numpy"`` EIG engine stores tree levels as small-integer ndarrays.  Two
pieces of shared infrastructure live here so that every other module can stay
import-clean when numpy is absent:

* **Lazy numpy access.**  :func:`get_numpy` imports numpy at most once and
  caches the result (``None`` when unavailable); :func:`have_numpy` and
  :func:`require_numpy` are the gate used by the engine registry and by the
  numpy code paths.  Importing :mod:`repro` never imports numpy — only
  selecting the ``"numpy"`` engine does.

* **The value codec.**  Protocol values are arbitrary hashable objects (ints
  in every example), so the ndarray buffers hold dense integer *codes* instead
  of the values themselves.  One process-wide :class:`ValueCodec` interns
  values in first-seen order, which makes codes *globally consistent*: a
  receiver can copy a sender's code buffer by fancy indexing without any
  translation, because both trees read and write the same table.  Three codes
  are fixed by construction:

  - :data:`MISSING_CODE` (0) — an absent node (the ndarray twin of the flat
    engine's ``MISSING`` sentinel; never visible through the public tree API);
  - :data:`DEFAULT_CODE` (1) — :data:`~repro.core.values.DEFAULT_VALUE`;
  - :data:`BOTTOM_CODE` (2) — :data:`~repro.core.values.BOTTOM` (appears only
    in ``resolve'`` scratch buffers, never inside a tree).

  The codec is append-only and tiny (one entry per distinct value ever stored
  in any tree of the process — domains have a handful of elements), so it is
  shared rather than per-tree.
"""

from __future__ import annotations

import threading
from functools import lru_cache as _lru_cache
from typing import Dict, List

from .values import BOTTOM, DEFAULT_VALUE, Value

_NUMPY = None
_NUMPY_CHECKED = False


def get_numpy():
    """The numpy module, or ``None`` when it is not installed (cached)."""
    global _NUMPY, _NUMPY_CHECKED
    if not _NUMPY_CHECKED:
        _NUMPY_CHECKED = True
        try:
            import numpy
        except ImportError:  # pragma: no cover - exercised on bare images
            numpy = None
        _NUMPY = numpy
    return _NUMPY


def have_numpy() -> bool:
    """``True`` iff numpy can be imported (the ``"numpy"`` engine gate)."""
    return get_numpy() is not None


def require_numpy():
    """Numpy, or a clear error pointing at the engine gate."""
    numpy = get_numpy()
    if numpy is None:
        raise RuntimeError(
            "the 'numpy' EIG engine requires numpy, which is not installed; "
            "use the 'fast' engine (the no-dependency default) instead")
    return numpy


#: Code of an absent node in an ndarray level buffer.
MISSING_CODE = 0
#: Code of :data:`~repro.core.values.DEFAULT_VALUE`.
DEFAULT_CODE = 1
#: Code of the ``⊥`` sentinel (conversion scratch only, never stored).
BOTTOM_CODE = 2

#: dtype of every code buffer: codes index a codec of a handful of values,
#: and int32 keeps level stacks 2× smaller than the platform int while
#: every kernel that offsets codes (``window_tallies``) widens to int64
#: itself.
CODE_DTYPE_NAME = "int32"

#: Below this many stacked elements the batched kernels switch to their
#: scalar (pure-python) paths: ndarray call overhead dominates tiny levels —
#: the very regime the batched executor exists to win.  Shared by the
#: trigger, vote, and claim-routing fast paths, and scaled by the choice to
#: gather (rather than count) a conversion level, so the crossover is tuned
#: in one place.
SMALL_KERNEL_ELEMENTS = 512

#: Element budget of one row block of the whole-stack batched kernels
#: (discovery triggers, conversion votes, the count kernel's ranking).
#: Their temporaries are a few times the block, so a block this size keeps
#: them cache-sized where one pass over a whole ``n = 16`` level-5 stack
#: (491 400 codes) would stream megabytes through memory.  Stacks up to
#: ``n = 13`` fit in one block.
ROW_BLOCK_ELEMENTS = 1 << 18

#: Stacks of more than this many codes (child codes, for a counted level)
#: take the large-level forms of the batched kernels: the gather reads
#: claims label by label, and the count and trigger kernels work in
#: per-thread :func:`scratch` buffers instead of fresh level-sized arrays.
#: The same crossover as :data:`ROW_BLOCK_ELEMENTS`: a stack that fits one
#: row block keeps its temporaries in cache, where the large forms' extra
#: ndarray calls would only cost (``n = 13`` tops out at 142 560 codes;
#: ``n = 16`` has a 491 400-code level 5 and counts level 6).
LARGE_LEVEL_ELEMENTS = ROW_BLOCK_ELEMENTS

_SCRATCH = threading.local()


def scratch(name: str, shape, dtype):
    """A reused uninitialised *shape* buffer, one per *name* and thread.

    The large-level kernels take their temporaries here: at ``n = 16`` a
    run would otherwise allocate some 15 MB of level-sized arrays that the
    allocator hands back to the kernel at the end of every run and faults
    in again on the next.  A buffer grows to the largest request seen and
    is shared by every later request for *name* on the thread, so its
    contents are valid only until that next request: hand it to nothing
    that outlives the call or round that fills it (level stacks and
    broadcast row views never live here).  Each thread has its own set,
    since ``repro serve`` runs executions on two worker threads.
    """
    np = require_numpy()
    pool = _SCRATCH.__dict__
    size = 1
    for extent in shape:
        size *= extent
    buffer = pool.get(name)
    if buffer is None or buffer.size < size or buffer.dtype != dtype:
        buffer = pool[name] = np.empty(size, dtype=dtype)
    return buffer[:size].reshape(shape)


def fresh(name: str, shape, dtype):
    """:func:`scratch`'s signature for a freshly allocated buffer."""
    return require_numpy().empty(shape, dtype=dtype)


class ValueCodec:
    """Append-only interning table between protocol values and integer codes."""

    __slots__ = ("_code_of", "_value_of")

    def __init__(self) -> None:
        self._code_of: Dict[Value, int] = {}
        # Slot 0 is reserved for MISSING and never maps back to a value.
        self._value_of: List[Value] = [None]
        assert self.code(DEFAULT_VALUE) == DEFAULT_CODE
        assert self.code(BOTTOM) == BOTTOM_CODE

    def code(self, value: Value) -> int:
        """The code of *value*, interning it on first sight."""
        code = self._code_of.get(value)
        if code is None:
            code = len(self._value_of)
            self._code_of[value] = code
            self._value_of.append(value)
        return code

    def value(self, code: int) -> Value:
        """The value behind *code* (``None`` for :data:`MISSING_CODE`)."""
        return self._value_of[code]

    def __len__(self) -> int:
        """Number of code slots (``max assigned code + 1``)."""
        return len(self._value_of)

    # -- bulk helpers (numpy required) ---------------------------------------
    def encode_buffer(self, values, missing=None):
        """Encode an iterable of values into a fresh code ndarray.

        *missing* (identity-compared) marks entries to encode as
        :data:`MISSING_CODE` — callers pass the flat engine's sentinel.
        """
        np = require_numpy()
        values = list(values)
        return np.fromiter(
            (MISSING_CODE if v is missing else self.code(v) for v in values),
            dtype=CODE_DTYPE_NAME, count=len(values))

    def decode_buffer(self, codes, missing=None) -> List[Value]:
        """Decode a code ndarray back into a list of values.

        :data:`MISSING_CODE` entries decode to *missing* (default ``None``).
        """
        table = self._value_of
        return [missing if c == MISSING_CODE else table[c]
                for c in codes.tolist()]

    def domain_mask(self, domain):
        """Boolean lookup table over codes: ``mask[c]`` iff ``value(c) ∈ domain``.

        Sized to the codec at call time, so every code that can appear in an
        already-built buffer is covered (the codec is append-only).
        """
        np = require_numpy()
        # Intern the domain first: code() appends on first sight, and a
        # domain value the run has not produced yet would otherwise be
        # assigned a code one past the mask built from the pre-loop length.
        codes = [self.code(value) for value in domain]
        mask = np.zeros(len(self._value_of), dtype=bool)
        for code in codes:
            mask[code] = True
        return mask


#: The process-wide codec shared by every numpy-engine tree and message.
VALUE_CODEC = ValueCodec()


def shard_bounds(count: int, shards: int) -> List[tuple]:
    """Balanced contiguous ``[start, stop)`` row ranges: :func:`row_blocks`' split.

    Splits *count* stacked rows into at most *shards* non-empty slices whose
    sizes differ by at most one.  Row order (participants first, then shadow
    rows) is preserved, so global row indices are ``range(start, stop)`` for
    each bound.
    """
    if count <= 0 or shards <= 0:
        return []
    shards = min(shards, count)
    base, extra = divmod(count, shards)
    bounds = []
    start = 0
    for i in range(shards):
        stop = start + base + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def row_blocks(count: int, row_elements: int) -> List[tuple]:
    """Contiguous ``[start, stop)`` row blocks of a *count*-row stack.

    The :func:`shard_bounds` split of *count* rows of *row_elements* each
    into the fewest blocks that keep each within :data:`ROW_BLOCK_ELEMENTS`
    (a row larger than the budget gets a block of its own).  The batched
    kernels are row-independent, so stepping the blocks in order gives the
    whole-stack result exactly.
    """
    rows_per_block = max(1, ROW_BLOCK_ELEMENTS // max(1, row_elements))
    return shard_bounds(count, -(-count // rows_per_block))


class BatchedEIGState:
    """Stacked level buffers for every participating processor of one run.

    The batched run executor (:mod:`repro.runtime.batched`) stores, per tree
    level, a single ``(participants, level_size)`` int32 code ndarray — row
    ``i`` is exactly the level buffer participant ``i``'s
    :class:`~repro.core.tree.NumpyEIGTree` (or, over a repetition *index*,
    Algorithm C's :class:`~repro.core.tree.NumpyRepetitionTree`) would hold
    at the same point of the execution.  A few 2-D kernels per round then
    step every correct processor at once: gathering is a fancy-indexed read
    over the stacked claims, and resolve / fault discovery reshape the stack
    into a ``(participants · parents, branch)`` vote matrix — each walking
    the stack in :func:`row_blocks` so their temporaries stay cache-sized at
    any ``n``.

    The aliasing discipline matches the per-processor trees: a level stack may
    be mutated only during the round that appended it (gathering + masking of
    freshly discovered senders); every later rewrite (the shift back to a
    root, Algorithm C's ``shift_{3→2}``) installs new arrays, so a row view
    wrapped by an outgoing :class:`~repro.runtime.messages.NumpyLevelMessage`
    is immutable from the moment it is broadcast.

    **Invariant: levels are stored whole.**  Roots come from the coercion
    rule and appended levels from the batched gather (which substitutes the
    default), so :data:`MISSING_CODE` never appears in a stack.  The batched
    discovery and conversion kernels rely on this to skip the
    missing-substitution passes; callers appending stacks by other means must
    uphold it.
    """

    __slots__ = ("index", "count", "_levels")

    def __init__(self, index, count: int) -> None:
        require_numpy()
        self.index = index
        self.count = count
        self._levels: List[object] = []

    @property
    def num_levels(self) -> int:
        return len(self._levels)

    def raw_stack(self, level: int):
        """The ``(participants, level_size)`` code stack of *level*, by reference."""
        return self._levels[level - 1]

    def row_view(self, level: int, i: int):
        """Participant *i*'s level buffer: a 1-D view into the level stack."""
        return self._levels[level - 1][i]

    def set_roots(self, codes) -> None:
        """Install the per-participant root codes as the (only) level 1."""
        np = require_numpy()
        roots = np.asarray(codes, dtype=CODE_DTYPE_NAME).reshape(self.count, 1)
        self._levels = [roots]

    #: ``shift_{k→1}`` for the whole run: same operation as :meth:`set_roots`.
    reset_to_roots = set_roots

    def append_level(self, stack) -> None:
        """Install *stack* as the next level (shape-checked against the index)."""
        expected = (self.count, self.index.level_size(self.num_levels + 1))
        if tuple(stack.shape) != expected:
            raise ValueError(
                f"level {self.num_levels + 1} stack must have shape "
                f"{expected}, got {tuple(stack.shape)}")
        self._levels.append(stack)

    def truncate_to_level(self, level: int) -> None:
        """Drop every level deeper than *level* (part of ``shift_{3→2}``)."""
        del self._levels[level:]

    def row_tree(self, i: int, meter=None):
        """Participant *i*'s state as a standalone :class:`NumpyEIGTree`.

        Copies the row buffers (the returned tree owns its levels); used by
        tests and reporting to reuse the per-processor accessors/kernels
        against a batched execution.
        """
        from .tree import NumpyEIGTree
        return NumpyEIGTree.adopt_levels(
            self.index.source, self.index.processors,
            [stack[i].copy() for stack in self._levels], meter)


# ---------------------------------------------------------------------------
# The shared vote kernel: every per-level majority pass of the numpy engine
# (resolve, resolve', the Fault Discovery Rule, Algorithm C's shift_{3→2})
# goes through these three helpers, so vote semantics live in exactly one
# place.
# ---------------------------------------------------------------------------

def vote_windows(codes, rows: int, branch: int):
    """Reshape a level's code buffer into its ``(rows, branch)`` vote matrix.

    (:func:`window_tallies` picks an offset dtype wide enough for its own
    arithmetic, so no upcast happens here.)
    """
    return codes.reshape(rows, branch)


def window_tallies(windows, num_codes: int):
    """Per-window vote tallies: ``tallies[i, c]`` counts code ``c`` in row ``i``.

    One ``bincount`` over offset codes (row ``i`` shifted by ``i·num_codes``)
    tallies every window of the level at once.  The offset arithmetic runs in
    int64: it cannot overflow there, and ``bincount`` consumes native intp
    input directly instead of recasting.
    """
    np = require_numpy()
    rows = windows.shape[0]
    total = rows * num_codes
    if rows <= _OFFSET_CACHE_ROWS:
        offsets = _window_offsets(rows, num_codes)
    else:
        offsets = (np.arange(rows, dtype=np.int64) * num_codes)[:, None]
    flat = (windows + offsets).reshape(-1)
    return np.bincount(flat, minlength=total).reshape(rows, num_codes)


def window_top(windows, codes, buffer):
    """Per-window top code and its tally, for a large batched level.

    What ``argmax`` over :func:`window_tallies` and the tally it picks give
    — the first maximum in code order — ranked code by code over
    :func:`_code_counts` in *buffer*, without forming the tallies.  *codes*
    are the non-default codes the windows can hold, ascending
    (:func:`stack_codes`).
    """
    np = require_numpy()
    counts = _code_counts(windows, codes, buffer)
    shape = (windows.shape[0],)
    best = buffer("top.best", shape, np.intp)
    best_count = buffer("top.count", shape, counts.dtype)
    more = buffer("top.more", shape, bool)
    best.fill(DEFAULT_CODE)
    np.copyto(best_count, counts[0])
    for code, count in zip(codes, counts[1:]):
        np.greater(count, best_count, out=more)
        np.copyto(best, code, where=more)
        np.maximum(best_count, count, out=best_count)
    return best, best_count


def _code_counts(windows, codes, buffer):
    """How often the default and each of *codes* fill each window.

    ``counts[0, i]`` is the default's count in window ``i`` and
    ``counts[k + 1, i]`` that of ``codes[k]``.  For a large batched level,
    in *buffer*: one equality pass and one strided add per window column
    for each of *codes*, and the default's count as the complement — a
    batched stack holds no :data:`MISSING_CODE` (the
    :class:`BatchedEIGState` invariant).  Ranking these counts costs under
    half of the ``bincount`` and its ``argmax`` on an ``n = 16`` level-5
    row block, with no int64 temporaries.
    """
    np = require_numpy()
    rows, branch = windows.shape
    counts = buffer("codes.counts", (len(codes) + 1, rows),
                    np.min_scalar_type(branch))
    hits = buffer("codes.hits", windows.shape, bool)
    columns = hits.view(np.uint8)
    counts[0] = branch
    for code, count in zip(codes, counts[1:]):
        np.equal(windows, code, out=hits)
        np.copyto(count, columns[:, 0])
        for column in range(1, branch):
            count += columns[:, column]
        counts[0] -= count
    return counts


def stack_codes(domain_mask, bottom: bool = False):
    """The non-default codes a batched level stack can hold, ascending.

    A gathered level holds the run's domain codes and the default (the
    gather collapses every other claim to it, and masking writes it), so
    do the ``resolve`` votes over it; ``resolve'`` votes (*bottom*) may
    also hold :data:`BOTTOM_CODE`.  (The state-corruption hook may write
    any code, but only into the top stored level after the round's
    discovery and conversion; later kernels read only newer gathered levels
    and the votes over them.)  The large-level kernels rank only these codes, not every code the
    process-wide codec has interned.
    """
    np = require_numpy()
    codes = [code for code in np.flatnonzero(domain_mask).tolist()
             if code != DEFAULT_CODE]
    return sorted(codes + [BOTTOM_CODE]) if bottom else codes


#: Offset columns are cached only below this row count: for small windows
#: the arange/multiply pair is a measurable share of the kernel, while a
#: large cached column would just pin memory for the process lifetime.
_OFFSET_CACHE_ROWS = 4096


@_lru_cache(maxsize=128)
def _window_offsets(rows: int, num_codes: int):
    """The ``(rows, 1)`` offset column of :func:`window_tallies`, cached.

    Row counts repeat every round of a run (they depend only on the tree
    shape and participant count), so the arange/multiply pair is worth
    keeping for the small windows it dominates.
    """
    np = require_numpy()
    return (np.arange(rows, dtype=np.int64) * num_codes)[:, None]


def strict_majority(tallies, branch: int):
    """Per-row ``(top code, holds a strict majority of branch)`` arrays.

    A strict majority is unique when it exists, so the argmax tie-break never
    affects rows where the second array is ``True``.
    """
    np = require_numpy()
    best = tallies.argmax(axis=1)
    best_count = tallies[np.arange(tallies.shape[0]), best]
    return best, 2 * best_count > branch
