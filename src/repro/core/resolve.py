"""Data-conversion functions: ``resolve`` and ``resolve'``.

The paper defines two recursive conversion functions applied to (subtrees of)
an Information Gathering Tree:

* ``resolve`` — *recursive majority voting*, used by the Exponential
  Algorithm, Algorithm B, Algorithm C, and the final stages of the hybrid:
  a leaf resolves to its stored value; an internal node resolves to the value
  held by a strict majority of its resolved children, or to the default value
  0 when no majority exists.

* ``resolve'`` — the *threshold* conversion of Algorithm A: a leaf resolves to
  its stored value; an internal node resolves to ``v`` when ``v`` is the
  *unique* value of ``V`` appearing at least ``t + 1`` times among the
  resolved children, and to ``⊥`` (:data:`~repro.core.values.BOTTOM`)
  otherwise.  ``⊥`` never enters the tree; a processor whose final conversion
  yields ``⊥`` adopts the default value as its new preferred value.

Both functions are implemented iteratively (post-order over the subtree) so
that very deep trees never hit Python's recursion limit, and both charge one
computation unit per visited node so the ``O(n^{b+1})``-style local
computation bounds can be validated.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Optional

from .sequences import LabelSequence
from .tree import MISSING, FlatEIGTree, InfoGatheringTree
from .values import BOTTOM, DEFAULT_VALUE, Value, is_bottom

Resolver = Callable[[InfoGatheringTree, LabelSequence], Value]


def majority_value(counter: Counter, population: int) -> Optional[Value]:
    """The value held by a strict majority of *population* slots, if any."""
    if not counter or population <= 0:
        return None
    value, count = counter.most_common(1)[0]
    if count * 2 > population:
        return value
    return None


def _resolved_children(tree: InfoGatheringTree, seq: LabelSequence,
                       cache: Dict[LabelSequence, Value],
                       resolve_leaf_and_combine) -> Value:
    """Post-order evaluation of a conversion function over the subtree at *seq*.

    ``resolve_leaf_and_combine`` is a pair ``(leaf_fn, combine_fn)`` where
    ``leaf_fn(seq)`` resolves a leaf and ``combine_fn(seq, child_values)``
    combines already-resolved children of an internal node.
    """
    leaf_fn, combine_fn = resolve_leaf_and_combine
    stack = [(tuple(seq), False)]
    while stack:
        node, expanded = stack.pop()
        if node in cache:
            continue
        if tree.is_leaf(node):
            cache[node] = leaf_fn(node)
            tree.meter.charge()
            continue
        children = [node + (c,) for c in tree.child_labels(node)]
        if not expanded:
            stack.append((node, True))
            for child in children:
                if child not in cache:
                    stack.append((child, False))
            continue
        child_values = [cache[child] for child in children]
        cache[node] = combine_fn(node, child_values)
        tree.meter.charge(len(children))
    return cache[tuple(seq)]


def resolve(tree: InfoGatheringTree, seq: LabelSequence,
            cache: Optional[Dict[LabelSequence, Value]] = None) -> Value:
    """Recursive majority vote over the subtree rooted at *seq*.

    Returns the stored value for leaves; for internal nodes, the strict
    majority among the resolved children, or :data:`DEFAULT_VALUE` when no
    strict majority exists.
    """
    if cache is None:
        cache = {}

    def leaf_fn(node: LabelSequence) -> Value:
        return tree.value(node)

    def combine_fn(node: LabelSequence, child_values) -> Value:
        majority = majority_value(Counter(child_values), len(child_values))
        return majority if majority is not None else DEFAULT_VALUE

    return _resolved_children(tree, seq, cache, (leaf_fn, combine_fn))


def make_resolve_prime(t: int) -> Resolver:
    """Build the ``resolve'`` conversion function for resilience parameter *t*.

    ``resolve'`` needs to know ``t`` because its internal-node rule is a
    ``t + 1`` threshold rather than a majority.
    """

    def resolve_prime(tree: InfoGatheringTree, seq: LabelSequence,
                      cache: Optional[Dict[LabelSequence, Value]] = None) -> Value:
        if cache is None:
            cache = {}

        def leaf_fn(node: LabelSequence) -> Value:
            return tree.value(node)

        def combine_fn(node: LabelSequence, child_values) -> Value:
            counts = Counter(v for v in child_values if not is_bottom(v))
            winners = [value for value, count in counts.items()
                       if count >= t + 1]
            if len(winners) == 1:
                return winners[0]
            return BOTTOM

        return _resolved_children(tree, seq, cache, (leaf_fn, combine_fn))

    return resolve_prime


def resolve_prime(tree: InfoGatheringTree, seq: LabelSequence, t: int,
                  cache: Optional[Dict[LabelSequence, Value]] = None) -> Value:
    """Convenience wrapper around :func:`make_resolve_prime`."""
    return make_resolve_prime(t)(tree, seq, cache)


# ---------------------------------------------------------------------------
# The fast engine's conversion: one bottom-up pass over flat level buffers
# ---------------------------------------------------------------------------

def flat_resolve_levels(tree: FlatEIGTree, conversion: str,
                        t: int) -> List[List[Value]]:
    """Convert every node of a flat tree in a single bottom-up pass.

    Returns ``levels`` with ``levels[ℓ - 1][i]`` the converted value of the
    node with id ``i`` at level ``ℓ`` — the flat-array equivalent of
    :func:`resolve_all`.  Semantics match the recursive specification exactly
    (leaves resolve to their stored value with the default substituted for
    absent nodes; internal nodes apply majority or the ``t + 1`` threshold to
    the contiguous child slice), but the pass allocates one scratch buffer per
    level, counts majorities with C-speed ``list.count`` over the (typically
    two-element) set of values present in the level, and charges the meter
    once, in bulk, with the same unit total as the reference implementation
    (two units per leaf, one per child of every internal node).
    """
    if conversion not in ("resolve", "resolve_prime"):
        raise ValueError(f"unknown conversion function {conversion!r}")
    height = tree.num_levels
    if height < 1:
        raise KeyError("cannot resolve an empty tree")
    index = tree.index
    leaf_buffer = tree.raw_level(height)
    levels: List[List[Value]] = [[] for _ in range(height)]
    levels[height - 1] = [DEFAULT_VALUE if v is MISSING else v
                          for v in leaf_buffer]
    charge = 2 * len(leaf_buffer)
    majority = conversion == "resolve"
    threshold = t + 1
    for level in range(height - 1, 0, -1):
        children = levels[level]
        branch = index.branch(level)
        size = index.level_size(level)
        out: List[Value] = [DEFAULT_VALUE] * size
        present = set(children)
        if not majority:
            # resolve' counts only non-⊥ values against the threshold; the
            # majority rule keeps every distinct child value as a candidate,
            # exactly like the reference Counter.
            present.discard(BOTTOM)
        charge += size * branch
        if majority:
            for i in range(size):
                base = i * branch
                window = children[base:base + branch]
                for value in present:
                    if 2 * window.count(value) > branch:
                        out[i] = value
                        break
        else:
            for i in range(size):
                base = i * branch
                window = children[base:base + branch]
                winner = BOTTOM
                winners = 0
                for value in present:
                    if window.count(value) >= threshold:
                        winners += 1
                        winner = value
                out[i] = winner if winners == 1 else BOTTOM
        levels[level - 1] = out
    tree.meter.charge(charge)
    return levels


def flat_resolve_root(tree: FlatEIGTree, conversion: str, t: int) -> Value:
    """The converted value of the root of a flat tree (bottom-up pass)."""
    return flat_resolve_levels(tree, conversion, t)[0][0]


# ---------------------------------------------------------------------------
# The numpy engine's conversion: one bincount majority vote per level
# ---------------------------------------------------------------------------

def _vote_level_select(np, windows, branch: int, majority: bool,
                       threshold: int, num_codes: int, dtype):
    """One level's conversion votes: ``windows`` → per-window converted code.

    The select shared by the per-processor and the batched numpy conversions:
    a single ``bincount`` tallies every ``(rows, branch)`` window, then
    ``resolve`` keeps strict majorities (default otherwise) and ``resolve'``
    zeroes the ``⊥`` column and demands a unique ``t + 1``-threshold winner.
    """
    from .npsupport import (BOTTOM_CODE, DEFAULT_CODE, strict_majority,
                            window_tallies)
    tallies = window_tallies(windows, num_codes)
    if majority:
        best, has_majority = strict_majority(tallies, branch)
        out = np.where(has_majority, best, DEFAULT_CODE)
    else:
        tallies[:, BOTTOM_CODE] = 0
        winners = tallies >= threshold
        winner_count = winners.sum(axis=1)
        winner_code = winners.argmax(axis=1)
        out = np.where(winner_count == 1, winner_code, BOTTOM_CODE)
    return out.astype(dtype)


def numpy_resolve_levels(tree, conversion: str, t: int) -> List[object]:
    """Vectorized :func:`flat_resolve_levels` over an ndarray-backed tree.

    Returns ``levels`` with ``levels[ℓ - 1]`` an int **code** ndarray (the
    codes of :data:`~repro.core.npsupport.VALUE_CODEC`; decode the root with
    the codec, or the whole pass with :func:`flat_converted_dict`, which
    accepts code arrays).  Per level the child buffer is reshaped to
    ``(parents, branch)`` and a single ``bincount`` over offset codes yields
    every parent's vote tally at once:

    * ``resolve`` keeps the per-row argmax when it is a strict majority of the
      branch, else the default — a strict majority is unique, so argmax ties
      are irrelevant;
    * ``resolve'`` zeroes the ``⊥`` column and takes the row's value iff
      exactly one code reaches the ``t + 1`` threshold, else ``⊥``.

    Semantics and meter accounting are identical to both other engines (two
    units per leaf, one per child of every internal node, charged in bulk).
    """
    from .npsupport import (DEFAULT_CODE, MISSING_CODE, VALUE_CODEC,
                            require_numpy, vote_windows)
    np = require_numpy()
    if conversion not in ("resolve", "resolve_prime"):
        raise ValueError(f"unknown conversion function {conversion!r}")
    height = tree.num_levels
    if height < 1:
        raise KeyError("cannot resolve an empty tree")
    index = tree.index
    leaf_buffer = tree.raw_level(height)
    levels: List[object] = [None] * height
    levels[height - 1] = np.where(leaf_buffer == MISSING_CODE,
                                  DEFAULT_CODE, leaf_buffer)
    charge = 2 * len(leaf_buffer)
    majority = conversion == "resolve"
    threshold = t + 1
    num_codes = len(VALUE_CODEC)
    for level in range(height - 1, 0, -1):
        children = levels[level]
        branch = index.branch(level)
        size = index.level_size(level)
        charge += size * branch
        levels[level - 1] = _vote_level_select(
            np, vote_windows(children, size, branch), branch, majority,
            threshold, num_codes, children.dtype)
    tree.meter.charge(charge)
    return levels


def batched_resolve_levels(state, conversion: str, t: int, codes,
                           bottom=None):
    """Whole-run conversion: :func:`numpy_resolve_levels` over stacked levels.

    *state* is a :class:`~repro.core.npsupport.BatchedEIGState`; every
    participant's tree is converted at once by reshaping each level stack to
    ``(participants · parents, branch)`` and running the shared vote select —
    one ``bincount`` per level and row block
    (:func:`~repro.core.npsupport.row_blocks`) for the entire run.  Returns
    ``(levels, per_participant_charge)`` where ``levels[ℓ - 1]`` is the
    ``(participants, level_size)`` converted code stack of level ``ℓ`` and the
    charge equals what :func:`numpy_resolve_levels` bills one processor (the
    caller charges each participant's meter).  ``resolve`` over a level of
    more than :data:`~repro.core.npsupport.LARGE_LEVEL_ELEMENTS` codes
    ranks the default and *codes* one by one in scratch buffers
    (:func:`~repro.core.npsupport.window_top`); *codes* are the non-default
    codes the stacks can hold (:func:`~repro.core.npsupport.stack_codes`).

    With *bottom* — the :class:`~repro.core.fault_masking.ChildCounts` of a
    leaf level below the stored ones, never gathered — the deepest stored
    level takes that leaf level's vote, and ``levels`` ends with ``None``
    in place of the leaves.
    """
    from .npsupport import (DEFAULT_CODE, LARGE_LEVEL_ELEMENTS,
                            SMALL_KERNEL_ELEMENTS, VALUE_CODEC, require_numpy,
                            row_blocks, scratch, window_top)
    np = require_numpy()
    if conversion not in ("resolve", "resolve_prime"):
        raise ValueError(f"unknown conversion function {conversion!r}")
    height = state.num_levels
    if height < 1:
        raise KeyError("cannot resolve an empty tree")
    index = state.index
    count = state.count
    if bottom is None:
        # Batched levels are stored whole (the BatchedEIGState invariant),
        # so the leaves resolve to themselves — no MISSING substitution pass.
        levels: List[object] = [None] * height
        levels[height - 1] = state.raw_stack(height)
        charge = 2 * index.level_size(height)
    else:
        leaves = bottom.parents_size * bottom.branch
        levels = [None] * (height + 1)
        levels[height - 1] = bottom.vote(conversion, t)
        # Two units per leaf, plus one per child of every bottom parent.
        charge = 3 * leaves
    majority = conversion == "resolve"
    threshold = t + 1
    num_codes = len(VALUE_CODEC)
    for level in range(height - 1, 0, -1):
        children = levels[level]
        branch = index.branch(level)
        size = index.level_size(level)
        charge += size * branch
        if children.size <= SMALL_KERNEL_ELEMENTS:
            levels[level - 1] = np.asarray(
                _vote_level_python(children.tolist(), size, branch, majority,
                                   threshold), dtype=children.dtype)
            continue
        out = np.empty((count, size), dtype=children.dtype)
        large = majority and children.size > LARGE_LEVEL_ELEMENTS
        for start, stop in row_blocks(count, children.shape[1]):
            windows = children[start:stop].reshape(-1, branch)
            if large:
                best, best_count = window_top(windows, codes, scratch)
                votes = np.where(best_count > branch // 2, best,
                                 DEFAULT_CODE)
            else:
                votes = _vote_level_select(np, windows, branch, majority,
                                           threshold, num_codes,
                                           children.dtype)
            out[start:stop] = votes.reshape(-1, size)
        levels[level - 1] = out
    return levels, charge


def _vote_level_python(child_rows, size: int, branch: int, majority: bool,
                       threshold: int):
    """Scalar twin of :func:`_vote_level_select` for tiny stacked levels.

    Same decisions on plain lists of codes: ``resolve`` keeps a strict
    majority (default otherwise, via the fast engine's
    :func:`~repro.core.fault_discovery.window_majority`); ``resolve'``
    demands a unique non-``⊥`` code reaching the threshold.
    """
    from .npsupport import BOTTOM_CODE, DEFAULT_CODE
    from .fault_discovery import window_majority
    out_rows = []
    for row in child_rows:
        out_row = []
        for w in range(size):
            window = row[w * branch:(w + 1) * branch]
            if majority:
                winner = window_majority(window, branch)
                out_row.append(DEFAULT_CODE if winner is None else winner)
                continue
            winner = BOTTOM_CODE
            winners = 0
            # repro-lint: waive[determinism/set-iteration] -- the winner
            # is used only when exactly one code crosses the threshold,
            # so visiting order cannot change the resolved value
            for code in set(window):
                if code != BOTTOM_CODE and window.count(code) >= threshold:
                    winners += 1
                    winner = code
            out_row.append(winner if winners == 1 else BOTTOM_CODE)
        out_rows.append(out_row)
    return out_rows


def numpy_resolve_root(tree, conversion: str, t: int) -> Value:
    """The decoded converted value of the root of an ndarray-backed tree."""
    from .npsupport import VALUE_CODEC
    return VALUE_CODEC.value(int(numpy_resolve_levels(tree, conversion,
                                                      t)[0][0]))


def flat_converted_dict(tree: FlatEIGTree,
                        levels: List[List[Value]]) -> Dict[LabelSequence, Value]:
    """Materialise a :func:`resolve_all`-shaped mapping from flat converted
    levels (used only by slow-path consumers such as lemma tests).  Accepts
    both the fast engine's value lists and the numpy engine's code arrays."""
    converted: Dict[LabelSequence, Value] = {}
    for level, values in enumerate(levels, start=1):
        if not isinstance(values, list):
            from .npsupport import VALUE_CODEC
            values = VALUE_CODEC.decode_buffer(values)
        converted.update(zip(tree.index.sequences(level), values))
    return converted


def converted_root(tree: InfoGatheringTree, conversion: str, t: int) -> Value:
    """Apply the named conversion (``"resolve"`` or ``"resolve_prime"``) to the
    root and map ``⊥`` to the default value, as the protocols do when adopting
    a new preferred value."""
    if conversion == "resolve":
        value = resolve(tree, tree.root)
    elif conversion == "resolve_prime":
        value = resolve_prime(tree, tree.root, t)
    else:
        raise ValueError(f"unknown conversion function {conversion!r}")
    return DEFAULT_VALUE if is_bottom(value) else value


def resolve_all(tree: InfoGatheringTree, conversion: str, t: int) -> Dict[LabelSequence, Value]:
    """Resolve every node of the tree, returning the full converted-value map.

    Used by the Fault Discovery Rule During Conversion (which inspects the
    converted values of every internal node's children) and by tests of the
    Correctness / Frontier / Hidden Fault lemmas.
    """
    cache: Dict[LabelSequence, Value] = {}
    if conversion == "resolve":
        resolve(tree, tree.root, cache)
    elif conversion == "resolve_prime":
        resolve_prime(tree, tree.root, t, cache)
    else:
        raise ValueError(f"unknown conversion function {conversion!r}")
    return cache
