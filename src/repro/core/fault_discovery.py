"""The Fault Discovery Rules (Section 3 and Section 4.2 of the paper).

Two rules let a correct processor ``p`` add names to its list ``L_p`` of
processors known to be faulty:

**Fault Discovery Rule (during Information Gathering).**  When the children of
an internal node ``αr`` have just been stored, ``r ∉ L_p`` is added to ``L_p``
if either

* there is no majority value for ``αr`` (no value is stored at a strict
  majority of its children), or
* a majority value exists but values other than it are stored at more than
  ``t − |L_p|`` children of ``αr`` corresponding to processors ``q ∉ L_p``.

**Fault Discovery Rule During Conversion (Algorithm A only).**  The same test
applied to the *converted* values of the children of ``αr`` while a conversion
(``resolve'``) is being computed.

Both rules are sound: as long as ``L_p`` contains only faulty processors and
at most ``t`` processors are faulty, any processor the rules add is faulty
(a correct ``r`` relays a single value which at least ``n − |αr| − t`` correct
children echo, so the majority exists and at most ``t − |L_p|`` unlisted
children deviate).  Because one discovery can enable another within the same
round — masking a newly discovered processor changes other nodes' child
values — the implementation iterates discovery to a fixpoint; the paper leaves
the order unspecified and the fixpoint only ever adds provably faulty names.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Sequence, Set

from .sequences import (LabelSequence, ProcessorId, SequenceIndex,
                        corresponding_processor)
from .tree import MISSING, FlatEIGTree, InfoGatheringTree
from .values import DEFAULT_VALUE, Value
from ..runtime.metrics import ComputationMeter


def majority_among_children(values: Sequence[Value]):
    """Return ``(majority_value, counter)`` for a list of child values.

    ``majority_value`` is ``None`` when no value is held by a strict majority
    of the children (the population is the full child count, as in the paper's
    definition of *majority value for β*).
    """
    counter = Counter(values)
    if not values:
        return None, counter
    value, count = counter.most_common(1)[0]
    if count * 2 > len(values):
        return value, counter
    return None, counter


def node_triggers_discovery(child_values: Dict[ProcessorId, Value],
                            suspects: Set[ProcessorId],
                            t: int) -> bool:
    """Evaluate the two conditions of the Fault Discovery Rule for one node.

    ``child_values`` maps the child label ``q`` to the value stored (or
    converted) at ``αrq``; ``suspects`` is the current ``L_p``.
    """
    values = list(child_values.values())
    majority, _counter = majority_among_children(values)
    if majority is None:
        return True
    budget = t - len(suspects)
    deviating_unlisted = sum(
        1 for q, value in child_values.items()
        if q not in suspects and value != majority)
    return deviating_unlisted > budget


def discover_at_level(tree: InfoGatheringTree, level: int,
                      suspects: Set[ProcessorId], t: int,
                      meter: ComputationMeter = None) -> Set[ProcessorId]:
    """Apply the Fault Discovery Rule to every internal node whose children
    live at *level* of *tree* (a single pass, no masking).

    Returns the set of newly discovered processors (not yet added to
    *suspects*; the caller owns the update so it can interleave masking).
    """
    discovered: Set[ProcessorId] = set()
    if level < 2:
        return discovered
    for parent in tree.level_sequences(level - 1):
        r = corresponding_processor(parent)
        if r in suspects or r in discovered:
            continue
        child_values = {
            child: tree.value(parent + (child,))
            for child in tree.child_labels(parent)
        }
        if meter is not None:
            meter.charge(len(child_values))
        if node_triggers_discovery(child_values, suspects, t):
            discovered.add(r)
    return discovered


def window_majority(window: List[Value], branch: int):
    """The strict-majority value of a child window, or ``None``.

    At most one value can hold a strict majority, so scanning the distinct
    values with C-speed ``list.count`` is equivalent to the reference
    ``Counter.most_common`` check while allocating no per-node counter.
    """
    # repro-lint: waive[determinism/set-iteration] -- at most one value
    # can hold a strict majority, so scan order cannot change the result
    for value in set(window):
        if 2 * window.count(value) > branch:
            return value
    return None


def discover_at_level_flat(tree: FlatEIGTree, level: int,
                           suspects: Set[ProcessorId], t: int,
                           meter: ComputationMeter = None) -> Set[ProcessorId]:
    """Flat-buffer counterpart of :func:`discover_at_level`.

    Operates directly on the level's value buffer and the interned child
    tables: the children of parent ``i`` are the contiguous slice
    ``[i·b, (i+1)·b)`` and their labels come from the shared index, so no
    per-node dictionary or tuple key is built.  Charges the meter in bulk
    with the reference totals (two units per child of every examined parent).
    """
    discovered: Set[ProcessorId] = set()
    if level < 2 or level > tree.num_levels:
        return discovered
    index = tree.index
    child_buffer = tree.raw_level(level)
    parent_buffer = tree.raw_level(level - 1)
    parent_labels = index.last_labels(level - 1)
    child_labels_flat = index.last_labels(level)
    branch = index.branch(level - 1)
    budget = t - len(suspects)
    charge = 0
    cleaned = child_buffer
    if MISSING in child_buffer:
        cleaned = [DEFAULT_VALUE if v is MISSING else v for v in child_buffer]
    single_value = len(set(cleaned)) == 1
    for i in range(index.level_size(level - 1)):
        if parent_buffer[i] is MISSING:
            continue
        r = parent_labels[i]
        if r in suspects or r in discovered:
            continue
        charge += 2 * branch
        if single_value:
            # One distinct value ⇒ it is the majority and nothing deviates
            # (still triggers when the budget went negative, as the spec does).
            if budget < 0:
                discovered.add(r)
            continue
        base = i * branch
        window = cleaned[base:base + branch]
        majority = window_majority(window, branch)
        if majority is None:
            discovered.add(r)
            continue
        deviating = 0
        for offset in range(branch):
            if (window[offset] != majority
                    and child_labels_flat[base + offset] not in suspects):
                deviating += 1
        if deviating > budget:
            discovered.add(r)
    if meter is not None:
        meter.charge(charge)
    return discovered


# ---------------------------------------------------------------------------
# The numpy engine's discovery: one bincount majority vote per level
# ---------------------------------------------------------------------------

def _window_triggers_numpy(np, child_codes, parents_size: int, branch: int,
                           child_labels, suspects: Set[ProcessorId],
                           budget: int, n: int, num_codes: int):
    """Per-parent boolean: does the Fault Discovery Rule fire on this window?

    One ``bincount`` over offset codes tallies every parent's child window at
    once; a window triggers when no code holds a strict majority of the
    branch, or when more than *budget* children outside *suspects* deviate
    from the majority.  (A strict majority is unique, so the argmax tie-break
    never matters.)
    """
    from .npsupport import strict_majority, vote_windows, window_tallies
    mat = vote_windows(child_codes, parents_size, branch)
    best, has_majority = strict_majority(window_tallies(mat, num_codes),
                                         branch)
    suspect_lut = np.zeros(n, dtype=bool)
    if suspects:
        suspect_lut[list(suspects)] = True
    unlisted = ~suspect_lut[child_labels.reshape(parents_size, branch)]
    deviating = ((mat != best[:, None]) & unlisted).sum(axis=1)
    return ~has_majority | (deviating > budget)


def _charge_examined_parents(triggers, ids, discovered: Set[ProcessorId],
                             label: ProcessorId) -> int:
    """Replicate the reference pass's early-skip accounting for one label.

    The reference scans parents in node-id order and skips a parent once its
    corresponding processor is already discovered, so for each label only the
    parents up to (and including) the first triggering one are examined —
    i.e. charged.  *ids* must be ascending (the index tables are built in
    node-id order).  Returns the examined count; updates *discovered*.
    """
    fired = triggers[ids]
    if fired.any():
        first = ids[int(fired.argmax())]
        discovered.add(int(label))
        return int((ids <= first).sum())
    return int(ids.size)


def _scan_parent_labels(index: SequenceIndex, parent_level: int, triggers,
                        present, suspects: Set[ProcessorId],
                        discovered: Set[ProcessorId],
                        charge_per_parent: int) -> int:
    """One label scan over precomputed per-parent *triggers*.

    The per-label half of the per-processor numpy engine's discovery passes
    (the batched executor's twin is :func:`scan_first_fired`): walks the
    (≤ n) sender labels of *parent_level*, skips suspects and
    already-discovered labels, optionally filters to *present* parents
    (a per-processor tree may miss nodes), and applies the reference
    early-skip charge accounting.  Updates *discovered* in place and
    returns the meter charge.
    """
    charge = 0
    for label, ids in index.ids_by_label_np(parent_level).items():
        if label in suspects or label in discovered:
            continue
        if present is not None:
            ids = ids[present[ids]]
            if ids.size == 0:
                continue
        charge += charge_per_parent * _charge_examined_parents(
            triggers, ids, discovered, label)
    return charge


def first_fired_ranks(triggers, groups, buffer=None):
    """Reduce per-node trigger rows to every label's first fired rank.

    *triggers* is a ``(rows, nodes)`` bool matrix over one parent level and
    *groups* that level's :class:`~repro.core.sequences.LabelGroups`.
    Returns the ``(rows, labels)`` ndarray whose entry ``[i, k]`` is the
    rank (among the nodes of label ``groups.labels[k]``, ascending ids) of
    that label's first node that fired in row ``i``, or ``groups.size``
    when none did — the form :func:`scan_first_fired` reads.  The
    label-grouped trigger columns cut into one equal run per
    ``(row, label)``, and one ``argmax`` over those runs finds every first
    fired node at once.  A large level passes its scratch *buffer*, which
    takes the grouped columns a row at a time.
    """
    from .npsupport import require_numpy
    np = require_numpy()
    if buffer is None:
        grouped = np.take(triggers, groups.perm, axis=1)
    else:
        grouped = buffer("first.grouped", triggers.shape, bool)
        for row, grouped_row in zip(triggers, grouped):
            grouped_row[:] = row[groups.perm]
    runs = grouped.reshape(-1, groups.size)
    ranks = runs.argmax(axis=1)
    # argmax is 0 for a run with none fired; such a run reads False there.
    ranks[~runs[np.arange(len(ranks)), ranks]] = groups.size
    return ranks.reshape(triggers.shape[0], -1)


def scan_first_fired(first, groups, suspects: Set[ProcessorId],
                     discovered: Set[ProcessorId],
                     charge_per_parent: int) -> int:
    """One row's label scan over its first fired ranks.

    The per-label half of every batched discovery pass: walks the sender
    labels, skips suspects and already-discovered labels, and applies the
    reference early-skip accounting — the reference pass scans a label's
    parents in node-id order and stops at the first whose window fires, so
    a label with first fired rank ``r`` is discovered and charged for
    ``r + 1`` parents, and a label with none fired is charged for all of
    them.  *first* is the row's entry of :func:`first_fired_ranks` (or of
    a scalar path) over the labels of *groups*.  Updates *discovered* in
    place and returns the meter charge.
    """
    size = groups.size
    charge = 0
    for label, rank in zip(groups.labels, first):
        if label in suspects or label in discovered:
            continue
        if rank < size:
            discovered.add(label)
            charge += rank + 1
        else:
            charge += size
    return charge_per_parent * charge


def _first_fired_python(child_rows, parents_size: int, branch: int,
                        parent_labels, child_labels, groups, suspect_sets,
                        budgets) -> List[List[int]]:
    """First fired ranks per row, computed scalar for tiny levels.

    Same decision as :func:`batched_window_triggers` (a window fires when
    no strict majority exists or more than *budget* unlisted children
    deviate), evaluated with the fast engine's :func:`window_majority` over
    plain lists — for a handful of windows that beats a dozen ndarray
    kernels.  A label's later windows are skipped once one has fired.
    """
    ranks = groups.ranks
    column = groups.column
    size = groups.size
    out: List[List[int]] = []
    for a, row in enumerate(child_rows):
        suspects = suspect_sets[a]
        budget = budgets[a]
        first = [size] * len(groups.labels)
        for w in range(parents_size):
            k = column[parent_labels[w]]
            if first[k] < size:
                continue  # this label already fired at a smaller id
            base = w * branch
            window = row[base:base + branch]
            majority = window_majority(window, branch)
            if majority is not None:
                deviating = 0
                for offset in range(branch):
                    if (window[offset] != majority
                            and child_labels[base + offset] not in suspects):
                        deviating += 1
                if deviating <= budget:
                    continue
            first[k] = ranks[w]
        out.append(first)
    return out


def batched_first_fired(child_stacks, parents_size: int, branch: int,
                        index: SequenceIndex, child_level: int,
                        suspect_sets, budgets, codes, rows=None):
    """First fired ranks per participant for one stacked level.

    Dispatches between the vectorized trigger kernel
    (:func:`batched_window_triggers`, reduced by :func:`first_fired_ranks`)
    and the scalar tiny-level path; either way the result feeds
    :func:`scan_first_fired`, so discovery decisions and meter charges are
    one shared implementation.  *rows* (every row by default) selects the
    stack rows *suspect_sets* and *budgets* describe, and *codes* are the
    non-default codes the stack can hold
    (:func:`~repro.core.npsupport.stack_codes`).  Returns one list of ranks
    per selected row.
    """
    from .npsupport import (LARGE_LEVEL_ELEMENTS, SMALL_KERNEL_ELEMENTS,
                            fresh, require_numpy, scratch)
    np = require_numpy()
    groups = index.label_groups(child_level - 1)
    buffer = scratch if child_stacks.size > LARGE_LEVEL_ELEMENTS else None
    if rows is not None and len(rows) != len(child_stacks):
        selected = (buffer or fresh)(
            "triggers.rows", (len(rows), child_stacks.shape[1]),
            child_stacks.dtype)
        for k, row in enumerate(rows):
            selected[k] = child_stacks[row]
        child_stacks = selected
    if child_stacks.size <= SMALL_KERNEL_ELEMENTS:
        return _first_fired_python(
            child_stacks.tolist(), parents_size, branch,
            index.last_labels(child_level - 1),
            index.last_labels(child_level), groups, suspect_sets, budgets)
    triggers = batched_window_triggers(child_stacks, parents_size, branch,
                                       index.slots_np(child_level),
                                       suspect_sets,
                                       np.asarray(budgets, dtype=np.int64),
                                       codes, buffer)
    return first_fired_ranks(triggers, groups, buffer).tolist()


def batched_window_triggers(child_stacks, parents_size: int, branch: int,
                            child_slots, suspect_sets, budgets, codes,
                            buffer=None):
    """Per-``(participant, parent)`` Fault Discovery triggers for a whole run.

    2-D twin of :func:`_window_triggers_numpy`: *child_stacks* is the
    ``(participants, level_size)`` stack of one level (no ``MISSING_CODE``
    entries — the batched executor stores whole levels), *child_slots* the
    child level's ``slots_np`` table, *suspect_sets* each participant's
    ``L_p``, *budgets* the per-participant ``t − |L_p|``, and *codes* the
    non-default codes the stack can hold.  One ``bincount`` per row block
    (:func:`~repro.core.npsupport.row_blocks`) over its ``(block rows ·
    parents, branch)`` reshape tallies every window of those participants
    at once — or, given a large level's scratch *buffer*,
    :func:`~repro.core.npsupport.window_top` ranks *codes* one by one; the
    unlisted-deviation count is derived from the top code's tally
    (``branch − best's tally``) minus a per-suspect-label slot fixup,
    avoiding any ``(participants, parents, branch)`` temporary.
    """
    from .npsupport import (VALUE_CODEC, fresh, require_numpy, row_blocks,
                            window_tallies, window_top)
    np = require_numpy()
    rows = child_stacks.shape[0]
    shape = (rows, parents_size)
    alloc = buffer or fresh
    best = alloc("triggers.best", shape, np.intp)
    best_count = alloc("triggers.best_count", shape, np.int64)
    for start, stop in row_blocks(rows, child_stacks.shape[1]):
        windows = child_stacks[start:stop].reshape(-1, branch)
        if buffer is not None:
            block_best, block_count = window_top(windows, codes, buffer)
        else:
            tallies = window_tallies(windows, len(VALUE_CODEC))
            block_best = tallies.argmax(axis=1)
            block_count = np.take_along_axis(tallies, block_best[:, None],
                                             axis=1)
        best[start:stop] = block_best.reshape(-1, parents_size)
        best_count[start:stop] = block_count.reshape(-1, parents_size)
    # All deviating children first; then subtract each suspect child that
    # deviates from its window's top code (a strict majority is unique, so
    # the argmax tie-break never affects triggering windows).
    deviating = np.subtract(branch, best_count,
                            out=alloc("triggers.deviating", shape, np.int64))
    for row_index, suspects in enumerate(suspect_sets):
        if not suspects:
            continue
        row_codes = child_stacks[row_index]
        dev = deviating[row_index]
        top = best[row_index]
        for label in suspects:
            entry = child_slots.get(label)
            if entry is None:
                continue
            slots, parents = entry
            # Each parent has at most one child per label, so the fancy
            # in-place subtract sees unique indices.
            dev[parents] -= row_codes[slots] != top[parents]
    return (best_count <= branch // 2) | (deviating > budgets[:, None])


def discover_at_level_numpy(tree, level: int,
                            suspects: Set[ProcessorId], t: int,
                            meter: ComputationMeter = None) -> Set[ProcessorId]:
    """ndarray counterpart of :func:`discover_at_level_flat`.

    One vectorized majority vote over the ``(parents, branch)`` reshape of the
    level's code buffer replaces the per-node Python loop; only the
    charge bookkeeping (a loop over the ≤ n sender labels) stays scalar.
    Decisions, discoveries and meter totals are identical to both other
    engines.
    """
    from .npsupport import (DEFAULT_CODE, MISSING_CODE, VALUE_CODEC,
                            require_numpy)
    np = require_numpy()
    discovered: Set[ProcessorId] = set()
    if level < 2 or level > tree.num_levels:
        return discovered
    index = tree.index
    child_codes = tree.raw_level(level)
    parent_codes = tree.raw_level(level - 1)
    branch = index.branch(level - 1)
    parents_size = index.level_size(level - 1)
    budget = t - len(suspects)
    cleaned = np.where(child_codes == MISSING_CODE, DEFAULT_CODE, child_codes)
    triggers = _window_triggers_numpy(
        np, cleaned, parents_size, branch, index.last_labels_np(level),
        suspects, budget, tree.n, len(VALUE_CODEC))
    present = parent_codes != MISSING_CODE
    charge = _scan_parent_labels(index, level - 1, triggers, present,
                                 suspects, discovered, 2 * branch)
    if meter is not None:
        meter.charge(charge)
    return discovered


def discover_during_conversion_numpy(index: SequenceIndex,
                                     converted_levels,
                                     num_levels: int,
                                     suspects: Set[ProcessorId], t: int,
                                     meter: ComputationMeter = None
                                     ) -> Set[ProcessorId]:
    """ndarray counterpart of :func:`discover_during_conversion_flat`.

    ``converted_levels`` is the output of
    :func:`repro.core.resolve.numpy_resolve_levels` (code arrays).  A label
    discovered at one level is skipped — and not charged — at every deeper
    level, exactly like the scalar passes.
    """
    from .npsupport import VALUE_CODEC, require_numpy
    np = require_numpy()
    discovered: Set[ProcessorId] = set()
    budget = t - len(suspects)
    charge = 0
    for level in range(1, num_levels):
        branch = index.branch(level)
        parents_size = index.level_size(level)
        triggers = _window_triggers_numpy(
            np, converted_levels[level], parents_size, branch,
            index.last_labels_np(level + 1), suspects, budget,
            index.n, len(VALUE_CODEC))
        charge += _scan_parent_labels(index, level, triggers, None, suspects,
                                      discovered, branch)
    if meter is not None:
        meter.charge(charge)
    return discovered


def discover_during_conversion_batched(index: SequenceIndex,
                                       converted_stacks,
                                       num_levels: int,
                                       suspect_sets: Sequence[Set[ProcessorId]],
                                       t: int,
                                       meters: Sequence[ComputationMeter],
                                       codes, bottom=None
                                       ) -> List[Set[ProcessorId]]:
    """Whole-run counterpart of :func:`discover_during_conversion_numpy`.

    *converted_stacks* is the output of
    :func:`repro.core.resolve.batched_resolve_levels` (one
    ``(participants, level_size)`` code stack per level); *suspect_sets* holds
    each participant's ``L_p`` at conversion time, and *codes* the
    non-default codes the converted stacks can hold
    (:func:`~repro.core.npsupport.stack_codes`).  One 2-D trigger kernel per
    level serves every participant; the per-label scan — and therefore every
    decision and meter charge — is the per-processor pass verbatim, row by
    row.  With *bottom*, the
    :class:`~repro.core.fault_masking.ChildCounts` of the ungathered leaf
    level, the deepest parents take their triggers from the counts (leaves
    convert to themselves).
    """
    count = len(suspect_sets)
    discovered: List[Set[ProcessorId]] = [set() for _ in range(count)]
    budgets = [t - len(suspects) for suspects in suspect_sets]
    charges = [0] * count
    for level in range(1, num_levels):
        if bottom is not None and level == num_levels - 1:
            first = bottom.first_fired(range(count), suspect_sets, budgets)
        else:
            first = batched_first_fired(
                converted_stacks[level], index.level_size(level),
                index.branch(level), index, level + 1, suspect_sets,
                budgets, codes)
        groups = index.label_groups(level)
        branch = index.branch(level)
        for i in range(count):
            charges[i] += scan_first_fired(first[i], groups, suspect_sets[i],
                                           discovered[i], branch)
    for i, meter in enumerate(meters):
        meter.charge(charges[i])
    return discovered


def discover_during_conversion_flat(index: SequenceIndex,
                                    converted_levels: List[List[Value]],
                                    num_levels: int,
                                    suspects: Set[ProcessorId], t: int,
                                    meter: ComputationMeter = None
                                    ) -> Set[ProcessorId]:
    """Flat-buffer counterpart of :func:`discover_during_conversion`.

    ``converted_levels`` is the output of
    :func:`repro.core.resolve.flat_resolve_levels` (``converted_levels[ℓ-1]``
    holds the converted values of level ``ℓ``).
    """
    discovered: Set[ProcessorId] = set()
    budget = t - len(suspects)
    charge = 0
    for level in range(1, num_levels):
        parent_labels = index.last_labels(level)
        child_values = converted_levels[level]
        child_labels_flat = index.last_labels(level + 1)
        branch = index.branch(level)
        single_value = len(set(child_values)) == 1
        for i in range(index.level_size(level)):
            r = parent_labels[i]
            if r in suspects or r in discovered:
                continue
            charge += branch
            if single_value:
                if budget < 0:
                    discovered.add(r)
                continue
            base = i * branch
            window = child_values[base:base + branch]
            majority = window_majority(window, branch)
            if majority is None:
                discovered.add(r)
                continue
            deviating = 0
            for offset in range(branch):
                if (window[offset] != majority
                        and child_labels_flat[base + offset] not in suspects):
                    deviating += 1
            if deviating > budget:
                discovered.add(r)
    if meter is not None:
        meter.charge(charge)
    return discovered


def discover_during_conversion(tree: InfoGatheringTree,
                               converted: Dict[LabelSequence, Value],
                               suspects: Set[ProcessorId], t: int,
                               meter: ComputationMeter = None) -> Set[ProcessorId]:
    """The Fault Discovery Rule During Conversion (Algorithm A).

    *converted* maps every node of the tree to its converted value (the output
    of :func:`repro.core.resolve.resolve_all`).  Every internal node ``αr``
    that is not the root's proxy for the source... — precisely, every internal
    node — is examined using the converted values of its children.
    """
    discovered: Set[ProcessorId] = set()
    num_levels = tree.num_levels
    for level in range(1, num_levels):
        for parent in tree.level_sequences(level):
            r = corresponding_processor(parent)
            if r in suspects or r in discovered:
                continue
            child_values = {
                child: converted[parent + (child,)]
                for child in tree.child_labels(parent)
                if parent + (child,) in converted
            }
            if not child_values:
                continue
            if meter is not None:
                meter.charge(len(child_values))
            if node_triggers_discovery(child_values, suspects, t):
                discovered.add(r)
    return discovered


class FaultTracker:
    """The ``L_p`` list of one correct processor plus its discovery history.

    The tracker records *when* each processor was discovered (round number)
    so that experiments can reproduce the paper's per-block progress argument
    ("each block without a common frontier globally detects at least ``b − 1``
    new faults").
    """

    def __init__(self, owner: ProcessorId, t: int) -> None:
        self.owner = owner
        self.t = t
        self._suspects: Set[ProcessorId] = set()
        self._discovered_in_round: Dict[ProcessorId, int] = {}

    # -- membership --------------------------------------------------------
    @property
    def suspects(self) -> Set[ProcessorId]:
        return set(self._suspects)

    def __contains__(self, pid: object) -> bool:
        return pid in self._suspects

    def __len__(self) -> int:
        return len(self._suspects)

    def add(self, pid: ProcessorId, round_number: int) -> bool:
        """Record *pid* as faulty (idempotent); returns True if newly added."""
        if pid in self._suspects:
            return False
        self._suspects.add(pid)
        self._discovered_in_round[pid] = round_number
        return True

    def add_all(self, pids: Iterable[ProcessorId], round_number: int) -> List[ProcessorId]:
        return [pid for pid in pids if self.add(pid, round_number)]

    def discovery_round(self, pid: ProcessorId) -> int:
        return self._discovered_in_round[pid]

    def discovered_by_round(self, round_number: int) -> Set[ProcessorId]:
        return {pid for pid, rnd in self._discovered_in_round.items()
                if rnd <= round_number}

    def history(self) -> Dict[ProcessorId, int]:
        return dict(self._discovered_in_round)
