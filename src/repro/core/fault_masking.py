"""The Fault Masking Rule (Section 3 of the paper).

    "If q is added to L in round k, then any messages from q in round k and
     any subsequent round are replaced by messages in which each value is the
     default 0."

The rule interacts with fault discovery in a specific order, which this module
implements exactly:

1. When the round-``k`` messages arrive, messages from processors *already* in
   ``L_p`` are masked (every entry replaced by the default value).
2. The Fault Discovery Rule is evaluated on the resulting round-``k`` tree.
3. Newly discovered processors are added to ``L_p`` and *their* round-``k``
   contributions are masked as well (only the freshly stored level — the
   portion of the tree not yet relayed to others — is rewritten; earlier
   levels are left untouched).

Because masking a newly discovered sender changes the child values of other
nodes, steps 2–3 are iterated to a fixpoint.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Set

from .fault_discovery import (FaultTracker, discover_at_level,
                              discover_at_level_flat,
                              discover_at_level_numpy)
from .sequences import ProcessorId
from .tree import MISSING, FlatEIGTree, InfoGatheringTree, NumpyEIGTree
from .values import DEFAULT_VALUE, Value
from ..runtime.messages import (Inbox, LevelMessage, Message,
                                NumpyLevelMessage)


def mask_inbox(inbox: Inbox, suspects: Set[ProcessorId],
               masked_value: Value = DEFAULT_VALUE) -> Inbox:
    """Replace every entry of every message from a suspect sender by the default.

    This is step 1 of the rule: it acts on messages, before they are stored in
    the tree, and leaves messages from unsuspected senders untouched.
    """
    masked: Inbox = {}
    for sender, message in inbox.items():
        if sender in suspects:
            masked[sender] = message.replace_values(masked_value)
        else:
            masked[sender] = message
    return masked


def mask_level_entries(tree: InfoGatheringTree, level: int,
                       senders: Set[ProcessorId],
                       masked_value: Value = DEFAULT_VALUE) -> int:
    """Overwrite with the default every node of *level* whose last label is a
    masked sender.  Returns the number of rewritten nodes.

    The values at ``α·q`` of the freshly stored level came from ``q``'s
    round-``k`` message, so masking ``q``'s round-``k`` message after the fact
    means rewriting exactly those nodes.
    """
    if not senders:
        return 0
    rewritten = 0
    for seq in tree.level_sequences(level):
        if seq[-1] in senders:
            tree.store(seq, masked_value)
            rewritten += 1
    return rewritten


def discover_and_mask(tree: InfoGatheringTree, level: int,
                      tracker: FaultTracker, round_number: int,
                      masked_value: Value = DEFAULT_VALUE) -> Set[ProcessorId]:
    """Steps 2–3 of the rule, iterated to a fixpoint.

    Returns the set of processors newly added to ``L_p`` during this round.
    Flat-engine trees take a buffer-level path with identical semantics and
    meter accounting (discovery scans the level slice in place; masking
    rewrites exactly the slots of the freshly discovered senders).
    """
    if isinstance(tree, NumpyEIGTree):
        return _discover_and_mask_numpy(tree, level, tracker, round_number,
                                        masked_value)
    if isinstance(tree, FlatEIGTree):
        return _discover_and_mask_flat(tree, level, tracker, round_number,
                                       masked_value)
    newly_discovered: Set[ProcessorId] = set()
    while True:
        fresh = discover_at_level(tree, level, tracker.suspects, tracker.t,
                                  meter=tree.meter)
        fresh = {pid for pid in fresh if pid not in tracker}
        if not fresh:
            break
        tracker.add_all(fresh, round_number)
        newly_discovered |= fresh
        mask_level_entries(tree, level, fresh, masked_value)
    return newly_discovered


def _discover_and_mask_flat(tree: FlatEIGTree, level: int,
                            tracker: FaultTracker, round_number: int,
                            masked_value: Value = DEFAULT_VALUE
                            ) -> Set[ProcessorId]:
    """Fixpoint of flat discovery and in-place slot masking (fast engine)."""
    newly_discovered: Set[ProcessorId] = set()
    if level < 2 or level > tree.num_levels:
        return newly_discovered
    buffer = tree.raw_level(level)
    slots_table = tree.index.slots_for(level)
    while True:
        fresh = discover_at_level_flat(tree, level, tracker.suspects,
                                       tracker.t, meter=tree.meter)
        fresh = {pid for pid in fresh if pid not in tracker}
        if not fresh:
            break
        tracker.add_all(fresh, round_number)
        newly_discovered |= fresh
        rewritten = 0
        for pid in fresh:
            entry = slots_table.get(pid)
            if entry is None:
                continue
            for slot in entry[0]:
                if buffer[slot] is not MISSING:
                    buffer[slot] = masked_value
                    rewritten += 1
        tree.meter.charge(rewritten)
    return newly_discovered


def _discover_and_mask_numpy(tree: NumpyEIGTree, level: int,
                             tracker: FaultTracker, round_number: int,
                             masked_value: Value = DEFAULT_VALUE
                             ) -> Set[ProcessorId]:
    """Fixpoint of vectorized discovery and fancy-indexed slot masking."""
    from .npsupport import MISSING_CODE, VALUE_CODEC
    newly_discovered: Set[ProcessorId] = set()
    if level < 2 or level > tree.num_levels:
        return newly_discovered
    buffer = tree.raw_level(level)
    slots_table = tree.index.slots_np(level)
    masked_code = VALUE_CODEC.code(masked_value)
    while True:
        fresh = discover_at_level_numpy(tree, level, tracker.suspects,
                                        tracker.t, meter=tree.meter)
        fresh = {pid for pid in fresh if pid not in tracker}
        if not fresh:
            break
        tracker.add_all(fresh, round_number)
        newly_discovered |= fresh
        rewritten = 0
        for pid in fresh:
            entry = slots_table.get(pid)
            if entry is None:
                continue
            slots = entry[0]
            stored = slots[buffer[slots] != MISSING_CODE]
            buffer[stored] = masked_code
            rewritten += int(stored.size)
        tree.meter.charge(rewritten)
    return newly_discovered


def gather_level_batched(state, level: int, claims, row_of, domain_mask
                         ) -> None:
    """One 2-D fancy-indexed gather stepping every participant at once.

    Whole-run twin of :func:`gather_level_numpy`: *claims* is a
    ``(rows, prev_level_size)`` code matrix whose rows are the distinct claim
    vectors of the round (the previous level stack — correct broadcasts and
    echoes are by construction the sender's own row — plus an all-default row
    for missing/suspect senders and one row per distinct faulty message), and
    ``row_of[i, c]`` names the claims row receiver *i* reads for sender label
    ``c``.  The new level of the entire run is then the gather
    ``claims[row_of[:, last_labels], parent_of_slot]``, filled into one
    preallocated stack a row block (:func:`~repro.core.npsupport.row_blocks`)
    at a time.  The code-level domain mask is applied to the small claims
    matrix up front — exact, because the gather only selects claims.

    The uniform domain mask is equivalent to the per-processor paths: echoed
    own values are always in-domain (they passed coercion, masking, or a
    conversion), ``MISSING_CODE`` is never in-domain, and every other
    out-of-domain claim collapses to the default exactly as the Fault
    Masking / default-substitution rules require.
    """
    from .npsupport import DEFAULT_CODE, require_numpy, row_blocks
    np = require_numpy()
    index = state.index
    flat_claims = np.where(domain_mask[claims], claims,
                           DEFAULT_CODE).reshape(-1)
    # Flat claims offset of every (receiver, sender label) pair.
    row_starts = row_of * claims.shape[1]
    last_labels = index.last_labels_np(level)
    parent_ids = index.parent_ids_np(level)
    stack = np.empty((row_of.shape[0], len(parent_ids)), dtype=claims.dtype)
    for start, stop in row_blocks(*stack.shape):
        offsets = np.take(row_starts[start:stop], last_labels, axis=1)
        offsets += parent_ids
        np.take(flat_claims, offsets, out=stack[start:stop])
    state.append_level(stack)


class _StackedLevel:
    """A gathered level stack as the batched fixpoint's trigger source.

    Triggers come from the shared window kernels
    (:func:`~repro.core.fault_discovery.batched_fired_ids`); masking a
    sender rewrites its slots of the owner's row with the default.
    """

    __slots__ = ("index", "level", "stack", "slots", "branch",
                 "parents_size")

    def __init__(self, state, level: int) -> None:
        self.index = state.index
        self.level = level
        self.stack = state.raw_stack(level)
        self.slots = self.index.slots_np(level)
        self.branch = self.index.branch(level - 1)
        self.parents_size = self.index.level_size(level - 1)

    def fired_ids(self, rows: List[int], suspect_sets,
                  budgets) -> List[List[int]]:
        from .fault_discovery import batched_fired_ids
        from .npsupport import VALUE_CODEC
        stack = self.stack if len(rows) == len(self.stack) else self.stack[rows]
        return batched_fired_ids(stack, self.parents_size, self.branch,
                                 self.index, self.level, suspect_sets,
                                 budgets, len(VALUE_CODEC))

    def mask_senders(self, i: int, senders) -> int:
        from .npsupport import DEFAULT_CODE
        row = self.stack[i]
        rewritten = 0
        for pid in senders:
            entry = self.slots.get(pid)
            if entry is None:
                continue
            slots = entry[0]
            row[slots] = DEFAULT_CODE
            rewritten += int(slots.size)
        return rewritten


class ChildCounts:
    """Per-``(row, parent)`` child-value counts of a level never gathered.

    The round that ends an EIG segment reads its new level only through the
    Fault Discovery Rule and the bottom vote of ``resolve`` / ``resolve'``,
    and both depend only on how many children of each parent hold each
    value and which of those children are listed.  So instead of gathering
    that ``(rows, |level|)`` stack, this kernel counts, for every
    non-default domain code ``k``::

        counts[k, i, p] = Σ_c [claims[row_of[i, c], p] == k] · mask[c, p]

    straight from the round's claims matrix and ``row_of`` routing (the
    inputs of :func:`gather_level_batched`, with the same domain mask),
    where ``mask`` is the parent level's
    :meth:`~repro.core.sequences.SequenceIndex.child_mask_np`.  The default
    code's count is the complement: after the domain mask every claim is a
    domain code.  Columns routed alike in every row (the correct senders)
    are counted once; only the faulty, suspect and echo columns are counted
    per row, in :func:`~repro.core.npsupport.row_blocks` of the leaf
    elements the counts stand for.

    :meth:`fired_ids` and :meth:`vote` decide exactly as
    :func:`~repro.core.fault_discovery.batched_window_triggers` and the
    shared vote select do on the gathered stack.  :meth:`mask_senders`
    applies the Fault Masking Rule by routing a sender's column to the
    *default_row* of *claims* and taking its children out of the row's
    counts.
    """

    __slots__ = ("branch", "parents_size", "child_mask", "slot_counts",
                 "row_of", "default_row", "claims", "codes", "counts", "best",
                 "best_count", "_stale", "_hits", "_dtype")

    def __init__(self, index, parent_level: int, claims, row_of,
                 default_row: int, domain_mask) -> None:
        from .npsupport import DEFAULT_CODE, require_numpy, row_blocks
        np = require_numpy()
        self.branch = index.branch(parent_level)
        self.parents_size = index.level_size(parent_level)
        self.child_mask = mask = index.child_mask_np(parent_level)
        #: Per label: its child slots in the uncollected level.
        self.slot_counts = mask.sum(axis=1).tolist()
        self.row_of = row_of
        self.default_row = default_row
        self.codes = [code for code in np.flatnonzero(domain_mask).tolist()
                      if code != DEFAULT_CODE]
        # A non-default domain code survives the domain mask unchanged, so
        # its hits need no masked copy; every other claim reads as default.
        self._hits = [claims == code for code in self.codes]
        self.claims = np.full(claims.shape, DEFAULT_CODE, dtype=claims.dtype)
        for code, hit in zip(self.codes, self._hits):
            self.claims[hit] = code
        self._dtype = np.min_scalar_type(self.branch)
        rows = row_of.shape[0]
        labels = np.flatnonzero(mask.any(axis=1))
        shared = (row_of[:, labels] == row_of[:1, labels]).all(axis=0)
        common, varying = labels[shared], labels[~shared]
        shape = (rows, self.parents_size)
        self.counts = np.empty((len(self.codes),) + shape, dtype=self._dtype)
        #: Each entry's top code and its count; rows whose counts changed
        #: since are *_stale* until the next trigger or vote pass.
        self.best = np.empty(shape, dtype=claims.dtype)
        self.best_count = np.empty(shape, dtype=self._dtype)
        self._stale: Set[int] = set()
        bases = [(hit[row_of[0, common]] & mask[common]).sum(
            axis=0, dtype=self._dtype) for hit in self._hits]
        for start, stop in row_blocks(rows, self.branch * self.parents_size):
            routed = row_of[start:stop][:, varying]
            for hit, base, counts in zip(self._hits, bases, self.counts):
                counts[start:stop] = (hit[routed] & mask[varying]).sum(
                    axis=1, dtype=self._dtype)
                counts[start:stop] += base
            self._rank(slice(start, stop))

    def _rank(self, rows=None) -> None:
        """Refresh the top code and its count of *rows* — by default every
        stale row — taking the first maximum in code order, like
        ``argmax``."""
        from .npsupport import DEFAULT_CODE, require_numpy
        np = require_numpy()
        if rows is None:
            if not self._stale:
                return
            rows = sorted(self._stale)
            self._stale.clear()
        block = self.counts[:, rows]
        best_count = self.branch - block.sum(axis=0, dtype=self._dtype)
        best = np.full(best_count.shape, DEFAULT_CODE, dtype=self.best.dtype)
        for code, count in zip(self.codes, block):
            best[count > best_count] = code
            np.maximum(best_count, count, out=best_count)
        self.best[rows] = best
        self.best_count[rows] = best_count

    def fired_ids(self, rows: List[int], suspect_sets,
                  budgets) -> List[List[int]]:
        """Ascending fired parent ids of each row in *rows*.

        A window fires when no code holds a strict majority of its children,
        or when more than the row's budget of unlisted children deviate from
        the top code: ``branch − top count − suspect children that
        deviate``, where a suspect child reads its routed claims row.
        """
        from .npsupport import require_numpy, row_blocks
        np = require_numpy()
        self._rank()
        rows = np.asarray(rows, dtype=np.int64)
        budgets = np.asarray(budgets, dtype=np.int64)
        fired: List[List[int]] = [[] for _ in range(rows.size)]
        for start, stop in row_blocks(rows.size, self.branch
                                      * self.parents_size):
            block_rows = rows[start:stop]
            best_count = self.best_count[block_rows]
            deviating = self.branch - best_count
            # (block row, suspect label) pairs, grouped by block row.
            pairs = [(b, label) for b in range(stop - start)
                     for label in suspect_sets[start + b]]
            if pairs:
                owners, labels = np.asarray(pairs, dtype=np.int64).T
                deviates = self.child_mask[labels] & (
                    self.claims[self.row_of[block_rows[owners], labels]]
                    != self.best[block_rows[owners]])
                bounds = np.flatnonzero(np.diff(owners, prepend=-1)).tolist()
                for lo, hi in zip(bounds, bounds[1:] + [len(pairs)]):
                    deviating[owners[lo]] -= deviates[lo:hi].view(
                        np.uint8).sum(axis=0, dtype=self._dtype)
            fire = ((best_count <= self.branch // 2)
                    | (deviating > budgets[start:stop, None]))
            for b in np.flatnonzero(fire.any(axis=1)).tolist():
                fired[start + b] = np.flatnonzero(fire[b]).tolist()
        return fired

    def mask_senders(self, i: int, senders) -> int:
        """Mask *senders* for row *i*; returns the child slots rewritten."""
        rewritten = 0
        for pid in senders:
            routed = self.row_of[i, pid]
            if routed != self.default_row:
                for hit, counts in zip(self._hits, self.counts):
                    counts[i] -= hit[routed] & self.child_mask[pid]
                self.row_of[i, pid] = self.default_row
                self._stale.add(i)
            rewritten += self.slot_counts[pid]
        return rewritten

    def vote(self, conversion: str, t: int):
        """Every row's converted ``(rows, parents)`` codes of the parent level.

        ``resolve`` keeps a strict majority (default otherwise);
        ``resolve'`` keeps the unique code held by at least ``t + 1``
        children (``⊥`` otherwise).
        """
        from .npsupport import (BOTTOM_CODE, DEFAULT_CODE, require_numpy,
                                row_blocks)
        np = require_numpy()
        self._rank()
        rows = self.counts.shape[1]
        out = np.empty((rows, self.parents_size), dtype=self.claims.dtype)
        threshold = t + 1
        for start, stop in row_blocks(rows, self.branch * self.parents_size):
            if conversion == "resolve":
                out[start:stop] = np.where(
                    self.best_count[start:stop] > self.branch // 2,
                    self.best[start:stop], DEFAULT_CODE)
                continue
            block = self.counts[:, start:stop]
            default_count = self.branch - block.sum(axis=0, dtype=self._dtype)
            reached = default_count >= threshold
            winners = reached.astype(np.int64)
            winner = np.where(reached, DEFAULT_CODE, BOTTOM_CODE)
            for code, count in zip(self.codes, block):
                reached = count >= threshold
                winners += reached
                winner[reached] = code
            out[start:stop] = np.where(winners == 1, winner, BOTTOM_CODE)
        return out


def discover_and_mask_batched(state, level: int,
                              trackers: List[FaultTracker],
                              round_number: int, meters,
                              counts: "ChildCounts" = None
                              ) -> List[Set[ProcessorId]]:
    """Whole-run fixpoint of batched discovery and row-slice masking.

    2-D twin of :func:`_discover_and_mask_numpy`: per fixpoint iteration one
    trigger kernel covers every still-active participant, then the per-label
    scan, tracker updates, masking, and meter charges run row by row exactly
    as the per-processor pass would.  A participant whose scan finds nothing
    fresh is deactivated — its row can no longer change (masking only
    rewrites the owner's row) — which reproduces the per-processor
    fixpoint's termination and charge accounting verbatim.  *level* is the
    stacked level of *state*, or — given *counts*, its
    :class:`ChildCounts` — the level below the stored ones, which is then
    never gathered.  Returns the per-participant sets of newly discovered
    processors.
    """
    from .fault_discovery import _scan_fired_labels, quiet_scan_charge
    count = state.count
    newly: List[Set[ProcessorId]] = [set() for _ in range(count)]
    if counts is None:
        if level < 2 or level > state.num_levels:
            return newly
        source = _StackedLevel(state, level)
    else:
        source = counts
    index = state.index
    branch = source.branch
    parents_size = source.parents_size
    # Batched levels are stored whole (the BatchedEIGState invariant), so the
    # per-processor kernels' MISSING-substitution and parent-presence passes
    # are no-ops here and every parent is examined.
    active = list(range(count))
    while active:
        budgets = []
        suspect_sets = []
        for i in active:
            suspects = trackers[i].suspects
            suspect_sets.append(suspects)
            budgets.append(trackers[i].t - len(suspects))
        fired = source.fired_ids(active, suspect_sets, budgets)
        still_active = []
        for k, i in enumerate(active):
            tracker = trackers[i]
            if not fired[k]:
                # No window fired for this participant: the scan would charge
                # every non-suspect label in full and discover nothing.
                meters[i].charge(quiet_scan_charge(
                    index, level - 1, parents_size, suspect_sets[k],
                    2 * branch))
                continue
            discovered: Set[ProcessorId] = set()
            charge = _scan_fired_labels(
                index, level - 1, fired[k],
                suspect_sets[k], discovered, 2 * branch)
            meters[i].charge(charge)
            fresh = {pid for pid in discovered if pid not in tracker}
            if not fresh:
                continue
            tracker.add_all(fresh, round_number)
            newly[i] |= fresh
            meters[i].charge(source.mask_senders(i, fresh))
            still_active.append(i)
        active = still_active
    return newly


def gather_level_numpy(tree: NumpyEIGTree, level: int, inbox: Inbox,
                       tracker: FaultTracker,
                       domain_set: FrozenSet[Value],
                       echo_labels: Iterable[ProcessorId],
                       masked_labels: Iterable[ProcessorId] = ()) -> None:
    """ndarray counterpart of :func:`gather_level_flat`.

    One fancy-indexed assignment per sender label over the interned
    ``(slots, parents)`` ndarrays replaces the per-sender zip-copies: an
    aligned :class:`~repro.runtime.messages.NumpyLevelMessage` contributes
    ``new[slots] = message_codes[parents]`` filtered through a code-level
    domain mask, echoes copy the processor's own previous level the same way,
    and everything else (suspects, masked labels, missing messages,
    out-of-domain entries) collapses into the preinitialised default — the
    identical Fault Masking / default-substitution semantics, with identical
    meter charges.
    """
    from .npsupport import MISSING_CODE, VALUE_CODEC, require_numpy
    np = require_numpy()
    index = tree.index
    previous = tree.raw_level(level - 1)
    new_level = np.full(index.level_size(level),
                        VALUE_CODEC.code(DEFAULT_VALUE),
                        dtype=previous.dtype)
    echo_labels = set(echo_labels)
    masked_labels = set(masked_labels)
    domain_mask = VALUE_CODEC.domain_mask(domain_set)
    previous_sequences = None
    for label, (slots, parents) in index.slots_np(level).items():
        if label in masked_labels:
            continue
        if label in echo_labels:
            values = previous[parents]
            keep = values != MISSING_CODE
            new_level[slots[keep]] = values[keep]
            tree.meter.charge(len(slots))
            continue
        if label in tracker:
            continue  # masked sender: every claim becomes the default
        message = inbox.get(label)
        if message is None:
            continue
        if isinstance(message, NumpyLevelMessage) and message.matches(
                index, level - 1):
            source_codes = message.level_codes()
            values = source_codes[parents]
            keep = domain_mask[values]
            new_level[slots[keep]] = values[keep]
            continue
        # Foreign layout (round-1 style, adversary-built, or cross-engine
        # message): fall back to per-entry lookup with domain coercion.
        if previous_sequences is None:
            previous_sequences = index.sequences(level - 1)
        code_of = VALUE_CODEC.code
        for slot, parent_id in zip(slots.tolist(), parents.tolist()):
            value = message.value_for(previous_sequences[parent_id])
            if value in domain_set:
                new_level[slot] = code_of(value)
    tree.append_level(new_level)


def gather_level_flat(tree: FlatEIGTree, level: int, inbox: Inbox,
                      tracker: FaultTracker,
                      domain_set: FrozenSet[Value],
                      echo_labels: Iterable[ProcessorId],
                      masked_labels: Iterable[ProcessorId] = ()) -> None:
    """Populate *level* of a flat tree directly from a round's inbox.

    The fast-engine counterpart of ``grow_level`` + a per-node claim
    callback, shared by the shifting EIG processor and Algorithm C: one pass
    per sender label over the interned ``(slots, parents)`` tables.  The
    value stored at slot ``(parent i, child c)`` is sender ``c``'s claim for
    parent ``i`` — when the sender shares the tree shape, that is its level
    buffer at index ``i``.

    ``echo_labels`` are filled from the processor's *own* previous level
    (its own name, and Algorithm C's silent-source substitution);
    ``masked_labels`` collapse to the default outright (the substitution
    once the source is in ``L_p``).  Suspect senders, missing messages, and
    out-of-domain or missing entries likewise become the preinitialised
    default — exactly the Fault Masking / default-substitution semantics of
    the reference path.
    """
    index = tree.index
    previous = tree.raw_level(level - 1)
    new_level: List[Value] = [DEFAULT_VALUE] * index.level_size(level)
    echo_labels = set(echo_labels)
    masked_labels = set(masked_labels)
    previous_sequences = None
    for label, (slots, parents) in index.slots_for(level).items():
        if label in masked_labels:
            continue
        if label in echo_labels:
            for slot, parent_id in zip(slots, parents):
                value = previous[parent_id]
                if value is not MISSING:
                    new_level[slot] = value
            tree.meter.charge(len(slots))
            continue
        if label in tracker:
            continue  # masked sender: every claim becomes the default
        message = inbox.get(label)
        if message is None:
            continue
        if isinstance(message, LevelMessage) and message.matches(index,
                                                                 level - 1):
            source_values = message.level_values()
            for slot, parent_id in zip(slots, parents):
                value = source_values[parent_id]
                if value in domain_set:
                    new_level[slot] = value
            continue
        # Foreign layout (round-1 style or adversary-built message): fall
        # back to per-entry lookup with domain coercion.
        if previous_sequences is None:
            previous_sequences = index.sequences(level - 1)
        for slot, parent_id in zip(slots, parents):
            value = message.value_for(previous_sequences[parent_id])
            if value in domain_set:
                new_level[slot] = value
    tree.append_level(new_level)


def masked_claim(message: Message, seq, sender: ProcessorId,
                 suspects: Set[ProcessorId], domain,
                 masked_value: Value = DEFAULT_VALUE) -> Value:
    """Resolve the value claimed by *sender* for node *seq*, applying masking
    and the default-value substitution for inappropriate messages.

    Helper shared by the protocol implementations when they populate a new
    tree level from an inbox.
    """
    from .values import coerce_value  # local import to avoid cycle at module load

    if sender in suspects or message is None:
        return masked_value
    claimed = message.value_for(seq)
    return coerce_value(claimed, domain)
