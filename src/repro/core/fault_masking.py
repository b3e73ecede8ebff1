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
    ``claims[row_of[:, last_labels], parent_of_slot]``.  The code-level
    domain mask is applied to the small claims matrix up front — exact,
    because the gather only selects claims.

    A stack of at most :data:`~repro.core.npsupport.LARGE_LEVEL_ELEMENTS`
    codes is read in one ``take`` through flat claim offsets.  A larger one
    needs no level-sized offsets: its first row is filled label by label,
    ``stack[0, slots] = claims[row_of[0, c], parents]``, every other row
    starts as a copy of it, and only the labels not routed alike in every
    row (the faulty, suspect and echo columns) are read again per row.

    The uniform domain mask is equivalent to the per-processor paths: echoed
    own values are always in-domain (they passed coercion, masking, or a
    conversion), ``MISSING_CODE`` is never in-domain, and every other
    out-of-domain claim collapses to the default exactly as the Fault
    Masking / default-substitution rules require.
    """
    from .npsupport import DEFAULT_CODE, LARGE_LEVEL_ELEMENTS, require_numpy
    np = require_numpy()
    index = state.index
    masked = np.where(domain_mask[claims], claims, DEFAULT_CODE)
    rows = row_of.shape[0]
    size = index.level_size(level)
    if rows * size <= LARGE_LEVEL_ELEMENTS:
        # Flat claims offset of every (receiver, child slot) pair.
        offsets = np.take(row_of * claims.shape[1],
                          index.last_labels_np(level), axis=1)
        offsets += index.parent_ids_np(level)
        state.append_level(np.take(masked.reshape(-1), offsets))
        return
    stack = np.empty((rows, size), dtype=claims.dtype)
    slots_table = index.slots_np(level)
    routes = row_of[0].tolist()
    for label, (slots, parents) in slots_table.items():
        stack[0, slots] = masked[routes[label], parents]
    stack[1:] = stack[0]
    for label in np.flatnonzero((row_of[1:] != row_of[:1]).any(
            axis=0)).tolist():
        if label in slots_table:
            slots, parents = slots_table[label]
            stack[1:, slots] = masked[row_of[1:, label, None], parents]
    state.append_level(stack)


class _StackedLevel:
    """A gathered level stack as the batched fixpoint's trigger source.

    First fired ranks come from the shared window kernels
    (:func:`~repro.core.fault_discovery.batched_first_fired`); masking a
    sender rewrites its slots of the owner's row with the default.
    """

    __slots__ = ("index", "level", "stack", "slots", "branch",
                 "parents_size", "codes")

    def __init__(self, state, level: int, codes) -> None:
        self.index = state.index
        self.level = level
        self.stack = state.raw_stack(level)
        self.slots = self.index.slots_np(level)
        self.branch = self.index.branch(level - 1)
        self.parents_size = self.index.level_size(level - 1)
        self.codes = codes

    def first_fired(self, rows: List[int], suspect_sets,
                    budgets) -> List[List[int]]:
        from .fault_discovery import batched_first_fired
        return batched_first_fired(self.stack, self.parents_size,
                                   self.branch, self.index, self.level,
                                   suspect_sets, budgets, self.codes,
                                   rows=rows)

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
    per row, and a column routed to the default row adds nothing.

    :meth:`window_triggers` (which :meth:`first_fired` reduces) and
    :meth:`vote` decide exactly as
    :func:`~repro.core.fault_discovery.batched_window_triggers` and the
    shared vote select do on the gathered stack.  :meth:`mask_senders`
    applies the Fault Masking Rule by routing a sender's column to the
    *default_row* of *claims* and taking its children out of the row's
    counts.  The claims are read through the domain mask only for a
    suspect column routed elsewhere (the echo of a self-suspect).

    Counts are ``uint8`` while a window has fewer than 256 children.  Over
    more than :data:`~repro.core.npsupport.LARGE_LEVEL_ELEMENTS` leaf
    elements the counts and every temporary live in per-thread
    :func:`~repro.core.npsupport.scratch` buffers, so an instance — and the
    votes it returns — is valid only until the next large
    :class:`ChildCounts` is built on the same thread (the batched executor
    builds one per round and drops it when the round ends).
    """

    __slots__ = ("branch", "parents_size", "child_mask", "slot_counts",
                 "groups", "row_of", "default_row", "claims", "domain_mask",
                 "codes", "counts", "best", "best_count", "_scratch",
                 "_buffer", "_stale", "_hits", "_dtype")

    def __init__(self, index, parent_level: int, claims, row_of,
                 default_row: int, domain_mask) -> None:
        from .npsupport import (LARGE_LEVEL_ELEMENTS, fresh, require_numpy,
                                scratch, stack_codes)
        np = require_numpy()
        self.branch = branch = index.branch(parent_level)
        self.parents_size = parents = index.level_size(parent_level)
        self.child_mask = mask = index.child_mask_np(parent_level)
        #: Per label: its child slots in the uncollected level.
        self.slot_counts = np.count_nonzero(mask, axis=1).tolist()
        self.groups = index.label_groups(parent_level)
        self.row_of = row_of
        self.default_row = default_row
        self.claims = claims
        self.domain_mask = domain_mask
        self.codes = stack_codes(domain_mask)
        rows = row_of.shape[0]
        shape = (rows, parents)
        self._scratch = (scratch if rows * parents * branch
                         > LARGE_LEVEL_ELEMENTS else None)
        self._buffer = buffer = self._scratch or fresh
        self._dtype = np.min_scalar_type(branch)
        # A non-default domain code survives the domain mask unchanged, so
        # its hits need no masked copy; every other claim reads as default.
        self._hits = buffer("counts.hits",
                            (len(self.codes),) + claims.shape, bool)
        for code, hit in zip(self.codes, self._hits):
            np.equal(claims, code, out=hit)
        self.counts = buffer("counts.counts", (len(self.codes),) + shape,
                             self._dtype)
        #: Each entry's top code and its count; rows whose counts changed
        #: since are *_stale* until the next trigger or vote pass.
        self.best = buffer("counts.best", shape, claims.dtype)
        self.best_count = buffer("counts.best_count", shape, self._dtype)
        self._stale: Set[int] = set()
        shared = (row_of == row_of[:1]).all(axis=0).tolist()
        labels = [c for c, slots in enumerate(self.slot_counts) if slots]
        common = [c for c in labels if shared[c]]
        varying = [c for c in labels if not shared[c]]
        routes = row_of.tolist()
        hit_row = buffer("counts.hit_row", (parents,), bool)
        for hit, counts in zip(self._hits, self.counts):
            base = counts[0]
            base.fill(0)
            for c in common:
                if routes[0][c] != default_row:
                    np.logical_and(hit[routes[0][c]], mask[c], out=hit_row)
                    base += hit_row
            counts[1:] = base
            for i, route in enumerate(routes):
                for c in varying:
                    if route[c] != default_row:
                        np.logical_and(hit[route[c]], mask[c], out=hit_row)
                        counts[i] += hit_row
        self._rank(0, rows)

    def _rank(self, low: int, high: int) -> None:
        """Refresh the top code and its count of rows ``low:high``, taking
        the first maximum in code order, like ``argmax``; stepped in
        :func:`~repro.core.npsupport.row_blocks` of counts rows."""
        from .npsupport import row_blocks
        for start, stop in row_blocks(high - low, self.parents_size):
            self._rank_block(low + start, low + stop)

    def _rank_block(self, start: int, stop: int) -> None:
        from .npsupport import DEFAULT_CODE, require_numpy
        np = require_numpy()
        block = self.counts[:, start:stop]
        best = self.best[start:stop]
        best_count = self.best_count[start:stop]
        np.sum(block, axis=0, dtype=self._dtype, out=best_count)
        np.subtract(self.branch, best_count, out=best_count)
        best.fill(DEFAULT_CODE)
        more = self._buffer("counts.more", best.shape, bool)
        for code, count in zip(self.codes, block):
            np.greater(count, best_count, out=more)
            np.copyto(best, code, where=more)
            np.maximum(best_count, count, out=best_count)

    def _refresh(self) -> None:
        """Re-rank every stale row, a contiguous run of rows at a time."""
        if self._stale:
            rows = sorted(self._stale)
            self._stale.clear()
            start = rows[0]
            for previous, row in zip(rows, rows[1:] + [None]):
                if row != previous + 1:
                    self._rank(start, previous + 1)
                    start = row

    def first_fired(self, rows: List[int], suspect_sets,
                    budgets) -> List[List[int]]:
        """First fired ranks of each row in *rows*
        (:func:`~repro.core.fault_discovery.first_fired_ranks` of
        :meth:`window_triggers`)."""
        from .fault_discovery import first_fired_ranks
        return first_fired_ranks(
            self.window_triggers(rows, suspect_sets, budgets), self.groups,
            self._scratch).tolist()

    def window_triggers(self, rows: List[int], suspect_sets, budgets):
        """The ``(len(rows), parents)`` Fault Discovery triggers of *rows*.

        A window fires when no code holds a strict majority of its children
        (the top count is at most half the branch), or when more than the
        row's budget of unlisted children deviate from the top code:
        ``branch − top count − suspect children that deviate``.  A suspect
        child routed to the default row deviates exactly when the top code
        is not the default.
        """
        from .npsupport import DEFAULT_CODE, require_numpy
        np = require_numpy()
        self._refresh()
        rows = list(rows)
        branch = self.branch
        half = branch // 2
        parents = self.parents_size
        fire = self._buffer("counts.fire", (len(rows), parents), bool)
        deviating = self._buffer("counts.deviating", (parents,), np.int16)
        weak = self._buffer("counts.weak", (parents,), bool)
        routes = self.row_of.tolist()
        #: Per set of default-routed suspects: how many are children of
        #: each parent (rows often share their suspect sets).
        listed_children: Dict[FrozenSet[ProcessorId], object] = {}
        listed_rows = self._buffer("counts.listed", (len(rows), parents),
                                   np.int16)
        for b, i in enumerate(rows):
            best_count = self.best_count[i]
            limit = branch - budgets[b]
            suspects = suspect_sets[b]
            if not suspects:
                np.less(best_count, max(limit, half + 1), out=fire[b])
                continue
            route = routes[i]
            defaulted = frozenset(s for s in suspects
                                  if route[s] == self.default_row)
            listed = listed_children.get(defaulted)
            if listed is None:
                listed = listed_children[defaulted] = listed_rows[
                    len(listed_children)]
                listed.fill(0)
                for s in defaulted:
                    listed += self.child_mask[s]
            np.not_equal(self.best[i], DEFAULT_CODE, out=weak)
            np.multiply(listed, weak, out=deviating)
            for s in suspects:
                if s not in defaulted:
                    claim = self.claims[route[s]]
                    read = np.where(self.domain_mask[claim], claim,
                                    DEFAULT_CODE)
                    deviating += self.child_mask[s] & (read != self.best[i])
            lifted = deviating
            lifted += best_count
            np.less(lifted, limit, out=fire[b])
            np.less_equal(best_count, half, out=weak)
            np.logical_or(fire[b], weak, out=fire[b])
        return fire

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
        self._refresh()
        out = self._buffer("counts.vote", self.best.shape, self.best.dtype)
        threshold = t + 1
        for start, stop in row_blocks(len(out), self.parents_size):
            shape = (stop - start, self.parents_size)
            block_out = out[start:stop]
            reached = self._buffer("counts.more", shape, bool)
            if conversion == "resolve":
                block_out.fill(DEFAULT_CODE)
                np.greater(self.best_count[start:stop], self.branch // 2,
                           out=reached)
                np.copyto(block_out, self.best[start:stop], where=reached)
                continue
            block = self.counts[:, start:stop]
            winners = self._buffer("counts.winners", shape, self._dtype)
            np.sum(block, axis=0, dtype=self._dtype, out=winners)
            # The default's count is the complement of the others'.
            np.subtract(self.branch, winners, out=winners)
            np.greater_equal(winners, threshold, out=reached)
            np.copyto(winners, reached)
            block_out.fill(BOTTOM_CODE)
            np.copyto(block_out, DEFAULT_CODE, where=reached)
            for code, count in zip(self.codes, block):
                np.greater_equal(count, threshold, out=reached)
                winners += reached
                np.copyto(block_out, code, where=reached)
            np.not_equal(winners, 1, out=reached)
            np.copyto(block_out, BOTTOM_CODE, where=reached)
        return out


def discover_and_mask_batched(state, level: int,
                              trackers: List[FaultTracker],
                              round_number: int, meters, codes,
                              counts: "ChildCounts" = None
                              ) -> List[Set[ProcessorId]]:
    """Whole-run fixpoint of batched discovery and row-slice masking.

    2-D twin of :func:`_discover_and_mask_numpy`: per fixpoint iteration one
    trigger kernel covers every still-active participant and reduces its
    triggers to each label's first fired parent, then the per-label scan,
    tracker updates, masking, and meter charges run row by row exactly as
    the per-processor pass would.  A participant whose scan finds nothing
    fresh is deactivated — its row can no longer change (masking only
    rewrites the owner's row) — which reproduces the per-processor
    fixpoint's termination and charge accounting verbatim.  *level* is the
    stacked level of *state*, whose stack holds the default and *codes*
    (:func:`~repro.core.npsupport.stack_codes`), or — given *counts*, its
    :class:`ChildCounts` — the level below the stored ones, which is then
    never gathered.  Returns the per-participant sets of newly discovered
    processors.
    """
    from .fault_discovery import scan_first_fired
    count = state.count
    newly: List[Set[ProcessorId]] = [set() for _ in range(count)]
    if counts is None:
        if level < 2 or level > state.num_levels:
            return newly
        source = _StackedLevel(state, level, codes)
    else:
        source = counts
    charge_per_parent = 2 * source.branch
    groups = state.index.label_groups(level - 1)
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
        first = source.first_fired(active, suspect_sets, budgets)
        still_active = []
        for k, i in enumerate(active):
            discovered: Set[ProcessorId] = set()
            meters[i].charge(scan_first_fired(
                first[k], groups, suspect_sets[k], discovered,
                charge_per_parent))
            tracker = trackers[i]
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
