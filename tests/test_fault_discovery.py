"""Unit tests for the Fault Discovery Rules and the FaultTracker."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import numpy_available
from repro.core.fault_discovery import (FaultTracker, discover_at_level,
                                        discover_during_conversion,
                                        majority_among_children,
                                        node_triggers_discovery)
from repro.core.resolve import resolve_all
from repro.core.tree import InfoGatheringTree


def two_level_tree(n, child_value):
    tree = InfoGatheringTree(source=0, processors=range(n))
    tree.set_root(0)
    tree.grow_level(2, child_value)
    return tree


class TestMajorityAmongChildren:
    def test_majority_present(self):
        value, counter = majority_among_children([1, 1, 1, 0])
        assert value == 1
        assert counter[1] == 3

    def test_no_majority(self):
        value, _ = majority_among_children([1, 1, 0, 0])
        assert value is None

    def test_empty(self):
        value, _ = majority_among_children([])
        assert value is None


class TestNodeTriggersDiscovery:
    def test_no_majority_triggers(self):
        child_values = {1: 0, 2: 1, 3: 0, 4: 1}
        assert node_triggers_discovery(child_values, suspects=set(), t=2)

    def test_small_deviation_does_not_trigger(self):
        child_values = {1: 1, 2: 1, 3: 1, 4: 1, 5: 0, 6: 0}
        assert not node_triggers_discovery(child_values, suspects=set(), t=2)

    def test_deviation_beyond_budget_triggers(self):
        child_values = {1: 1, 2: 1, 3: 1, 4: 1, 5: 0, 6: 0, 7: 0}
        assert node_triggers_discovery(child_values, suspects=set(), t=2)

    def test_suspect_deviations_are_not_counted(self):
        # Three deviating children but two of them are already suspects, and the
        # budget shrinks to t − |L| = 1, so exactly one unlisted deviation: no trigger.
        child_values = {1: 1, 2: 1, 3: 1, 4: 1, 5: 0, 6: 0, 7: 0}
        assert not node_triggers_discovery(child_values, suspects={5, 6}, t=3)

    def test_budget_shrinks_with_suspects(self):
        child_values = {1: 1, 2: 1, 3: 1, 4: 1, 5: 0}
        # budget t − |L| = 2 − 2 = 0, one unlisted deviation → trigger.
        assert node_triggers_discovery(child_values, suspects={8, 9}, t=2)


class TestDiscoverAtLevel:
    def test_consistent_children_discover_nothing(self):
        tree = two_level_tree(7, lambda parent, child: 1)
        assert discover_at_level(tree, 2, suspects=set(), t=2) == set()

    def test_split_children_discover_the_parent(self):
        # The root's corresponding processor is the source (0): an even split
        # among its children has no majority → the source is discovered.
        tree = two_level_tree(7, lambda parent, child: child % 2)
        assert discover_at_level(tree, 2, suspects=set(), t=2) == {0}

    def test_level_one_discovers_nothing(self):
        tree = InfoGatheringTree(source=0, processors=range(5))
        tree.set_root(1)
        assert discover_at_level(tree, 1, suspects=set(), t=1) == set()

    def test_already_suspected_parent_not_rediscovered(self):
        tree = two_level_tree(7, lambda parent, child: child % 2)
        assert discover_at_level(tree, 2, suspects={0}, t=2) == set()

    def test_discovery_at_third_level_names_last_label(self):
        tree = InfoGatheringTree(source=0, processors=range(7))
        tree.set_root(1)
        tree.grow_level(2, lambda parent, child: 1)
        # Children of node (0, 3) disagree wildly (no majority value at all);
        # every other node is unanimous.
        def leaf(parent, child):
            if parent == (0, 3):
                return child
            return 1
        tree.grow_level(3, leaf)
        assert discover_at_level(tree, 3, suspects=set(), t=2) == {3}


class TestDiscoverDuringConversion:
    def test_consistent_tree_discovers_nothing(self):
        tree = InfoGatheringTree(source=0, processors=range(7))
        tree.set_root(1)
        tree.grow_level(2, lambda parent, child: 1)
        tree.grow_level(3, lambda parent, child: 1)
        converted = resolve_all(tree, "resolve_prime", t=2)
        assert discover_during_conversion(tree, converted, set(), t=2) == set()

    def test_split_converted_children_discover_parent(self):
        tree = InfoGatheringTree(source=0, processors=range(7))
        tree.set_root(1)
        tree.grow_level(2, lambda parent, child: 1)

        def leaf(parent, child):
            if parent == (0, 5):
                return child
            return 1

        tree.grow_level(3, leaf)
        converted = resolve_all(tree, "resolve_prime", t=2)
        discovered = discover_during_conversion(tree, converted, set(), t=2)
        assert 5 in discovered


class TestFaultTracker:
    def test_add_and_membership(self):
        tracker = FaultTracker(owner=1, t=3)
        assert tracker.add(5, round_number=2)
        assert 5 in tracker
        assert len(tracker) == 1

    def test_add_is_idempotent(self):
        tracker = FaultTracker(owner=1, t=3)
        tracker.add(5, 2)
        assert not tracker.add(5, 4)
        assert tracker.discovery_round(5) == 2

    def test_add_all_returns_only_new(self):
        tracker = FaultTracker(owner=1, t=3)
        tracker.add(5, 2)
        added = tracker.add_all([5, 6, 7], 3)
        assert added == [6, 7]

    def test_discovered_by_round(self):
        tracker = FaultTracker(owner=1, t=3)
        tracker.add(5, 2)
        tracker.add(6, 4)
        assert tracker.discovered_by_round(3) == {5}
        assert tracker.discovered_by_round(4) == {5, 6}

    def test_history_and_suspects_are_copies(self):
        tracker = FaultTracker(owner=1, t=3)
        tracker.add(5, 2)
        suspects = tracker.suspects
        suspects.add(99)
        assert 99 not in tracker
        history = tracker.history()
        history[42] = 1
        assert 42 not in tracker


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
class TestChildCountsMatchStackKernels:
    """The count kernel decides exactly as the gathered stack's kernels.

    A conversion level is never gathered: its triggers, masking, and bottom
    votes come from per-``(row, parent)`` child-value counts
    (:class:`~repro.core.fault_masking.ChildCounts`).  Random claims —
    ``MISSING`` and out-of-domain codes included — random routings with
    default-row suspects and the own-pid echo under self-suspicion, 2- and
    3-value domains and random budgets must give the same fired windows,
    masked slot counts, and ``resolve`` / ``resolve'`` votes as
    :func:`batched_window_triggers` and the shared vote select over the
    level :func:`gather_level_batched` builds from the same inputs.
    """

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_counts_match_gathered_stack(self, data):
        import numpy as np

        from repro.core.fault_discovery import (batched_window_triggers,
                                                first_fired_ranks)
        from repro.core.fault_masking import (ChildCounts,
                                              gather_level_batched)
        from repro.core.npsupport import (DEFAULT_CODE, MISSING_CODE,
                                          VALUE_CODEC, BatchedEIGState,
                                          stack_codes)
        from repro.core.resolve import _vote_level_select
        from repro.core.sequences import sequence_index

        n = data.draw(st.integers(4, 7), label="n")
        parent_level = data.draw(st.integers(1, min(3, n - 2)),
                                 label="parent_level")
        level = parent_level + 1
        index = sequence_index(0, tuple(range(n)), False)
        parents = index.level_size(parent_level)
        branch = index.branch(parent_level)
        domain = (0, 1, 2)[:data.draw(st.integers(2, 3), label="values")]
        pool = ([MISSING_CODE] + [VALUE_CODEC.code(v) for v in domain]
                + [VALUE_CODEC.code(v) for v in (5, "junk")])
        domain_mask = VALUE_CODEC.domain_mask(frozenset(domain))
        rows = data.draw(st.integers(1, n - 1), label="rows")
        extras = data.draw(st.integers(0, 3), label="extras")
        default_row = rows
        claims = np.asarray(
            [data.draw(st.lists(st.sampled_from(pool), min_size=parents,
                                max_size=parents)) for _ in range(rows)]
            + [[DEFAULT_CODE] * parents]
            + [data.draw(st.lists(st.sampled_from(pool), min_size=parents,
                                  max_size=parents)) for _ in range(extras)],
            dtype="int32")
        own = data.draw(st.permutations(range(1, n)), label="own")[:rows]
        t = data.draw(st.integers(0, 3), label="t")
        row_of = np.asarray(
            [data.draw(st.lists(st.integers(0, claims.shape[0] - 1),
                                min_size=n, max_size=n)) for _ in range(rows)],
            dtype=np.int64)
        suspect_sets = []
        for i in range(rows):
            suspects = data.draw(st.sets(st.integers(0, n - 1), max_size=3))
            for pid in suspects:
                row_of[i, pid] = default_row
            row_of[i, own[i]] = i  # the echo survives self-suspicion
            suspect_sets.append(suspects)
        budgets = [data.draw(st.integers(-1, t)) for _ in range(rows)]

        state = BatchedEIGState(index, rows)
        state.set_roots(np.full(rows, DEFAULT_CODE))
        for stored in range(2, level):
            state.append_level(np.full((rows, index.level_size(stored)),
                                       DEFAULT_CODE, dtype="int32"))
        gather_level_batched(state, level, claims, row_of, domain_mask)
        stack = state.raw_stack(level)
        slots = index.slots_np(level)
        counts = ChildCounts(index, parent_level, claims, row_of.copy(),
                             default_row, domain_mask)

        assert counts.slot_counts == [
            len(slots[label][0]) if label in slots else 0
            for label in range(n)]

        def assert_same_decisions():
            triggers = batched_window_triggers(
                stack, parents, branch, slots, suspect_sets,
                np.asarray(budgets, dtype=np.int64), stack_codes(domain_mask))
            # Every window's trigger, then the first fired ranks both
            # sources reduce those triggers to.
            assert (counts.window_triggers(range(rows), suspect_sets, budgets)
                    == triggers).all()
            assert counts.first_fired(range(rows), suspect_sets, budgets) == (
                first_fired_ranks(triggers, index.label_groups(parent_level))
                .tolist())
            for conversion in ("resolve", "resolve_prime"):
                expected = _vote_level_select(
                    np, stack.reshape(-1, branch), branch,
                    conversion == "resolve", t + 1, len(VALUE_CODEC),
                    stack.dtype).reshape(rows, parents)
                assert (counts.vote(conversion, t) == expected).all()

        assert_same_decisions()
        # Masking a sender's column equals rewriting its slots to default.
        for i in range(rows):
            senders = data.draw(st.sets(st.integers(0, n - 1), max_size=2))
            rewritten = 0
            for pid in senders:
                if pid in slots:
                    stack[i, slots[pid][0]] = DEFAULT_CODE
                    rewritten += len(slots[pid][0])
            assert counts.mask_senders(i, senders) == rewritten
        assert_same_decisions()


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
class TestChildMaskAndCounts:
    """The child mask a conversion level is counted through, and the count
    kernel's handling of default reads and masking charges."""

    @staticmethod
    def _counts(n, parent_level, claims, row_of, default_row):
        import numpy as np

        from repro.core.fault_masking import ChildCounts
        from repro.core.npsupport import VALUE_CODEC
        from repro.core.sequences import sequence_index
        index = sequence_index(0, tuple(range(n)), False)
        return index, ChildCounts(
            index, parent_level, np.asarray(claims, dtype="int32"),
            np.asarray(row_of, dtype=np.int64), default_row,
            VALUE_CODEC.domain_mask(frozenset({0, 1})))

    @pytest.mark.parametrize("n, parent_level", [(5, 1), (6, 2), (7, 3)])
    def test_child_mask_marks_exactly_the_children(self, n, parent_level):
        from repro.core.sequences import child_labels, sequence_index
        processors = tuple(range(n))
        index = sequence_index(0, processors, False)
        mask = index.child_mask_np(parent_level)
        parents = index.sequences(parent_level)
        assert mask.shape == (n, len(parents))
        for p, seq in enumerate(parents):
            assert [c for c in processors if mask[c, p]] == list(
                child_labels(seq, processors))
        # A label's children are exactly its slots in the level below.
        slots = index.slots_np(parent_level + 1)
        assert mask.sum(axis=1).tolist() == [
            len(slots[c][0]) if c in slots else 0 for c in processors]

    def test_child_mask_with_repetitions_admits_every_label(self):
        from repro.core.sequences import sequence_index
        index = sequence_index(0, tuple(range(5)), True)
        mask = index.child_mask_np(2)
        assert mask.shape == (5, index.level_size(2)) and mask.all()

    def test_missing_and_out_of_domain_claims_count_as_default(self):
        import numpy as np

        from repro.core.npsupport import (DEFAULT_CODE, MISSING_CODE,
                                          VALUE_CODEC)
        n, parent_level = 6, 2
        size = 5  # the five level-2 nodes (0, c), c = 1 … 5
        claims = [[MISSING_CODE] * size, [VALUE_CODEC.code(5)] * size,
                  [DEFAULT_CODE] * size]
        index, counts = self._counts(n, parent_level, claims,
                                     [[0] * n, [1] * n], default_row=2)
        assert counts.counts.dtype == np.uint8
        assert not counts.counts.any()
        # Every child reads the default: a full default majority, so no
        # window fires and both conversions keep the default.
        assert not counts.window_triggers([0, 1], [set(), set()],
                                          [0, 0]).any()
        groups = index.label_groups(parent_level)
        assert counts.first_fired([0, 1], [set(), set()], [0, 0]) == [
            [groups.size] * len(groups.labels)] * 2
        for conversion in ("resolve", "resolve_prime"):
            assert (counts.vote(conversion, 1) == DEFAULT_CODE).all()

    def test_masking_a_sender_already_read_as_default_only_charges(self):
        from repro.core.npsupport import DEFAULT_CODE, VALUE_CODEC
        n, parent_level, size = 6, 2, 5
        one = VALUE_CODEC.code(1)
        claims = [[one] * size, [DEFAULT_CODE] * size]
        row_of = [[0] * n]
        row_of[0][3] = 1  # sender 3 is a suspect: it reads the default row
        index, counts = self._counts(n, parent_level, claims, row_of,
                                     default_row=1)
        before = counts.counts.copy()
        # The per-processor pass rewrites (and charges) every slot of a
        # fresh sender, whatever those slots held.
        charged = counts.mask_senders(0, {3})
        assert charged == len(index.slots_np(parent_level + 1)[3][0]) == 4
        assert (counts.counts == before).all()
        assert counts.row_of[0, 3] == 1
        # Masking a sender whose claims were counted removes its children.
        assert counts.mask_senders(0, {4}) == 4
        assert counts.counts.sum() == before.sum() - 4


def reference_label_scan(last_labels, fired, suspects, discovered,
                         charge_per_parent):
    """The Fault Discovery Rule's label scan, parent by parent.

    Walks the parents in node-id order as the reference and flat passes do:
    a parent whose label is suspected or already discovered is skipped and
    not charged; every examined parent is charged, and a fired window
    discovers its label.  Updates *discovered*; returns the charge.
    """
    charge = 0
    for parent_id, label in enumerate(last_labels):
        if label in suspects or label in discovered:
            continue
        charge += charge_per_parent
        if fired[parent_id]:
            discovered.add(label)
    return charge


def fired_id_scan(index, parent_level, fired_ids, suspects, discovered,
                  charge_per_parent):
    """The fired-id label scan the first-fired form replaced.

    A label is discovered at its first fired id and charged for the ids of
    that label up to and including it; every other label is charged for
    all of its ids.
    """
    from bisect import bisect_right
    labels = index.last_labels(parent_level)
    ids_by_label = {}
    for parent_id, label in enumerate(labels):
        ids_by_label.setdefault(label, []).append(parent_id)
    first_fired = {}
    for parent_id in fired_ids:
        first_fired.setdefault(labels[parent_id], parent_id)
    charge = 0
    for label, ids in ids_by_label.items():
        if label in suspects or label in discovered:
            continue
        first = first_fired.get(label)
        if first is None:
            charge += charge_per_parent * len(ids)
        else:
            discovered.add(label)
            charge += charge_per_parent * bisect_right(ids, first)
    return charge


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
class TestFirstFiredScan:
    """Every trigger source reduces its trigger rows to the first fired
    parent of each label, and the label scan reads only that form.  The
    reduction plus the scan must discover and charge exactly what the
    parent-by-parent reference scan and the fired-id scan it replaced do."""

    @staticmethod
    def _draw_level(data):
        from repro.core.sequences import sequence_index
        n = data.draw(st.integers(3, 7), label="n")
        repetitions = data.draw(st.booleans(), label="repetitions")
        deepest = 3 if repetitions else min(4, n - 1)
        parent_level = data.draw(st.integers(1, deepest), label="level")
        return n, parent_level, sequence_index(0, tuple(range(n)),
                                               repetitions)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_reduction_and_scan_match_brute_force(self, data):
        import numpy as np

        from repro.core.fault_discovery import (first_fired_ranks,
                                                scan_first_fired)
        n, parent_level, index = self._draw_level(data)
        size = index.level_size(parent_level)
        rows = data.draw(st.integers(1, 3), label="rows")
        kind = data.draw(st.sampled_from(["random", "all", "none"]),
                         label="kind")
        if kind == "random":
            triggers = np.asarray(
                [data.draw(st.lists(st.booleans(), min_size=size,
                                    max_size=size)) for _ in range(rows)],
                dtype=bool).reshape(rows, size)
        else:
            triggers = np.full((rows, size), kind == "all")
        groups = index.label_groups(parent_level)
        first = first_fired_ranks(triggers, groups)
        assert first.shape == (rows, len(groups.labels))
        labels = index.last_labels(parent_level)
        charge_per_parent = data.draw(st.integers(1, 4), label="per parent")
        for i in range(rows):
            suspects = data.draw(st.sets(st.integers(0, n - 1), max_size=3),
                                 label="suspects")
            already = data.draw(st.sets(st.integers(0, n - 1), max_size=2),
                                label="discovered")
            discovered = set(already)
            charge = scan_first_fired(first[i].tolist(), groups, suspects,
                                      discovered, charge_per_parent)
            expected = set(already)
            assert charge == reference_label_scan(
                labels, triggers[i], suspects, expected, charge_per_parent)
            assert discovered == expected
            replaced = set(already)
            assert charge == fired_id_scan(
                index, parent_level, np.flatnonzero(triggers[i]).tolist(),
                suspects, replaced, charge_per_parent)
            assert discovered == replaced
        if kind == "none":
            assert (first == groups.size).all()
        if kind == "all":
            assert (first == 0).all()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_scalar_and_vectorized_sources_agree(self, data):
        """The tiny-level scalar path reduces the same windows to the same
        ranks as the vectorized trigger kernel plus the reduction."""
        import numpy as np

        from repro.core.fault_discovery import (_first_fired_python,
                                                batched_window_triggers,
                                                first_fired_ranks)
        from repro.core.npsupport import VALUE_CODEC, stack_codes
        n, parent_level, index = self._draw_level(data)
        child_level = parent_level + 1
        parents = index.level_size(parent_level)
        branch = index.branch(parent_level)
        rows = data.draw(st.integers(1, 3), label="rows")
        codes = [VALUE_CODEC.code(v) for v in (0, 1, 2)]
        stack = np.asarray(
            [data.draw(st.lists(st.sampled_from(codes),
                                min_size=parents * branch,
                                max_size=parents * branch))
             for _ in range(rows)], dtype="int32").reshape(rows, -1)
        suspect_sets = [data.draw(st.sets(st.integers(0, n - 1), max_size=3))
                        for _ in range(rows)]
        budgets = [data.draw(st.integers(-1, 2)) for _ in range(rows)]
        groups = index.label_groups(parent_level)
        triggers = batched_window_triggers(
            stack, parents, branch, index.slots_np(child_level),
            suspect_sets, np.asarray(budgets, dtype=np.int64),
            stack_codes(VALUE_CODEC.domain_mask(frozenset({0, 1, 2}))))
        assert _first_fired_python(
            stack.tolist(), parents, branch, index.last_labels(parent_level),
            index.last_labels(child_level), groups, suspect_sets,
            budgets) == first_fired_ranks(triggers, groups).tolist()

    def test_root_level_has_one_label(self):
        import numpy as np

        from repro.core.fault_discovery import first_fired_ranks
        from repro.core.sequences import sequence_index
        index = sequence_index(0, tuple(range(5)), False)
        groups = index.label_groups(1)
        assert groups.labels == [0] and groups.size == 1
        assert first_fired_ranks(np.array([[True], [False]]),
                                 groups).tolist() == [[0], [1]]
        # Below the root every label but the source ends equally many nodes.
        groups = index.label_groups(3)
        assert groups.labels == [1, 2, 3, 4] and groups.size == 3
        assert groups.column[0] is None


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
class TestLargeLevelRanking:
    """A large level ranks only the codes its stack can hold.

    The codec is process-wide and append-only, so in a long-lived process
    it holds every value any earlier request interned.  The code-by-code
    ranking of a large level must still pick what ``argmax`` over the full
    tallies picks, from the run's codes alone.
    """

    #: Values no run's domain holds, interned as an earlier wide-domain
    #: request would have.
    FOREIGN = tuple(f"earlier-request-{k}" for k in range(6))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_window_top_matches_tally_argmax(self, data):
        import numpy as np

        from repro.core.npsupport import (BOTTOM_CODE, DEFAULT_CODE,
                                          VALUE_CODEC, scratch, stack_codes,
                                          window_tallies, window_top)
        for value in self.FOREIGN:
            VALUE_CODEC.code(value)
        domain = (0, 1, 2)[:data.draw(st.integers(1, 3), label="values")]
        bottom = data.draw(st.booleans(), label="bottom")
        codes = stack_codes(VALUE_CODEC.domain_mask(frozenset(domain)),
                            bottom)
        assert DEFAULT_CODE not in codes and codes == sorted(codes)
        assert (BOTTOM_CODE in codes) == bottom
        branch = data.draw(st.integers(1, 9), label="branch")
        rows = data.draw(st.integers(1, 12), label="rows")
        windows = np.asarray(
            data.draw(st.lists(st.sampled_from([DEFAULT_CODE] + codes),
                               min_size=rows * branch,
                               max_size=rows * branch)),
            dtype="int32").reshape(rows, branch)
        tallies = window_tallies(windows, len(VALUE_CODEC))
        best, best_count = window_top(windows, codes, scratch)
        assert best.tolist() == tallies.argmax(axis=1).tolist()
        assert best_count.tolist() == tallies.max(axis=1).tolist()

    def test_stack_codes_leave_out_codes_other_requests_interned(self):
        from repro.core.npsupport import (BOTTOM_CODE, VALUE_CODEC,
                                          stack_codes)
        for value in self.FOREIGN:
            VALUE_CODEC.code(value)
        mask = VALUE_CODEC.domain_mask(frozenset({0, 1}))
        assert stack_codes(mask) == [VALUE_CODEC.code(1)]
        assert stack_codes(mask, bottom=True) == sorted(
            [BOTTOM_CODE, VALUE_CODEC.code(1)])
