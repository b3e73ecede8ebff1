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

        from repro.core.fault_discovery import batched_window_triggers
        from repro.core.fault_masking import (ChildCounts,
                                              gather_level_batched)
        from repro.core.npsupport import (DEFAULT_CODE, MISSING_CODE,
                                          VALUE_CODEC, BatchedEIGState)
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
                np.asarray(budgets, dtype=np.int64), len(VALUE_CODEC))
            assert counts.fired_ids(range(rows), suspect_sets, budgets) == [
                np.flatnonzero(row).tolist() for row in triggers]
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
        _, counts = self._counts(n, parent_level, claims,
                                 [[0] * n, [1] * n], default_row=2)
        assert counts.counts.dtype == np.uint8
        assert not counts.counts.any()
        # Every child reads the default: a full default majority, so no
        # window fires and both conversions keep the default.
        assert counts.fired_ids([0, 1], [set(), set()], [0, 0]) == [[], []]
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
