"""Unit and property tests for the conversion functions resolve and resolve'."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.resolve import (converted_root, majority_value, make_resolve_prime,
                                resolve, resolve_all, resolve_prime)
from repro.core.tree import InfoGatheringTree
from repro.core.values import DEFAULT_VALUE, is_bottom
from collections import Counter


def tree_with_level2(values, n=None):
    """A two-level tree whose level-2 values are given in child-label order."""
    n = n if n is not None else len(values) + 1
    tree = InfoGatheringTree(source=0, processors=range(n))
    tree.set_root(DEFAULT_VALUE)
    iterator = iter(values)
    tree.grow_level(2, lambda parent, child: next(iterator))
    return tree


class TestMajorityHelper:
    def test_strict_majority_found(self):
        assert majority_value(Counter({1: 3, 0: 2}), 5) == 1

    def test_tie_is_no_majority(self):
        assert majority_value(Counter({1: 2, 0: 2}), 4) is None

    def test_half_is_not_majority(self):
        assert majority_value(Counter({1: 2, 0: 1}), 4) is None

    def test_empty_counter(self):
        assert majority_value(Counter(), 0) is None


class TestResolve:
    def test_leaf_resolves_to_stored_value(self):
        tree = InfoGatheringTree(source=0, processors=range(4))
        tree.set_root(1)
        assert resolve(tree, (0,)) == 1

    def test_majority_of_children(self):
        tree = tree_with_level2([1, 1, 1, 0, 0])
        assert resolve(tree, (0,)) == 1

    def test_no_majority_gives_default(self):
        tree = tree_with_level2([1, 1, 0, 0])
        assert resolve(tree, (0,)) == DEFAULT_VALUE

    def test_three_level_recursion(self):
        tree = InfoGatheringTree(source=0, processors=range(5))
        tree.set_root(0)
        tree.grow_level(2, lambda parent, child: 0)
        # Leaves all say 1, so every level-2 node resolves to 1 and the root does too.
        tree.grow_level(3, lambda parent, child: 1)
        assert resolve(tree, (0,)) == 1

    def test_cache_is_shared_across_nodes(self):
        tree = tree_with_level2([1, 1, 1, 0])
        cache = {}
        resolve(tree, (0,), cache)
        assert (0,) in cache
        assert all(len(seq) <= 2 for seq in cache)

    def test_resolve_all_covers_every_node(self):
        tree = InfoGatheringTree(source=0, processors=range(5))
        tree.set_root(0)
        tree.grow_level(2, lambda parent, child: child % 2)
        tree.grow_level(3, lambda parent, child: child % 2)
        converted = resolve_all(tree, "resolve", t=1)
        assert set(converted) == set(tree.sequences())

    def test_resolve_all_rejects_unknown_conversion(self):
        tree = tree_with_level2([1, 1, 0])
        with pytest.raises(ValueError):
            resolve_all(tree, "not-a-conversion", t=1)


class TestResolvePrime:
    def test_unique_threshold_value_wins(self):
        # t = 1: a value needs at least 2 occurrences and must be the only one.
        tree = tree_with_level2([1, 1, 0, 2], n=5)
        assert resolve_prime(tree, (0,), t=1) == 1

    def test_two_values_above_threshold_give_bottom(self):
        tree = tree_with_level2([1, 1, 0, 0], n=5)
        assert is_bottom(resolve_prime(tree, (0,), t=1))

    def test_no_value_above_threshold_gives_bottom(self):
        tree = tree_with_level2([1, 0, 2, 3], n=5)
        assert is_bottom(resolve_prime(tree, (0,), t=1))

    def test_bottom_children_do_not_count_toward_threshold(self):
        # Build three levels so some level-2 nodes resolve to ⊥ first.
        tree = InfoGatheringTree(source=0, processors=range(7))
        tree.set_root(0)
        tree.grow_level(2, lambda parent, child: 0)
        # Children of each level-2 node: half say 0, half say 1 → ⊥ at t=2
        # except we arrange one node's children to be unanimous.
        def leaf_value(parent, child):
            if parent[-1] == 1:
                return 1
            return child % 2
        tree.grow_level(3, leaf_value)
        converted = resolve_all(tree, "resolve_prime", t=2)
        assert converted[(0, 1)] == 1

    def test_factory_and_wrapper_agree(self):
        tree = tree_with_level2([1, 1, 1, 0], n=5)
        assert make_resolve_prime(1)(tree, (0,)) == resolve_prime(tree, (0,), t=1)

    def test_leaf_resolves_to_stored_value(self):
        tree = InfoGatheringTree(source=0, processors=range(4))
        tree.set_root(1)
        assert resolve_prime(tree, (0,), t=1) == 1


class TestConvertedRoot:
    def test_resolve_root(self):
        tree = tree_with_level2([1, 1, 1, 0])
        assert converted_root(tree, "resolve", t=1) == 1

    def test_resolve_prime_bottom_maps_to_default(self):
        tree = tree_with_level2([1, 1, 0, 0], n=5)
        assert converted_root(tree, "resolve_prime", t=1) == DEFAULT_VALUE

    def test_unknown_conversion_rejected(self):
        tree = tree_with_level2([1, 1, 0])
        with pytest.raises(ValueError):
            converted_root(tree, "majority3000", t=1)


class TestResolveProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=3, max_size=9))
    def test_resolve_matches_explicit_majority_on_two_level_trees(self, values):
        tree = tree_with_level2(values)
        counts = Counter(values)
        expected = DEFAULT_VALUE
        top, top_count = counts.most_common(1)[0]
        if top_count * 2 > len(values):
            expected = top
        assert resolve(tree, (0,)) == expected

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2), min_size=3, max_size=9),
           st.integers(min_value=1, max_value=3))
    def test_resolve_prime_threshold_semantics(self, values, t):
        tree = tree_with_level2(values, n=len(values) + 1)
        counts = Counter(values)
        winners = [v for v, c in counts.items() if c >= t + 1]
        result = resolve_prime(tree, (0,), t=t)
        if len(winners) == 1:
            assert result == winners[0]
        else:
            assert is_bottom(result)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=3, max_size=8))
    def test_resolve_never_returns_bottom(self, values):
        tree = tree_with_level2(values)
        assert not is_bottom(resolve(tree, (0,)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=4, max_value=6), st.integers(min_value=0, max_value=1))
    def test_unanimous_tree_resolves_to_the_unanimous_value(self, n, value):
        tree = InfoGatheringTree(source=0, processors=range(n))
        tree.set_root(value)
        tree.grow_level(2, lambda parent, child: value)
        tree.grow_level(3, lambda parent, child: value)
        assert resolve(tree, (0,)) == value
        assert resolve_prime(tree, (0,), t=(n - 1) // 3) == value
