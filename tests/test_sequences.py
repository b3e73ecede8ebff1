"""Unit and property tests for label sequences (repro.core.sequences)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.sequences import (all_faulty, child_labels, corresponding_processor,
                                  count_sequences_of_length, is_prefix,
                                  sequences_of_length, strict_prefixes,
                                  validate_sequence)


class TestValidateSequence:
    def test_valid_sequence(self):
        assert validate_sequence((0, 2, 3), source=0, n=5) == (0, 2, 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            validate_sequence((), source=0, n=4)

    def test_wrong_source_rejected(self):
        with pytest.raises(ValueError):
            validate_sequence((1, 2), source=0, n=4)

    def test_unknown_processor_rejected(self):
        with pytest.raises(ValueError):
            validate_sequence((0, 9), source=0, n=4)

    def test_repetition_rejected_without_flag(self):
        with pytest.raises(ValueError):
            validate_sequence((0, 2, 2), source=0, n=4)

    def test_repetition_allowed_with_flag(self):
        assert validate_sequence((0, 2, 2), source=0, n=4,
                                 allow_repetitions=True) == (0, 2, 2)


class TestChildLabels:
    def test_children_exclude_path(self):
        assert child_labels((0, 2), range(5)) == [1, 3, 4]

    def test_root_children_exclude_source(self):
        assert child_labels((0,), range(4)) == [1, 2, 3]

    def test_repetition_children_are_all_processors(self):
        assert child_labels((0, 2), range(4), allow_repetitions=True) == [0, 1, 2, 3]

    def test_child_count_matches_paper(self):
        # A node α has n − |α| children in the tree without repetitions.
        n = 9
        for length in range(1, 5):
            seq = tuple(range(length))
            assert len(child_labels(seq, range(n))) == n - length


class TestEnumeration:
    def test_length_one_is_root_only(self):
        assert list(sequences_of_length(1, 0, range(5))) == [(0,)]

    def test_length_two_count(self):
        seqs = list(sequences_of_length(2, 0, range(5)))
        assert len(seqs) == 4
        assert all(seq[0] == 0 for seq in seqs)

    def test_count_formula_matches_enumeration(self):
        n = 6
        for length in range(1, 5):
            enumerated = len(list(sequences_of_length(length, 0, range(n))))
            assert enumerated == count_sequences_of_length(length, n)

    def test_count_with_repetitions(self):
        assert count_sequences_of_length(3, 5, allow_repetitions=True) == 25
        enumerated = len(list(sequences_of_length(3, 0, range(5),
                                                  allow_repetitions=True)))
        assert enumerated == 25

    def test_count_zero_when_no_processors_left(self):
        assert count_sequences_of_length(6, 4) == 0

    def test_enumeration_has_no_duplicates(self):
        seqs = list(sequences_of_length(3, 0, range(6)))
        assert len(seqs) == len(set(seqs))

    @given(st.integers(min_value=4, max_value=8), st.integers(min_value=1, max_value=4))
    def test_count_is_falling_factorial(self, n, length):
        expected = 1
        for i in range(1, length):
            expected *= n - i
        assert count_sequences_of_length(length, n) == max(0, expected)


class TestHelpers:
    def test_corresponding_processor_is_last_label(self):
        assert corresponding_processor((0, 3, 2)) == 2

    def test_corresponding_processor_of_empty_rejected(self):
        with pytest.raises(ValueError):
            corresponding_processor(())

    def test_strict_prefixes(self):
        assert list(strict_prefixes((0, 1, 2))) == [(0,), (0, 1)]

    def test_is_prefix(self):
        assert is_prefix((0, 1), (0, 1, 2))
        assert is_prefix((0, 1), (0, 1))
        assert not is_prefix((0, 2), (0, 1, 2))

    def test_all_faulty(self):
        assert all_faulty((0, 3), {0, 3, 5})
        assert not all_faulty((0, 3), {3, 5})

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=6))
    def test_every_strict_prefix_is_a_prefix(self, seq):
        seq = tuple(seq)
        for prefix in strict_prefixes(seq):
            assert is_prefix(prefix, seq)
            assert len(prefix) < len(seq)
