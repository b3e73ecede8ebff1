"""Property tests: the array kernels agree with the reference oracle.

The ``"reference"`` engine (dict-of-tuples trees, recursive-specification
conversion functions) is the executable specification; the ``"fast"`` engine
(interned sequences, flat level-major buffers, batched bottom-up resolve) and
the ``"numpy"`` engine (the same layout on small-int code ndarrays with
``bincount`` majority votes) must both convert exactly as it does.  These
tests drive every array engine's conversion kernels against the oracle over
randomized trees — with and without repetitions, with missing entries and
default substitutions, across ``n ∈ {4..10}`` — and assert equality of
conversions (including ``⊥`` propagation) and of the computation units they
charge.  The numpy cases skip cleanly when numpy is not installed.

The batched whole-run executor (a run whose ``config.engine`` is
``"batched"``, see :mod:`repro.runtime.batched`) is pinned here at the
sizes where its stacks first split or its conversion level is never built,
for which specs it engages, and row by row against the per-processor
conversion.  Whole runs on every execution path are compared with the
oracle by the parity matrix (:mod:`tests.parity`).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.algorithm_a import AlgorithmASpec
from repro.core.algorithm_b import AlgorithmBSpec
from repro.core.algorithm_c import AlgorithmCSpec
from repro.core.hybrid import HybridSpec
from repro.core.engine import numpy_available
from repro.core.exponential import ExponentialSpec
from repro.core.protocol import ProtocolConfig
from repro.core.resolve import (flat_converted_dict, flat_resolve_levels,
                                numpy_resolve_levels, resolve, resolve_all,
                                resolve_prime)
from repro.core.sequences import sequences_of_length
from repro.core.tree import make_tree
from repro.core.values import DEFAULT_VALUE, is_bottom
from tests.parity import (assert_same_outcome, stepped_uneven_blocks,
                          uneven_row_blocks)

#: The array-backed engines under test, each checked against "reference".
ARRAY_ENGINES = [
    "fast",
    pytest.param("numpy", marks=pytest.mark.skipif(
        not numpy_available(), reason="numpy not installed")),
]

_settings = settings(max_examples=25, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def resolve_levels(tree, engine, conversion, t):
    """Engine-dispatched batched conversion over an array-backed tree."""
    if engine == "numpy":
        return numpy_resolve_levels(tree, conversion, t)
    return flat_resolve_levels(tree, conversion, t)


def root_of(tree, levels):
    """The converted root value of batched levels (decodes numpy codes)."""
    return flat_converted_dict(tree, levels)[tree.root]


def build_tree_pair(draw, n, height, repetitions, engine, domain_size=3,
                    missing_rate=5):
    """Build one reference tree and one array tree with identical (randomly
    chosen, possibly sparse) contents and return them."""
    processors = tuple(range(n))
    reference = make_tree(0, processors, "reference", repetitions=repetitions)
    array_tree = make_tree(0, processors, engine, repetitions=repetitions)
    for length in range(1, height + 1):
        for seq in sequences_of_length(length, 0, processors, repetitions):
            present = draw(st.integers(min_value=0, max_value=missing_rate))
            if present == 0 and length == height:
                continue  # a missing leaf: reads fall back to the default
            value = draw(st.integers(min_value=0, max_value=domain_size - 1))
            reference.store(seq, value)
            array_tree.store(seq, value)
    # The root always exists (it is stored in round 1 by every protocol).
    if not reference.has((0,)):
        reference.store((0,), DEFAULT_VALUE)
        array_tree.store((0,), DEFAULT_VALUE)
    return reference, array_tree


@pytest.mark.parametrize("engine", ARRAY_ENGINES)
class TestBatchedResolveAgainstOracle:
    @_settings
    @given(data=st.data())
    def test_resolve_matches_recursive_oracle(self, data, engine):
        n = data.draw(st.integers(min_value=4, max_value=10))
        height = data.draw(st.integers(min_value=1, max_value=min(4, n - 1)))
        reference, array_tree = build_tree_pair(data.draw, n, height,
                                                repetitions=False,
                                                engine=engine)
        expected = resolve_all(reference, "resolve", t=1)
        levels = resolve_levels(array_tree, engine, "resolve", t=1)
        assert flat_converted_dict(array_tree, levels) == expected
        assert root_of(array_tree, levels) == resolve(reference, (0,))

    @_settings
    @given(data=st.data())
    def test_resolve_prime_matches_recursive_oracle(self, data, engine):
        n = data.draw(st.integers(min_value=4, max_value=10))
        height = data.draw(st.integers(min_value=1, max_value=min(4, n - 1)))
        t = data.draw(st.integers(min_value=1, max_value=3))
        reference, array_tree = build_tree_pair(data.draw, n, height,
                                                repetitions=False,
                                                engine=engine)
        expected = resolve_all(reference, "resolve_prime", t=t)
        levels = resolve_levels(array_tree, engine, "resolve_prime", t=t)
        assert flat_converted_dict(array_tree, levels) == expected
        # ⊥ propagation at the root matches too.
        root_reference = resolve_prime(reference, (0,), t)
        root_value = root_of(array_tree, levels)
        assert is_bottom(root_value) == is_bottom(root_reference)
        assert root_value == root_reference

    @_settings
    @given(data=st.data())
    def test_repetition_trees_match(self, data, engine):
        n = data.draw(st.integers(min_value=4, max_value=8))
        height = data.draw(st.integers(min_value=1, max_value=3))
        reference, array_tree = build_tree_pair(data.draw, n, height,
                                                repetitions=True,
                                                engine=engine)
        expected = resolve_all(reference, "resolve", t=1)
        levels = resolve_levels(array_tree, engine, "resolve", t=1)
        assert flat_converted_dict(array_tree, levels) == expected

    @_settings
    @given(data=st.data())
    def test_meter_charges_match_reference(self, data, engine):
        n = data.draw(st.integers(min_value=4, max_value=8))
        height = data.draw(st.integers(min_value=1, max_value=3))
        conversion = data.draw(st.sampled_from(["resolve", "resolve_prime"]))
        reference, array_tree = build_tree_pair(data.draw, n, height,
                                                repetitions=False,
                                                engine=engine,
                                                missing_rate=10)
        before_reference = reference.meter.units
        before_array = array_tree.meter.units
        resolve_all(reference, conversion, t=2)
        resolve_levels(array_tree, engine, conversion, t=2)
        assert (reference.meter.units - before_reference
                == array_tree.meter.units - before_array)


def assert_rows_convert_alone(state, batched_levels, conversion, t):
    """Each row of a whole-run conversion equals its own tree's conversion."""
    for i in range(state.count):
        single_levels = numpy_resolve_levels(state.row_tree(i), conversion, t)
        for level in range(state.num_levels):
            assert (batched_levels[level][i]
                    == single_levels[level]).all(), (i, level)


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
class TestBatchedExecutor:
    """Sizes, eligibility and row conversion of the batched executor (its
    run-level parity is the matrix of :mod:`tests.parity`)."""

    def test_leaf_level_splits_naturally_at_n15(self):
        """Exponential n=15, t=4 is the smallest default-budget multi-block
        run: its 14 × 24024 leaf stack exceeds one block."""
        from repro.api import RunRequest, execute
        from repro.core.npsupport import ROW_BLOCK_ELEMENTS, row_blocks
        assert 14 * 24024 > ROW_BLOCK_ELEMENTS
        assert len(row_blocks(14, 24024)) >= 2
        reports = {
            engine: execute(RunRequest(
                protocol="exponential", n=15, t=4,
                scenario="faulty-source-allies", battery="worst-case",
                seed=5, engine=engine))
            for engine in ("batched", "fast")}
        assert reports["batched"].engine_resolved == "batched"
        assert_same_outcome(reports["batched"], reports["fast"])

    def test_conversion_level_is_never_built_at_n16(self):
        """Exponential n=16, t=5 converts its sixth level from claim counts:
        the shared index builds five levels, and none of the sixth's
        tables."""
        from repro.api import RunRequest, execute
        from repro.core.sequences import (clear_sequence_index_cache,
                                          sequence_index)
        clear_sequence_index_cache()
        report = execute(RunRequest(
            protocol="exponential", n=16, t=5,
            scenario="faulty-source-allies", battery="worst-case", seed=5,
            engine="batched"))
        assert report.engine_resolved == "batched" and report.agreement
        index = sequence_index(0, tuple(range(16)), False)
        assert len(index._seqs) == 5
        assert all(level <= 5 for _, level in index._np_tables)

    def test_batched_supported_covers_exactly_eig_c_and_hybrid(self):
        from repro.baselines.dolev_strong import DolevStrongSpec
        from repro.baselines.phase_king import PhaseKingSpec
        from repro.runtime.batched import batched_supported
        assert batched_supported(ExponentialSpec(),
                                 ProtocolConfig(n=7, t=2))
        assert batched_supported(AlgorithmASpec(3),
                                 ProtocolConfig(n=10, t=3))
        assert batched_supported(AlgorithmBSpec(2),
                                 ProtocolConfig(n=9, t=2))
        assert batched_supported(HybridSpec(3),
                                 ProtocolConfig(n=10, t=3))
        assert batched_supported(AlgorithmCSpec(),
                                 ProtocolConfig(n=14, t=2))
        assert not batched_supported(PhaseKingSpec(),
                                     ProtocolConfig(n=9, t=2))
        assert not batched_supported(DolevStrongSpec(),
                                     ProtocolConfig(n=7, t=2))

    def test_row_tree_bridges_batched_state_to_per_processor_kernels(self):
        """BatchedEIGState.row_tree / NumpyEIGTree.adopt_levels round-trip.

        A row extracted from a stacked state must behave exactly like a
        per-processor tree with the same contents: identical dict-shaped
        level views, and the per-processor conversion kernel over the row
        tree must match the whole-run conversion's row.
        """
        from repro.core.npsupport import (BatchedEIGState, VALUE_CODEC,
                                          stack_codes)
        from repro.core.resolve import batched_resolve_levels
        from repro.core.sequences import sequence_index
        import numpy as np

        n, count, height, t = 6, 3, 3, 1
        processors = tuple(range(n))
        index = sequence_index(0, processors, False)
        state = BatchedEIGState(index, count)
        code_of = VALUE_CODEC.code

        def value_at(row, level, node_id):
            return (row + level + node_id) % 2

        state.set_roots(np.asarray(
            [code_of(value_at(i, 1, 0)) for i in range(count)],
            dtype="int32"))
        for level in range(2, height + 1):
            size = index.level_size(level)
            state.append_level(np.asarray(
                [[code_of(value_at(i, level, node_id))
                  for node_id in range(size)] for i in range(count)],
                dtype="int32"))

        batched_levels, _charge = batched_resolve_levels(
            state, "resolve", t,
            stack_codes(VALUE_CODEC.domain_mask(frozenset({0, 1}))))
        for i in range(count):
            tree = state.row_tree(i)
            for level in range(1, height + 1):
                expected = {
                    seq: value_at(i, level, node_id)
                    for node_id, seq in enumerate(index.sequences(level))
                }
                assert tree.level(level) == expected, (i, level)
        assert_rows_convert_alone(state, batched_levels, "resolve", t)

    @pytest.mark.parametrize("conversion", ["resolve", "resolve_prime"])
    def test_forced_row_blocks_convert_each_row_as_its_own_tree(
            self, conversion):
        """Every row block votes over its own rows, never a neighbour's.

        Seven distinct random rows (values drawn from a three-value domain)
        step in a block of one row, then blocks of two; each converted row
        must equal the per-processor conversion of that row alone.
        """
        from repro.core.npsupport import (BatchedEIGState, VALUE_CODEC,
                                          stack_codes)
        from repro.core.resolve import batched_resolve_levels
        from repro.core.sequences import sequence_index
        import numpy as np

        n, count, height, t = 6, 7, 3, 1
        index = sequence_index(0, tuple(range(n)), False)
        rng = np.random.default_rng(11)
        codes = np.asarray([VALUE_CODEC.code(v) for v in range(3)],
                           dtype="int32")
        state = BatchedEIGState(index, count)
        state.set_roots(rng.choice(codes, size=count))
        for level in range(2, height + 1):
            state.append_level(rng.choice(
                codes, size=(count, index.level_size(level))))
        with uneven_row_blocks() as seen:
            batched_levels, _charge = batched_resolve_levels(
                state, conversion, t,
                stack_codes(VALUE_CODEC.domain_mask(frozenset(range(3)))))
        assert stepped_uneven_blocks(seen), seen
        assert_rows_convert_alone(state, batched_levels, conversion, t)
