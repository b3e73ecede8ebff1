"""Property tests: the array engines agree with the reference oracle.

The ``"reference"`` engine (dict-of-tuples trees, recursive-specification
conversion functions) is the executable specification; the ``"fast"`` engine
(interned sequences, flat level-major buffers, batched bottom-up resolve) and
the ``"numpy"`` engine (the same layout on small-int code ndarrays with
``bincount`` majority votes) must both be observationally identical to it.
These tests drive every array engine against the oracle over randomized trees
— with and without repetitions, with missing entries and default
substitutions, across ``n ∈ {4..10}`` — and over full executions, and assert
equality of conversions (including ``⊥`` propagation), decisions,
discoveries, and metrics (including computation units, which the engines
charge identically by construction).  The numpy cases skip cleanly when numpy
is not installed.

The batched whole-run executor (a run whose ``config.engine`` is
``"batched"``, see :mod:`repro.runtime.batched`) joins the end-to-end
comparisons as a fourth mode: the specs it accelerates — the EIG specs,
Algorithm C, and the hybrid — are pinned four ways
(reference/fast/numpy/batched, including per-round message stats and
per-processor computation units), the specs it does not support are pinned
to fall back cleanly, and the random-liar adversary must stay byte-identical
across all four modes for the same seed (the rng draw order is part of the
observational contract).
"""

from contextlib import contextmanager, nullcontext
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversary import adversary_registry
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
from repro.runtime.simulation import run_agreement
from tests.helpers import large_level_forms

ADVERSARY_NAMES = sorted(adversary_registry())

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


def _run_mode(mode, spec_factory, config, faulty, adversary, seed):
    """One full execution in an engine mode ("batched" = the whole-run path)."""
    return run_agreement(spec_factory(), replace(config, engine=mode), faulty,
                         adversary, seed=seed)


def _run_engine_vs_reference(engine, spec_factory, n, t, faulty,
                             adversary_name, value, seed):
    results = {}
    for run_engine in (engine, "reference"):
        config = ProtocolConfig(n=n, t=t, initial_value=value)
        results[run_engine] = _run_mode(run_engine, spec_factory, config,
                                        faulty,
                                        adversary_registry()[adversary_name](),
                                        seed)
    candidate, reference = results[engine], results["reference"]
    context = (engine, adversary_name, sorted(faulty), value, seed)
    assert candidate.decisions == reference.decisions, context
    assert candidate.discovered == reference.discovered, context
    assert candidate.discovery_logs == reference.discovery_logs, context
    assert candidate.metrics.summary() == reference.metrics.summary(), context


@pytest.mark.parametrize("engine", ARRAY_ENGINES)
class TestEndToEndEngineEquivalence:
    _e2e_settings = settings(max_examples=12, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])

    @_e2e_settings
    @given(data=st.data())
    def test_exponential_runs_identically(self, data, engine):
        n, t = 7, 2
        count = data.draw(st.integers(min_value=0, max_value=t))
        faulty = frozenset(data.draw(
            st.sets(st.integers(min_value=0, max_value=n - 1),
                    min_size=count, max_size=count)))
        adversary_name = data.draw(st.sampled_from(ADVERSARY_NAMES))
        value = data.draw(st.integers(min_value=0, max_value=1))
        seed = data.draw(st.integers(min_value=0, max_value=10))
        _run_engine_vs_reference(engine, ExponentialSpec, n, t, faulty,
                                 adversary_name, value, seed)

    @_e2e_settings
    @given(data=st.data())
    def test_algorithm_b_runs_identically(self, data, engine):
        n, t = 9, 2
        count = data.draw(st.integers(min_value=0, max_value=t))
        faulty = frozenset(data.draw(
            st.sets(st.integers(min_value=0, max_value=n - 1),
                    min_size=count, max_size=count)))
        adversary_name = data.draw(st.sampled_from(ADVERSARY_NAMES))
        value = data.draw(st.integers(min_value=0, max_value=1))
        seed = data.draw(st.integers(min_value=0, max_value=10))
        _run_engine_vs_reference(engine, lambda: AlgorithmBSpec(2), n, t,
                                 faulty, adversary_name, value, seed)

    @_e2e_settings
    @given(data=st.data())
    def test_algorithm_a_runs_identically(self, data, engine):
        # Algorithm A is the only user of conversion-time fault discovery
        # (discover_during_conversion_flat / _numpy), so this also pins that
        # path for both array engines.
        n, t = 10, 3
        count = data.draw(st.integers(min_value=0, max_value=t))
        faulty = frozenset(data.draw(
            st.sets(st.integers(min_value=0, max_value=n - 1),
                    min_size=count, max_size=count)))
        adversary_name = data.draw(st.sampled_from(ADVERSARY_NAMES))
        value = data.draw(st.integers(min_value=0, max_value=1))
        seed = data.draw(st.integers(min_value=0, max_value=10))
        _run_engine_vs_reference(engine, lambda: AlgorithmASpec(3), n, t,
                                 faulty, adversary_name, value, seed)

    @_e2e_settings
    @given(data=st.data())
    def test_hybrid_runs_identically(self, data, engine):
        n, t = 10, 3
        count = data.draw(st.integers(min_value=0, max_value=t))
        faulty = frozenset(data.draw(
            st.sets(st.integers(min_value=0, max_value=n - 1),
                    min_size=count, max_size=count)))
        adversary_name = data.draw(st.sampled_from(ADVERSARY_NAMES))
        value = data.draw(st.integers(min_value=0, max_value=1))
        seed = data.draw(st.integers(min_value=0, max_value=10))
        _run_engine_vs_reference(engine, lambda: HybridSpec(3), n, t, faulty,
                                 adversary_name, value, seed)

    @_e2e_settings
    @given(data=st.data())
    def test_algorithm_c_runs_identically(self, data, engine):
        n, t = 14, 2
        count = data.draw(st.integers(min_value=0, max_value=t))
        faulty = frozenset(data.draw(
            st.sets(st.integers(min_value=0, max_value=n - 1),
                    min_size=count, max_size=count)))
        adversary_name = data.draw(st.sampled_from(ADVERSARY_NAMES))
        value = data.draw(st.integers(min_value=0, max_value=1))
        seed = data.draw(st.integers(min_value=0, max_value=10))
        _run_engine_vs_reference(engine, AlgorithmCSpec, n, t, faulty,
                                 adversary_name, value, seed)


#: The specs the batched whole-run executor accelerates, with the same
#: (n, t) cells the per-engine e2e tests use.
BATCHED_SPECS = [
    ("exponential", ExponentialSpec, 7, 2),
    ("algorithm-b", lambda: AlgorithmBSpec(2), 9, 2),
    ("algorithm-a", lambda: AlgorithmASpec(3), 10, 3),
    ("hybrid", lambda: HybridSpec(3), 10, 3),
    ("algorithm-c", AlgorithmCSpec, 14, 2),
]

#: Seeded random-liar cells that run an Algorithm C phase: (label, spec
#: factory, n, t, faulty sets with a correct and with a faulty source).
C_PHASE_RANDOM_LIAR_SPECS = [
    ("hybrid", lambda: HybridSpec(3), 10, 3,
     [frozenset({7, 8, 9}), frozenset({0, 8, 9})]),
    ("algorithm-c", AlgorithmCSpec, 14, 2,
     [frozenset({12, 13}), frozenset({0, 13})]),
]

ALL_MODES = ("reference", "fast", "numpy", "batched")

#: Batched specs on an odd row count (``n − 1``), with each cell's leaf row
#: size: a two-leaf-row block budget splits them unevenly.  The hybrid's
#: widest level is its Algorithm C leaf level (``n · n``).
MULTI_BLOCK_SPECS = [
    ("exponential", ExponentialSpec, 8, 2, 42),
    ("algorithm-b", lambda: AlgorithmBSpec(2), 10, 2, 72),
    ("algorithm-a", lambda: AlgorithmASpec(3), 10, 3, 504),
    ("hybrid", lambda: HybridSpec(3), 10, 3, 100),
]


@contextmanager
def forced_row_blocks(rows, leaf_size):
    """Step the batched kernels in blocks of at most two leaf rows.

    The odd *rows*-row stack then splits into uneven blocks ending in a
    one-row block, and shallower levels into fewer, larger blocks.  The
    scalar tiny-level paths are switched off and the large-level forms
    switched on, so that the vectorized, blocked kernels — label-by-label
    gather and reused scratch buffers included — run at these small sizes.
    Yields the list of block sizes every kernel call stepped (see
    :func:`stepped_uneven_blocks`).
    """
    from repro.core import npsupport
    seen = []
    real_row_blocks = npsupport.row_blocks

    def recording_row_blocks(count, row_elements):
        blocks = real_row_blocks(count, row_elements)
        seen.append([stop - start for start, stop in blocks])
        return blocks

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(npsupport, "SMALL_KERNEL_ELEMENTS", 0)
        patch.setattr(npsupport, "LARGE_LEVEL_ELEMENTS", 0)
        patch.setattr(npsupport, "ROW_BLOCK_ELEMENTS", 2 * leaf_size)
        patch.setattr(npsupport, "row_blocks", recording_row_blocks)
        leaf_blocks = [stop - start for start, stop
                       in real_row_blocks(rows, leaf_size)]
        assert len(leaf_blocks) >= 3 and min(leaf_blocks) == 1
        assert len(set(leaf_blocks)) == 2
        yield seen


@contextmanager
def _maybe_forced_row_blocks(forced):
    """:func:`forced_row_blocks` over *forced* ``(rows, leaf_size)``.

    With *forced* ``None`` the kernels keep the default budget and the
    yielded block record stays empty.
    """
    if forced is None:
        yield []
    else:
        with forced_row_blocks(*forced) as seen:
            yield seen


def stepped_uneven_blocks(seen):
    """Whether some kernel call stepped ≥ 3 uneven blocks, one a single row."""
    return any(len(sizes) >= 3 and min(sizes) == 1 and len(set(sizes)) > 1
               for sizes in seen)


def assert_rows_convert_alone(state, batched_levels, conversion, t):
    """Each row of a whole-run conversion equals its own tree's conversion."""
    for i in range(state.count):
        single_levels = numpy_resolve_levels(state.row_tree(i), conversion, t)
        for level in range(state.num_levels):
            assert (batched_levels[level][i]
                    == single_levels[level]).all(), (i, level)


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
class TestBatchedRunEquivalence:
    """The batched executor is observationally identical, four ways."""

    _settings = settings(max_examples=10, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])

    @staticmethod
    def _check_four_way(data, label, spec_factory, n, t, leaf_size=None,
                        large_forms=False):
        """Draw one run and assert every mode matches the reference.

        With *leaf_size*, the batched run steps under
        :func:`forced_row_blocks` and must really split its stacks.  With
        *large_forms*, it runs the large-level forms at every level
        (:func:`~tests.helpers.large_level_forms`) and must really take
        their scratch buffers.
        """
        count = data.draw(st.integers(min_value=0, max_value=t))
        faulty = frozenset(data.draw(
            st.sets(st.integers(min_value=0, max_value=n - 1),
                    min_size=count, max_size=count)))
        adversary_name = data.draw(st.sampled_from(ADVERSARY_NAMES))
        value = data.draw(st.integers(min_value=0, max_value=1))
        seed = data.draw(st.integers(min_value=0, max_value=10))
        config = ProtocolConfig(n=n, t=t, initial_value=value)
        results = {
            mode: _run_mode(mode, spec_factory, config, faulty,
                            adversary_registry()[adversary_name](), seed)
            for mode in ALL_MODES[:-1]
        }
        adversary = adversary_registry()[adversary_name]()
        forced = None if leaf_size is None else (n - 1, leaf_size)
        with _maybe_forced_row_blocks(forced) as seen, (
                large_level_forms() if large_forms
                else nullcontext([])) as requested:
            results["batched"] = _run_mode("batched", spec_factory, config,
                                           faulty, adversary, seed)
        if getattr(adversary, "batched_fallback_reason", None) is None:
            if forced is not None:
                assert stepped_uneven_blocks(seen), (adversary_name, seen)
            if large_forms:
                assert "round.claims" in requested, adversary_name
        reference = results["reference"]
        for mode in ALL_MODES[1:]:
            candidate = results[mode]
            context = (label, mode, adversary_name, sorted(faulty), value,
                       seed)
            assert candidate.decisions == reference.decisions, context
            assert candidate.discovered == reference.discovered, context
            assert candidate.discovery_logs == reference.discovery_logs, context
            assert (candidate.metrics.summary()
                    == reference.metrics.summary()), context
            assert (candidate.metrics.computation_units
                    == reference.metrics.computation_units), context
            assert candidate.metrics.sent == reference.metrics.sent, context

    @staticmethod
    def _check_random_liar(n, faulty, seed, forced=None,
                           spec_factory=ExponentialSpec, t=2):
        """Assert a seeded random liar runs identically in every mode.

        With *forced* ``(rows, leaf_size)``, the batched run steps under
        :func:`forced_row_blocks` and must really split its stacks.
        """
        from repro.adversary import RandomLiarAdversary
        config = ProtocolConfig(n=n, t=t, initial_value=1)
        results = {
            mode: _run_mode(mode, spec_factory, config, faulty,
                            RandomLiarAdversary(), seed)
            for mode in ALL_MODES[:-1]
        }
        with _maybe_forced_row_blocks(forced) as seen:
            results["batched"] = _run_mode("batched", spec_factory,
                                           config, faulty,
                                           RandomLiarAdversary(), seed)
        if forced is not None:
            assert stepped_uneven_blocks(seen), seen
        reference = results["reference"]
        for mode in ALL_MODES[1:]:
            candidate = results[mode]
            assert candidate.decisions == reference.decisions, (mode, seed)
            assert candidate.discovered == reference.discovered, (mode, seed)
            assert (candidate.discovery_logs
                    == reference.discovery_logs), (mode, seed)

    @_settings
    @given(data=st.data())
    @pytest.mark.parametrize("large_forms", [False, True],
                             ids=["size-selected", "large-forms"])
    @pytest.mark.parametrize("label, spec_factory, n, t", BATCHED_SPECS)
    def test_four_way_observational_identity(self, data, label, spec_factory,
                                             n, t, large_forms):
        self._check_four_way(data, label, spec_factory, n, t,
                             large_forms=large_forms)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("faulty", [frozenset({5, 6}),
                                        frozenset({0, 6})],
                             ids=["correct-source", "faulty-source"])
    def test_random_liar_is_seed_reproducible_across_modes(self, faulty,
                                                           seed):
        """The random liar's rng draw order is part of the contract.

        The same seed must produce byte-identical decisions, discoveries,
        and discovery logs whichever execution mode runs the adversary —
        including the batched path, whose shadows broadcast by reference.
        """
        self._check_random_liar(7, faulty, seed)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("label, spec_factory, n, t, faulty_sets",
                             C_PHASE_RANDOM_LIAR_SPECS)
    def test_random_liar_is_seed_reproducible_for_c_and_hybrid(
            self, label, spec_factory, n, t, faulty_sets, seed):
        """The same contract through the batched Algorithm C phase, whose
        shadows open with dict root broadcasts and then relay level 2."""
        for faulty in faulty_sets:
            self._check_random_liar(n, faulty, seed,
                                    spec_factory=spec_factory, t=t)

    @_settings
    @given(data=st.data())
    @pytest.mark.parametrize("label, spec_factory, n, t, leaf_size",
                             MULTI_BLOCK_SPECS)
    def test_four_way_identity_under_forced_row_blocks(self, data, label,
                                                       spec_factory, n, t,
                                                       leaf_size):
        self._check_four_way(data, label, spec_factory, n, t, leaf_size)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("faulty", [frozenset({5, 6}),
                                        frozenset({0, 6})],
                             ids=["correct-source", "faulty-source"])
    def test_random_liar_reproducible_under_forced_row_blocks(self, faulty,
                                                              seed):
        self._check_random_liar(8, faulty, seed, forced=(7, 42))

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
            for engine in ("batched", "numpy")}
        assert reports["batched"].engine_resolved == "batched"
        assert (reports["batched"].outcome_dict()
                == reports["numpy"].outcome_dict())

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
        step in blocks of two leaf rows; each converted row must equal the
        per-processor conversion of that row alone.
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
        with forced_row_blocks(count, index.level_size(height)) as seen:
            batched_levels, _charge = batched_resolve_levels(
                state, conversion, t,
                stack_codes(VALUE_CODEC.domain_mask(frozenset(range(3)))))
        assert stepped_uneven_blocks(seen), seen
        assert_rows_convert_alone(state, batched_levels, conversion, t)

    def test_batched_flag_falls_back_cleanly_for_unsupported_specs(self):
        """A "batched" run of a baseline spec runs the per-processor driver."""
        from repro.baselines.phase_king import PhaseKingSpec
        config = ProtocolConfig(n=9, t=2, initial_value=1)
        faulty = frozenset({7, 8})
        batched = run_agreement(PhaseKingSpec(),
                                replace(config, engine="batched"), faulty,
                                adversary_registry()["two-faced"]())
        reference = _run_mode("reference", PhaseKingSpec, config, faulty,
                              adversary_registry()["two-faced"](), 0)
        assert batched.decisions == reference.decisions
        assert batched.metrics.summary() == reference.metrics.summary()
