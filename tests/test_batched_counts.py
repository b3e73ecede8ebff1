"""End-to-end checks of the batched executor's counted conversion level.

The round that ends an EIG segment is never gathered: the batched executor
counts each parent's children by value straight from the round's claims
(:class:`~repro.core.fault_masking.ChildCounts`) and runs Fault Discovery,
Fault Masking and the conversion's bottom vote on those counts.  These tests
pin that path to the per-processor numpy engine for every registered
adversary, with and without a faulty source; across row-block budgets that
step the count kernel one row at a time, in uneven blocks, or whole; and
they pin the runs the batched executor declines, so the caller falls back
with the adversary still unbound.
"""

from contextlib import contextmanager
from dataclasses import replace

import pytest

from repro.api import build_adversary
from repro.adversary import adversary_registry
from repro.baselines.phase_king import PhaseKingSpec
from repro.core import npsupport
from repro.core.algorithm_a import AlgorithmASpec
from repro.core.algorithm_b import AlgorithmBSpec
from repro.core.engine import numpy_available
from repro.core.exponential import ExponentialSpec
from repro.core.hybrid import HybridSpec
from repro.core.protocol import ProtocolConfig
from repro.runtime.batched import run_batched_if_supported
from repro.runtime.simulation import choose_faulty, run_agreement

pytestmark = pytest.mark.skipif(not numpy_available(),
                                reason="numpy not installed")

ADVERSARY_NAMES = sorted(adversary_registry())

#: The specs with EIG segments, whose last round is counted: one small cell
#: each.  The hybrid's Algorithm C phase gathers, its A and B phases count.
COUNTED_CASES = [
    ("exponential", ExponentialSpec, 7, 2),
    ("algorithm-a", lambda: AlgorithmASpec(3), 10, 3),
    ("algorithm-b", lambda: AlgorithmBSpec(2), 9, 2),
    ("hybrid", lambda: HybridSpec(3), 10, 3),
]

#: Exponential n=8, t=2 steps seven rows; its counted leaf level stands for
#: ``7 · 6`` leaf elements a row.
BLOCKED_N, BLOCKED_ROWS, BLOCKED_LEAF = 8, 7, 42


@contextmanager
def counting_small_levels():
    """Count every conversion level, however small, and record each one.

    Below ``16 × SMALL_KERNEL_ELEMENTS`` leaf elements the executor gathers
    a conversion level instead of counting it; with the scalar tiny-level
    paths off, every level is counted.  Yields the parent level of every
    :class:`ChildCounts` the executor builds.
    """
    from repro.runtime import batched
    seen = []

    class RecordingCounts(batched.ChildCounts):
        __slots__ = ()

        def __init__(self, index, parent_level, *args):
            super().__init__(index, parent_level, *args)
            seen.append(parent_level)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(npsupport, "SMALL_KERNEL_ELEMENTS", 0)
        patch.setattr(batched, "ChildCounts", RecordingCounts)
        yield seen


def _per_processor(spec, config, faulty, adversary, seed):
    return run_agreement(spec, replace(config, engine="numpy"), faulty,
                         adversary, seed=seed)


def _assert_identical(candidate, expected, context):
    assert candidate is not None, context
    assert candidate.decisions == expected.decisions, context
    assert candidate.discovered == expected.discovered, context
    assert candidate.discovery_logs == expected.discovery_logs, context
    assert candidate.metrics.summary() == expected.metrics.summary(), context
    assert (candidate.metrics.computation_units
            == expected.metrics.computation_units), context
    assert candidate.rounds == expected.rounds, context


def _run_blocked(rows_per_block, adversary, seed, steps=None):
    """Exponential n=8 stepped in blocks of *rows_per_block* leaf rows.

    The scalar tiny-level paths are off so the vectorized kernels run.  With
    *steps*, the block sizes of every count-kernel pass are appended to it.
    """
    config = ProtocolConfig(n=BLOCKED_N, t=2, initial_value=1,
                            engine="batched")
    faulty = choose_faulty(BLOCKED_N, 2, source_faulty=True)
    real_row_blocks = npsupport.row_blocks

    def recording_row_blocks(count, row_elements):
        blocks = real_row_blocks(count, row_elements)
        if steps is not None and row_elements == BLOCKED_LEAF:
            steps.append([stop - start for start, stop in blocks])
        return blocks

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(npsupport, "SMALL_KERNEL_ELEMENTS", 0)
        patch.setattr(npsupport, "ROW_BLOCK_ELEMENTS",
                      rows_per_block * BLOCKED_LEAF)
        patch.setattr(npsupport, "row_blocks", recording_row_blocks)
        return run_batched_if_supported(ExponentialSpec(), config, faulty,
                                        build_adversary(adversary), seed)


@pytest.mark.parametrize("label, spec_factory, n, t", COUNTED_CASES)
@pytest.mark.parametrize("source_faulty", [False, True],
                         ids=["correct-source", "faulty-source"])
def test_counted_run_matches_per_processor_for_every_adversary(
        label, spec_factory, n, t, source_faulty):
    config = ProtocolConfig(n=n, t=t, initial_value=1, engine="batched")
    faulty = choose_faulty(n, t, source_faulty=source_faulty)
    for name in ADVERSARY_NAMES:
        context = (label, name, source_faulty)
        expected = _per_processor(spec_factory(), config, faulty,
                                  build_adversary(name), 7)
        adversary = build_adversary(name)
        with counting_small_levels() as counted:
            batched = run_batched_if_supported(spec_factory(), config,
                                               faulty, adversary, 7)
        if getattr(adversary, "batched_fallback_reason", None) is not None:
            assert batched is None, context
            continue
        assert counted, context
        _assert_identical(batched, expected, context)


@pytest.mark.parametrize("rows_per_block", [1, 2, 3, 64])
def test_row_block_budget_never_changes_observations(rows_per_block):
    """Any block budget — one row, uneven, or all rows — is identical."""
    config = ProtocolConfig(n=BLOCKED_N, t=2, initial_value=1)
    faulty = choose_faulty(BLOCKED_N, 2, source_faulty=True)
    expected = _per_processor(ExponentialSpec(), config, faulty,
                              build_adversary("equivocating-source-allies"),
                              3)
    steps = []
    blocked = _run_blocked(rows_per_block, "equivocating-source-allies", 3,
                           steps)
    _assert_identical(blocked, expected, rows_per_block)
    # The count kernel really stepped its rows under the budget.
    assert steps, "the leaf level was not counted"
    assert max(max(sizes) for sizes in steps) <= rows_per_block
    assert max(len(sizes) for sizes in steps) == -(-BLOCKED_ROWS
                                                   // rows_per_block)


def test_seeded_random_liar_reproducible_across_row_block_budgets():
    """The rng lives outside the kernels: blocking never reorders a draw."""
    config = ProtocolConfig(n=BLOCKED_N, t=2, initial_value=1)
    faulty = choose_faulty(BLOCKED_N, 2, source_faulty=True)
    for seed in (0, 1, 99):
        expected = _per_processor(ExponentialSpec(), config, faulty,
                                  build_adversary("random-liar"), seed)
        for rows_per_block in (1, 2, 3):
            blocked = _run_blocked(rows_per_block, "random-liar", seed)
            _assert_identical(blocked, expected, (seed, rows_per_block))


def test_ineligible_spec_returns_none_with_the_adversary_unbound():
    config = ProtocolConfig(n=9, t=2, initial_value=1, engine="batched")
    adversary = build_adversary("silent")
    assert run_batched_if_supported(PhaseKingSpec(), config,
                                    choose_faulty(9, 2), adversary, 0) is None
    # The adversary was not bound: the fallback can still use it.
    result = run_agreement(PhaseKingSpec(), config, choose_faulty(9, 2),
                           adversary)
    assert result.agreement


def test_no_correct_participant_returns_none():
    config = ProtocolConfig(n=4, t=1, initial_value=1, engine="batched")
    # Everyone but the source is faulty: no participant rows exist.
    assert run_batched_if_supported(
        ExponentialSpec(), config, frozenset({1, 2, 3}),
        build_adversary("silent"), 0) is None
