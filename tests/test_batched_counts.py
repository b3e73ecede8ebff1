"""End-to-end checks of the batched executor's counted conversion level.

The round that ends an EIG segment is never gathered: the batched executor
counts each parent's children by value straight from the round's claims
(:class:`~repro.core.fault_masking.ChildCounts`) and runs Fault Discovery,
Fault Masking and the conversion's bottom vote on those counts.  These tests
pin that path to the per-processor numpy engine for every registered
adversary, with and without a faulty source; across row-block budgets that
step the count kernel one row at a time, in uneven blocks, or whole; they
pin the runs the batched executor declines, so the caller falls back with
the adversary still unbound; and they check that the large-level forms'
per-thread scratch buffers survive reuse by a smaller run and two threads
running at once.
"""

import sys
import threading
from contextlib import contextmanager
from dataclasses import replace

import pytest

from repro.api import RunRequest, build_adversary, execute
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
from tests.helpers import large_level_forms

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
    paths off, every level is counted, and with ``LARGE_LEVEL_ELEMENTS`` at
    0 it is counted in the reused scratch buffers of a large level.  Yields
    the parent level of every :class:`ChildCounts` the executor builds.
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
        patch.setattr(npsupport, "LARGE_LEVEL_ELEMENTS", 0)
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

    The scalar tiny-level paths are off and the large-level forms on, so
    the vectorized kernels run in their reused buffers.  With *steps*, the
    block sizes of every count-kernel pass are appended to it.
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
        patch.setattr(npsupport, "LARGE_LEVEL_ELEMENTS", 0)
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


#: Two cells of different shapes whose every level takes the large-level
#: forms, and whose conversion levels are counted, under
#: :func:`counting_small_levels`: the bigger one grows every scratch buffer,
#: the smaller one then reads views of the grown buffers.
REUSE_CELLS = {
    "exponential-13-4": RunRequest(protocol="exponential", n=13, t=4,
                                   faulty=(0, 3, 7, 11),
                                   adversary="two-faced", seed=5,
                                   engine="batched"),
    "exponential-7-2": RunRequest(protocol="exponential", n=7, t=2,
                                  scenario="faulty-source-allies",
                                  battery="worst-case", seed=3,
                                  engine="batched"),
}


def _in_new_thread(work):
    """Run *work* on a fresh thread (so with fresh scratch buffers)."""
    result = []
    thread = threading.Thread(target=lambda: result.append(work()))
    thread.start()
    thread.join()
    return result[0]


def _outcomes(names):
    return [execute(REUSE_CELLS[name]).outcome_dict() for name in names]


def test_scratch_buffers_reused_by_a_smaller_run_on_the_same_thread():
    with counting_small_levels() as counted, large_level_forms() as requested:
        fresh = {name: _in_new_thread(lambda name=name: _outcomes([name])[0])
                 for name in REUSE_CELLS}
        assert counted and "counts.hits" in requested
        assert "round.claims" in requested
        reused = _in_new_thread(
            lambda: _outcomes(["exponential-13-4", "exponential-7-2",
                               "exponential-13-4"]))
    assert reused == [fresh["exponential-13-4"], fresh["exponential-7-2"],
                      fresh["exponential-13-4"]]


def test_two_threads_running_different_cells_at_once():
    """Each thread has its own scratch buffers: interleaving two runs at
    the finest switch interval leaves both outcomes as fresh runs give.
    The small cell repeats until the big one is done, so the two overlap
    through every round of the big one."""
    repeats = {"exponential-13-4": 10, "exponential-7-2": 80}
    with counting_small_levels(), large_level_forms():
        fresh = {name: _in_new_thread(lambda name=name: _outcomes([name])[0])
                 for name in REUSE_CELLS}
        start = threading.Barrier(len(REUSE_CELLS))
        outcomes = {}

        def work(name):
            start.wait()
            outcomes[name] = _outcomes([name] * repeats[name])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(name,))
                       for name in REUSE_CELLS]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
    for name in REUSE_CELLS:
        assert outcomes[name] == [fresh[name]] * repeats[name], name


def test_a_finished_run_is_freed_without_the_cycle_collector(monkeypatch):
    """The adversary's shadows hold their runner weakly, so a finished
    batched run — its level stacks included — is freed by reference
    counting as soon as it returns, even while the caller keeps the
    adversary, instead of waiting in a cycle for a full collection."""
    import gc
    import weakref

    from repro.runtime import batched
    runners = []
    run = batched._BatchedRun.run

    def recording_run(self):
        runners.append(weakref.ref(self))
        return run(self)

    monkeypatch.setattr(batched._BatchedRun, "run", recording_run)
    config = ProtocolConfig(n=BLOCKED_N, t=2, initial_value=1,
                            engine="batched")
    adversary = build_adversary("equivocating-source-allies")
    gc.disable()
    try:
        result = run_batched_if_supported(
            ExponentialSpec(), config,
            choose_faulty(BLOCKED_N, 2, source_faulty=True), adversary, 0)
        assert result is not None and runners
        assert runners[0]() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("label, spec_factory, n, t", COUNTED_CASES)
def test_large_forms_rank_only_the_run_codes(label, spec_factory, n, t):
    """After wider requests grew the process-wide codec, the large-level
    forms still rank only the run's domain codes (and ``⊥`` in a
    ``resolve'`` vote), and decide as the per-processor engine does."""
    for k in range(6):
        npsupport.VALUE_CODEC.code(f"wide-domain-value-{k}")
    config = ProtocolConfig(n=n, t=t, initial_value=1, engine="batched")
    faulty = choose_faulty(n, t, source_faulty=True)
    name = "equivocating-source-allies"
    expected = _per_processor(spec_factory(), config, faulty,
                              build_adversary(name), 2)
    possible = {npsupport.VALUE_CODEC.code(value)
                for value in config.domain} | {npsupport.BOTTOM_CODE}
    ranked = []
    real_code_counts = npsupport._code_counts

    def recording_code_counts(windows, codes, buffer):
        ranked.append(list(codes))
        return real_code_counts(windows, codes, buffer)

    with counting_small_levels(), large_level_forms(), \
            pytest.MonkeyPatch.context() as patch:
        patch.setattr(npsupport, "_code_counts", recording_code_counts)
        batched = run_batched_if_supported(spec_factory(), config, faulty,
                                           build_adversary(name), 2)
    _assert_identical(batched, expected, label)
    assert ranked, "no level was ranked code by code"
    assert all(set(codes) <= possible for codes in ranked), ranked
    # A and the hybrid's A phase discover during a resolve' conversion,
    # whose votes may hold ⊥: those stacks rank it too.
    assert any(npsupport.BOTTOM_CODE in codes for codes in ranked) == (
        label in ("algorithm-a", "hybrid")), ranked
