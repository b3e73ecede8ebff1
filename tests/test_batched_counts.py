"""Unit checks of the batched executor's counted conversion level.

The round that ends an EIG segment is never gathered: the batched executor
counts each parent's children by value straight from the round's claims
(:class:`~repro.core.fault_masking.ChildCounts`) and runs Fault Discovery,
Fault Masking and the conversion's bottom vote on those counts.  Whole runs
on the counted path are compared with the oracle under every adversary by
the parity matrix (:mod:`tests.parity`, its ``"counted"`` column).  These
tests check that the count kernel steps its rows under any row-block
budget, that the runs the batched executor declines fall back with the
adversary still unbound, that the large-level forms rank only the run's own
codes, and that the large-level forms' per-thread scratch buffers survive
reuse by a smaller run and two threads running at once.
"""

import sys
import threading
from dataclasses import replace

import pytest

from repro.api import (RunRequest, build_adversary, execute,
                       protocol_registry)
from repro.baselines.phase_king import PhaseKingSpec
from repro.core import npsupport
from repro.core.engine import numpy_available
from repro.core.exponential import ExponentialSpec
from repro.core.protocol import ProtocolConfig
from repro.runtime.batched import run_batched_if_supported
from repro.runtime.simulation import choose_faulty, run_agreement
from tests.helpers import large_level_forms
from tests.parity import (assert_same_outcome, counted_conversions,
                          protocol_cells)

pytestmark = pytest.mark.skipif(not numpy_available(),
                                reason="numpy not installed")

#: Exponential n=8, t=2 steps seven rows; the counts of its counted leaf
#: level hold one entry per parent, 7 a row.
BLOCKED_N, BLOCKED_ROWS, BLOCKED_COUNTS = 8, 7, 7


def _fast(spec, config, faulty, adversary, seed):
    return run_agreement(spec, replace(config, engine="fast"), faulty,
                         adversary, seed=seed)


def _run_blocked(rows_per_block, adversary, seed, steps=None):
    """Exponential n=8 stepped in blocks of *rows_per_block* counts rows.

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
        if steps is not None and row_elements == BLOCKED_COUNTS:
            steps.append([stop - start for start, stop in blocks])
        return blocks

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(npsupport, "SMALL_KERNEL_ELEMENTS", 0)
        patch.setattr(npsupport, "LARGE_LEVEL_ELEMENTS", 0)
        patch.setattr(npsupport, "ROW_BLOCK_ELEMENTS",
                      rows_per_block * BLOCKED_COUNTS)
        patch.setattr(npsupport, "row_blocks", recording_row_blocks)
        return run_batched_if_supported(ExponentialSpec(), config, faulty,
                                        build_adversary(adversary), seed)


@pytest.mark.parametrize("rows_per_block", [1, 2, 3, 64])
def test_row_block_budget_never_changes_observations(rows_per_block):
    """Any block budget — one row, uneven, or all rows — is identical."""
    config = ProtocolConfig(n=BLOCKED_N, t=2, initial_value=1)
    faulty = choose_faulty(BLOCKED_N, 2, source_faulty=True)
    expected = _fast(ExponentialSpec(), config, faulty,
                     build_adversary("equivocating-source-allies"), 3)
    steps = []
    blocked = _run_blocked(rows_per_block, "equivocating-source-allies", 3,
                           steps)
    assert_same_outcome(blocked, expected, rows_per_block)
    # The count kernel really stepped its rows under the budget.
    assert steps, "the leaf level was not counted"
    assert max(max(sizes) for sizes in steps) <= rows_per_block
    assert max(len(sizes) for sizes in steps) == -(-BLOCKED_ROWS
                                                   // rows_per_block)


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
#: :func:`~tests.parity.counted_conversions`: the bigger one grows every
#: scratch buffer, the smaller one then reads views of the grown buffers.
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
    with counted_conversions() as counted, \
            large_level_forms() as requested:
        fresh = {name: _in_new_thread(lambda name=name: _outcomes([name])[0])
                 for name in REUSE_CELLS}
        assert counted and all(counted) and "counts.hits" in requested
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
    with counted_conversions(), large_level_forms():
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


@pytest.mark.parametrize("protocol", ["exponential", "algorithm-a",
                                      "algorithm-b", "hybrid"])
def test_large_forms_rank_only_the_run_codes(protocol):
    """After wider requests grew the process-wide codec, the large-level
    forms still rank only the run's domain codes (and ``⊥`` in a
    ``resolve'`` vote), and decide as the per-processor engine does."""
    for k in range(6):
        npsupport.VALUE_CODEC.code(f"wide-domain-value-{k}")
    entry = protocol_registry()[protocol]
    # The smallest matrix cell with a tree deep enough to rank a level.
    params, n, t = next(cell for cell in protocol_cells(entry)
                        if cell[2] >= 2)
    config = ProtocolConfig(n=n, t=t, initial_value=1, engine="batched")
    faulty = choose_faulty(n, t, source_faulty=True)
    name = "equivocating-source-allies"
    expected = _fast(entry.build(params), config, faulty,
                     build_adversary(name), 2)
    possible = {npsupport.VALUE_CODEC.code(value)
                for value in config.domain} | {npsupport.BOTTOM_CODE}
    ranked = []
    real_code_counts = npsupport._code_counts

    def recording_code_counts(windows, codes, buffer):
        ranked.append(list(codes))
        return real_code_counts(windows, codes, buffer)

    with counted_conversions(), large_level_forms(), \
            pytest.MonkeyPatch.context() as patch:
        patch.setattr(npsupport, "_code_counts", recording_code_counts)
        batched = run_batched_if_supported(entry.build(params), config,
                                           faulty, build_adversary(name), 2)
    assert_same_outcome(batched, expected, protocol)
    assert ranked, "no level was ranked code by code"
    assert all(set(codes) <= possible for codes in ranked), ranked
    # A and the hybrid's A phase discover during a resolve' conversion,
    # whose votes may hold ⊥: those stacks rank it too.
    assert any(npsupport.BOTTOM_CODE in codes for codes in ranked) == (
        protocol in ("algorithm-a", "hybrid")), ranked
