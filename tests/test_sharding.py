"""Property tests for the sharded run executor (repro.runtime.sharding).

The sharded backend must be **observationally identical** to the
single-process batched engine: decisions, discovered faults, discovery
logs, per-round message stats, computation units, and seeded-liar
reproducibility all match, for every eligible protocol × adversary pairing
at small ``n``, across shard counts and faulty-source configurations.
"""

import pytest

from repro.api import build_adversary
from repro.core.algorithm_a import AlgorithmASpec
from repro.core.algorithm_b import AlgorithmBSpec
from repro.core.engine import numpy_available
from repro.core.exponential import ExponentialSpec
from repro.core.hybrid import HybridSpec
from repro.core.npsupport import row_blocks, shard_bounds
from repro.core.protocol import ProtocolConfig
from repro.runtime.simulation import choose_faulty, run_agreement

pytestmark = pytest.mark.skipif(not numpy_available(),
                                reason="numpy not installed")

#: The batched-eligible specs, one small instance each.
SHARDED_CASES = [
    ("exponential", lambda: ExponentialSpec(), 7, 2),
    ("algorithm-a", lambda: AlgorithmASpec(3), 10, 3),
    ("algorithm-b", lambda: AlgorithmBSpec(2), 9, 2),
]

#: Adversaries covering crash, equivocation, stealth, and seeded randomness.
ADVERSARIES = ["benign", "silent", "crash", "two-faced-source",
               "equivocating-source-allies", "random-liar", "stealth-path",
               "minimal-exposure"]


def _run_sharded(spec, config, faulty, adversary_name, seed, shards):
    from repro.runtime.sharding import run_sharded_if_supported
    return run_sharded_if_supported(spec, config, faulty,
                                    build_adversary(adversary_name), seed,
                                    shards=shards)


def _run_batched(spec, config, faulty, adversary_name, seed):
    return run_agreement(spec, config, faulty,
                         build_adversary(adversary_name), seed=seed,
                         batched=True)


def _assert_identical(sharded, batched, context):
    assert sharded is not None, context
    assert sharded.decisions == batched.decisions, context
    assert sharded.discovered == batched.discovered, context
    assert sharded.discovery_logs == batched.discovery_logs, context
    assert sharded.metrics.summary() == batched.metrics.summary(), context
    assert sharded.rounds == batched.rounds, context


@pytest.mark.parametrize("label, spec_fn, n, t", SHARDED_CASES)
@pytest.mark.parametrize("source_faulty", [False, True])
def test_sharded_matches_batched_for_every_adversary(label, spec_fn, n, t,
                                                     source_faulty):
    config = ProtocolConfig(n=n, t=t, initial_value=1)
    faulty = choose_faulty(n, t, source_faulty=source_faulty)
    for adversary in ADVERSARIES:
        batched = _run_batched(spec_fn(), config, faulty, adversary, seed=7)
        sharded = _run_sharded(spec_fn(), config, faulty, adversary, 7,
                               shards=2)
        _assert_identical(sharded, batched,
                          (label, adversary, source_faulty))


@pytest.mark.parametrize("shards", [1, 2, 3, 64])
def test_shard_count_never_changes_observations(shards):
    """Any split — including degenerate and over-subscribed — is identical."""
    spec = ExponentialSpec()
    config = ProtocolConfig(n=7, t=2, initial_value=1)
    faulty = choose_faulty(7, 2, source_faulty=True)
    batched = _run_batched(spec, config, faulty,
                           "equivocating-source-allies", seed=3)
    sharded = _run_sharded(spec, config, faulty,
                           "equivocating-source-allies", 3, shards=shards)
    _assert_identical(sharded, batched, shards)


def test_seeded_random_liar_reproducible_across_shard_counts():
    """The rng lives in the coordinator, so seeds reproduce byte-identically."""
    spec = ExponentialSpec()
    config = ProtocolConfig(n=7, t=2, initial_value=1)
    faulty = choose_faulty(7, 2, source_faulty=True)
    for seed in (0, 1, 99):
        baseline = _run_batched(spec, config, faulty, "random-liar", seed)
        for shards in (1, 2, 3):
            sharded = _run_sharded(spec, config, faulty, "random-liar",
                                   seed, shards=shards)
            _assert_identical(sharded, baseline, (seed, shards))


@pytest.mark.parametrize("shards", [1, 2])
def test_sharded_forced_row_blocks_match_unblocked_batched(shards):
    """Shards stepping their rows in uneven blocks match one-block batched.

    Exponential n=8 has seven rows; a two-leaf-row budget (with the scalar
    tiny-level paths off) splits each shard's rows into blocks of at most
    two.  Fork-started workers inherit the patched budget.
    """
    from repro.core import npsupport
    spec = ExponentialSpec()
    config = ProtocolConfig(n=8, t=2, initial_value=1)
    faulty = choose_faulty(8, 2, source_faulty=True)
    for adversary in ADVERSARIES:
        batched = _run_batched(spec, config, faulty, adversary, seed=5)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(npsupport, "SMALL_KERNEL_ELEMENTS", 0)
            patch.setattr(npsupport, "ROW_BLOCK_ELEMENTS", 2 * 42)
            sharded = _run_sharded(spec, config, faulty, adversary, 5,
                                   shards=shards)
        _assert_identical(sharded, batched, (adversary, shards))


def test_ineligible_spec_returns_none():
    """Non-EIG specs answer None so callers fall back, adversary unbound."""
    from repro.runtime.sharding import run_sharded_if_supported
    config = ProtocolConfig(n=10, t=3, initial_value=1)
    adversary = build_adversary("silent")
    assert run_sharded_if_supported(HybridSpec(3), config,
                                    choose_faulty(10, 3), adversary,
                                    0, shards=2) is None
    # The adversary was not bound: it can still be used by the fallback.
    result = run_agreement(HybridSpec(3), config, choose_faulty(10, 3),
                           adversary)
    assert result.agreement


def test_no_correct_participant_returns_none():
    from repro.runtime.sharding import run_sharded_if_supported
    config = ProtocolConfig(n=4, t=1, initial_value=1)
    # Everyone but the source is faulty: no participant rows exist.
    assert run_sharded_if_supported(
        ExponentialSpec(), config, frozenset({1, 2, 3}),
        build_adversary("silent"), 0, shards=2) is None


def test_shard_supported_mirrors_batched_support():
    from repro.runtime.batched import batched_supported
    from repro.runtime.sharding import shard_supported
    for spec, n, t in [(ExponentialSpec(), 7, 2), (HybridSpec(3), 10, 3),
                       (AlgorithmBSpec(2), 9, 2)]:
        config = ProtocolConfig(n=n, t=t, initial_value=1)
        assert shard_supported(spec, config) == batched_supported(spec,
                                                                  config)


class TestShardBounds:
    def test_balanced_contiguous_cover(self):
        for count in range(1, 20):
            for shards in range(1, 8):
                bounds = shard_bounds(count, shards)
                assert bounds[0][0] == 0 and bounds[-1][1] == count
                sizes = [stop - start for start, stop in bounds]
                assert all(size >= 1 for size in sizes)
                assert max(sizes) - min(sizes) <= 1
                for (_, stop), (start, _) in zip(bounds, bounds[1:]):
                    assert stop == start

    def test_clamps_to_row_count(self):
        assert len(shard_bounds(3, 64)) == 3

    def test_degenerate(self):
        assert shard_bounds(0, 4) == []
        assert shard_bounds(4, 0) == []


class TestRowBlocks:
    def test_contiguous_cover_within_budget(self, monkeypatch):
        from repro.core import npsupport
        monkeypatch.setattr(npsupport, "ROW_BLOCK_ELEMENTS", 100)
        for count in range(1, 20):
            for row_elements in (1, 7, 30, 50, 99, 100, 101, 250):
                blocks = row_blocks(count, row_elements)
                assert blocks[0][0] == 0 and blocks[-1][1] == count
                for (_, stop), (start, _) in zip(blocks, blocks[1:]):
                    assert stop == start
                for start, stop in blocks:
                    assert stop > start
                    # Over budget only when a single row alone exceeds it.
                    assert ((stop - start) * row_elements <= 100
                            or stop - start == 1)

    def test_empty_stack_has_no_blocks(self):
        assert row_blocks(0, 1000) == []

    def test_stacks_up_to_n13_take_one_block(self):
        # Exponential n=13, t=4: twelve rows of 11880 leaves.
        assert row_blocks(12, 11880) == [(0, 12)]
        assert len(row_blocks(15, 360360)) == 15
