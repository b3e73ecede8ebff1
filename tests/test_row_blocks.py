"""The row partition the batched kernels step: ``row_blocks`` and its
``shard_bounds`` helper."""

from repro.core.npsupport import row_blocks, shard_bounds


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
