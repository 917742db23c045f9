"""Tests for the BlockChannel special argument (Figure 7)."""

from __future__ import annotations

import pytest

from repro.errors import LoweringError
from repro.lang.block_channel import BlockChannel
from repro.mapping.dynamic import TableTileMapping
from repro.mapping.layout import TileGrid
from repro.mapping.static import AffineTileMapping
from tests.conftest import make_ctx


def _channels(ctx, **kw):
    mapping = kw.pop("mapping", AffineTileMapping(64, 16, ctx.world_size))
    grid = TileGrid(64, 32, 16, 32)
    return ctx.make_block_channels("t", mapping=mapping, comm_grid=grid,
                                   consumer_grid=grid, **kw)


def test_scalar_fields(ctx2):
    ch = _channels(ctx2)[1]
    assert ch.scalar_field("rank") == 1
    assert ch.scalar_field("num_ranks") == 2
    assert ch.num_barriers == 2          # one channel per rank
    assert ch.num_producer_blocks == ch.num_consumer_blocks == 4
    with pytest.raises(LoweringError):
        ch.scalar_field("does_not_exist")
    with pytest.raises(LoweringError):
        ch.scalar_field("barriers")      # not a scalar


def test_consumer_wait_list_static(ctx2):
    ch = _channels(ctx2)[0]
    # row-tile 0 covers rows [0,16) -> channel 0, threshold = 2 tiles/channel
    assert ch.consumer_wait_list(0) == [(0, 2)]
    assert ch.consumer_wait_list(2) == [(1, 2)]


def test_threshold_scale(ctx2):
    ch = _channels(ctx2, threshold_scale=3)[0]
    assert ch.consumer_wait_list(0) == [(0, 6)]


def test_consumer_mapping_overrides_static(ctx2):
    dyn = TableTileMapping(4, 2, 2)
    dyn.channel_threshold[:] = 7
    for t in range(4):
        dyn.fill(t, t * 16, (t + 1) * 16, t % 2, t % 2)
    ch = _channels(ctx2, consumer_mapping=dyn)[0]
    assert ch.consumer_wait_list(1) == [(1, 7)]


def test_missing_mapping_raises(ctx2):
    ch = BlockChannel(rank=0, num_ranks=2, comm_blocks=0)
    with pytest.raises(LoweringError):
        ch.require_mapping()
    with pytest.raises(LoweringError):
        ch.consumer_wait_list(0)


def test_is_dynamic_flag(ctx2):
    static_ch = _channels(ctx2)[0]
    assert not static_ch.is_dynamic
    dyn = TableTileMapping(2, 2, 2)
    dyn_ch = BlockChannel(rank=0, num_ranks=2, comm_blocks=0,
                          producer_mapping=dyn)
    assert dyn_ch.is_dynamic


def test_producer_queries(ctx2):
    ch = _channels(ctx2)[0]
    assert ch.producer_range(0) == (0, 16)
    assert ch.producer_rank(3) == 1
    assert ch.producer_channel(3) == 1


def test_banks_are_shared_across_ranks(ctx2):
    channels = _channels(ctx2)
    # rank 0's view of rank 1's bank is the same object rank 1 waits on
    assert channels[0].all_barriers[1] is channels[1].barriers


def _paper_channels(monkeypatch):
    """Every family's BlockChannels at its paper shape (world 8)."""
    from repro import registry
    from repro.bench.harness import make_ctx as bench_ctx
    from repro.models.configs import ATTENTION_BENCHES, MLP_BENCHES, MOE_BENCHES
    from repro.runtime.context import DistContext

    built = []
    make = DistContext.make_block_channels

    def capture(self, *args, **kwargs):
        channels = make(self, *args, **kwargs)
        built.append(channels)
        return channels
    monkeypatch.setattr(DistContext, "make_block_channels", capture)
    registry.discover()
    for fam in registry.families().values():
        if fam.sweep_category == "attention":
            attn = ATTENTION_BENCHES[0]
            builders = fam.bench_builders()(attn, attn.seq_lens[0], 8)
        elif fam.sweep_category == "moe":
            builders = fam.bench_builders()(MOE_BENCHES[0], 8)
        else:
            builders = fam.bench_builders()(MLP_BENCHES[0], 8)
        for build in builders.values():
            build(bench_ctx(world=8))
    return [ch for channels in built for ch in channels]


def _answer(fn):
    try:
        return fn()
    except Exception as exc:  # compared between memo and mapping
        return type(exc), str(exc)


def test_memoized_lookups_match_the_mappings(monkeypatch):
    channels = _paper_channels(monkeypatch)
    assert channels
    for ch in channels:
        mapping = ch.producer_mapping
        if mapping is None:
            continue
        for t in range(mapping.n_tiles):
            for _ in range(2):  # the first call fills the memo
                assert _answer(lambda: ch.producer_channel(t)) == \
                    _answer(lambda: mapping.channel_of(t))
                assert _answer(lambda: ch.producer_rank(t)) == \
                    _answer(lambda: mapping.rank_of(t))
        table = ch.consumer_mapping or (
            mapping if isinstance(mapping, TableTileMapping) else None)
        if table is not None:
            tids = range(table.n_tiles)

            def direct(t):
                return table.wait_list_for_tile(t)
        elif ch.consumer_grid is not None:
            tids = range(ch.consumer_grid.tiles_m)

            def direct(t):
                lo, hi = ch.consumer_grid.row_range(t)
                return [(c, th * ch.threshold_scale)
                        for c, th in mapping.wait_list(lo, hi)]
        else:
            continue
        for t in tids:
            for _ in range(2):
                assert _answer(lambda: ch.consumer_wait_list(t)) == \
                    _answer(lambda: direct(t))


def test_table_mapping_lookups_follow_a_refill(ctx2):
    table = TableTileMapping(2, 2, 2)
    table.channel_threshold[:] = 3
    table.fill(0, 0, 16, 0, 0)
    ch = _channels(ctx2, mapping=table, consumer_mapping=table)[0]
    assert (ch.producer_channel(0), ch.producer_rank(0)) == (0, 0)
    assert ch.consumer_wait_list(0) == [(0, 3)]
    table.fill(0, 16, 32, 1, 1)  # runtime routing refills the tables
    assert (ch.producer_channel(0), ch.producer_rank(0)) == (1, 1)
    assert ch.consumer_wait_list(0) == [(1, 3)]
