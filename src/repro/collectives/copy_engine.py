"""Copy-engine (DMA) data movement with signal publication.

This is the communication substrate of TileLink's DMA-mapped kernels: the
host enqueues ``rank_copy_data`` transfers on a communication stream and
publishes per-segment signals (``rank_notify``) that device-side consumer
kernels wait on with ``consumer_tile_wait`` — the resource-mapping choice
of Figure 2c (communication on the copy engine, zero SM cost) and the
pattern of Figure 6.
"""

from __future__ import annotations

from repro.errors import ShapeError
from repro.memory.signals import SignalArray
from repro.runtime.context import DistContext
from repro.sim.engine import Process, ProcessGen


def dma_all_gather(
    ctx: DistContext,
    src_name: str,
    dst_name: str,
    banks: list[SignalArray] | None,
    stream_name: str = "comm",
    segment_notifies: int = 1,
) -> list[Process]:
    """Pull-mode AllGather on copy engines, signalling per shard.

    Rank ``r`` copies its own shard locally, then pulls every peer shard
    ``q`` into rows ``[q*m, (q+1)*m)`` of its gathered buffer, posting
    ``segment_notifies`` to each of segment ``q``'s cells as the shard
    lands: cells ``[q*c, (q+1)*c)`` of a bank with ``c`` cells per rank
    (a mapping with ``c`` channels per rank).  Consumers
    (e.g. a GEMM kernel whose BlockChannel points at the same banks) start
    on a shard's tiles as soon as its signal arrives — communication and
    computation overlap with no SM cost for the copies.

    ``segment_notifies`` lets the publisher match whatever per-channel
    threshold the consumer's mapping expects.
    """
    world = ctx.world_size
    shards = ctx.heap.tensors(src_name)
    dsts = ctx.heap.tensors(dst_name)
    m, cols = shards[0].shape
    if dsts[0].shape[0] != m * world:
        raise ShapeError(
            f"dma_all_gather: dst rows {dsts[0].shape[0]} != {m * world}")

    def rank_proc(rank: int) -> ProcessGen:
        # own shard first (cheap local DMA), then peers nearest-first
        order = [rank] + [(rank + off) % world for off in range(1, world)]
        for q in order:
            yield from ctx.rank_copy_data(
                dst_name, src_rank=q, dst_rank=rank,
                src_ranges=((0, m), (0, cols)),
                dst_ranges=((q * m, (q + 1) * m), (0, cols)),
                src_name=src_name)
            if banks is not None:
                cells = len(banks[rank]) // world
                for c in range(q * cells, (q + 1) * cells):
                    banks[rank].post_add(c, segment_notifies, from_rank=rank)
        return None

    return [
        ctx.stream(rank, stream_name).enqueue(
            rank_proc(rank), name=f"dma.ag.{src_name}[{rank}]")
        for rank in range(world)
    ]


def dma_scatter_segments(
    ctx: DistContext,
    src_name: str,
    dst_name: str,
    banks: list[SignalArray] | None,
    stream_name: str = "comm",
    segment_notifies: int = 1,
) -> list[Process]:
    """Push-mode scatter: rank r pushes row-segment q of its source to q.

    The building block of the hybrid ReduceScatter (scatter on DMA,
    reduction on SMs): destination rank ``q`` receives one partial segment
    from every peer at rows ``[r*seg, (r+1)*seg)`` of its landing buffer
    and gets ``banks[q][r]`` posted per arrival.
    """
    world = ctx.world_size
    srcs = ctx.heap.tensors(src_name)
    dsts = ctx.heap.tensors(dst_name)
    rows, cols = srcs[0].shape
    if rows % world != 0:
        raise ShapeError(f"scatter rows {rows} not divisible by {world}")
    seg = rows // world
    if dsts[0].shape[0] != rows:
        raise ShapeError(
            f"dma_scatter: landing buffer rows {dsts[0].shape[0]} != {rows}")

    def rank_proc(rank: int) -> ProcessGen:
        for off in range(world):
            q = (rank + off) % world
            yield from ctx.rank_copy_data(
                dst_name, src_rank=rank, dst_rank=q,
                src_ranges=((q * seg, (q + 1) * seg), (0, cols)),
                dst_ranges=((rank * seg, (rank + 1) * seg), (0, cols)),
                src_name=src_name)
            if banks is not None:
                banks[q].post_add(rank, segment_notifies, from_rank=rank)
        return None

    return [
        ctx.stream(rank, stream_name).enqueue(
            rank_proc(rank), name=f"dma.scatter.{src_name}[{rank}]")
        for rank in range(world)
    ]
