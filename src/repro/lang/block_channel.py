"""The BlockChannel special kernel argument (paper Figure 7).

``BlockChannel`` encapsulates the distributed mapping metadata a fused
kernel needs: process rank, world size, barrier configuration,
producer/consumer block relationships and the tile-centric mapping used to
resolve primitives.  The backend "decomposes" it during compilation /
lowering: scalar fields feed ``channel.<field>`` reads, mappings feed
primitive lowering, and the signal banks are the physical barriers.

A channel is built complete and not changed afterwards: the lowered
kernels read its fields once per block, and the primitive lookups of a
static (affine) mapping are memoized per tile id.  Only a dynamic
``TableTileMapping``, whose tables runtime routing may refill, is queried
afresh on every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from repro.errors import LoweringError
from repro.mapping.dynamic import TableTileMapping
from repro.mapping.layout import TileGrid
from repro.mapping.static import AffineTileMapping
from repro.memory.signals import SignalArray

Mapping = Union[AffineTileMapping, TableTileMapping]


@dataclass
class BlockChannel:
    """Distributed metadata + barriers for one rank's kernel launch."""

    rank: int
    num_ranks: int
    #: blocks of the launch grid assigned to the communication part
    comm_blocks: int
    #: producer (communication) tile grid over the mapped tensor
    comm_grid: TileGrid | None = None
    #: consumer (computation) tile grid over the same index space
    consumer_grid: TileGrid | None = None
    #: tile-centric mapping along the sharded dimension
    producer_mapping: Mapping | None = None
    #: this rank's producer->consumer barrier bank
    barriers: SignalArray | None = None
    #: every rank's producer->consumer bank (remote notifies)
    all_barriers: list[SignalArray] = field(default_factory=list)
    #: per-tile peer barrier banks (ring/peer signalling), one per rank
    all_peer_barriers: list[SignalArray] = field(default_factory=list)
    #: notifies required before one channel counts as ready (static default)
    producer_threshold: int = 1
    #: where p2p notifies land: "local" (pull-style kernels: producer and
    #: consumer share a rank) or "mapped" (push-style: f_R names the target)
    notify_target: str = "local"
    #: dynamic consumer-side mapping (MoE); producer side stays static
    consumer_mapping: TableTileMapping | None = None
    #: multiplies static wait thresholds when producer tiles span several
    #: column tiles per channel row (each (m, n) tile notifies once)
    threshold_scale: int = 1
    #: dynamic per-(tile, channel) notify amounts: a "broadcast" notify of
    #: tile t posts notify_counts[t][c] to each local channel c (used by the
    #: MoE scatter/topk-reduce chain, where one grouped tile contributes
    #: rows to several token segments)
    notify_counts: "object | None" = None
    #: memoized static lookups by tile id: wait lists, channels, ranks
    _waits: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)
    _channels: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)
    _ranks: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    # -- derived metadata (exposed to kernels as channel.<field>) ----------------

    @property
    def num_barriers(self) -> int:
        return len(self.barriers) if self.barriers is not None else 0

    @property
    def num_producer_blocks(self) -> int:
        return self.comm_grid.n_tiles if self.comm_grid is not None else 0

    @property
    def num_consumer_blocks(self) -> int:
        return self.consumer_grid.n_tiles if self.consumer_grid is not None else 0

    def scalar_field(self, name: str) -> int:
        """Resolve a ``channel.<name>`` read inside a kernel."""
        try:
            value = getattr(self, name)
        except AttributeError:
            raise LoweringError(f"BlockChannel has no field {name!r}") from None
        if not isinstance(value, int):
            raise LoweringError(f"BlockChannel field {name!r} is not scalar")
        return value

    # -- primitive resolution -----------------------------------------------------

    def require_mapping(self) -> Mapping:
        if self.producer_mapping is None:
            raise LoweringError(
                "kernel uses tile-centric primitives but the BlockChannel "
                "carries no producer mapping"
            )
        return self.producer_mapping

    @property
    def is_dynamic(self) -> bool:
        return isinstance(self.producer_mapping, TableTileMapping)

    def consumer_wait_list(self, consumer_tid_m: int) -> list[tuple[int, int]]:
        """(channel, threshold) pairs a consumer row-tile must wait on.

        Static answers are memoized: callers must not mutate the list.
        """
        waits = self._waits.get(consumer_tid_m)
        if waits is not None:
            return waits
        if self.consumer_mapping is not None:
            return self.consumer_mapping.wait_list_for_tile(consumer_tid_m)
        mapping = self.require_mapping()
        if isinstance(mapping, TableTileMapping):
            return mapping.wait_list_for_tile(consumer_tid_m)
        if self.consumer_grid is None:
            raise LoweringError("consumer_tile_wait needs a consumer grid")
        lo, hi = self.consumer_grid.row_range(consumer_tid_m)
        waits = [(c, t * self.threshold_scale) for c, t in mapping.wait_list(lo, hi)]
        self._waits[consumer_tid_m] = waits
        return waits

    def producer_channel(self, producer_tile_id: int) -> int:
        channel = self._channels.get(producer_tile_id)
        if channel is None:
            mapping = self.require_mapping()
            channel = mapping.channel_of(producer_tile_id)
            if isinstance(mapping, AffineTileMapping):
                self._channels[producer_tile_id] = channel
        return channel

    def producer_rank(self, producer_tile_id: int) -> int:
        rank = self._ranks.get(producer_tile_id)
        if rank is None:
            mapping = self.require_mapping()
            rank = mapping.rank_of(producer_tile_id)
            if isinstance(mapping, AffineTileMapping):
                self._ranks[producer_tile_id] = rank
        return rank

    def producer_range(self, producer_tile_id: int) -> tuple[int, int]:
        return self.require_mapping().shape_range(producer_tile_id)
