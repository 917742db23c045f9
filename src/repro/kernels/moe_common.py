"""Shared MoE routing state: the runtime side of dynamic mapping (§4.1).

All MoE implementations (TileLink kernels and the cuBLAS/CUTLASS/vLLM
baselines) consume the same :class:`MoeRouting` bundle so they compute the
same problem: top-k ids, expert-grouped padded row layout, dynamic lookup
tables, per-tile segment contribution counts and the scatter metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ShapeError
from repro.mapping.dynamic import TableTileMapping, build_moe_consumer_mapping
from repro.ops.topk import topk_route


@dataclass
class MoeRouting:
    """Routing outcome for one MoE layer invocation on one TP group."""

    n_tokens: int            # gathered tokens M
    tokens_per_rank: int
    world_size: int
    n_experts: int
    topk: int
    block_m: int
    topk_ids: np.ndarray     # (M, topk)
    topk_weights: np.ndarray  # (M, topk) fp32
    mapping: TableTileMapping  # consumer-side dynamic mapping (AG gating)
    sorted_token_ids: np.ndarray  # (slots,) compact grouped -> token id
    sorted_expert_of_row: np.ndarray  # (slots,) compact grouped -> expert
    sorted_weights: np.ndarray  # (slots,) compact grouped -> router weight
    expert_tile_offsets: np.ndarray  # (E+1,)
    n_tiles: int             # padded grouped tiles
    padded_rows: int         # n_tiles * block_m
    padded_token_ids: np.ndarray  # (padded_rows,) token id, dump_row for pads
    padded_expert_of_row: np.ndarray  # (padded_rows,)
    padded_weights: np.ndarray  # (padded_rows,) fp32, 0 for pads
    valid_mask: np.ndarray   # (padded_rows,) bool
    expert_of_tile: np.ndarray  # (n_tiles,)
    #: rows each grouped tile contributes to each token segment (n_tiles, R)
    segment_counts: np.ndarray
    #: total expected contributions per segment = tokens_per_rank * topk
    segment_thresholds: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def dump_row(self) -> int:
        """Scratch row index for padded scatter targets (== n_tokens)."""
        return self.n_tokens


def build_moe_routing(
    logits: np.ndarray,
    tokens_per_rank: int,
    world_size: int,
    topk: int,
    block_m: int = 128,
    channels_per_rank: int = 1,
) -> MoeRouting:
    """Route tokens and precompute every layout the MoE kernels need."""
    n_tokens, n_experts = logits.shape
    if n_tokens != tokens_per_rank * world_size:
        raise ShapeError(
            f"router logits rows {n_tokens} != tokens_per_rank * world "
            f"({tokens_per_rank * world_size})")
    topk_ids, topk_weights = topk_route(logits, topk)
    mapping, sorted_token_ids, expert_tile_offsets = \
        build_moe_consumer_mapping(topk_ids, n_experts, tokens_per_rank,
                                   world_size, block_m, channels_per_rank)
    n_tiles = int(expert_tile_offsets[-1])
    padded_rows = n_tiles * block_m

    counts = np.bincount(topk_ids.reshape(-1), minlength=n_experts)
    flat_experts = topk_ids.reshape(-1)
    # same (expert, source-rank) ordering as build_moe_consumer_mapping
    token_of_slot = np.arange(n_tokens).repeat(topk)
    src_of_slot = token_of_slot // max(1, tokens_per_rank)
    order = np.argsort(flat_experts * world_size + src_of_slot, kind="stable")
    slot_weights = topk_weights.reshape(-1)[order]

    padded_token_ids = np.full(padded_rows, n_tokens, dtype=np.int64)
    padded_expert = np.zeros(padded_rows, dtype=np.int64)
    padded_weights = np.zeros(padded_rows, dtype=np.float32)
    valid = np.zeros(padded_rows, dtype=bool)
    group_starts = np.zeros(n_experts + 1, dtype=np.int64)
    np.cumsum(counts, out=group_starts[1:])
    for e in range(n_experts):
        g0, g1 = int(group_starts[e]), int(group_starts[e + 1])
        p0 = int(expert_tile_offsets[e]) * block_m
        n = g1 - g0
        padded_token_ids[p0:p0 + n] = sorted_token_ids[g0:g1]
        padded_weights[p0:p0 + n] = slot_weights[g0:g1]
        valid[p0:p0 + n] = True
        t0, t1 = int(expert_tile_offsets[e]), int(expert_tile_offsets[e + 1])
        padded_expert[t0 * block_m: t1 * block_m] = e

    expert_of_tile = np.zeros(max(n_tiles, 1), dtype=np.int64)
    for e in range(n_experts):
        t0, t1 = int(expert_tile_offsets[e]), int(expert_tile_offsets[e + 1])
        expert_of_tile[t0:t1] = e

    # per-tile contributions to each token segment (for part-2 notifies)
    segment_counts = np.zeros((max(n_tiles, 1), world_size), dtype=np.int64)
    seg_of_row = np.where(valid, padded_token_ids // max(1, tokens_per_rank),
                          -1)
    for t in range(n_tiles):
        rows = seg_of_row[t * block_m: (t + 1) * block_m]
        rows = rows[rows >= 0]
        if len(rows):
            segment_counts[t] = np.bincount(rows, minlength=world_size)

    routing = MoeRouting(
        n_tokens=n_tokens,
        tokens_per_rank=tokens_per_rank,
        world_size=world_size,
        n_experts=n_experts,
        topk=topk,
        block_m=block_m,
        topk_ids=topk_ids,
        topk_weights=topk_weights,
        mapping=mapping,
        sorted_token_ids=sorted_token_ids,
        sorted_expert_of_row=flat_experts[order],
        sorted_weights=slot_weights,
        expert_tile_offsets=expert_tile_offsets,
        n_tiles=n_tiles,
        padded_rows=padded_rows,
        padded_token_ids=padded_token_ids,
        padded_expert_of_row=padded_expert,
        padded_weights=padded_weights,
        valid_mask=valid,
        expert_of_tile=expert_of_tile,
        segment_counts=segment_counts,
    )
    routing.segment_thresholds = np.full(
        world_size, tokens_per_rank * topk, dtype=np.int64)
    return routing


def random_router_logits(n_tokens: int, n_experts: int,
                         seed: int = 0) -> np.ndarray:
    """Synthetic router logits (the paper's workloads route real models'
    activations; a seeded Gaussian preserves the balanced-load regime)."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_tokens, n_experts)).astype(np.float32)


def routing_memo(n_tokens: int, n_experts: int, topk: int, world_size: int,
                 router_seed: int = 17):
    """Memoised ``block_m -> MoeRouting`` builder for one token count.

    The tuner needs routing rebuilt per candidate ``block_m`` (the grouped
    layout pads every expert group to the row tile), always from the
    *same* seeded logits so candidates stay comparable; this factory
    shares that memo between a MoE tune task's builders and bounds.
    """
    routings: dict[int, MoeRouting] = {}

    def routing_for(block_m: int) -> MoeRouting:
        if block_m not in routings:
            logits = random_router_logits(n_tokens, n_experts,
                                          seed=router_seed)
            routings[block_m] = build_moe_routing(
                logits, n_tokens // world_size, world_size, topk,
                block_m=block_m)
        return routings[block_m]

    return routing_for
