"""Overlapped AllGather-KV + flash attention (Figure 6, sequence parallel).

Communication runs on the copy engine, driven by host primitives on a
dedicated comm stream (``rank_copy_data`` + ``rank_notify``); the
computation is a flash-attention kernel whose blocks
``consumer_tile_wait`` per KV segment.  The comm order adapts to causal
masking (needed segments first) — a tile-order-subspace choice the
operator-centric AllGather cannot express.

The compute kernel is a native simulated kernel (one process per rank,
per-segment aggregate costing) — the flash inner loop has no cross-block
scheduling events, so stepping it tile-by-tile would add events without
adding fidelity.  Numerics run the online-softmax accumulation per
segment, snapshotting gathered KV *at wait-satisfaction time*, so a
missing signal shows up as wrong output in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.config import H800, HardwareSpec
from repro.errors import ShapeError
from repro.ops.attention import flash_segment_time, heads_to_seq, seq_to_heads
from repro.registry import register_family
from repro.runtime.context import DistContext
from repro.sim.engine import Process, ProcessGen, Timeout
from repro.tuner.costprune import ag_attention_lower_bound
from repro.tuner.space import Axis, SearchSpace

#: analyzer annotation (repro.analyze): this family has no tile IR — the
#: flash consumer is a native simulated kernel, so the static analyzer
#: records an informational plan instead of an event-trace analysis
ANALYZE_META = dict(family="ag_attention", tile_ir=False,
                    detail="KV AllGather on the copy engine + native "
                           "flash-attention consumer")


@dataclass(frozen=True)
class AgAttentionConfig:
    heads: int
    head_dim: int
    seq_len: int           # global KV sequence length S
    causal: bool = True
    block_q: int = 128
    block_kv: int = 128

    def validate(self, world: int) -> None:
        if self.seq_len % world != 0:
            raise ShapeError(
                f"S={self.seq_len} not divisible by world={world}")

    @property
    def width(self) -> int:
        return self.heads * self.head_dim

    def tune_candidate(self) -> dict:
        """This config as a tuner candidate dict (the searched axes)."""
        return dict(block_q=self.block_q, block_kv=self.block_kv)


# ---------------------------------------------------------------------------
# Tuner integration: the attention slice of the design space
# ---------------------------------------------------------------------------

def attention_search_space(heads: int, head_dim: int, seq_len: int,
                           world: int) -> SearchSpace:
    """The flash-tile design space shared by both attention kernels.

    Axes are the flash q/kv tile sizes; communication rides the copy
    engine (AG kernel) or NCCL hops (ring baseline), so there is no
    ``comm_blocks``/mode axis.  Tiles need not divide the per-rank
    sequence (the kernels ``cdiv``), so the axes are plain value lists.
    """
    return SearchSpace(axes=(
        Axis("block_q", (128, 256)),
        Axis("block_kv", (128, 256)),
    ))


def ag_attention_tune_task(heads: int, head_dim: int, seq_len: int, *,
                           causal: bool = True, world: int = 8,
                           spec: HardwareSpec = H800):
    """Build the :class:`~repro.tuner.TuneTask` tuning AG+flash attention."""
    from repro.tuner.search import TuneTask

    space = attention_search_space(heads, head_dim, seq_len, world)

    def make_builder(cand: dict):
        cfg = AgAttentionConfig(heads=heads, head_dim=head_dim,
                                seq_len=seq_len, causal=causal, **cand)

        def build(ctx: DistContext) -> None:
            s_per = seq_len // world
            for name in ("q", "k", "v"):
                ctx.alloc(name, (s_per, cfg.width), "float16", fill=None)
            ctx.alloc("o", (s_per, cfg.width), "float32", fill=None)
            ag_attention_overlapped(ctx, cfg, "q", "k", "v", "o")

        return build

    return TuneTask(
        kernel="ag_attention",
        shape_key=f"h{heads}d{head_dim}s{seq_len}c{int(causal)}",
        space=space,
        default=AgAttentionConfig(heads=heads, head_dim=head_dim,
                                  seq_len=seq_len,
                                  causal=causal).tune_candidate(),
        make_builder=make_builder,
        bound=lambda c: ag_attention_lower_bound(
            c, heads=heads, head_dim=head_dim, seq_len=seq_len, world=world,
            spec=spec, causal=causal),
        finalize=lambda c: AgAttentionConfig(heads=heads, head_dim=head_dim,
                                             seq_len=seq_len, causal=causal,
                                             **c),
    )


class _OnlineSoftmax:
    """Per-rank numeric state for segment-streamed flash attention."""

    def __init__(self, q: np.ndarray, causal: bool, q_offset: int):
        self.q = q.astype(np.float32)  # (H, Sq, D)
        self.causal = causal
        self.q_offset = q_offset
        h, sq, d = q.shape
        self.m = np.full((h, sq, 1), -np.inf, dtype=np.float32)
        self.l = np.zeros((h, sq, 1), dtype=np.float32)
        self.acc = np.zeros((h, sq, d), dtype=np.float32)
        self.scale = 1.0 / math.sqrt(d)

    def update(self, k: np.ndarray, v: np.ndarray, kv_offset: int) -> None:
        scores = np.einsum("hqd,hkd->hqk", self.q,
                           k.astype(np.float32)) * self.scale
        if self.causal:
            qpos = np.arange(self.q.shape[1])[:, None] + self.q_offset
            kpos = np.arange(k.shape[1])[None, :] + kv_offset
            scores = np.where(kpos <= qpos, scores, -np.inf)
        m_new = np.maximum(self.m, scores.max(axis=-1, keepdims=True))
        m_safe = np.where(np.isinf(m_new), 0.0, m_new)
        p = np.exp(scores - m_safe)
        p = np.where(np.isinf(scores), 0.0, p)
        correction = np.exp(np.where(np.isinf(self.m), -np.inf,
                                     self.m - m_safe))
        correction = np.where(np.isinf(self.m), 0.0, correction)
        self.l = self.l * correction + p.sum(axis=-1, keepdims=True)
        self.acc = self.acc * correction + np.einsum(
            "hqk,hkd->hqd", p, v.astype(np.float32))
        self.m = m_new

    def output(self) -> np.ndarray:
        denom = np.where(self.l == 0, 1.0, self.l)
        return self.acc / denom


def ag_attention_overlapped(
    ctx: DistContext,
    cfg: AgAttentionConfig,
    q_name: str,
    k_shards_name: str,
    v_shards_name: str,
    out_name: str,
    gathered_k_name: str | None = None,
    gathered_v_name: str | None = None,
    comm_sms: int = 0,
    tag: str = "ag_attn",
) -> list[Process]:
    """Launch the overlapped AG-KV + flash attention on every rank.

    Inputs are 2-d sequence layouts: ``q`` (S/world x H*D) per rank, KV
    shards (S/world x H*D) per rank; output (S/world x H*D).
    """
    machine = ctx.machine
    world = machine.world_size
    cfg.validate(world)
    s_per = cfg.seq_len // world
    width = cfg.width

    gk = gathered_k_name or f"{tag}.K"
    gv = gathered_v_name or f"{tag}.V"
    ctx.alloc(gk, (cfg.seq_len, width), "float16", fill=None)
    ctx.alloc(gv, (cfg.seq_len, width), "float16", fill=None)
    banks = ctx.heap.alloc_signals(f"{tag}.seg", world)

    def comm_order(rank: int) -> list[int]:
        if cfg.causal:
            # needed segments first: own, then descending below the diagonal,
            # then the (masked-out) rest
            order = [rank] + [(rank - i) % world for i in range(1, world)]
        else:
            order = [rank] + [(rank + i) % world for i in range(1, world)]
        return order

    def comm_proc(rank: int) -> ProcessGen:
        for seg in comm_order(rank):
            for name, src in ((gk, k_shards_name), (gv, v_shards_name)):
                yield from ctx.rank_copy_data(
                    name, src_rank=seg, dst_rank=rank,
                    src_ranges=((0, s_per), (0, width)),
                    dst_ranges=((seg * s_per, (seg + 1) * s_per), (0, width)),
                    src_name=src)
            yield from ctx.rank_notify(banks, rank, seg, from_rank=rank)
        return None

    for rank in range(world):
        machine.stream(rank, "comm").enqueue(
            comm_proc(rank), name=f"{tag}.ag[{rank}]")

    def compute_proc(rank: int) -> ProcessGen:
        device = machine.device(rank)
        want = device.sms.capacity - comm_sms
        yield device.sms.acquire(want)
        try:
            t0 = machine.now
            q_t = ctx.heap.tensor(q_name, rank)
            state = None
            if machine.config.execute_numerics:
                state = _OnlineSoftmax(
                    seq_to_heads(q_t.numpy(), cfg.heads, cfg.head_dim),
                    cfg.causal, rank * s_per)
            segs = [s for s in comm_order(rank)
                    if not cfg.causal or s <= rank]
            for seg in segs:
                yield banks[rank].wait_geq(seg, 1)
                frac = 0.5 if (cfg.causal and seg == rank) else 1.0
                duration = flash_segment_time(
                    ctx, cfg.heads, s_per, s_per, cfg.head_dim, want, frac,
                    cfg.block_q, cfg.block_kv)
                kv_bytes = 2.0 * s_per * width * 2
                arrival = device.reserve_hbm(kv_bytes)
                yield Timeout(max(duration, arrival - machine.now))
                if state is not None:
                    k_seg = ctx.heap.tensor(gk, rank).read_tile(
                        ((seg * s_per, (seg + 1) * s_per), (0, width)))
                    v_seg = ctx.heap.tensor(gv, rank).read_tile(
                        ((seg * s_per, (seg + 1) * s_per), (0, width)))
                    state.update(
                        seq_to_heads(k_seg, cfg.heads, cfg.head_dim),
                        seq_to_heads(v_seg, cfg.heads, cfg.head_dim),
                        kv_offset=seg * s_per)
            if state is not None:
                ctx.heap.tensor(out_name, rank).write_tile(
                    ((0, s_per), (0, width)), heads_to_seq(state.output()))
            if machine.config.trace:
                machine.record(rank, "compute", f"{tag}.flash", t0,
                               machine.now)
        finally:
            device.sms.release(want)
        return None

    return [
        machine.stream(rank).enqueue(
            compute_proc(rank), name=f"{tag}.attn[{rank}]",
            start_delay=machine.cost.launch_overhead())
        for rank in range(world)
    ]


# ---------------------------------------------------------------------------
# Registry: the declarative family record (repro.registry)
# ---------------------------------------------------------------------------

def _analyze_plans():
    from repro.analyze.registry import build_ag_attention_plan

    return [build_ag_attention_plan]


def _bench_builders():
    from repro.bench.experiments import attention_builders

    return attention_builders


def _sweep_entries(shape, *, world: int, spec: HardwareSpec = H800,
                   causal: bool = True):
    tasks = []
    for seq_len in shape.seq_lens:
        task = ag_attention_tune_task(shape.heads, shape.head_dim, seq_len,
                                      causal=causal, world=world, spec=spec)
        tasks.append((f"{shape.name}/s{seq_len}/ag_attention", task))
    return tasks


def _warm_tasks(world: int, spec: HardwareSpec):
    from repro.models.configs import ATTENTION_BENCHES

    tasks = []
    for shape in ATTENTION_BENCHES:
        tasks.extend(_sweep_entries(shape, world=world, spec=spec))
    return tasks


register_family(
    name="ag_attention",
    doc="KV AllGather + flash attention (sequence parallel)",
    config_cls=AgAttentionConfig,
    launch=ag_attention_overlapped,
    tune_task=lambda: ag_attention_tune_task(4, 32, 512, world=2),
    analyze_plans=_analyze_plans,
    bench_builders=_bench_builders,
    worlds=(1,),
    tile_ir=False,
    sweep_category="attention",
    sweep_entries=_sweep_entries,
    warm_tasks=_warm_tasks,
)
