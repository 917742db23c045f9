"""RingAttention baseline (Liu et al.) for Figure 10.

Blockwise attention with KV chunks rotating around the ring: at each step
every rank computes flash attention against its current chunk while the
chunk simultaneously travels to the next rank.  The known weaknesses the
paper's comparison exposes:

* **lockstep**: every step ends with a ring-wide wait for the slowest
  rank, so causal-masking load imbalance (later ranks attend to more
  keys) stalls the whole ring each step;
* **blocking hops**: a step's compute cannot start before the previous
  hop delivered, so link latency and protocol overhead serialize.

Numerics use the same online-softmax accumulation as the TileLink kernel.
"""

from __future__ import annotations

from repro.config import H800, HardwareSpec
from repro.kernels.attention import (
    AgAttentionConfig,
    _OnlineSoftmax,
    attention_search_space,
)
from repro.ops.attention import flash_segment_time, heads_to_seq, seq_to_heads
from repro.registry import register_family
from repro.runtime.context import DistContext
from repro.sim.engine import Process, ProcessGen, Timeout
from repro.tuner.costprune import ring_attention_lower_bound

#: per-step host cost of the torch.distributed SendRecv pair
HOP_DISPATCH_OVERHEAD = 30e-6

#: analyzer annotation (repro.analyze): native simulated kernel, no tile IR
ANALYZE_META = dict(family="ring_attention", tile_ir=False,
                    detail="rotating-KV lockstep ring on host processes")


# The ring baseline shares the flash-tile axes with the AG kernel — the
# searched subspace is the same q/kv tiling; only the builder (and its
# lockstep cost structure) differs.
def ring_attention_tune_task(heads: int, head_dim: int, seq_len: int, *,
                             causal: bool = True, world: int = 8,
                             spec: HardwareSpec = H800):
    """Build the :class:`~repro.tuner.TuneTask` tuning RingAttention.

    Tuning the baseline keeps the Figure-10 comparison honest: TileLink's
    tuned kernel is measured against the ring's *best* tiling, not its
    default one.
    """
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
            ring_attention(ctx, cfg, "q", "k", "v", "o")

        return build

    return TuneTask(
        kernel="ring_attention",
        shape_key=f"h{heads}d{head_dim}s{seq_len}c{int(causal)}",
        space=space,
        default=AgAttentionConfig(heads=heads, head_dim=head_dim,
                                  seq_len=seq_len,
                                  causal=causal).tune_candidate(),
        make_builder=make_builder,
        bound=lambda c: ring_attention_lower_bound(
            c, heads=heads, head_dim=head_dim, seq_len=seq_len, world=world,
            spec=spec),
        finalize=lambda c: AgAttentionConfig(heads=heads, head_dim=head_dim,
                                             seq_len=seq_len, causal=causal,
                                             **c),
    )


def ring_attention(
    ctx: DistContext,
    cfg: AgAttentionConfig,
    q_name: str,
    k_shards_name: str,
    v_shards_name: str,
    out_name: str,
    tag: str = "ring_attn",
) -> list[Process]:
    """Launch ring attention on every rank (2-d sequence layouts)."""
    machine = ctx.machine
    world = machine.world_size
    cfg.validate(world)
    s_per = cfg.seq_len // world
    width = cfg.width
    kv_bytes = 2.0 * s_per * width * 2  # K and V fp16 chunks

    # step-completion signals: cell s on rank r == "rank r finished hop s"
    hop_done = ctx.heap.alloc_signals(f"{tag}.hop", world)

    def rank_proc(rank: int) -> ProcessGen:
        device = machine.device(rank)
        want = device.sms.capacity
        yield device.sms.acquire(want)
        try:
            t0 = machine.now
            q_t = ctx.heap.tensor(q_name, rank)
            state = None
            if machine.config.execute_numerics:
                state = _OnlineSoftmax(
                    seq_to_heads(q_t.numpy(), cfg.heads, cfg.head_dim),
                    cfg.causal, rank * s_per)
            nxt = (rank + 1) % world
            for step in range(world):
                seg = (rank - step) % world
                # every chunk is processed with the causal mask applied
                # *inside* the kernel — plain RingAttention neither skips
                # masked chunks nor rebalances the causal triangle, so each
                # lockstep slot costs a full chunk of compute
                duration = flash_segment_time(
                    ctx, cfg.heads, s_per, s_per, cfg.head_dim, want,
                    1.0, cfg.block_q, cfg.block_kv)
                arrival = device.reserve_hbm(kv_bytes)
                yield Timeout(max(duration, arrival - machine.now))
                if state is not None and (not cfg.causal or seg <= rank):
                    k_seg = ctx.heap.tensor(k_shards_name, seg).numpy()
                    v_seg = ctx.heap.tensor(v_shards_name, seg).numpy()
                    state.update(
                        seq_to_heads(k_seg, cfg.heads, cfg.head_dim),
                        seq_to_heads(v_seg, cfg.heads, cfg.head_dim),
                        kv_offset=seg * s_per)
                if step < world - 1:
                    # blocking SendRecv after the step's compute: host
                    # dispatch, the hop itself, then wait for the
                    # neighbour's hop — the ring-wide lockstep
                    yield Timeout(HOP_DISPATCH_OVERHEAD)
                    yield machine.interconnect.transfer(
                        rank, nxt, kv_bytes, "nccl")
                    hop_done[nxt].post_add(step, 1, from_rank=rank)
                    yield hop_done[rank].wait_geq(step, 1)
            if state is not None:
                ctx.heap.tensor(out_name, rank).write_tile(
                    ((0, s_per), (0, width)), heads_to_seq(state.output()))
            if machine.config.trace:
                machine.record(rank, "compute", tag, t0, machine.now)
        finally:
            device.sms.release(want)
        return None

    return [
        machine.stream(rank).enqueue(
            rank_proc(rank), name=f"{tag}[{rank}]",
            start_delay=machine.cost.launch_overhead())
        for rank in range(world)
    ]


# ---------------------------------------------------------------------------
# Registry: the declarative family record (repro.registry)
# ---------------------------------------------------------------------------

def _analyze_plans():
    from repro.analyze.registry import build_ring_attention_plan

    return [build_ring_attention_plan]


def _bench_builders():
    # the ring baseline appears as the "RingAttn" column of the shared
    # attention method grid
    from repro.bench.experiments import attention_builders

    return attention_builders


def _sweep_entries(shape, *, world: int, spec: HardwareSpec = H800,
                   causal: bool = True):
    tasks = []
    for seq_len in shape.seq_lens:
        task = ring_attention_tune_task(shape.heads, shape.head_dim, seq_len,
                                        causal=causal, world=world,
                                        spec=spec)
        tasks.append((f"{shape.name}/s{seq_len}/ring_attention", task))
    return tasks


register_family(
    name="ring_attention",
    doc="RingAttention baseline (rotating-KV lockstep ring)",
    config_cls=AgAttentionConfig,
    launch=ring_attention,
    tune_task=lambda: ring_attention_tune_task(4, 32, 512, world=2),
    analyze_plans=_analyze_plans,
    bench_builders=_bench_builders,
    worlds=(1,),
    tile_ir=False,
    sweep_category="attention",
    sweep_entries=_sweep_entries,
)
