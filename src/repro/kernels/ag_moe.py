"""Overlapped AllGather + MoE GroupGEMM (Figure 5, dynamic mapping).

The token AllGather runs on the copy engine (DMA), publishing per-shard
arrival signals.  The consumer is a fused grouped GEMM over the
expert-grouped padded row layout: each grouped tile

1. waits on the dynamic mapping's wait set — the channels of every source
   rank whose tokens appear in the tile (``consumer_tile_wait`` with
   ``table`` semantics);
2. gathers its token rows from the gathered buffer with the fused index
   load (``tl.gather_rows`` — vLLM-style gather-in-GEMM);
3. multiplies by its expert's weight shard (expert id from the lookup
   table via ``tl.load_scalar``).

This is the kernel the cuBLAS/CUTLASS/vLLM baselines of Figure 9 (left)
are compared against.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.collectives.copy_engine import dma_all_gather
from repro.compiler.program import CompileOptions
from repro.config import H800, HardwareSpec
from repro.errors import ShapeError
from repro.kernels.moe_common import MoeRouting, routing_memo
from repro.lang import tl
from repro.lang.dsl import kernel
from repro.mapping.layout import TileGrid
from repro.mapping.static import AffineTileMapping
from repro.registry import register_family
from repro.runtime.context import DistContext
from repro.sim.engine import Process
from repro.tuner.costprune import ag_moe_lower_bound
from repro.tuner.space import Axis, SearchSpace, divisors_of


@kernel
def _ag_moe_group_gemm(gathered, weights2d, ids, expert_of_tile, grouped_out,
                       channel: tl.BlockChannel,
                       NT: tl.constexpr, H: tl.constexpr, D: tl.constexpr,
                       BM: tl.constexpr, BN: tl.constexpr, BK: tl.constexpr):
    """Fused grouped GEMM consumer over NT expert-aligned tiles."""
    bid = tl.block_id()
    nb = tl.num_blocks()
    tiles_n = tl.cdiv(D, BN)
    total = NT * tiles_n
    for i in range(bid, total, nb):
        t = i // tiles_n
        tid_n = i % tiles_n
        tl.consumer_tile_wait(t)
        e = tl.load_scalar(expert_of_tile, t)
        idx = tl.load_vec(ids, (t * BM, t * BM + BM))
        acc = tl.zeros((BM, BN), "float32")
        for k in range(0, H, BK):
            a = tl.gather_rows(gathered, idx, (k, k + BK))
            b = tl.load(weights2d, (e * H + k, e * H + k + BK),
                        (tid_n * BN, tid_n * BN + BN))
            acc += tl.dot(a, b)
        c = tl.cast(acc, "float16")
        tl.store(grouped_out, (t * BM, t * BM + BM),
                 (tid_n * BN, tid_n * BN + BN), c)


# analyzer annotations (repro.analyze); grouped_out rows are the padded
# expert-grouped layout, fully covered by the NT consumer tiles
_ag_moe_group_gemm.meta.update(role="consumer", comm_axis="m",
                               outputs=("grouped_out",))


@dataclass(frozen=True)
class AgMoeConfig:
    """Shapes for AG + MoE part 1: gathered tokens (m x h) through expert
    shards (e x h x d_shard)."""

    m: int             # gathered tokens
    h: int             # hidden size (GEMM depth)
    d: int             # per-rank expert intermediate shard width
    n_experts: int
    topk: int
    block_m: int = 128
    block_n: int = 128
    block_k: int = 64

    def validate(self, world: int) -> None:
        if self.m % world != 0:
            raise ShapeError(f"M={self.m} not divisible by world={world}")
        if (self.m // world) % self.block_m != 0:
            raise ShapeError("per-rank tokens must align to block_m")

    def tune_candidate(self) -> dict:
        """This config as a tuner candidate dict (the searched axes)."""
        return dict(block_m=self.block_m, block_n=self.block_n,
                    block_k=self.block_k)


# ---------------------------------------------------------------------------
# Tuner integration: the AG+MoE slice of the decoupled design space
# ---------------------------------------------------------------------------

def ag_moe_search_space(m: int, h: int, d: int, world: int) -> SearchSpace:
    """The routing-aware design space of AG+MoE part 1 for one shape.

    ``block_m`` is both the grouped-GEMM row tile and the routing/AG
    granularity (the dynamic mapping pads every expert group to it), so it
    must divide the per-rank token count; ``block_n``/``block_k`` tile the
    expert shard width and the GEMM depth.  The AllGather itself rides the
    copy engine, so there is no mode or ``comm_blocks`` axis here.
    """
    per_rank = m // world
    return SearchSpace(axes=(
        Axis("block_m", divisors_of(per_rank, (128, 256))),
        Axis("block_n", (128,)),
        Axis("block_k", (64,)),
    ))


def ag_moe_tune_task(m: int, h: int, d: int, n_experts: int, topk: int, *,
                     world: int = 8, spec: HardwareSpec = H800,
                     router_seed: int = 17):
    """Build the :class:`~repro.tuner.TuneTask` tuning AG+MoE on a shape.

    Routing is block_m-dependent (the grouped layout pads per expert to
    the row tile), so the task rebuilds — and memoises — one
    :class:`MoeRouting` per ``block_m`` from seeded router
    logits; the seed is part of the shape key so differently-routed
    problems never alias in the cache.
    """
    from repro.tuner.search import TuneTask

    space = ag_moe_search_space(m, h, d, world)
    routing_for = routing_memo(m, n_experts, topk, world, router_seed)

    def make_builder(cand: dict):
        routing = routing_for(int(cand["block_m"]))
        cfg = AgMoeConfig(m=m, h=h, d=d, n_experts=n_experts, topk=topk,
                          **cand)

        def build(ctx: DistContext) -> None:
            ctx.alloc("x", (m // world, h), "float16", fill=None)
            ctx.alloc("w1", (n_experts * h, d), "float16", fill=None)
            ctx.alloc("g", (routing.padded_rows, d), "float16", fill=None)
            ag_moe_overlapped(ctx, cfg, routing, "x", "w1", "g")

        return build

    def bound(cand: dict) -> float:
        rows = routing_for(int(cand["block_m"])).padded_rows
        return ag_moe_lower_bound(cand, m=m, h=h, d=d, world=world,
                                  spec=spec, topk=topk, grouped_rows=rows)

    return TuneTask(
        kernel="ag_moe",
        shape_key=f"m{m}h{h}d{d}e{n_experts}t{topk}r{router_seed}",
        space=space,
        default=AgMoeConfig(m=m, h=h, d=d, n_experts=n_experts,
                            topk=topk).tune_candidate(),
        make_builder=make_builder,
        bound=bound,
        finalize=lambda c: AgMoeConfig(m=m, h=h, d=d, n_experts=n_experts,
                                       topk=topk, **c),
    )


def ag_moe_overlapped(
    ctx: DistContext,
    cfg: AgMoeConfig,
    routing: MoeRouting,
    shards_name: str,
    weights_name: str,
    grouped_out_name: str,
    gathered_name: str | None = None,
    grid: int | None = None,
    options: CompileOptions | None = None,
    tag: str = "ag_moe",
) -> list[Process]:
    """Launch the overlapped AG + MoE GroupGEMM on every rank.

    ``weights_name`` must be bound as a 2-d (E*H x D) symmetric tensor (the
    flattened (E, H, D) expert stack).  ``grouped_out_name`` receives the
    padded grouped rows (routing.padded_rows x D).
    """
    world = ctx.world_size
    cfg.validate(world)
    if routing.block_m != cfg.block_m:
        raise ShapeError("routing block_m must match kernel block_m")
    grid = grid or ctx.machine.config.spec.n_sms

    gathered_name = gathered_name or f"{tag}.gathered"
    ctx.alloc(gathered_name, (cfg.m, cfg.h), "float16", fill=None)
    ids_name = f"{tag}.ids"
    ctx.bind(ids_name, [routing.padded_token_ids.copy()
                        for _ in range(world)])
    etile_name = f"{tag}.etile"
    ctx.bind(etile_name, [routing.expert_of_tile.copy()
                          for _ in range(world)])

    # producer side: static AG mapping over the gathered token rows
    ag_mapping = AffineTileMapping(cfg.m, cfg.block_m, world)
    comm_grid = TileGrid(cfg.m, cfg.h, cfg.block_m, cfg.h)
    consumer_grid = TileGrid(routing.padded_rows, cfg.d,
                             cfg.block_m, cfg.block_n)
    channels = ctx.make_block_channels(
        tag, mapping=ag_mapping, comm_grid=comm_grid,
        consumer_grid=consumer_grid, consumer_mapping=routing.mapping)

    banks = [ch.barriers for ch in channels]
    dma_all_gather(ctx, shards_name, gathered_name, banks,
                   stream_name="comm",
                   segment_notifies=ag_mapping.tiles_per_channel)

    return ctx.launch(_ag_moe_group_gemm, grid, dict(
        gathered=ctx.heap.tensors(gathered_name),
        weights2d=ctx.heap.tensors(weights_name),
        ids=ctx.heap.tensors(ids_name),
        expert_of_tile=ctx.heap.tensors(etile_name),
        grouped_out=ctx.heap.tensors(grouped_out_name),
        channel=channels,
        NT=routing.n_tiles, H=cfg.h, D=cfg.d,
        BM=cfg.block_m, BN=cfg.block_n, BK=cfg.block_k,
    ), options=options, label=f"{tag}.group_gemm")


# ---------------------------------------------------------------------------
# Registry: the declarative family record (repro.registry)
# ---------------------------------------------------------------------------

def _record_plan(world: int):
    """Record the analyzer plan of a small :func:`ag_moe_overlapped`."""
    from repro.analyze.model import PlanContext

    m, h, d, n_experts = world * 32, 32, 32, 4
    cfg = AgMoeConfig(m=m, h=h, d=d, n_experts=n_experts, topk=2,
                      block_m=16, block_n=16, block_k=16)
    routing = routing_memo(m, n_experts, cfg.topk, world, 17)(cfg.block_m)
    ctx = PlanContext(f"ag_moe/w{world}", "ag_moe", world)
    ctx.alloc("x", (m // world, h), "float16")
    ctx.alloc("w1", (n_experts * h, d), "float16")
    ctx.alloc("g", (routing.padded_rows, d), "float16")
    ag_moe_overlapped(ctx, cfg, routing, "x", "w1", "g", grid=4)
    # the host copy procs carry no outputs annotation
    ctx.output("ag_moe.gathered")
    return ctx.build()


def _analyze_plans():
    return [
        lambda: _record_plan(world=2),
        lambda: _record_plan(world=4),
    ]


def _bench_builders():
    from repro.bench.experiments import moe_part1_builders

    return moe_part1_builders


def _sweep_entries(shape, *, world: int, spec: HardwareSpec = H800,
                   router_seed: int = 17):
    task = ag_moe_tune_task(shape.s, shape.h, shape.i // world, shape.e,
                            shape.topk, world=world, spec=spec,
                            router_seed=router_seed)
    return [(f"{shape.name}/ag_moe", task)]


def _warm_tasks(world: int, spec: HardwareSpec):
    from repro.models.configs import MOE_BENCHES

    tasks = []
    for shape in MOE_BENCHES:
        tasks.extend(_sweep_entries(shape, world=world, spec=spec))
    return tasks


register_family(
    name="ag_moe",
    doc="AllGather + MoE GroupGEMM (expert-parallel MoE part 1)",
    config_cls=AgMoeConfig,
    kernels=(_ag_moe_group_gemm,),
    launch=ag_moe_overlapped,
    tune_task=lambda: ag_moe_tune_task(512, 128, 128, 4, 2, world=2),
    analyze_plans=_analyze_plans,
    bench_builders=_bench_builders,
    worlds=(2, 4),
    sweep_category="moe",
    sweep_entries=_sweep_entries,
    warm_tasks=_warm_tasks,
)
