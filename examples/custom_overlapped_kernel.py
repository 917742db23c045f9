"""Write, register, and ship a custom overlapped kernel — end to end.

This is the paper's programmability pitch (Table 2: ~200 lines of Python
vs ~2,000 of CUDA) extended to the whole stack.  The workload is a fused
AllGather + row softmax — not in the built-in zoo — and the walkthrough
covers every step from kernel body to consumers:

Quickstart — the fastest path to your own kernel family:

1. author the kernel body as a decorated Python function (``@kernel`` +
   the ``tl`` tile-centric primitives), annotating ``role``/``outputs``;
2. wrap the shapes in a frozen config dataclass and write a launcher
   that wires mappings, channels and the SPMD launch;
3. describe the design space as a ``SearchSpace`` and build a
   ``TuneTask`` over it, so ``repro.tuner.tune(task)`` can search it;
4. make ONE ``repro.registry.register_family()`` call from this module.

After step 4 every consumer resolves the family through the registry
with zero edits anywhere else: ``python -m repro.registry --list`` shows
it, ``repro.analyze`` sweeps its plans, ``fam.tune_task()`` hands the
tuner its task, the bench harness gets its builders.  The analyzer plans
need no hand-written mirror of the launch: each ``analyze_plans`` thunk
(``record_ag_softmax_plan`` below) runs the step-2 launcher itself at a
small size against a recording ``PlanContext``, so the static
synchronization verifier checks the launch that actually runs.  A family
can also contribute a serving ``method`` (see
``repro/kernels/chunk_gemm_rs.py``, which registers ``"tilelink-chunk"``
the same way and appears in ``models.runner``).

Run:  python examples/custom_overlapped_kernel.py
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import DistContext, SimConfig
from repro.analyze import analyze_plan
from repro.errors import ShapeError
from repro.lang import tl
from repro.lang.dsl import kernel
from repro.mapping.layout import TileGrid
from repro.mapping.static import AffineTileMapping
from repro.registry import get_family, register_family
from repro.tuner.search import TuneTask, tune
from repro.tuner.space import Axis, SearchSpace, divisors_of

WORLD = 4


# ---------------------------------------------------------------------------
# Step 1 — the kernel body: two cooperating roles in one launch
# ---------------------------------------------------------------------------

@kernel
def ag_softmax(shards, gathered, out, channel: tl.BlockChannel,
               M: tl.constexpr, N: tl.constexpr, BM: tl.constexpr,
               COMM_BLOCKS: tl.constexpr):
    """Fused AllGather + row softmax: one launch, two cooperating roles."""
    bid = tl.block_id()
    nb = tl.num_blocks()
    n_tiles = tl.cdiv(M, BM)
    world = channel.num_ranks
    tiles_per_rank = n_tiles // world
    if bid < COMM_BLOCKS:
        # communication role: pull peer tiles (own shard first), publish
        for i in range(bid, n_tiles, COMM_BLOCKS):
            src = (channel.rank + i % world) % world
            t = src * tiles_per_rank + i // world
            data = tl.tile_pull_data(shards, t, 0)
            tl.store(gathered, (t * BM, t * BM + BM), (0, N), data)
            tl.producer_tile_notify(t, "p2p")
    else:
        # computation role: wait per tile, then a numerically-stable softmax
        cid = bid - COMM_BLOCKS
        nconsumers = nb - COMM_BLOCKS
        for t in range(cid, n_tiles, nconsumers):
            tl.consumer_tile_wait(t)
            x = tl.load(gathered, (t * BM, t * BM + BM), (0, N))
            m = tl.row_max(x)
            mcol = tl.expand_dims(m)
            e = tl.exp(x - mcol)
            s = tl.row_sum(e)
            scol = tl.expand_dims(s)
            y = e / scol
            tl.store(out, (t * BM, t * BM + BM), (0, N), y)


# the analyzer and the registry both read these annotations
ag_softmax.meta.update(role="fused", comm_axis="m",
                       outputs=("gathered", "out"))


# ---------------------------------------------------------------------------
# Step 2 — config dataclass + launcher
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AgSoftmaxConfig:
    m: int
    n: int
    block_m: int = 32
    comm_blocks: int = 4

    def validate(self, world: int) -> None:
        tiles = self.m // self.block_m
        if self.m % self.block_m or tiles % world:
            raise ShapeError(
                f"M={self.m} must tile evenly into block_m={self.block_m} "
                f"rows across {world} ranks")

    def tune_candidate(self) -> dict:
        return dict(block_m=self.block_m, comm_blocks=self.comm_blocks)


def ag_softmax_overlapped(ctx: DistContext, cfg: AgSoftmaxConfig,
                          shards_name: str, gathered_name: str,
                          out_name: str, grid: int = 12,
                          tag: str = "agsm") -> None:
    cfg.validate(ctx.world_size)
    mapping = AffineTileMapping(cfg.m, cfg.block_m, ctx.world_size)
    grid2d = TileGrid(cfg.m, cfg.n, cfg.block_m, cfg.n)
    channels = ctx.make_block_channels(
        tag, mapping=mapping, comm_grid=grid2d, consumer_grid=grid2d,
        comm_blocks=cfg.comm_blocks)
    ctx.launch(ag_softmax, grid, dict(
        shards=ctx.heap.tensors(shards_name),
        gathered=ctx.heap.tensors(gathered_name),
        out=ctx.heap.tensors(out_name), channel=channels,
        M=cfg.m, N=cfg.n, BM=cfg.block_m, COMM_BLOCKS=cfg.comm_blocks),
        label=tag)


# ---------------------------------------------------------------------------
# Step 3 — tuner hooks: a design space and a task over it
# ---------------------------------------------------------------------------

def ag_softmax_search_space(m: int, n: int, world: int) -> SearchSpace:
    per_rank = m // world
    return SearchSpace(axes=(
        Axis("block_m", divisors_of(per_rank, (16, 32, 64))),
        Axis("comm_blocks", (2, 4)),
    ))


def ag_softmax_tune_task(m: int, n: int, *, world: int = WORLD) -> TuneTask:
    def make_builder(cand: dict):
        cfg = AgSoftmaxConfig(m=m, n=n, **cand)

        def build(ctx: DistContext) -> None:
            ctx.alloc("x", (m // world, n), "float16", fill=None)
            ctx.alloc("g", (m, n), "float16", fill=None)
            ctx.alloc("y", (m, n), "float32", fill=None)
            ag_softmax_overlapped(ctx, cfg, "x", "g", "y")

        return build

    return TuneTask(
        kernel="ag_softmax", shape_key=f"m{m}n{n}",
        space=ag_softmax_search_space(m, n, world),
        default=AgSoftmaxConfig(m=m, n=n).tune_candidate(),
        make_builder=make_builder,
        bound=lambda c: 0.0,        # no analytic floor: simulate everything
        finalize=lambda c: AgSoftmaxConfig(m=m, n=n, **c),
    )


# ---------------------------------------------------------------------------
# Step 4 — ONE registration; every consumer resolves it from here
# ---------------------------------------------------------------------------

def ag_softmax_builders(shape, world: int = WORLD, **_kw):
    """Bench builders: label -> fresh-context builder (Figure-8 style)."""
    m, n = shape.s, shape.h

    def fused(ctx: DistContext) -> None:
        ctx.alloc("x", (m // ctx.world_size, n), "float16", fill=None)
        ctx.alloc("g", (m, n), "float16", fill=None)
        ctx.alloc("y", (m, n), "float32", fill=None)
        ag_softmax_overlapped(ctx, AgSoftmaxConfig(m=m, n=n), "x", "g", "y")

    return {"TileLink-fused": fused}


def record_ag_softmax_plan(world: int):
    """The analyzer plan: the real launcher, recorded at a small size."""
    from repro.analyze.model import PlanContext

    m, n = world * 32, 16
    ctx = PlanContext(f"ag_softmax/w{world}", "ag_softmax", world)
    ctx.alloc("x", (m // world, n), "float16")
    ctx.alloc("g", (m, n), "float16")
    ctx.alloc("y", (m, n), "float32")
    ag_softmax_overlapped(ctx, AgSoftmaxConfig(m=m, n=n, block_m=16,
                                               comm_blocks=2),
                          "x", "g", "y", grid=6)
    return ctx.build()


register_family(
    name="ag_softmax",
    doc="example: fused AllGather + row softmax (tile-pull producer)",
    config_cls=AgSoftmaxConfig,
    kernels=(ag_softmax,),
    launch=ag_softmax_overlapped,
    tune_task=lambda: ag_softmax_tune_task(256, 64),
    analyze_plans=lambda: [lambda: record_ag_softmax_plan(world=2),
                           lambda: record_ag_softmax_plan(world=4)],
    bench_builders=lambda: ag_softmax_builders,
    worlds=(2, 4),
)


# ---------------------------------------------------------------------------
# The payoff: run it, verify it, tune it, bench it — all via the registry
# ---------------------------------------------------------------------------

M, N = 256, 64


def main() -> None:
    fam = get_family("ag_softmax")
    print(f"registered: {fam.name} — {fam.doc}")
    print(f"  provenance {fam.provenance}, worlds {fam.worlds}\n")

    # numerics: launch through the family's own launcher
    ctx = DistContext.create(SimConfig(world_size=WORLD, seed=1))
    rng = np.random.default_rng(1)
    shards = [rng.standard_normal((M // WORLD, N)).astype(np.float16)
              for _ in range(WORLD)]
    ctx.bind("x", shards)
    ctx.alloc("g", (M, N), "float16", fill=None)
    ctx.alloc("y", (M, N), "float32")
    fam.launch(ctx, AgSoftmaxConfig(m=M, n=N), "x", "g", "y")
    total = ctx.run()

    full = np.concatenate(shards).astype(np.float32)
    e = np.exp(full - full.max(axis=1, keepdims=True))
    ref = e / e.sum(axis=1, keepdims=True)
    for r in range(WORLD):
        err = np.max(np.abs(ctx.heap.tensor("y", r).numpy() - ref))
        assert err < 1e-2, (r, err)
    print(f"numerics: correct on {WORLD} ranks (max err < 1e-2), "
          f"simulated {total * 1e6:.1f} us")

    # static verification: the registered plans, checked strictly
    for thunk in fam.analyze_plans():
        plan, extra = thunk()
        report = analyze_plan(plan, extra)
        assert report.ok(strict=True), report.findings
        print(f"analyzer: {plan.name} clean "
              f"({len(plan.threads)} abstract threads)")

    # autotuning: tune the registered task (6 candidates here)
    result = tune(fam.tune_task(), world=WORLD)
    assert result.n_candidates == 6
    assert result.best_time <= result.default_time
    print(f"tuner: best {result.best} at {result.best_time * 1e6:.1f} us "
          f"(default {result.default_time * 1e6:.1f} us, "
          f"{result.n_candidates} candidates)")

    # bench: the builders grid, timed like the Figure-8 tables
    from repro.bench.experiments import run_method_times
    from repro.models.configs import MlpShape
    times = run_method_times(
        fam.bench_builders()(MlpShape("demo", M, N, 4 * N, "example"),
                             world=WORLD),
        world=WORLD)
    for label, t in times.items():
        print(f"bench: {label} {t * 1e6:.1f} us")

    print("\nOne register_family() call wired the kernel into the "
          "analyzer, tuner and bench harness; `python -m repro.registry "
          "--list` now shows it beside the built-in families.")


if __name__ == "__main__":
    main()
