"""The chunk-centric GEMM+ReduceScatter family — and, through it, the
registry's core promise: a family registered purely from its own module
shows up in the analyzer, the tuner, the bench tables and the serving
method axis with zero edits anywhere else.

The grep-isolation test at the bottom enforces that promise machine-
checkably: no other source file under ``src/`` or ``benchmarks/`` may
mention the family.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.analyze import analyze_registered
from repro.bench.experiments import family_builders, mlp_sweep_tasks
from repro.errors import ShapeError
from repro.kernels.chunk_gemm_rs import (
    ChunkGemmRsConfig,
    build_chunk_mapping,
    chunk_gemm_rs_overlapped,
    chunk_gemm_rs_tune_task,
    chunk_layout,
    chunk_spans,
)
from repro.models.configs import MLP_BENCHES, MlpShape, ModelConfig
from repro.models.runner import layer_time
from repro.tuner import tune

from conftest import make_ctx

#: small enough to simulate in-test, large enough for the default tiles
TINY_SHAPE = MlpShape("tiny-mlp", 512, 256, 512, "test")


# ---------------------------------------------------------------------------
# chunk schedule
# ---------------------------------------------------------------------------

def test_chunk_layout_half_then_even():
    # 8 tiles in 3 chunks: a 4-tile head, then two 2-tile tails
    assert chunk_layout(8, 3) == (3, 4, 2)
    assert chunk_spans(8, 3) == [(0, 4), (4, 6), (6, 8)]
    # 4 tiles in 3 chunks: 2-tile head, two 1-tile tails
    assert chunk_spans(4, 3) == [(0, 2), (2, 3), (3, 4)]


@pytest.mark.parametrize("seg_tiles,n_chunks", [
    (1, 1), (1, 4), (2, 2), (5, 2), (7, 3), (8, 8), (3, 16),
])
def test_chunk_spans_partition_the_segment(seg_tiles, n_chunks):
    spans = chunk_spans(seg_tiles, n_chunks)
    assert spans[0][0] == 0 and spans[-1][1] == seg_tiles
    for (a, b), (c, d) in zip(spans, spans[1:]):
        assert b == c and a < b and c < d      # contiguous, non-empty
    assert len(spans) <= max(1, n_chunks)


def test_chunk_mapping_thresholds_and_channels():
    # m=64, block_m=8, world=2 -> 4 tiles/segment, 2 chunks of 2 tiles
    mapping, spans = build_chunk_mapping(64, 8, 2, 2, tiles_n=3)
    assert spans == [(0, 2), (2, 4)]
    assert mapping.n_channels == 4             # world * n_chunks
    for tid in range(8):
        seg, local = divmod(tid, 4)
        ci = next(i for i, (lo, hi) in enumerate(spans) if lo <= local < hi)
        [(ch, thr)] = mapping.wait_list_for_tile(tid)
        assert ch == seg * 2 + ci
        assert thr == 2 * 3                    # tiles-in-chunk x tiles_n


# ---------------------------------------------------------------------------
# numerics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("world,n_chunks,block_m", [
    (2, 1, 16),     # degenerate: one chunk == plain per-segment signaling
    (2, 3, 8),      # variable-size chunks (2-tile head, 1-tile tails)
    (4, 2, 8),      # more ranks than chunks
])
def test_chunk_gemm_rs_numerics(rng, world, n_chunks, block_m):
    m, n, k = 32 * world, 32, 32
    ctx = make_ctx(world)
    xs = [rng.standard_normal((m, k)).astype(np.float16) for _ in range(world)]
    ws = [rng.standard_normal((k, n)).astype(np.float16) for _ in range(world)]
    ctx.bind("x", xs)
    ctx.bind("w", ws)
    ctx.alloc("out", (m // world, n), "float32")
    cfg = ChunkGemmRsConfig(m=m, n=n, k=k, block_m=block_m, block_n=16,
                            block_k=16, block_nr=16, n_chunks=n_chunks)
    chunk_gemm_rs_overlapped(ctx, cfg, "x", "w", "out", grid=16)
    ctx.run()
    total = sum(x.astype(np.float32) @ w.astype(np.float32)
                for x, w in zip(xs, ws))
    for r in range(world):
        ref = total[r * (m // world):(r + 1) * (m // world)]
        got = ctx.heap.tensor("out", r).numpy()
        assert np.max(np.abs(got - ref)) < 0.6, (world, n_chunks, r)


def test_chunk_config_validation():
    with pytest.raises(ShapeError):
        ChunkGemmRsConfig(m=100, n=4, k=4).validate(8)        # M % world
    with pytest.raises(ShapeError):
        ChunkGemmRsConfig(m=64, n=4, k=4, block_m=24).validate(2)


# ---------------------------------------------------------------------------
# the four consumers, each reached only through the registry
# ---------------------------------------------------------------------------

def test_analyzer_plans_are_strict_clean():
    results = list(analyze_registered(["chunk_gemm_rs"]))
    assert len(results) == 3
    for plan, report in results:
        assert report.ok(strict=True), (
            plan.name, [str(f) for f in report.findings])
    # variable-size chunk instantiation is part of the registered sweep
    assert any(plan.name == "chunk_gemm_rs/w2/nc3" for plan, _ in results)


def test_registered_plan_population_grew():
    """The registry-wide sweep covers the six seed families plus the
    chunk family (the PR's 18 -> 20+ plan acceptance gate)."""
    assert len(list(analyze_registered())) >= 20


def test_autotune_small_shape():
    cfg = tune(chunk_gemm_rs_tune_task(512, 128, 128, world=2), world=2,
               max_trials=2).best_config
    assert isinstance(cfg, ChunkGemmRsConfig)
    assert (cfg.m, cfg.n, cfg.k) == (512, 128, 128)
    cfg.validate(2)


def test_sweep_entries_via_registry():
    tasks = mlp_sweep_tasks(MLP_BENCHES[:1], kernels=("chunk_gemm_rs",),
                            world=2)
    [(name, task)] = tasks
    assert name == "MLP-1/chunk_gemm_rs"
    assert task.kernel == "chunk_gemm_rs"
    from repro.bench.experiments import moe_sweep_tasks
    from repro.models.configs import MOE_BENCHES
    with pytest.raises(ValueError, match="unknown MoE sweep kernel"):
        moe_sweep_tasks(MOE_BENCHES[:1], kernels=("chunk_gemm_rs",))


def test_bench_builders_via_registry():
    builders = family_builders("chunk_gemm_rs", TINY_SHAPE, world=2)
    assert set(builders) == {"cuBLAS+NCCL", "TileLink", "TileLink-chunk"}
    from repro.bench.experiments import run_method_times
    times = run_method_times(builders, world=2)
    assert all(t > 0 for t in times.values())


def test_serving_method_via_registry():
    tiny = ModelConfig("tiny", n_layers=2, hidden=256, heads=8, head_dim=32,
                       intermediate=1024, batch=1, seq_len=512)
    chunk = layer_time(tiny, "tilelink-chunk", world=2)
    base = layer_time(tiny, "tilelink", world=2)
    assert chunk > 0 and base > 0
    # the chunk method swaps only the RS slots; same layer, different
    # overlap schedule -> a different (but same-ballpark) time
    assert chunk != base
    assert chunk < 3 * base


# ---------------------------------------------------------------------------
# grep isolation: the registration is genuinely self-contained
# ---------------------------------------------------------------------------

def test_family_is_registered_only_from_its_own_module():
    """No file in ``src/`` or ``benchmarks/`` other than the family's
    own module mentions it — every consumer reached it through the
    registry, not through a hand-edit."""
    root = Path(__file__).resolve().parent.parent
    offenders = []
    for tree in ("src", "benchmarks"):
        for path in (root / tree).rglob("*.py"):
            if path.name == "chunk_gemm_rs.py":
                continue
            if "chunk_gemm_rs" in path.read_text(encoding="utf-8"):
                offenders.append(str(path.relative_to(root)))
    assert not offenders, offenders
