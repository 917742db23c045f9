"""Tests for the backend interpreter: numerics of every tile op + launch."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compiler.program import CompileOptions
from repro.errors import LoweringError, RuntimeLaunchError
from repro.lang import tl
from repro.lang.dsl import kernel
from repro.runtime.launcher import launch_kernel
from tests.conftest import make_ctx


def run1(kdef, grid, args, numerics=True, world=1, options=None):
    ctx = make_ctx(world=world, numerics=numerics)
    for name, arr in args.items():
        if isinstance(arr, np.ndarray):
            ctx.bind(name, [arr.copy() for _ in range(world)])
    bound = {k: (ctx.heap.tensors(k) if isinstance(v, np.ndarray) else v)
             for k, v in args.items()}
    ctx.launch(kdef, grid, bound, options=options)
    t = ctx.run()
    return ctx, t


@kernel
def _elementwise(a, out, N: tl.constexpr):
    x = tl.load(a, (0, N), (0, N))
    y = tl.exp(x) + tl.silu(x) * 0.5 - tl.relu(x) / 2.0
    z = tl.cast(y, "float32")
    tl.store(out, (0, N), (0, N), z)


def test_elementwise_ops_match_numpy(rng):
    N = 8
    a = rng.standard_normal((N, N)).astype(np.float32)
    ctx, _ = run1(_elementwise, 1,
                  {"a": a, "out": np.zeros((N, N), np.float32), "N": N})
    got = ctx.heap.tensor("out", 0).numpy()
    x = a.astype(np.float32)
    ref = np.exp(x) + (x / (1 + np.exp(-x))) * 0.5 - np.maximum(x, 0) / 2
    assert np.allclose(got, ref, rtol=1e-3, atol=1e-3)


@kernel
def _rowops(a, mx, sm, N: tl.constexpr):
    x = tl.load(a, (0, N), (0, N))
    m = tl.row_max(x)
    s = tl.row_sum(x)
    tl.store_vec(mx, (0, N), m)
    tl.store_vec(sm, (0, N), s)


def test_row_reductions(rng):
    N = 6
    a = rng.standard_normal((N, N)).astype(np.float32)
    ctx, _ = run1(_rowops, 1, {"a": a, "mx": np.zeros(N, np.float32),
                               "sm": np.zeros(N, np.float32), "N": N})
    assert np.allclose(ctx.heap.tensor("mx", 0).numpy(), a.max(axis=1),
                       atol=1e-5)
    assert np.allclose(ctx.heap.tensor("sm", 0).numpy(), a.sum(axis=1),
                       atol=1e-4)


@kernel
def _broadcasting(a, v, out, N: tl.constexpr):
    x = tl.load(a, (0, N), (0, N))
    w = tl.load_vec(v, (0, N))
    col = tl.expand_dims(w)
    y = x * col
    tl.store(out, (0, N), (0, N), y)


def test_rowvector_broadcast(rng):
    N = 5
    a = rng.standard_normal((N, N)).astype(np.float32)
    v = rng.standard_normal(N).astype(np.float32)
    ctx, _ = run1(_broadcasting, 1, {"a": a, "v": v,
                                     "out": np.zeros((N, N), np.float32),
                                     "N": N})
    assert np.allclose(ctx.heap.tensor("out", 0).numpy(), a * v[:, None],
                       rtol=1e-4, atol=1e-5)


@kernel
def _edge_tiles(a, out, M: tl.constexpr, BM: tl.constexpr):
    nb = tl.num_blocks()
    bid = tl.block_id()
    tiles = tl.cdiv(M, BM)
    for t in range(bid, tiles, nb):
        x = tl.load(a, (t * BM, t * BM + BM), (0, BM))
        y = x + 1.0
        tl.store(out, (t * BM, t * BM + BM), (0, BM), y)


def test_ragged_edge_tiles(rng):
    M, BM = 10, 4   # last tile is ragged (2 rows)
    a = rng.standard_normal((M, BM)).astype(np.float32)
    ctx, _ = run1(_edge_tiles, 2, {"a": a, "out": np.zeros((M, BM), np.float32),
                                   "M": M, "BM": BM})
    assert np.allclose(ctx.heap.tensor("out", 0).numpy(), a + 1, atol=1e-5)


@kernel
def _atomics(out, N: tl.constexpr, REPS: tl.constexpr):
    ones = tl.full((N, N), 1.0, "float32")
    for _ in range(REPS):
        tl.atomic_add(out, (0, N), (0, N), ones)


def test_atomic_add_accumulates():
    ctx, _ = run1(_atomics, 3, {"out": np.zeros((4, 4), np.float32),
                                "N": 4, "REPS": 5})
    # 3 blocks x 5 reps each
    assert (ctx.heap.tensor("out", 0).numpy() == 15.0).all()


@kernel
def _gather_scatter(src, ids, out, N: tl.constexpr, W: tl.constexpr):
    idx = tl.load_vec(ids, (0, N))
    rows = tl.gather_rows(src, idx, (0, W))
    doubled = rows * 2.0
    tl.scatter_add_rows(out, idx, (0, W), doubled)


def test_gather_and_scatter_rows(rng):
    N, W = 6, 4
    src = rng.standard_normal((10, W)).astype(np.float32)
    ids = np.array([1, 3, 3, 0, 9, 1], dtype=np.int64)
    ctx, _ = run1(_gather_scatter, 1,
                  {"src": src, "ids": ids,
                   "out": np.zeros((10, W), np.float32), "N": N, "W": W})
    ref = np.zeros((10, W), np.float32)
    np.add.at(ref, ids, src[ids] * 2.0)
    assert np.allclose(ctx.heap.tensor("out", 0).numpy(), ref, atol=1e-4)


@kernel
def _scalar_table(table, out, IDX: tl.constexpr, N: tl.constexpr):
    e = tl.load_scalar(table, IDX)
    v = tl.full((N,), 1.0, "float32")
    w = v * (e + 1)
    tl.store_vec(out, (0, N), w)


def test_load_scalar_from_table():
    table = np.array([10, 20, 30], dtype=np.int64)
    ctx, _ = run1(_scalar_table, 1, {"table": table,
                                     "out": np.zeros(4, np.float32),
                                     "IDX": 2, "N": 4})
    assert (ctx.heap.tensor("out", 0).numpy() == 31.0).all()


def test_timing_mode_runs_same_program():
    """The identical kernel runs with data never materialized."""
    ctx, t = run1(_edge_tiles, 2,
                  {"a": np.zeros((64, 16), np.float32),
                   "out": np.zeros((64, 16), np.float32),
                   "M": 64, "BM": 16}, numerics=False)
    assert t > 0
    assert not ctx.heap.tensor("out", 0).materialized


def test_pipelined_loop_faster_than_unpipelined():
    @kernel
    def gemm(a, b, c, M: tl.constexpr, K: tl.constexpr, BK: tl.constexpr):
        acc = tl.zeros((M, M), "float32")
        for k in range(0, K, BK):
            x = tl.load(a, (0, M), (k, k + BK))
            y = tl.load(b, (k, k + BK), (0, M))
            acc += tl.dot(x, y)
        co = tl.cast(acc, "float16")
        tl.store(c, (0, M), (0, M), co)

    args = {"a": np.zeros((128, 2048), np.float16),
            "b": np.zeros((2048, 128), np.float16),
            "c": np.zeros((128, 128), np.float16),
            "M": 128, "K": 2048, "BK": 64}
    _, fast = run1(gemm, 1, dict(args), numerics=False)
    _, slow = run1(gemm, 1, dict(args), numerics=False,
                   options=CompileOptions(num_stages=1))
    assert fast < slow


def test_missing_tensor_binding_raises():
    ctx = make_ctx(world=1)
    with pytest.raises(RuntimeLaunchError, match="missing argument"):
        launch_kernel(ctx.machine, _elementwise, 1, 0, {"N": 4})


def test_undefined_scalar_raises():
    @kernel
    def bad(out, N: tl.constexpr):
        v = tl.full((N,), 1.0, "float32")
        tl.store_vec(out, (0, undefined_name), v)  # noqa: F821

    ctx = make_ctx(world=1)
    ctx.alloc("out", (4,), "float32")
    launch_kernel(ctx.machine, bad, 1, 0,
                  {"out": ctx.heap.tensors("out"), "N": 4})
    with pytest.raises(LoweringError, match="undefined scalar"):
        ctx.run()


def test_grid_must_be_positive():
    ctx = make_ctx(world=1)
    ctx.alloc("out", (4, 4), "float32")
    with pytest.raises(RuntimeLaunchError):
        launch_kernel(ctx.machine, _elementwise, 0, 0,
                      {"a": ctx.heap.tensors("out"),
                       "out": ctx.heap.tensors("out"), "N": 4})


@kernel
def _countdown_inner(a, out, N: tl.constexpr, T: tl.constexpr):
    acc = tl.zeros((N, N), "float32")
    for i in range(0, 2):
        for j in range(T, 0, -1):
            x = tl.load(a, (0, N), (0, N))
            acc += tl.dot(x, x)
    tl.store(out, (0, N), (0, N), acc)


@kernel
def _countup_inner(a, out, N: tl.constexpr, T: tl.constexpr):
    acc = tl.zeros((N, N), "float32")
    for i in range(0, 2):
        for j in range(0, T):
            x = tl.load(a, (0, N), (0, N))
            acc += tl.dot(x, x)
    tl.store(out, (0, N), (0, N), acc)


def test_negative_step_inner_loop_is_priced_like_positive_step(rng):
    """A negative-step loop nested in an aggregable loop runs the same
    number of trips as its positive-step twin, so the cost probe must
    price it the same (it used to count zero trips: a free loop)."""
    N, T = 64, 8
    a = rng.standard_normal((N, N)).astype(np.float32)
    results = []
    for kdef in (_countdown_inner, _countup_inner):
        ctx, t = run1(kdef, 1, {"a": a, "out": np.zeros((N, N), np.float32),
                                "N": N, "T": T})
        results.append((t, ctx.heap.tensor("out", 0).numpy()))
    (t_down, out_down), (t_up, out_up) = results
    assert t_down == t_up
    assert np.array_equal(out_down, out_up)
    assert np.allclose(out_up, 2 * T * (a @ a), rtol=1e-4, atol=1e-3)


@kernel
def _gather_by_table(table, src, out, N: tl.constexpr, B: tl.constexpr):
    for i in range(0, N):
        r = tl.load_scalar(table[0], i)
        x = tl.load(src, (r * B, r * B + B), (0, B))
        tl.store(out, (i * B, i * B + B), (0, B), x)


def test_load_after_load_scalar_reads_this_iterations_address():
    """Regression: the pipelined loop used to prefetch ``x`` with the
    previous iteration's ``r`` (rows read [12 14 12 14 0 2 8 10])."""
    N, B = 4, 2
    src = np.arange(N * B * B, dtype=np.float32).reshape(N * B, B)
    ctx, _ = run1(_gather_by_table, 1, {
        "table": np.array([3, 0, 2, 1], dtype=np.int64), "src": src,
        "out": np.zeros((N * B, B), np.float32), "N": N, "B": B})
    got = ctx.heap.tensor("out", 0).numpy()
    assert got[:, 0].tolist() == [12, 14, 0, 2, 8, 10, 4, 6]
