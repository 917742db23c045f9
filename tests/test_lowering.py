"""Golden differential suite: the lowered backend against the reference walker.

``repro.compiler.interp`` lowers each program to generated Python;
``tests/interp_reference.py`` keeps the tree-walking interpreter it
replaced.  Every registered family runs on both, in numeric mode (equal
simulated end time, equal outputs), in timing mode through its bench
builders (equal end time) and with tracing on (equal trace records).
Error cases must raise the same exception class with the same message.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.runtime.launcher as launcher
from repro import registry
from repro.bench.harness import make_ctx as bench_ctx
from repro.compiler.interp import lower, lowered_source
from repro.compiler.program import CompileOptions, compile_kernel
from repro.errors import LoweringError, RuntimeLaunchError, ShapeError, SimulationError
from repro.lang import tl
from repro.lang.dsl import kernel
from repro.models.configs import ATTENTION_BENCHES, MLP_BENCHES, MOE_BENCHES
from repro.runtime.launcher import launch_kernel
from tests import interp_reference
from tests import test_consistency_numerics as consistency
from tests import test_interp as zoo
from tests.conftest import make_ctx

WORLD = 4


def both(monkeypatch, fn):
    """``(lowered result, reference result)`` of ``fn()``."""
    lowered = fn()
    with monkeypatch.context() as mp:
        mp.setattr(launcher, "lower", interp_reference.lower)
        reference = fn()
    return lowered, reference


def outcome(fn):
    """``fn()``'s result, or the class and message of what it raised."""
    try:
        return fn()
    except Exception as exc:  # compared across backends, never swallowed
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# every registered family x mode, numeric mode at small shapes
# ---------------------------------------------------------------------------


def _half(rng, shape, scale=1.0):
    return (rng.standard_normal(shape) * scale).astype(np.float16)


def _mlp_case(name, mode, rng):
    from repro.kernels.ag_gemm import AgGemmConfig
    from repro.kernels.chunk_gemm_rs import ChunkGemmRsConfig
    from repro.kernels.gemm_rs import GemmRsConfig

    m, n, k = 256, 96, 64
    if name == "ag_gemm":
        inputs = {"x": [_half(rng, (m // WORLD, k)) for _ in range(WORLD)],
                  "w": [_half(rng, (k, n)) for _ in range(WORLD)]}
        cfg = AgGemmConfig(m=m, n=n, k=k, block_m=32, block_n=32, block_k=32,
                           block_mp=32, comm_blocks=4, mode=mode)
        return cfg, inputs, ("y", (m, n), "float16"), ("x", "w", "y")
    inputs = {"x": [_half(rng, (m, k)) for _ in range(WORLD)],
              "w": [_half(rng, (k, n)) for _ in range(WORLD)]}
    if name == "gemm_rs":
        cfg = GemmRsConfig(m=m, n=n, k=k, block_m=32, block_n=32, block_k=32,
                           block_mr=32, block_nr=48, comm_blocks=4, mode=mode)
    else:
        cfg = ChunkGemmRsConfig(m=m, n=n, k=k, block_m=16, block_n=16,
                                block_k=16, block_nr=16, n_chunks=3)
    return cfg, inputs, ("out", (m // WORLD, n), "float32"), ("x", "w", "out")


def _moe_case(name, mode, rng):
    from repro.kernels.ag_moe import AgMoeConfig
    from repro.kernels.moe_common import build_moe_routing, random_router_logits
    from repro.kernels.moe_rs import MoeRsConfig

    mper, h, d, e, topk, bm = 64, 64, 48, 4, 2, 16
    m = mper * WORLD
    routing = build_moe_routing(random_router_logits(m, e, seed=7), mper,
                                WORLD, topk, block_m=bm)
    if name == "ag_moe":
        inputs = {"x": [_half(rng, (mper, h)) for _ in range(WORLD)],
                  "w1": [_half(rng, (e * h, d), 0.1) for _ in range(WORLD)]}
        cfg = AgMoeConfig(m=m, h=h, d=d, n_experts=e, topk=topk, block_m=bm,
                          block_n=16, block_k=16)
        return (cfg, inputs, ("g", (routing.padded_rows, d), "float16"),
                (routing, "x", "w1", "g"))
    inputs = {"g": [_half(rng, (routing.padded_rows, d)) for _ in range(WORLD)],
              "w2": [_half(rng, (e * d, h), 0.1) for _ in range(WORLD)]}
    cfg = MoeRsConfig(m=m, h=h, d=d, block_m=bm, block_n=16, block_k=16,
                      block_mr=16, block_nr=32)
    return cfg, inputs, ("y", (mper, h), "float32"), (routing, "g", "w2", "y")


def _attention_case(name, mode, rng):
    from repro.kernels.attention import AgAttentionConfig

    heads, dim, s = 2, 16, 256
    inputs = {t: [_half(rng, (s // WORLD, heads * dim)) for _ in range(WORLD)]
              for t in ("q", "k", "v")}
    cfg = AgAttentionConfig(heads=heads, head_dim=dim, seq_len=s, causal=True,
                            block_q=16, block_kv=16)
    return (cfg, inputs, ("o", (s // WORLD, heads * dim), "float32"),
            ("q", "k", "v", "o"))


_CASES = {"mlp": _mlp_case, "moe": _moe_case, "attention": _attention_case}


def _family_modes():
    registry.discover()
    return [(name, mode) for name, fam in registry.families().items()
            for mode in fam.modes or (None,)]


@pytest.mark.parametrize("name,mode", _family_modes())
def test_numeric_mode_matches_reference(monkeypatch, name, mode):
    fam = registry.get_family(name)

    def run():
        rng = np.random.default_rng(12345)
        cfg, inputs, (out, shape, dtype), args = \
            _CASES[fam.sweep_category](name, mode, rng)
        ctx = make_ctx(WORLD, numerics=True)
        for tensor, arrays in inputs.items():
            ctx.bind(tensor, arrays)
        ctx.alloc(out, shape, dtype)
        fam.launch(ctx, cfg, *args)
        t = ctx.run()
        return t, [ctx.heap.tensor(out, r).numpy() for r in range(WORLD)]

    (t, outs), (t_ref, outs_ref) = both(monkeypatch, run)
    assert t == t_ref
    assert all(np.array_equal(a, b) for a, b in zip(outs, outs_ref))


# ---------------------------------------------------------------------------
# timing mode (and tracing) through every family's bench builders
# ---------------------------------------------------------------------------


def _builders(fam):
    if fam.sweep_category == "attention":
        return fam.bench_builders()(ATTENTION_BENCHES[0], 4096, 8)
    if fam.sweep_category == "moe":
        return fam.bench_builders()(
            dataclasses.replace(MOE_BENCHES[0], s=1024), 8)
    return fam.bench_builders()(dataclasses.replace(MLP_BENCHES[0], s=1024), 8)


@pytest.mark.parametrize("trace", [False, True], ids=["timing", "traced"])
@pytest.mark.parametrize("name", sorted({n for n, _ in _family_modes()}))
def test_timing_mode_matches_reference(monkeypatch, name, trace):
    builders = _builders(registry.get_family(name))

    def run():
        out = {}
        for column, build in builders.items():
            ctx = bench_ctx(world=8, trace=trace)
            build(ctx)
            t = ctx.run()
            out[column] = (t, list(ctx.machine.trace.intervals))
        return out

    lowered, reference = both(monkeypatch, run)
    assert lowered == reference
    if trace:
        assert any(records for _, records in lowered.values())


# ---------------------------------------------------------------------------
# backend corner cases: prefetch, aggregation, ragged tiles, atomics
# ---------------------------------------------------------------------------


_ZOO = [
    (zoo._elementwise, 1, lambda rng: {
        "a": rng.standard_normal((8, 8)).astype(np.float32),
        "out": np.zeros((8, 8), np.float32), "N": 8}),
    (zoo._rowops, 1, lambda rng: {
        "a": rng.standard_normal((6, 6)).astype(np.float32),
        "mx": np.zeros(6, np.float32), "sm": np.zeros(6, np.float32), "N": 6}),
    (zoo._broadcasting, 1, lambda rng: {
        "a": rng.standard_normal((5, 5)).astype(np.float32),
        "v": rng.standard_normal(5).astype(np.float32),
        "out": np.zeros((5, 5), np.float32), "N": 5}),
    (zoo._edge_tiles, 2, lambda rng: {
        "a": rng.standard_normal((10, 4)).astype(np.float32),
        "out": np.zeros((10, 4), np.float32), "M": 10, "BM": 4}),
    (zoo._atomics, 3, lambda rng: {
        "out": np.zeros((4, 4), np.float32), "N": 4, "REPS": 5}),
    (zoo._gather_scatter, 1, lambda rng: {
        "src": rng.standard_normal((10, 4)).astype(np.float32),
        "ids": np.array([1, 3, 3, 0, 9, 1], dtype=np.int64),
        "out": np.zeros((10, 4), np.float32), "N": 6, "W": 4}),
    (zoo._scalar_table, 1, lambda rng: {
        "table": np.array([10, 20, 30], dtype=np.int64),
        "out": np.zeros(4, np.float32), "IDX": 2, "N": 4}),
    (zoo._countdown_inner, 1, lambda rng: {
        "a": rng.standard_normal((16, 16)).astype(np.float32),
        "out": np.zeros((16, 16), np.float32), "N": 16, "T": 4}),
    (zoo._gather_by_table, 1, lambda rng: {
        "table": np.array([3, 0, 2, 1], dtype=np.int64),
        "src": np.arange(16, dtype=np.float32).reshape(8, 2),
        "out": np.zeros((8, 2), np.float32), "N": 4, "B": 2}),
]


@pytest.mark.parametrize("numerics", [True, False], ids=["numeric", "timing"])
@pytest.mark.parametrize("kdef,grid,make", _ZOO,
                         ids=[k.name for k, _, _ in _ZOO])
def test_kernel_zoo_matches_reference(monkeypatch, kdef, grid, make, numerics):
    def run():
        args = make(np.random.default_rng(3))
        ctx, t = zoo.run1(kdef, grid, args, numerics=numerics)
        outs = [ctx.heap.tensor(k, 0).data for k, v in args.items()
                if isinstance(v, np.ndarray)]
        return t, outs

    (t, outs), (t_ref, outs_ref) = both(monkeypatch, run)
    assert t == t_ref
    for a, b in zip(outs, outs_ref):
        assert (a is None and b is None) or np.array_equal(a, b)


@pytest.mark.parametrize("options", [
    CompileOptions(),
    CompileOptions(enforce_consistency=False, validate=False),
    CompileOptions(num_stages=1),
], ids=["consistent", "hoisted", "unpipelined"])
def test_prefetch_and_pinned_loads_match_reference(monkeypatch, options):
    out, ref = both(monkeypatch, lambda: consistency._run(options))
    assert np.array_equal(out, ref)


# ---------------------------------------------------------------------------
# error parity
# ---------------------------------------------------------------------------


@kernel
def _undefined_scalar(out, N: tl.constexpr):
    v = tl.full((N,), 1.0, "float32")
    tl.store_vec(out, (0, missing), v)  # noqa: F821


@kernel
def _branch_defined(out, N: tl.constexpr):
    if N > 8:
        lo = 0
    v = tl.full((N,), 1.0, "float32")
    tl.store_vec(out, (lo, lo + N), v)


@kernel
def _negative_extent(a, out, N: tl.constexpr):
    x = tl.load(a, (N, 0), (0, N))
    tl.store(out, (0, N), (0, N), x)


@kernel
def _dot_mismatch(a, out, N: tl.constexpr):
    x = tl.load(a, (0, N), (0, N - 1))
    y = tl.dot(x, x)
    tl.store(out, (0, N), (0, N), y)


@kernel
def _step_zero(a, out, N: tl.constexpr, S: tl.constexpr):
    for i in range(0, N, S):
        x = tl.load(a, (0, N), (0, N))
        tl.store(out, (0, N), (0, N), x)


@kernel
def _dynamic_step_zero(a, out, N: tl.constexpr):
    s = tl.block_id()
    acc = tl.zeros((N, N), "float32")
    for i in range(0, N, s):
        x = tl.load(a, (0, N), (0, N))
        acc += x
    tl.store(out, (0, N), (0, N), acc)


@kernel
def _primitive_without_channel(out, N: tl.constexpr):
    tl.consumer_tile_wait(0)


@kernel
def _return_in_aggregable_loop(a, out, N: tl.constexpr):
    acc = tl.zeros((N, N), "float32")
    tl.store(out, (0, N), (0, N), acc)
    for k in range(0, 4):
        x = tl.load(a, (0, N), (0, N))
        acc += tl.dot(x, x)
        if k == 2:
            return
    tl.store(out, (0, N), (0, N), acc)


@kernel
def _negative_zeros_dot(a, out, N: tl.constexpr, K: tl.constexpr):
    z = tl.zeros((K, N), "float32")
    x = tl.load(a, (0, N), (0, N))
    y = tl.dot(z, x)
    tl.store(out, (0, N), (0, N), y)


_ERRORS = [
    (_undefined_scalar, {"N": 4}, LoweringError),
    (_branch_defined, {"N": 4}, LoweringError),
    (_negative_extent, {"N": 4}, ShapeError),
    (_dot_mismatch, {"N": 4}, ShapeError),
    (_step_zero, {"N": 4, "S": 0}, SimulationError),
    (_dynamic_step_zero, {"N": 4}, SimulationError),
    (_primitive_without_channel, {"N": 4}, LoweringError),
    (_return_in_aggregable_loop, {"N": 4}, None),
    # numpy rejects the negative dim in numeric mode; timing mode fails at
    # the dot's cost (a negative tile has a complex efficiency)
    (_negative_zeros_dot, {"N": 4, "K": -2}, {True: ValueError, False: TypeError}),
]


@pytest.mark.parametrize("numerics", [True, False], ids=["numeric", "timing"])
@pytest.mark.parametrize("kdef,consts,expected", _ERRORS,
                         ids=[k.name for k, _, _ in _ERRORS])
def test_errors_match_reference(monkeypatch, kdef, consts, expected, numerics):
    def run():
        ctx = make_ctx(world=1, numerics=numerics)
        ctx.bind("a", [np.ones((4, 4), np.float32)])
        ctx.alloc("out", (4, 4), "float32")
        args = {"a": ctx.heap.tensors("a"), "out": ctx.heap.tensors("out")}
        params = kdef.ir.params
        # skip the compile-time analyzer so the backend sees the misuse
        launch_kernel(ctx.machine, kdef, 1, 0,
                      {k: v for k, v in {**args, **consts}.items()
                       if k in params},
                      options=CompileOptions(validate=False))
        t = ctx.run()
        return t, ctx.heap.tensor("out", 0).data

    lowered, reference = both(monkeypatch, lambda: outcome(run))
    if expected is None:
        (t, out), (t_ref, out_ref) = lowered, reference
        assert t == t_ref
        assert (out is None and out_ref is None) or np.array_equal(out, out_ref)
    else:
        if isinstance(expected, dict):
            expected = expected[numerics]
        assert lowered[0] is expected
        assert lowered == reference


@kernel
def _copy_rows(a, out, M: tl.constexpr, BM: tl.constexpr):
    for t in range(tl.block_id(), tl.cdiv(M, BM), tl.num_blocks()):
        x = tl.load(a, (t * BM, t * BM + BM), (0, BM))
        tl.store(out, (t * BM, t * BM + BM), (0, BM), x)


def test_lowering_is_generated_once_per_program_and_mode():
    prog = compile_kernel(_copy_rows, {"M": 10, "BM": 4})
    assert prog.lowered == {}               # nothing generated at compile
    ctx = make_ctx(world=1, numerics=False)
    ctx.alloc("a", (10, 4), "float32")
    ctx.alloc("out", (10, 4), "float32")
    for _ in range(2):
        launch_kernel(ctx.machine, _copy_rows, 2, 0, {
            "a": ctx.heap.tensors("a"), "out": ctx.heap.tensors("out"),
            "M": 10, "BM": 4})
    assert prog.lowered == {}               # nor at launch: at first run
    ctx.run()
    assert list(prog.lowered) == [False]
    assert lower(prog, False) is prog.lowered[False]
    assert "for s_t in" in lowered_source(prog, False)


def test_injected_fault_unwinds_a_block_like_the_reference(monkeypatch):
    """``Process.throw`` failure injection must reach the block: generated
    code catches nothing broadly, so the fault ends that block (releasing
    its SM) and the rest of the grid runs on as under the walker."""
    def run():
        ctx = make_ctx(world=1, numerics=True)
        ctx.bind("a", [np.arange(160, dtype=np.float32).reshape(40, 4)])
        ctx.alloc("out", (40, 4), "float32")
        launch_kernel(ctx.machine, _copy_rows, 2, 0, {
            "a": ctx.heap.tensors("a"), "out": ctx.heap.tensors("out"),
            "M": 40, "BM": 4})
        sim = ctx.machine.sim
        sim.run(until=5e-6)
        block = next(p for p in sim._procs if p.name.endswith("b1]"))
        assert not block.done
        block.throw(RuntimeError("injected fault"))
        assert block.done
        return ctx.run(), ctx.heap.tensor("out", 0).numpy().copy()

    (t, out), (t_ref, out_ref) = both(monkeypatch, run)
    assert t == t_ref
    assert np.array_equal(out, out_ref)
    assert not out[4:8].any()       # block 1's first tile was never stored


# ---------------------------------------------------------------------------
# static tile shapes: fallbacks stay exact, hoisting is once per block
# ---------------------------------------------------------------------------


@kernel
def _dynamic_extent(table, a, out, N: tl.constexpr):
    n = tl.load_scalar(table, 0)
    acc = tl.zeros((N, N), "float32")
    for k in range(0, 3):
        x = tl.load(a, (0, N), (0, n))
        y = tl.load(a, (0, n), (0, N))
        acc += tl.dot(x, y)
    tl.store(out, (0, N), (0, N), acc)


@kernel
def _peer_rows(a, out, N: tl.constexpr, PEER: tl.constexpr):
    acc = tl.zeros((N, N), "float32")
    for k in range(0, 3):
        x = tl.load(a[PEER], (k, k + N), (0, N))
        y = tl.load(a, (k, k + N), (0, N))
        acc += x + y
    tl.store(out, (0, N), (0, N), acc)


@kernel
def _acc_rows(a, out, N: tl.constexpr):
    acc = tl.zeros((N, N), "float32")
    for k in range(0, 3):
        x = tl.load(a, (k, k + N), (0, N))
        acc += tl.dot(x, x)
    tl.store(out, (0, N), (0, N), acc)


def _launch_each(kdef, world, arrays, per_rank, mode):
    """Launch ``kdef`` once per rank with ``per_rank(ctx, rank)``'s
    arguments; returns end time, every output and the trace."""
    ctx = make_ctx(world=world, numerics=mode == "numeric",
                   trace=mode == "traced")
    for name, arr in arrays.items():
        ctx.bind(name, [arr.copy() for _ in range(world)])
    ctx.alloc("out", (4, 4), "float32")
    for rank in range(world):
        launch_kernel(ctx.machine, kdef, 2, rank, per_rank(ctx, rank),
                      options=CompileOptions(validate=False))
    t = ctx.run()
    outs = [ctx.heap.tensor("out", r).data for r in range(world)]
    return t, outs, list(ctx.machine.trace.intervals)


def _rows(ctx, rank):
    return {"a": ctx.heap.tensors("a"), "out": ctx.heap.tensors("out"), "N": 4}


_FALLBACKS = {
    # extents read from a tensor: no static shape, the general form
    "dynamic_extent": (_dynamic_extent, 1, lambda ctx, rank: {
        **_rows(ctx, rank), "table": ctx.heap.tensors("table")}),
    # a rank=-indexed load inside an aggregable loop stays per tile
    "peer_rows": (_peer_rows, 2, lambda ctx, rank: {
        **_rows(ctx, rank), "PEER": 1}),
    # a parameter bound to another rank's instance: the local-tensor
    # guard fails and the probe runs per tile, reading remotely
    "remote_instance": (_acc_rows, 2, lambda ctx, rank: {
        **_rows(ctx, rank), "a": ctx.heap.tensor("a", 1 - rank)}),
    "static": (_acc_rows, 2, _rows),
}


@pytest.mark.parametrize("mode", ["timing", "traced", "numeric"])
@pytest.mark.parametrize("case", sorted(_FALLBACKS))
def test_static_shape_fallbacks_match_reference(monkeypatch, case, mode):
    kdef, world, per_rank = _FALLBACKS[case]
    rng = np.random.default_rng(5)
    arrays = {"a": rng.standard_normal((8, 4)).astype(np.float32),
              "table": np.array([2, 0], dtype=np.int64)}
    (t, outs, trace), (t_ref, outs_ref, trace_ref) = both(
        monkeypatch, lambda: _launch_each(kdef, world, arrays, per_rank, mode))
    assert t == t_ref
    assert trace == trace_ref
    for a, b in zip(outs, outs_ref):
        assert (a is None and b is None) or np.array_equal(a, b)
    if mode == "traced":
        assert trace


_BAD_BINDINGS = {
    "missing": lambda ctx: None,
    "not_a_tensor": lambda ctx: "a",
    "rank_out_of_range": lambda ctx: ctx.heap.tensors("a")[:1],
    # no prologue read: the op's general form meets the string itself
    "list_of_non_tensors": lambda ctx: ["a", "a"],
}


@pytest.mark.parametrize("numerics", [True, False], ids=["numeric", "timing"])
@pytest.mark.parametrize("param", ["a", "out"])
@pytest.mark.parametrize("bad", sorted(_BAD_BINDINGS))
def test_hoisted_op_binding_errors_match_reference(monkeypatch, bad, param,
                                                   numerics):
    """A bad binding of a hoisted load (``a``) or store (``out``) raises
    at the op, as under the walker, not in the block prologue."""
    def run():
        ctx = make_ctx(world=2, numerics=numerics)
        ctx.bind("a", [np.ones((8, 4), np.float32)] * 2)
        ctx.alloc("out", (4, 4), "float32")
        args = {**_rows(ctx, 1), param: _BAD_BINDINGS[bad](ctx)}
        launch_kernel(ctx.machine, _acc_rows, 1, 1, args,
                      options=CompileOptions(validate=False))
        return ctx.run()

    lowered, reference = both(monkeypatch, lambda: outcome(run))
    assert lowered == reference
    if bad != "list_of_non_tensors":
        assert lowered[0] is RuntimeLaunchError


def test_static_costs_are_computed_once_per_block(monkeypatch):
    """Paper-shape GEMM+RS (MLP-1, world 8): the dot's tile efficiency and
    the affine mapping lookups are paid per block, not per tile."""
    from repro.kernels.gemm_rs import GemmRsConfig, gemm_rs_overlapped
    from repro.mapping.static import AffineTileMapping
    from repro.sim.costmodel import CostModel

    calls = {}

    def counted(cls, name):
        fn = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(cls, name, wrapper)

    counted(CostModel, "tile_efficiency")
    for name in ("channel_of", "rank_of", "wait_list"):
        counted(AffineTileMapping, name)
    world, shape = 8, MLP_BENCHES[0]
    cfg = GemmRsConfig(m=shape.s, n=shape.h, k=shape.i // world)
    ctx = bench_ctx(world=world)
    ctx.bind("x", [np.zeros((cfg.m, cfg.k), np.float16)] * world)
    ctx.bind("w", [np.zeros((cfg.k, cfg.n), np.float16)] * world)
    ctx.alloc("out", (cfg.m // world, cfg.n), "float32")
    gemm_rs_overlapped(ctx, cfg, "x", "w", "out")
    ctx.run()
    blocks = sum(p.name.endswith("]") and "b" in p.name.rsplit("[", 1)[-1]
                 for p in ctx.machine.sim._procs)
    tiles_m = cfg.m // cfg.block_m
    assert world * tiles_m * (cfg.n // cfg.block_n) > 4 * blocks
    assert 0 < calls["tile_efficiency"] <= blocks
    # memoized: once per rank and tile id
    assert 0 < calls["channel_of"] + calls.get("rank_of", 0) <= world * tiles_m
    assert 0 < calls["wait_list"] <= world * (cfg.m // cfg.block_mr)
