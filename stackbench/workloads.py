"""The four stackbench workloads.

Each workload is built from ``--seed`` in ``__init__`` (that is set-up
time) and then runs identical *passes* over the same inputs.  A pass
calls into the stack's public functions through :class:`Pass`, which
times every operation, catches its failures and collects the simulated
results that go into the pass digest.  Checks that need a second
opinion (numpy oracles, ``serve_reference``, the cost-model lower
bounds) run outside the timed calls.

Sizes: ``full`` is the benchmark; ``quick`` shrinks every input so the
benchmark's own tests can run each workload in seconds.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import shutil
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

from repro import registry
from repro.analyze.registry import analyze_registered
from repro.bench.harness import make_ctx, run_builder
from repro.models.configs import (
    ATTENTION_BENCHES,
    E2E_MODELS,
    MLP_BENCHES,
    MOE_BENCHES,
    MlpShape,
    MoeShape,
)
from repro.models.runner import layer_time
from repro.serve import (
    KVCacheConfig,
    ServerConfig,
    generate_requests,
    resolve_latency_table,
    serve,
    serve_reference,
    summarize,
)
from repro.tuner import TuneCache, sweep, tune
from speed import Speed

WORLD = 8


class Pass:
    """One pass over a workload: timed operations, checks, digest material.

    ``op`` times one call into the stack.  An exception counts as a
    failed operation (a deadlock surfaces as ``DeadlockError``), and the
    call returns ``None``.  Times are wall-clock seconds at reference
    machine speed (:class:`speed.Speed`).  ``check`` counts one
    independent output check.  ``spans``, when a list, receives
    ``(name, start, end, parent)`` tuples for every operation, and
    ``recorder()`` hands out ``recorder_cls`` instances (a
    ``repro.obs.Recorder``) for the stack's own tuner and serving hooks.
    """

    def __init__(self, speed: Speed, spans: list | None = None,
                 recorder_cls=None):
        self.speed = speed
        self.recorder_cls = recorder_cls
        self.recorders: list = []
        self.times: dict[str, list[float]] = {}
        self.material: dict[str, Any] = {}
        self.stats: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.spans = spans
        self.current: str | None = None

    def op(self, kind: str, fn: Callable, *args, collect: bool = True,
           **kwargs):
        if collect:
            gc.collect()
        self.attempted += 1
        self.current = kind
        mark = self.speed.mark()
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            out = None
            self._fail(f"{kind}: {type(exc).__name__}: {exc}")
        t1 = perf_counter()
        self.current = None
        self.times.setdefault(kind, []).append(
            self.speed.normalize(mark, t1 - t0))
        if self.spans is not None:
            self.spans.append((kind, t0, t1, None))
        return out

    def recorder(self):
        """A fresh recorder when this pass records, else ``None``."""
        if self.recorder_cls is None:
            return None
        self.recorders.append(self.recorder_cls())
        return self.recorders[-1]

    def check(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self._fail(f"check failed: {what}")
        return ok

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def seconds(self, kind: str | None = None) -> float:
        if kind is None:
            return sum(sum(v) for v in self.times.values())
        return sum(self.times.get(kind, ()))


class Workload:
    """Inputs built from the seed at construction (set-up), then passes.

    Every workload is constructed as ``cls(seed, size, scratch)``;
    ``scratch`` is a directory it may write to.  ``key_op`` names the
    operation behind the ``op_p50_ms`` metric.
    """

    key_op = ""

    def run_pass(self, p: Pass) -> None:
        raise NotImplementedError

    def finish(self, p: Pass) -> None:
        """Checks that run once, after the timed passes."""

    def close(self) -> None:
        """Release what set-up created."""


def _finite_positive(x) -> bool:
    return isinstance(x, float) and math.isfinite(x) and x > 0


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ---------------------------------------------------------------------------
# paper-kernels
# ---------------------------------------------------------------------------

#: per family: (the family's own column, non-overlap baseline column) of
#: its registered bench builders.  The RingAttention family is itself a
#: baseline: it is timed on its own and stays out of sim.overlap_speedup
#: (ag_attention already pairs Attn-1 TileLink with Torch).
PAPER_COLUMNS = {
    "ag_gemm": ("TileLink", "cuBLAS+NCCL"),
    "gemm_rs": ("TileLink", "cuBLAS+NCCL"),
    "chunk_gemm_rs": ("TileLink-chunk", "cuBLAS+NCCL"),
    "ag_moe": ("TileLink", "cuBLAS+NCCL"),
    "moe_rs": ("TileLink", "cuBLAS+NCCL"),
    "ag_attention": ("TileLink", "Torch"),
    "ring_attention": ("RingAttn", None),
}


class PaperKernels(Workload):
    """Timing mode at paper scale: a few huge simulations."""

    key_op = "layer_time.tilelink"

    def __init__(self, seed: int, size: str, scratch: Path):
        self.seed = seed
        model = {m.name: m for m in E2E_MODELS}["GPT3-6.7B"]
        mlp, moe, attn = MLP_BENCHES[0], MOE_BENCHES[0], ATTENTION_BENCHES[0]
        seq = attn.seq_lens[0]
        if size == "quick":
            model = model.with_tokens(2048)
            mlp = dataclasses.replace(mlp, s=1024)
            moe = dataclasses.replace(moe, s=1024)
            seq = 4096
        self.model = model
        # (family, its builder, baseline builder or None, cost-model bound)
        self.cases = []
        fams = registry.families()
        if set(fams) != set(PAPER_COLUMNS):
            raise RuntimeError(
                f"registered families {sorted(fams)} differ from the "
                f"benchmark's paper columns {sorted(PAPER_COLUMNS)}")
        for fam_name, (tl_col, base_col) in PAPER_COLUMNS.items():
            fam = fams[fam_name]
            if fam.sweep_category == "attention":
                shape = dataclasses.replace(attn, seq_lens=(seq,))
                builders = fam.bench_builders()(attn, seq, WORLD)
            elif fam.sweep_category == "moe":
                shape = moe
                builders = fam.bench_builders()(moe, WORLD)
            else:
                shape = mlp
                builders = fam.bench_builders()(mlp, WORLD)
            (_, task), = fam.sweep_entries(shape, world=WORLD)
            self.cases.append((fam_name, builders[tl_col],
                               builders[base_col] if base_col else None,
                               task.bound(task.default)))

    def run_pass(self, p: Pass) -> None:
        lt, speedups = {}, []
        for method in ("tilelink", "torch"):
            t = p.op(f"layer_time.{method}", layer_time, self.model, method,
                     world=WORLD, seed=self.seed)
            if p.check(f"layer_time {method} finite", _finite_positive(t)):
                lt[method] = t
        paired = [case for case in self.cases if case[2] is not None]
        for fam, tl, base, bound in self.cases:
            t_tl = p.op(f"kernels.{fam}", run_builder, tl, world=WORLD,
                        seed=self.seed)
            ok = p.check(f"{fam} time finite", _finite_positive(t_tl))
            if ok:
                p.check(f"{fam} time {t_tl!r} >= cost-model bound "
                        f"{bound!r}", t_tl >= bound)
                p.stats[f"kernels.{fam}.sim_ms"] = t_tl * 1e3
            p.material[fam] = [t_tl]
            if base is None:
                continue
            t_base = p.op(f"baselines.{fam}", run_builder, base,
                          world=WORLD, seed=self.seed)
            if p.check(f"{fam} baseline time finite",
                       _finite_positive(t_base)) and ok:
                speedups.append(t_base / t_tl)
            p.material[fam].append(t_base)
        p.material["layer_time"] = lt
        if len(lt) == 2:
            p.stats["sim.e2e_speedup"] = lt["torch"] / lt["tilelink"]
        if len(speedups) == len(paired):
            p.stats["sim.overlap_speedup"] = geomean(speedups)


# ---------------------------------------------------------------------------
# tune-sweep
# ---------------------------------------------------------------------------

class TuneSweep(Workload):
    """Cold model-guided and exhaustive sweeps, then warm replays."""

    key_op = "tune.warm_hit"

    def __init__(self, seed: int, size: str, scratch: Path):
        self.scratch = scratch
        self.scratch.mkdir(parents=True, exist_ok=True)
        fams = registry.families()
        # paper shapes with the row count cut to keep one cold sweep to a
        # few seconds (1024 rows is the least every space accepts at
        # world 8); the router seed follows the workload seed
        rows = 1024
        mlp = dataclasses.replace(MLP_BENCHES[0], s=rows,
                                  name=f"MLP-1/s{rows}")
        moe = dataclasses.replace(MOE_BENCHES[0], s=rows,
                                  name=f"MoE-1/s{rows}")
        attn = dataclasses.replace(ATTENTION_BENCHES[0], seq_lens=(16384,))
        self.model_tasks = []
        for fam in fams.values():
            if fam.sweep_entries is None:
                continue
            if fam.sweep_category == "mlp":
                self.model_tasks += fam.sweep_entries(mlp, world=WORLD)
            elif fam.sweep_category == "moe":
                self.model_tasks += fam.sweep_entries(moe, world=WORLD,
                                                      router_seed=seed)
            elif fam.sweep_category == "attention":
                self.model_tasks += fam.sweep_entries(attn, world=WORLD)
        # small shapes at world 4, searched exhaustively
        self.small_world = 4
        small_mlp = MlpShape("small", 512, 256, 1024, "stackbench")
        small_moe = MoeShape("small-moe", 512, 256, 256, 4, 2)
        self.exhaustive_tasks = []
        for fam in fams.values():
            if fam.sweep_entries is None:
                continue
            if fam.sweep_category == "mlp":
                self.exhaustive_tasks += fam.sweep_entries(
                    small_mlp, world=self.small_world)
            elif fam.sweep_category == "moe":
                self.exhaustive_tasks += fam.sweep_entries(
                    small_moe, world=self.small_world, router_seed=seed)
        self.replays = 5 if size == "quick" else 90
        self._n = 0

    def _cache(self) -> TuneCache:
        self._n += 1
        path = self.scratch / f"cache-{self._n}.json"
        return TuneCache(path)

    def run_pass(self, p: Pass) -> None:
        rec = p.recorder()
        cold = {}
        for label, tasks, world, strategy in (
                ("model", self.model_tasks, WORLD, "model"),
                ("exhaustive", self.exhaustive_tasks, self.small_world,
                 "exhaustive")):
            cache = self._cache()
            rep = p.op(f"sweep.{label}", sweep, tasks, world=world,
                       strategy=strategy, cache=cache, recorder=rec)
            if rep is None:
                continue
            cold[label] = (rep, cache, tasks, world, strategy)
            self._check_cold(p, rep, dict(tasks))
        winners = []
        for label, (rep, cache, tasks, world, strategy) in cold.items():
            p.material[label] = [
                [row["name"], row["best"], row["tuned_ms"], row["default_ms"],
                 row["n_simulated"]] for row in rep.rows()]
            for entry in rep.entries:
                p.material[f"{label}:{entry.name}:trials"] = [
                    t for _, t in entry.result.trials]
                winners.append((label, entry, dict(tasks)[entry.name],
                                cache, world, strategy))
        # warm replays: every lookup is a persistent-cache hit
        for _ in range(self.replays):
            for label, entry, task, cache, world, strategy in winners:
                res = p.op("tune.warm_hit", tune, task, world=world,
                           strategy=strategy, cache=cache, recorder=rec,
                           collect=False)
                if res is None:
                    continue
                p.check(f"warm {entry.name} returns the cold winner",
                        res.from_cache and res.best == entry.result.best
                        and res.best_time == entry.result.best_time)
        for label, (rep, *_rest) in cold.items():
            for entry in rep.entries:
                r = entry.result
                p.check(f"{entry.name} best <= default",
                        r.default_time is not None
                        and r.best_time <= r.default_time)
        model = cold.get("model")
        if model is not None:
            rep = model[0]
            p.stats["sim.tuned_speedup"] = geomean(
                e.speedup for e in rep.entries)
        entries = [e for c in cold.values() for e in c[0].entries]
        if entries:
            cands = sum(e.result.n_candidates for e in entries)
            pruned = sum(e.result.n_pruned for e in entries)
            simulated = sum(e.n_simulated for e in entries)
            p.stats.update({
                "tuner.candidates": cands, "tuner.pruned": pruned,
                "tuner.prune_ratio": pruned / cands if cands else 0.0,
                "tuner.simulated": simulated,
                "tuner.sims_per_task": simulated / len(entries)})

    def _check_cold(self, p: Pass, rep, tasks: dict) -> None:
        for entry in rep.entries:
            task = tasks[entry.name]
            if not p.check(f"{entry.name} searched cold",
                           not entry.result.from_cache):
                continue
            for cand, t in entry.result.trials:
                if p.check(f"{entry.name} trial time finite",
                           _finite_positive(t)):
                    p.check(f"{entry.name} trial {t!r} >= cost-model bound",
                            t >= task.bound(cand))

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


# ---------------------------------------------------------------------------
# serve-mix
# ---------------------------------------------------------------------------

class ServeMix(Workload):
    """Serving on the warm shipped latency table: no kernel simulation."""

    key_op = "serve.chat"

    def __init__(self, seed: int, size: str, scratch: Path):
        self.model = {m.name: m for m in E2E_MODELS}["LLaMA2-7B"]
        self.method = "tilelink"
        self.table = resolve_latency_table()
        if self.table is None or not self.table.has(self.model, self.method,
                                                    world=WORLD):
            raise RuntimeError("the shipped latency table has no "
                               "LLaMA2-7B/tilelink entry")
        # load and pre-flatten the table now: pricing it is set-up
        self.table.interpolator(self.model, self.method, world=WORLD)
        n_chat, n_rag = (2000, 500) if size == "quick" else (40000, 4000)
        self.server = ServerConfig(max_batch=32)
        # leg A: the perf-smoke shape (kv-aware, 32k-block pool)
        self.legs = {
            "chat": (generate_requests("chat", n_chat, seed=seed),
                     KVCacheConfig(block_tokens=64, pool_blocks=32768)),
            # leg B: rag on a pool of ~8 average prompts with naive
            # admission, so requests are evicted and re-prefilled
            "rag": (generate_requests("rag", n_rag, seed=seed),
                    KVCacheConfig(block_tokens=64, pool_blocks=256,
                                  admission="naive")),
        }
        self.oracle_prefix = 200 if size == "quick" else 1500

    def _serve(self, reqs, kv, recorder=None):
        return serve(reqs, self.model, self.method, self.table, self.server,
                     world=WORLD, kv=kv, recorder=recorder)

    def run_pass(self, p: Pass) -> None:
        steps = preempt = recompute = 0
        for leg, (reqs, kv) in self.legs.items():
            res = p.op(f"serve.{leg}", self._serve, reqs, kv, p.recorder())
            if res is None:
                continue
            rep = p.op("serve.summarize", summarize, res, leg, self.method,
                       policy=kv.admission)
            if rep is None:
                continue
            p.check(f"{leg}: every request finished",
                    rep.n_requests == len(reqs))
            n = res.n_prefill_steps + res.n_decode_steps
            steps += n
            preempt += res.n_preemptions
            recompute += res.recompute_tokens
            p.material[leg] = [rep.row(), n]
            if leg == "chat":
                p.stats.update({
                    "sim.ttft_p99_s": rep.ttft_p99_s,
                    "sim.tpot_p99_s": rep.tpot_p99_s,
                    "sim.slo_attainment": rep.slo_attainment,
                    "sim_req_per_s": len(reqs) / p.times["serve.chat"][-1]})
        p.stats.update({"serve.steps": steps, "serve.preemptions": preempt,
                        "serve.recompute_tokens": recompute})

    def finish(self, p: Pass) -> None:
        """Oracle: a seeded prefix of each leg through both serving loops."""
        for leg, (reqs, kv) in self.legs.items():
            prefix = reqs[:self.oracle_prefix]
            fast = p.op("oracle.serve", self._serve, prefix, kv)
            ref = p.op("oracle.serve_reference", serve_reference, prefix,
                       self.model, self.method, self.table, self.server,
                       world=WORLD, kv=kv)
            p.check(f"{leg}: serve() == serve_reference() on "
                    f"{len(prefix)} requests",
                    fast is not None and fast == ref)


# ---------------------------------------------------------------------------
# numeric-verify
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class NumericCase:
    """One numeric-mode launch: inputs bound per rank, one output tensor
    compared per rank with a numpy reference."""

    cfg: Any
    inputs: dict[str, list]
    output: str
    output_shape: tuple[int, ...]
    output_dtype: str
    args: tuple
    refs: list[np.ndarray]
    tol: float
    grid: int | None = None
    #: rows of the output that carry results (MoE pads its rows)
    rows: np.ndarray | None = None

    def error(self, ctx, world: int) -> float:
        worst = 0.0
        for r in range(world):
            got = ctx.heap.tensor(self.output, r).numpy().astype(np.float32)
            if self.rows is not None:
                got = got[self.rows]
            worst = max(worst, float(np.max(np.abs(got - self.refs[r]))))
        return worst


def _normal(rng, shape, scale=1.0):
    return (rng.standard_normal(shape) * scale).astype(np.float16)


def _ag_gemm_case(rng, world, mode, size):
    from repro.kernels.ag_gemm import AgGemmConfig

    bm = 16
    m, n, k = world * bm * 2 * size, 32, 64
    xs = [_normal(rng, (m // world, k)) for _ in range(world)]
    ws = [_normal(rng, (k, n)) for _ in range(world)]
    full = np.concatenate(xs).astype(np.float32)
    cfg = AgGemmConfig(m=m, n=n, k=k, block_m=bm, block_n=16, block_k=16,
                       block_mp=bm, comm_blocks=2, mode=mode)
    return NumericCase(cfg, {"x": xs, "w": ws}, "y", (m, n), "float16",
                       ("x", "w", "y"),
                       [full @ w.astype(np.float32) for w in ws], 0.5, grid=8)


def _gemm_rs_case(rng, world, mode, size, chunked=False):
    from repro.kernels.chunk_gemm_rs import ChunkGemmRsConfig
    from repro.kernels.gemm_rs import GemmRsConfig

    bm = 16
    m, n, k = world * bm * 2 * size, 32, 32
    xs = [_normal(rng, (m, k)) for _ in range(world)]
    ws = [_normal(rng, (k, n)) for _ in range(world)]
    total = sum(x.astype(np.float32) @ w.astype(np.float32)
                for x, w in zip(xs, ws))
    rows = m // world
    if chunked:
        cfg = ChunkGemmRsConfig(m=m, n=n, k=k, block_m=8, block_n=16,
                                block_k=16, block_nr=16, n_chunks=3)
    else:
        cfg = GemmRsConfig(m=m, n=n, k=k, block_m=bm, block_n=16,
                           block_k=16, block_mr=bm, block_nr=16,
                           comm_blocks=2, mode=mode)
    return NumericCase(cfg, {"x": xs, "w": ws}, "out", (rows, n), "float32",
                       ("x", "w", "out"),
                       [total[r * rows:(r + 1) * rows] for r in range(world)],
                       0.6, grid=16 if chunked else 8)


def _moe_routing(seed, world, mper, experts, topk, bm):
    from repro.kernels.moe_common import build_moe_routing, random_router_logits

    logits = random_router_logits(mper * world, experts, seed=seed)
    return build_moe_routing(logits, mper, world, topk, block_m=bm)


def _ag_moe_case(rng, world, seed, size):
    from repro.kernels.ag_moe import AgMoeConfig
    from repro.ops.group_gemm import group_gemm_ref

    mper, h, d, e, topk, bm = 32 * size, 64, 48, 4, 2, 16
    m = mper * world
    routing = _moe_routing(seed, world, mper, e, topk, bm)
    xs = [_normal(rng, (mper, h)) for _ in range(world)]
    w1 = [_normal(rng, (e * h, d), 0.1) for _ in range(world)]
    tokens = np.concatenate(xs)
    ids = np.clip(routing.padded_token_ids, 0, m - 1)
    mask = routing.valid_mask
    refs = [group_gemm_ref(tokens, w.reshape(e, h, d), ids,
                           routing.padded_expert_of_row)[mask] for w in w1]
    cfg = AgMoeConfig(m=m, h=h, d=d, n_experts=e, topk=topk, block_m=bm,
                      block_n=16, block_k=16)
    return NumericCase(cfg, {"x": xs, "w1": w1}, "g", (routing.padded_rows, d),
                       "float16", (routing, "x", "w1", "g"), refs, 0.5,
                       grid=8, rows=mask)


def _moe_rs_case(rng, world, seed, size):
    from repro.kernels.moe_rs import MoeRsConfig

    mper, h, d, e, topk, bm = 32 * size, 64, 48, 4, 2, 16
    m = mper * world
    routing = _moe_routing(seed, world, mper, e, topk, bm)
    grouped = [_normal(rng, (routing.padded_rows, d)) for _ in range(world)]
    w2 = [_normal(rng, (e * d, h), 0.1) for _ in range(world)]
    total = np.zeros((m, h), np.float32)
    valid = routing.valid_mask
    for r in range(world):
        out_r = np.zeros((routing.padded_rows, h), np.float32)
        for ex in range(e):
            t0 = int(routing.expert_tile_offsets[ex]) * bm
            t1 = int(routing.expert_tile_offsets[ex + 1]) * bm
            out_r[t0:t1] = grouped[r][t0:t1].astype(np.float32) @ \
                w2[r].reshape(e, d, h)[ex].astype(np.float32)
        weighted = out_r * routing.padded_weights[:, None]
        np.add.at(total, routing.padded_token_ids[valid], weighted[valid])
    cfg = MoeRsConfig(m=m, h=h, d=d, block_m=bm, block_n=16, block_k=16,
                      block_mr=16, block_nr=32)
    return NumericCase(cfg, {"g": grouped, "w2": w2}, "y", (mper, h),
                       "float32", (routing, "g", "w2", "y"),
                       [total[r * mper:(r + 1) * mper] for r in range(world)],
                       0.5, grid=8)


def _attention_case(rng, world, size):
    from repro.kernels.attention import AgAttentionConfig
    from repro.ops.attention import attention_ref, heads_to_seq, seq_to_heads

    heads, dim, s = 2, 16, 128 * world * size
    s_per, width = s // world, heads * dim
    qs, ks, vs = ([_normal(rng, (s_per, width)) for _ in range(world)]
                  for _ in range(3))
    k_full = seq_to_heads(np.concatenate(ks), heads, dim)
    v_full = seq_to_heads(np.concatenate(vs), heads, dim)
    refs = [heads_to_seq(attention_ref(seq_to_heads(qs[r], heads, dim),
                                       k_full, v_full, causal=True,
                                       q_offset=r * s_per))
            for r in range(world)]
    cfg = AgAttentionConfig(heads=heads, head_dim=dim, seq_len=s,
                            causal=True, block_q=16, block_kv=16)
    return NumericCase(cfg, {"q": qs, "k": ks, "v": vs}, "o", (s_per, width),
                       "float32", ("q", "k", "v", "o"), refs, 0.05)


class NumericVerify(Workload):
    """Numeric mode at small shapes, then the static analyzer sweep."""

    key_op = "analyze.sweep"
    world = 4

    def __init__(self, seed: int, size: str, scratch: Path):
        rng = np.random.default_rng(seed)
        self.seed = seed
        scale = 1 if size == "quick" else 2
        w = self.world
        makers = {
            "ag_gemm": lambda mode: _ag_gemm_case(rng, w, mode, scale),
            "gemm_rs": lambda mode: _gemm_rs_case(rng, w, mode, scale),
            "chunk_gemm_rs": lambda mode: _gemm_rs_case(rng, w, mode, scale,
                                                        chunked=True),
            "ag_moe": lambda mode: _ag_moe_case(rng, w, seed, scale),
            "moe_rs": lambda mode: _moe_rs_case(rng, w, seed, scale),
            "ag_attention": lambda mode: _attention_case(rng, w, scale),
            "ring_attention": lambda mode: _attention_case(rng, w, scale),
        }
        self.cases = []     # (label, family, case): every family x mode
        for name, fam in registry.families().items():
            if name not in makers:
                raise RuntimeError(
                    f"no numeric case for registered family {name!r}")
            for mode in fam.modes or (None,):
                label = f"{name}.{mode}" if mode else name
                self.cases.append((label, fam, makers[name](mode)))

    def _run_case(self, fam, case: NumericCase):
        ctx = make_ctx(world=self.world, numerics=True, seed=self.seed)
        for name, arrays in case.inputs.items():
            ctx.bind(name, arrays)
        ctx.alloc(case.output, case.output_shape, case.output_dtype)
        kwargs = {} if case.grid is None else {"grid": case.grid}
        fam.launch(ctx, case.cfg, *case.args, **kwargs)
        return ctx, ctx.run()

    def run_pass(self, p: Pass) -> None:
        for label, fam, case in self.cases:
            out = p.op("numeric", self._run_case, fam, case)
            host = f"kernels.{fam.name}.host_s"
            p.stats[host] = p.stats.get(host, 0.0) + p.times["numeric"][-1]
            if out is None:
                continue
            ctx, t = out
            err = case.error(ctx, self.world)
            p.check(f"{label}: time finite", _finite_positive(t))
            p.check(f"{label}: max |err| {err:.3g} <= {case.tol} vs numpy",
                    err <= case.tol)
            p.material[label] = t
            sim = f"kernels.{fam.name}.sim_ms"
            p.stats[sim] = p.stats.get(sim, 0.0) + t * 1e3
        reports = p.op("analyze.sweep", lambda: list(analyze_registered()))
        if reports is not None:
            for plan, report in reports:
                p.check(f"analyzer: {plan.name} has no errors",
                        not report.errors)
            p.material["analyze"] = sorted(
                (plan.name, len(report.findings)) for plan, report in reports)
            p.stats["analyze.plans"] = len(reports)


WORKLOADS = {
    "paper-kernels": PaperKernels,
    "tune-sweep": TuneSweep,
    "serve-mix": ServeMix,
    "numeric-verify": NumericVerify,
}
