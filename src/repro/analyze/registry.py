"""Plan builders + structural IR checks for the registered kernels.

Each ``build_*_plan`` function mirrors its family's ``*_overlapped``
launcher — same channel construction, constexpr binding, launch streams
and host comm threads — but at a small concrete instantiation (world in
{2, 4, 8}, a few tile-grid shapes) and against abstract signal banks, so
the whole producer/consumer chain can be checked without simulating it.

:data:`FAMILIES` is a lazy view over :mod:`repro.registry`: every kernel
family declares its shipped plan instantiations in its
``register_family(analyze_plans=...)`` hook, and
:func:`analyze_registered` sweeps them — it is what both the
``python -m repro.analyze`` CLI and the mutant tests drive.

:func:`structural_check_ir` is the compile-time half: purely syntactic
rules over one :class:`~repro.lang.ir.KernelIR` (primitive arity, notify
modes, missing channels, rank/block-divergent ``barrier_all``) that run
on every ``compile_kernel(..., validate=True)`` via
:func:`check_compiled_ir`.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Callable, Iterator

from repro.analyze.checks import analyze_plan
from repro.analyze.findings import Finding, Report
from repro.analyze.model import LaunchPlan, PlanBuilder
from repro.errors import AnalysisError
from repro.lang.ir import (
    Const,
    If,
    KernelIR,
    Primitive,
    expr_refs,
    walk_with_parents,
)
from repro.mapping.dynamic import TableTileMapping
from repro.mapping.layout import TileGrid
from repro.mapping.static import AffineTileMapping

# ---------------------------------------------------------------------------
# structural (compile-time) checks
# ---------------------------------------------------------------------------

#: primitive -> (min positional args, max positional args)
_PRIMITIVE_ARITY: dict[str, tuple[int, int]] = {
    "producer_tile_notify": (1, 2),
    "consumer_tile_wait": (1, 1),
    "peer_tile_notify": (2, 2),
    "peer_tile_wait": (2, 2),
    "tile_push_data": (4, 4),
    "tile_pull_data": (2, 3),
    "barrier_all": (0, 0),
}

_NOTIFY_MODES = ("p2p", "broadcast")


def _const_value(arg: Any) -> Any:
    return arg.value if isinstance(arg, Const) else arg


def _taint_sets(ir: KernelIR) -> tuple[set[str], set[str]]:
    """Scalar names (transitively) derived from channel.rank / block id."""
    rank_taint = {"channel.rank"}
    bid_taint = {"$bid"}
    for _ in range(2):  # two passes reach a fixpoint for straight-line defs
        for s in ir.walk_stmts():
            target = getattr(s, "target", None)
            value = getattr(s, "value", None)
            if target is None or value is None:
                continue
            refs = expr_refs(value)
            if refs & rank_taint:
                rank_taint.add(target)
            if refs & bid_taint:
                bid_taint.add(target)
    return rank_taint, bid_taint


def structural_check_ir(ir: KernelIR) -> list[Finding]:
    """Syntactic rules over one kernel IR; no instantiation needed."""
    findings: list[Finding] = []
    prims = [(s, parents) for s, parents in walk_with_parents(ir.body)
             if isinstance(s, Primitive)]
    if prims and ir.channel_param is None:
        s = prims[0][0]
        findings.append(Finding(
            rule="struct.no-channel", kernel=ir.name,
            lineno=getattr(s, "lineno", None),
            message="kernel uses tile-centric primitives but declares no "
                    "BlockChannel parameter"))

    rank_taint, bid_taint = _taint_sets(ir)
    for s, parents in prims:
        lo_hi = _PRIMITIVE_ARITY.get(s.name)
        if lo_hi is not None:
            lo, hi = lo_hi
            if not lo <= len(s.args) <= hi:
                findings.append(Finding(
                    rule="struct.arity", kernel=ir.name,
                    lineno=getattr(s, "lineno", None),
                    message=f"{s.name} takes {lo}..{hi} positional "
                            f"arguments, got {len(s.args)}"))
        if s.name == "producer_tile_notify":
            mode = s.args[1] if len(s.args) > 1 else s.kwargs.get("mode")
            mode = _const_value(mode)
            if mode is not None and isinstance(mode, str) \
                    and mode not in _NOTIFY_MODES:
                findings.append(Finding(
                    rule="struct.bad-mode", kernel=ir.name,
                    lineno=getattr(s, "lineno", None),
                    message=f"producer_tile_notify mode {mode!r} is not "
                            f"one of {_NOTIFY_MODES}"))
        if s.name == "peer_tile_wait":
            count = _const_value(s.kwargs.get("count"))
            if isinstance(count, int) and count <= 0:
                findings.append(Finding(
                    rule="struct.nonpositive-count", kernel=ir.name,
                    lineno=getattr(s, "lineno", None),
                    message=f"peer_tile_wait count={count} is satisfied "
                            "before any notify (not a synchronization)"))
        if s.name == "barrier_all":
            for p in parents:
                if not isinstance(p, If):
                    continue
                refs = expr_refs(p.cond)
                if refs & rank_taint:
                    findings.append(Finding(
                        rule="barrier.rank-divergent", kernel=ir.name,
                        lineno=getattr(s, "lineno", None),
                        message="barrier_all under an If whose condition "
                                "depends on channel.rank: diverging ranks "
                                "never arrive"))
                    break
                if refs & bid_taint:
                    findings.append(Finding(
                        rule="barrier.block-divergent", kernel=ir.name,
                        lineno=getattr(s, "lineno", None),
                        message="barrier_all under an If whose condition "
                                "depends on the block id: diverging blocks "
                                "never arrive"))
                    break
    return findings


def check_compiled_ir(ir: KernelIR) -> list[Finding]:
    """Compile-time gate: raise :class:`AnalysisError` on error findings."""
    findings = structural_check_ir(ir)
    errors = [f for f in findings if f.severity == "error"]
    if errors:
        raise AnalysisError(
            f"{ir.name}: static analysis rejected the kernel:\n"
            + "\n".join(f.render() for f in errors),
            findings=findings)
    return findings


# ---------------------------------------------------------------------------
# plan builders (one per family, mirroring the *_overlapped launchers)
# ---------------------------------------------------------------------------

#: small launch grid shared by all plans (a few producer + consumer blocks)
_GRID = 4
_COMM_BLOCKS = 2


def _override(ir_overrides: dict[str, KernelIR] | None, kdef: Any):
    return (ir_overrides or {}).get(kdef.name)


def build_ag_gemm_plan(world: int = 2, mode: str = "dma", *,
                       block_m: int = 16, block_mp: int = 16,
                       threshold_scale: int = 1,
                       ir_overrides: dict[str, KernelIR] | None = None,
                       name: str | None = None,
                       ) -> tuple[LaunchPlan, list[Finding]]:
    """Mirror of :func:`repro.kernels.ag_gemm.ag_gemm_overlapped`."""
    from repro.kernels.ag_gemm import (
        _ag_consumer_gemm,
        _ag_pull_producer,
        _ag_push_producer,
    )

    m, n, k = world * 32, 32, 32
    bn = bk = 16
    per = m // world
    comm_blocks = 0 if mode == "dma" else _COMM_BLOCKS
    b = PlanBuilder(name or f"ag_gemm/{mode}/w{world}", "ag_gemm", world)
    b.tensor("shards", (per, k))
    b.tensor("w", (k, n))
    b.tensor("gathered", (m, k))
    b.tensor("out", (m, n))
    b.output("gathered")

    mapping = AffineTileMapping(m, block_mp, world, 1)
    channels = b.make_block_channels(
        "ag_gemm", mapping=mapping,
        comm_grid=TileGrid(m, k, block_mp, k),
        consumer_grid=TileGrid(m, n, block_m, bn),
        notify_target="mapped" if mode == "push" else "local",
        threshold_scale=threshold_scale,
        comm_blocks=comm_blocks)

    if mode == "dma":
        for rank in range(world):
            t = b.host(rank, "ag_gemm.dma")
            order = [rank] + [(rank + off) % world
                              for off in range(1, world)]
            for q in order:
                t.read("shards", q, (0, per), (0, k))
                t.write("gathered", rank, (q * per, (q + 1) * per), (0, k))
                t.notify(channels[rank].barriers, q,
                         mapping.tiles_per_channel)
    elif mode == "pull":
        b.launch(_ag_pull_producer, _GRID,
                 dict(M=m, K=k, BMP=block_mp, COMM_BLOCKS=comm_blocks),
                 dict(shards="shards", gathered="gathered"),
                 channels, stream="comm",
                 ir=_override(ir_overrides, _ag_pull_producer))
    elif mode == "push":
        b.launch(_ag_push_producer, _GRID,
                 dict(M=m, K=k, BMP=block_mp, COMM_BLOCKS=comm_blocks,
                      WORLD=world),
                 dict(shards="shards", gathered="gathered"),
                 channels, stream="comm",
                 ir=_override(ir_overrides, _ag_push_producer))
    else:
        raise ValueError(f"unknown ag_gemm mode {mode!r}")

    b.launch(_ag_consumer_gemm, _GRID,
             dict(M=m, N=n, K=k, BM=block_m, BN=bn, BK=bk,
                  COMM_BLOCKS=comm_blocks),
             dict(gathered="gathered", w="w", out="out"),
             channels, ir=_override(ir_overrides, _ag_consumer_gemm))
    return b.build()


def build_gemm_rs_plan(world: int = 2, mode: str = "ring", *,
                       threshold_scale: int | None = None,
                       ir_overrides: dict[str, KernelIR] | None = None,
                       name: str | None = None,
                       ) -> tuple[LaunchPlan, list[Finding]]:
    """Mirror of :func:`repro.kernels.gemm_rs.gemm_rs_overlapped`."""
    from repro.kernels.gemm_rs import (
        _gemm_producer,
        _gemm_rs_ring,
        _rs_reduce,
    )

    m, n, k = world * 32, 32, 32
    bm = bn = bk = bmr = 16
    bnr = 32
    m_per = m // world
    b = PlanBuilder(name or f"gemm_rs/{mode}/w{world}", "gemm_rs", world)
    b.tensor("tokens", (m, k))
    b.tensor("weights", (k, n))
    b.tensor("gemm_out", (m, n))
    b.tensor("out", (m_per, n))

    mapping = AffineTileMapping(m, bm, world, 1)
    gemm_grid = TileGrid(m, n, bm, bn)
    reduce_grid = TileGrid(m, n, bmr, bnr)
    ts = gemm_grid.tiles_n if threshold_scale is None else threshold_scale

    if mode == "ring":
        b.tensor("buffers", (m, n))
        channels = b.make_block_channels(
            "gemm_rs", mapping=mapping, comm_grid=reduce_grid,
            consumer_grid=reduce_grid, peer_cells=reduce_grid.n_tiles,
            threshold_scale=ts, comm_blocks=_COMM_BLOCKS)
        b.launch(_gemm_rs_ring, _GRID,
                 dict(M=m, N=n, K=k, BM=bm, BN=bn, BK=bk, BMR=bmr,
                      BNR=bnr, COMM_BLOCKS=_COMM_BLOCKS),
                 dict(tokens="tokens", weights="weights",
                      gemm_out="gemm_out", buffers="buffers", out="out"),
                 channels, ir=_override(ir_overrides, _gemm_rs_ring))
        return b.build()

    if mode != "hybrid":
        raise ValueError(f"unknown gemm_rs mode {mode!r}")

    b.tensor("landing", (m, n))
    channels = b.make_block_channels(
        "gemm_rs", mapping=mapping, comm_grid=reduce_grid,
        consumer_grid=reduce_grid, peer_cells=world, threshold_scale=ts)

    b.launch(_gemm_producer, _GRID,
             dict(M=m, N=n, K=k, BM=bm, BN=bn, BK=bk),
             dict(tokens="tokens", weights="weights", gemm_out="gemm_out"),
             channels, ir=_override(ir_overrides, _gemm_producer))

    for rank in range(world):
        t = b.host(rank, "gemm_rs.scatter")
        ch = channels[rank]
        for off in range(1, world):
            q = (rank + off) % world
            t.wait(ch.barriers, q,
                   mapping.tiles_in_channel(q) * gemm_grid.tiles_n)
            t.read("gemm_out", rank, (q * m_per, (q + 1) * m_per), (0, n))
            t.write("landing", q, (rank * m_per, (rank + 1) * m_per),
                    (0, n))
            t.notify(ch.all_peer_barriers[q], rank, 1)

    b.launch(_rs_reduce, _GRID,
             dict(M=m, N=n, BMR=bmr, BNR=bnr, WORLD=world),
             dict(landing="landing", gemm_out="gemm_out", out="out"),
             channels, ir=_override(ir_overrides, _rs_reduce))
    return b.build()


def _routing(world: int, m: int, block_m: int):
    from repro.kernels.moe_common import routing_memo

    return routing_memo(m, 4, 2, world, 17)(block_m)


def build_ag_moe_plan(world: int = 2, *,
                      ir_overrides: dict[str, KernelIR] | None = None,
                      name: str | None = None,
                      ) -> tuple[LaunchPlan, list[Finding]]:
    """Mirror of :func:`repro.kernels.ag_moe.ag_moe_overlapped`."""
    from repro.kernels.ag_moe import _ag_moe_group_gemm

    m, h, d = world * 32, 32, 32
    bm = bk = 16
    bn = 16
    per = m // world
    routing = _routing(world, m, bm)
    b = PlanBuilder(name or f"ag_moe/w{world}", "ag_moe", world)
    b.tensor("shards", (per, h))
    b.tensor("w1", (4 * h, d))
    b.tensor("gathered", (m, h))
    b.tensor("ids", (routing.padded_rows, 1))
    b.tensor("etile", (routing.n_tiles, 1))
    b.tensor("grouped_out", (routing.padded_rows, d))
    b.output("gathered")

    ag_mapping = AffineTileMapping(m, bm, world)
    channels = b.make_block_channels(
        "ag_moe", mapping=ag_mapping,
        comm_grid=TileGrid(m, h, bm, h),
        consumer_grid=TileGrid(routing.padded_rows, d, bm, bn),
        consumer_mapping=routing.mapping)

    for rank in range(world):
        t = b.host(rank, "ag_moe.dma")
        order = [rank] + [(rank + off) % world for off in range(1, world)]
        for q in order:
            t.read("shards", q, (0, per), (0, h))
            t.write("gathered", rank, (q * per, (q + 1) * per), (0, h))
            t.notify(channels[rank].barriers, q,
                     ag_mapping.tiles_per_channel)

    b.launch(_ag_moe_group_gemm, _GRID,
             dict(NT=routing.n_tiles, H=h, D=d, BM=bm, BN=bn, BK=bk),
             dict(gathered="gathered", weights2d="w1", ids="ids",
                  expert_of_tile="etile", grouped_out="grouped_out"),
             channels, ir=_override(ir_overrides, _ag_moe_group_gemm))
    return b.build()


def build_moe_rs_plan(world: int = 2, *,
                      ir_overrides: dict[str, KernelIR] | None = None,
                      name: str | None = None,
                      ) -> tuple[LaunchPlan, list[Finding]]:
    """Mirror of :func:`repro.kernels.moe_rs.moe_rs_overlapped`."""
    from repro.kernels.moe_rs import _moe_rs_producer, _moe_rs_reduce

    m, h, d = world * 32, 32, 32
    bm = bn = bk = bmr = 16
    bnr = 32
    m_per = m // world
    routing = _routing(world, m, bm)
    b = PlanBuilder(name or f"moe_rs/w{world}", "moe_rs", world)
    b.tensor("grouped_in", (routing.padded_rows, d))
    b.tensor("w2", (4 * d, h))
    b.tensor("ids", (routing.padded_rows, 1))
    b.tensor("etile", (routing.n_tiles, 1))
    b.tensor("row_weights", (routing.padded_rows, 1))
    b.tensor("partial", (m + 1, h))
    b.tensor("landing", (m, h))
    b.tensor("out", (m_per, h))

    seg_mapping = TableTileMapping(world, world, world)
    for s in range(world):
        seg_mapping.fill(s, s * m_per, (s + 1) * m_per, s, s)
    seg_mapping.channel_threshold[:] = routing.segment_thresholds

    channels = b.make_block_channels(
        "moe_rs", mapping=seg_mapping,
        comm_grid=TileGrid(m, h, m_per, h),
        consumer_grid=TileGrid(m_per, h, bmr, bnr),
        consumer_mapping=seg_mapping, peer_cells=world)
    for ch in channels:
        ch.notify_counts = routing.segment_counts

    b.launch(_moe_rs_producer, _GRID,
             dict(NT=routing.n_tiles, D=d, H=h, BM=bm, BN=bn, BK=bk),
             dict(grouped_in="grouped_in", weights2d="w2", ids="ids",
                  expert_of_tile="etile", row_weights="row_weights",
                  partial="partial"),
             channels, ir=_override(ir_overrides, _moe_rs_producer))

    for rank in range(world):
        t = b.host(rank, "moe_rs.scatter")
        ch = channels[rank]
        for off in range(world):
            q = (rank + off) % world
            t.wait(ch.barriers, q, int(routing.segment_thresholds[q]))
            t.read("partial", rank, (q * m_per, (q + 1) * m_per), (0, h))
            t.write("landing", q, (rank * m_per, (rank + 1) * m_per),
                    (0, h))
            t.notify(ch.all_peer_barriers[q], rank, 1)

    b.launch(_moe_rs_reduce, _GRID,
             dict(MP=m_per, H=h, BMR=bmr, BNR=bnr, WORLD=world),
             dict(landing="landing", out="out"),
             channels, ir=_override(ir_overrides, _moe_rs_reduce))
    return b.build()


def _native_plan(family: str, detail: str) -> tuple[LaunchPlan, list]:
    """Families simulated natively (no tile IR): an informational plan."""
    b = PlanBuilder(f"{family}/native", family, 1)
    b.note(f"{family} runs as a native simulator kernel ({detail}); "
           "it has no tile IR to analyze")
    return b.build()


def build_ag_attention_plan(**_: Any) -> tuple[LaunchPlan, list]:
    from repro.kernels.attention import ANALYZE_META

    return _native_plan("ag_attention", ANALYZE_META["detail"])


def build_ring_attention_plan(**_: Any) -> tuple[LaunchPlan, list]:
    from repro.kernels.ring_attention import ANALYZE_META

    return _native_plan("ring_attention", ANALYZE_META["detail"])


class _RegisteredFamilies(Mapping):
    """Lazy family -> plan-thunks view over :mod:`repro.registry`.

    Each kernel module declares its shipped plan instantiations in its
    ``register_family(analyze_plans=...)`` hook; this proxy resolves them
    on first access so importing :mod:`repro.analyze` stays cheap and
    cycle-free.
    """

    def _resolve(self) -> dict[
            str, list[Callable[[], tuple[LaunchPlan, list[Finding]]]]]:
        from repro.registry import families

        return {name: fam.analyze_plans()
                for name, fam in families().items()}

    def __getitem__(self, name: str):
        return self._resolve()[name]

    def __iter__(self):
        return iter(self._resolve())

    def __len__(self) -> int:
        return len(self._resolve())

    def __contains__(self, name: object) -> bool:
        return name in self._resolve()


#: family -> shipped plan instantiations (zero-arg thunks), registry-driven
FAMILIES: Mapping = _RegisteredFamilies()


def analyze_registered(
        families: list[str] | None = None,
) -> Iterator[tuple[LaunchPlan, Report]]:
    """Sweep the registered plan instantiations; yields (plan, report)."""
    names = families if families is not None else list(FAMILIES)
    for family in names:
        if family not in FAMILIES:
            raise KeyError(
                f"unknown kernel family {family!r}; registered: "
                f"{', '.join(FAMILIES)}")
        for thunk in FAMILIES[family]:
            plan, extra = thunk()
            structural = []
            for kernel_name in sorted({t.kernel for t in plan.threads}):
                ir = _shipped_ir(kernel_name)
                if ir is not None:
                    structural.extend(structural_check_ir(ir))
            yield plan, analyze_plan(plan, extra=structural + list(extra))


def _shipped_ir(kernel_name: str) -> KernelIR | None:
    """Resolve a thread's kernel name back to a registered KernelDef IR."""
    from repro.registry import families

    for fam in families().values():
        for kdef in fam.kernels:
            ir = getattr(kdef, "ir", None)
            if ir is not None and ir.name == kernel_name:
                return ir
    return None
