"""Registered plan sweep + structural IR checks.

Plans are recorded, not mirrored: each kernel family's
``register_family(analyze_plans=...)`` hook picks a few small
instantiations (world in {2, 4, 8}, a few tile-grid shapes, a 4-block
grid) and runs its own ``*_overlapped`` launcher against a
:class:`~repro.analyze.model.PlanContext`, so the analyzer checks the
channels, constexprs, streams and host comm procs the simulator actually
runs — against abstract signal banks, without simulating them.

:data:`FAMILIES` is a lazy view over :mod:`repro.registry`, and
:func:`analyze_registered` sweeps every registered instantiation — it is
what both the ``python -m repro.analyze`` CLI and the mutant tests drive.

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
from repro.analyze.model import LaunchPlan, PlanContext
from repro.errors import AnalysisError
from repro.lang.ir import (
    Const,
    If,
    KernelIR,
    Primitive,
    expr_refs,
    walk_with_parents,
)

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
# plans of the natively-simulated families
# ---------------------------------------------------------------------------

def _native_plan(family: str, detail: str) -> tuple[LaunchPlan, list]:
    """Families simulated natively (no tile IR): an informational plan."""
    ctx = PlanContext(f"{family}/native", family, 1)
    ctx.note(f"{family} runs as a native simulator kernel ({detail}); "
             "it has no tile IR to analyze")
    return ctx.build()


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
