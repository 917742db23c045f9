"""Static synchronization analyzer: clean kernels, seeded mutants, CLI.

The mutant tests are the analyzer's ground truth: each one plants a known
synchronization bug in a shipped kernel's IR (or channel wiring) and
asserts the analyzer reports exactly that bug class, with the right rule
id and a source line.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.analyze import (
    FAMILIES,
    PlanContext,
    analyze_plan,
    analyze_registered,
    check_compiled_ir,
    structural_check_ir,
)
from repro.analyze.__main__ import main as analyze_main
from repro.compiler.program import CompileOptions, compile_kernel
from repro.errors import AnalysisError
from repro.kernels.ag_gemm import (
    _ag_consumer_gemm,
    _ag_pull_producer,
    _ag_push_producer,
    build_ag_gemm_plan,
)
from repro.kernels.ag_moe import _ag_moe_group_gemm
from repro.kernels.gemm_rs import (
    _gemm_producer,
    _gemm_rs_ring,
    _rs_reduce,
    build_gemm_rs_plan,
)
from repro.kernels.moe_rs import _moe_rs_producer, _moe_rs_reduce
from repro.lang import tl
from repro.lang.dsl import kernel
from repro.lang.ir import For, Primitive

SHIPPED_KERNELS = [
    _ag_consumer_gemm, _ag_pull_producer, _ag_push_producer,
    _gemm_rs_ring, _gemm_producer, _rs_reduce,
    _ag_moe_group_gemm, _moe_rs_producer, _moe_rs_reduce,
]


# ---------------------------------------------------------------------------
# clean sweep: every registered plan analyzes without errors
# ---------------------------------------------------------------------------


def test_all_registered_plans_analyze_clean():
    seen = []
    for plan, report in analyze_registered():
        assert report.ok(strict=True), (
            f"{plan.name} not clean:\n{report.render()}")
        seen.append(plan.family)
    for family in FAMILIES:
        assert family in seen


# two channels per rank: recorded here rather than registered, because the
# registered sweep's plan names and finding counts feed the benchmark digest
@pytest.mark.parametrize("build,mode", [
    (build_ag_gemm_plan, "dma"),
    (build_ag_gemm_plan, "pull"),
    (build_ag_gemm_plan, "push"),
    (build_gemm_rs_plan, "hybrid"),
])
def test_two_channels_per_rank_plans_analyze_clean(build, mode):
    plan, extra = build(world=2, mode=mode, channels_per_rank=2)
    report = analyze_plan(plan, extra=extra)
    assert report.ok(strict=True), f"{plan.name}:\n{report.render()}"
    # the waits span all 2 x world producer channels
    waited = {e.cell for t in plan.threads for e in t.events
              if e.kind == "wait" and e.bank[0].endswith(".bar")}
    assert waited == set(range(4))


def test_shipped_kernels_pass_structural_checks():
    for kdef in SHIPPED_KERNELS:
        assert structural_check_ir(kdef.ir) == []
        assert check_compiled_ir(kdef.ir) == []


def test_every_shipped_stmt_has_lineno():
    # satellite: every IR statement carries a populated source line
    for kdef in SHIPPED_KERNELS:
        for s in kdef.ir.walk_stmts():
            assert isinstance(s.lineno, int) and s.lineno > 0, (
                f"{kdef.name}: {type(s).__name__} has lineno={s.lineno!r}")


def test_kernel_meta_annotations_present():
    for kdef in SHIPPED_KERNELS:
        assert "role" in kdef.meta and "outputs" in kdef.meta


# ---------------------------------------------------------------------------
# seeded mutants
# ---------------------------------------------------------------------------


def _strip_notify(body):
    out = []
    for s in body:
        if isinstance(s, Primitive) and s.name == "producer_tile_notify":
            continue
        for blk in s.children():
            blk[:] = _strip_notify(blk)
        out.append(s)
    return out


def test_mutant_missing_notify_is_deadlock():
    ir = copy.deepcopy(_ag_pull_producer.ir)
    ir.body = _strip_notify(ir.body)
    plan, extra = build_ag_gemm_plan(
        world=2, mode="pull", ir_overrides={_ag_pull_producer.name: ir})
    report = analyze_plan(plan, extra=extra)
    rules = {f.rule for f in report.errors}
    assert "deadlock.unmatched-wait" in rules
    assert "deadlock.stall" in rules
    hits = [f for f in report.errors if f.rule == "deadlock.unmatched-wait"]
    # anchored at the consumer's wait site, with a source line
    assert all(f.kernel == _ag_consumer_gemm.name for f in hits)
    assert all(isinstance(f.lineno, int) and f.lineno > 0 for f in hits)


def test_mutant_inflated_threshold_is_unreachable(monkeypatch):
    # double every recorded channel's wait thresholds
    make = PlanContext.make_block_channels

    def inflated(self, *args, **kwargs):
        channels = make(self, *args, **kwargs)
        for ch in channels:
            ch.threshold_scale *= 2
        return channels

    monkeypatch.setattr(PlanContext, "make_block_channels", inflated)
    plan, extra = build_ag_gemm_plan(world=2, mode="pull")
    report = analyze_plan(plan, extra=extra)
    rules = {f.rule for f in report.errors}
    assert "deadlock.unreachable-threshold" in rules
    hit = next(f for f in report.errors
               if f.rule == "deadlock.unreachable-threshold")
    assert hit.kernel == _ag_consumer_gemm.name
    assert isinstance(hit.lineno, int) and hit.lineno > 0
    # the message names the notify sites that fall short
    assert _ag_pull_producer.name in hit.message


def _duplicate_producer_loop(body) -> bool:
    for s in body:
        if isinstance(s, For) and any(
                isinstance(x, Primitive) for x in s.body):
            s.body = s.body + [copy.deepcopy(x) for x in s.body]
            return True
        for blk in s.children():
            if _duplicate_producer_loop(blk):
                return True
    return False


def test_mutant_duplicated_tile_loop_is_double_produce():
    ir = copy.deepcopy(_ag_pull_producer.ir)
    assert _duplicate_producer_loop(ir.body)
    plan, extra = build_ag_gemm_plan(
        world=2, mode="pull", ir_overrides={_ag_pull_producer.name: ir})
    report = analyze_plan(plan, extra=extra)
    hits = [f for f in report.errors if f.rule == "race.double-produce"]
    assert hits, report.render()
    assert all(f.kernel == _ag_pull_producer.name for f in hits)
    assert all(isinstance(f.lineno, int) and f.lineno > 0 for f in hits)


def test_mutant_unguarded_read_is_race():
    # delete the consumer_tile_wait from the ring kernel's reduce stage:
    # the gemm_out load then races with the same-launch producer stores
    ir = copy.deepcopy(_gemm_rs_ring.ir)

    def strip_wait(body):
        out = []
        for s in body:
            if isinstance(s, Primitive) and s.name == "consumer_tile_wait":
                continue
            for blk in s.children():
                blk[:] = strip_wait(blk)
            out.append(s)
        return out

    ir.body = strip_wait(ir.body)
    plan, extra = build_gemm_rs_plan(
        world=2, mode="ring", ir_overrides={_gemm_rs_ring.name: ir})
    report = analyze_plan(plan, extra=extra)
    hits = [f for f in report.findings if f.rule == "race.unguarded-read"]
    assert hits, report.render()
    assert all(f.kernel == _gemm_rs_ring.name for f in hits)
    assert all(isinstance(f.lineno, int) and f.lineno > 0 for f in hits)


# ---------------------------------------------------------------------------
# compile-time structural gate (CompileOptions.validate)
# ---------------------------------------------------------------------------


@kernel
def _divergent_barrier(x, channel: tl.BlockChannel, N: tl.constexpr):
    if channel.rank == 0:
        tl.barrier_all()


@kernel
def _block_divergent_barrier(x, channel: tl.BlockChannel,
                             N: tl.constexpr):
    bid = tl.block_id()
    if bid == 0:
        tl.barrier_all()


@kernel
def _bad_notify_mode(x, channel: tl.BlockChannel, N: tl.constexpr):
    tl.producer_tile_notify(0, "multicast")


@kernel
def _zero_count_wait(x, channel: tl.BlockChannel, N: tl.constexpr):
    tl.peer_tile_wait(0, 0, count=0)


def test_rank_divergent_barrier_rejected_at_compile():
    with pytest.raises(AnalysisError) as exc:
        compile_kernel(_divergent_barrier, dict(N=4))
    finding = exc.value.findings[0]
    assert finding.rule == "barrier.rank-divergent"
    assert isinstance(finding.lineno, int) and finding.lineno > 0


def test_block_divergent_barrier_rejected_at_compile():
    with pytest.raises(AnalysisError) as exc:
        compile_kernel(_block_divergent_barrier, dict(N=4))
    assert exc.value.findings[0].rule == "barrier.block-divergent"


def test_bad_notify_mode_rejected_at_compile():
    with pytest.raises(AnalysisError) as exc:
        compile_kernel(_bad_notify_mode, dict(N=4))
    assert exc.value.findings[0].rule == "struct.bad-mode"


def test_nonpositive_wait_count_rejected_at_compile():
    with pytest.raises(AnalysisError) as exc:
        compile_kernel(_zero_count_wait, dict(N=4))
    assert exc.value.findings[0].rule == "struct.nonpositive-count"


def test_validate_false_skips_structural_gate():
    program = compile_kernel(_divergent_barrier, dict(N=4),
                             CompileOptions(validate=False))
    assert program.name == _divergent_barrier.name


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_strict_sweep_exits_zero(capsys):
    assert analyze_main(["--all", "--strict", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "0 failing" in out


def test_cli_kernel_filter_and_json(tmp_path, capsys):
    path = tmp_path / "findings.json"
    assert analyze_main(["--kernel", "ag_attention",
                         "--json", str(path)]) == 0
    capsys.readouterr()
    payload = json.loads(path.read_text())
    assert payload["errors"] == 0
    assert payload["plans"] and payload["plans"][0]["ok"]
    assert any(f["rule"] == "analysis.note" for f in payload["findings"])


def test_cli_unknown_family_errors(capsys):
    assert analyze_main(["--kernel", "nope"]) == 2
    capsys.readouterr()


def test_cli_list(capsys):
    assert analyze_main(["--list"]) == 0
    out = capsys.readouterr().out
    for family in FAMILIES:
        assert family in out
