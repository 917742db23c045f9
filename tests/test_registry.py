"""The declarative kernel-family registry: completeness of every
registered record, loud failure on partial registrations, the serving
method axis, and the ``python -m repro.registry`` manifest.

The meta-test is the registry's contract: every family a consumer can
resolve must expose a working hook for *each* consumer — tuner (tune
task over a non-empty search space), analyzer (plans covering its
declared worlds), bench (builders) and launch — so a family can never be
half-wired into the stack.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.errors import RegistryError
from repro.registry import (
    BASE_SERVE_METHODS,
    ServeMethod,
    families,
    get_family,
    main as registry_main,
    register_family,
    resolve_serve_method,
    serve_method_names,
)


def test_all_shipped_families_registered():
    names = set(families())
    assert {"ag_gemm", "gemm_rs", "ag_moe", "moe_rs", "ag_attention",
            "ring_attention", "chunk_gemm_rs"} <= names
    assert len(names) >= 7


@pytest.mark.parametrize("name", sorted(families()))
def test_family_record_is_complete(name):
    """Every consumer hook resolves: this is the one test that makes a
    partial registration impossible to ship."""
    fam = get_family(name)
    assert fam.doc, "family needs a one-line doc"
    assert fam.provenance and ":" in fam.provenance
    assert dataclasses.is_dataclass(fam.config_cls)
    assert callable(fam.launch)

    # tuner: the representative task resolves, routes back to this
    # family, and searches a non-empty space
    task = fam.tune_task()
    assert task.kernel == name
    assert len(list(task.space.candidates())) >= 1

    # analyzer: at least one plan per declared world
    plans = [thunk() for thunk in fam.analyze_plans()]
    assert plans, "family ships no analyzer plans"
    plan_worlds = {plan.world for plan, _extra in plans}
    assert plan_worlds >= set(fam.worlds)

    # bench: the builders hook resolves to a callable
    assert callable(fam.bench_builders())

    # tile-IR families ship annotated kernel entry points
    if fam.tile_ir:
        assert fam.kernels
        for kdef in fam.kernels:
            assert kdef.meta.get("role") in ("producer", "consumer", "fused")
            assert "outputs" in kdef.meta
    # sweep hooks come in pairs: a category implies entries
    if fam.sweep_category is not None:
        assert fam.sweep_entries is not None


@pytest.mark.parametrize("drop,piece", [
    ("launch", "launch builder"),
    ("tune_task", "tune_task factory"),
    ("analyze_plans", "analyze_plans factory"),
    ("bench_builders", "bench_builders factory"),
    ("config_cls", "config dataclass"),
    ("worlds", "world sizes"),
])
def test_partial_registration_raises_naming_the_piece(drop, piece):
    """A registration missing any consumer hook fails loudly, names the
    missing piece, and inserts nothing."""
    @dataclasses.dataclass
    class Cfg:
        m: int = 1

    kwargs = dict(
        name="mutant_family", config_cls=Cfg, launch=lambda ctx, cfg: None,
        tune_task=lambda: None,
        analyze_plans=lambda: [], bench_builders=lambda: dict,
        worlds=(2,), tile_ir=False,
    )
    kwargs[drop] = None if drop != "worlds" else ()
    with pytest.raises(RegistryError, match=piece):
        register_family(**kwargs)
    assert "mutant_family" not in families()


def test_tile_ir_family_requires_annotated_kernels():
    @dataclasses.dataclass
    class Cfg:
        m: int = 1

    kwargs = dict(
        name="mutant_family", config_cls=Cfg, launch=lambda ctx, cfg: None,
        tune_task=lambda: None,
        analyze_plans=lambda: [], bench_builders=lambda: dict,
        worlds=(2,),
    )
    with pytest.raises(RegistryError, match="kernel entry points"):
        register_family(**kwargs)

    class FakeKernel:
        name = "k"
        meta = {}
    with pytest.raises(RegistryError, match="role"):
        register_family(**kwargs, kernels=(FakeKernel(),))
    assert "mutant_family" not in families()


def test_duplicate_registration_names_the_incumbent():
    @dataclasses.dataclass
    class Cfg:
        m: int = 1

    with pytest.raises(RegistryError,
                       match=r"already registered.*repro\.kernels\.ag_gemm"):
        register_family(
            name="ag_gemm", config_cls=Cfg, launch=lambda ctx, cfg: None,
            tune_task=lambda: None,
            analyze_plans=lambda: [], bench_builders=lambda: dict,
            worlds=(2,), tile_ir=False,
        )


def test_unknown_family_lists_the_registered_ones():
    with pytest.raises(RegistryError, match="unknown kernel family.*ag_gemm"):
        get_family("flash_decoding")


def test_serve_method_axis():
    names = serve_method_names()
    assert names[:3] == BASE_SERVE_METHODS
    assert "tilelink-chunk" in names
    # nothing experimental leaks into the shipped latency table
    assert serve_method_names(shipped_only=True) == BASE_SERVE_METHODS


def test_resolve_serve_method():
    base, overrides = resolve_serve_method("tilelink")
    assert (base, overrides) == ("tilelink", {})
    base, overrides = resolve_serve_method("tilelink-chunk")
    assert base == "tilelink"
    assert set(overrides) == {"gemm_rs"}
    assert callable(overrides["gemm_rs"])
    with pytest.raises(RegistryError, match="unknown serving method"):
        resolve_serve_method("triton")


def test_serve_method_validation():
    @dataclasses.dataclass
    class Cfg:
        m: int = 1

    kwargs = dict(
        name="mutant_family", config_cls=Cfg, launch=lambda ctx, cfg: None,
        tune_task=lambda: None,
        analyze_plans=lambda: [], bench_builders=lambda: dict,
        worlds=(2,), tile_ir=False,
    )
    with pytest.raises(RegistryError, match="collides with a base method"):
        register_family(**kwargs, serve_method=ServeMethod(name="torch"))
    with pytest.raises(RegistryError, match="already registered"):
        register_family(**kwargs,
                        serve_method=ServeMethod(name="tilelink-chunk"))
    with pytest.raises(RegistryError, match="not one of"):
        register_family(**kwargs, serve_method=ServeMethod(
            name="mutant-method", base="triton"))
    assert "mutant_family" not in families()


def test_cli_manifest_json(capsys):
    assert registry_main(["--list", "--json"]) == 0
    manifest = json.loads(capsys.readouterr().out)
    by_name = {f["name"]: f for f in manifest["families"]}
    assert len(by_name) >= 7
    assert sum(f["plans"] for f in by_name.values()) >= 20
    for fam in by_name.values():
        assert fam["provenance"]
    chunk = by_name["chunk_gemm_rs"]
    assert chunk["serve_method"] == "tilelink-chunk"
    assert chunk["provenance"].startswith("repro.kernels.chunk_gemm_rs:")
    assert manifest["shipped_serve_methods"] == list(BASE_SERVE_METHODS)


def test_cli_list_plain(capsys):
    assert registry_main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "chunk_gemm_rs" in out
    assert "serving methods:" in out
