"""Declarative kernel-family registry (the single registration point).

Adding an overlapped kernel family used to mean hand-edits in six layers:
``kernels/``, the tuner task lists, ``analyze/registry.py``'s plan table,
``bench/experiments.py``'s per-family builders, the warm-cache refresh
script and the serving ``method`` strings.  This module collapses all of
that into one declarative :class:`KernelFamily` record and a single
:func:`register_family` call made from the family's own module:

* the static analyzer (``repro.analyze``) enumerates ``analyze_plans``,
* the tuner sweep drivers (and ``tuned_vs_paper``) enumerate
  ``sweep_entries`` / ``warm_tasks``,
* the bench harness resolves ``bench_builders``,
* the serving stack resolves extra ``method`` names via ``serve_method``.

Discovery is import-driven: :func:`discover` imports every module under
``repro.kernels`` once, and each module registers itself at import time.
A family that lives elsewhere (e.g. an example script) can call
:func:`register_family` directly — consumers only ever see the registry.

Module-scope imports here are restricted to the stdlib plus
``repro.errors`` so any layer can import the registry without cycles.

CLI::

    python -m repro.registry --list [--json]
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import pkgutil
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import RegistryError

__all__ = [
    "BASE_SERVE_METHODS",
    "KernelFamily",
    "ServeMethod",
    "discover",
    "families",
    "get_family",
    "main",
    "register_family",
    "resolve_serve_method",
    "serve_method_names",
]

#: Serving methods every model variant supports without any registration
#: (the historical ``models.transformer.METHODS`` tuple).
BASE_SERVE_METHODS = ("torch", "tilelink", "tilelink-tuned")


@dataclass(frozen=True)
class ServeMethod:
    """An extra entry on the serving ``method`` axis.

    ``base`` names the built-in method whose layer construction is reused;
    ``op_overrides`` swaps individual op slots (``"ag_gemm"``/``"gemm_rs"``)
    for the family's own launcher, with signature
    ``fn(ctx, m, n, k, x, w, out, *, tag, warm=None)``.  ``shipped`` marks
    methods baked into the shipped latency table (the refresh scripts only
    expect shipped methods).
    """

    name: str
    base: str = "tilelink"
    op_overrides: dict[str, Callable[..., Any]] = field(default_factory=dict)
    shipped: bool = False


@dataclass(frozen=True)
class KernelFamily:
    """Everything the stack needs to know about one overlapped-kernel family."""

    #: registry key; also the tuner kernel name and analyzer family name
    name: str
    #: the launch config dataclass (``XxxConfig``)
    config_cls: type
    #: launcher: ``launch(ctx, cfg, *tensor_names, ...)``
    launch: Callable[..., Any]
    #: zero-arg factory -> ``TuneTask`` for a representative small shape
    tune_task: Callable[[], Any]
    #: zero-arg factory -> list of zero-arg analyzer plan thunks; each
    #: thunk picks a small config and records its plan by running
    #: ``launch`` against a ``repro.analyze.model.PlanContext``
    analyze_plans: Callable[[], list]
    #: zero-arg factory -> the family's bench builders function
    bench_builders: Callable[[], Callable[..., dict]]
    #: world sizes the analyzer plans cover
    worlds: tuple[int, ...]
    #: mapping modes the family exposes (empty when there is only one)
    modes: tuple[str, ...] = ()
    #: ``@kernel`` entry points (empty only for native, non-tile-IR families)
    kernels: tuple = ()
    #: False for natively-simulated families with no tile IR to analyze
    tile_ir: bool = True
    #: which sweep table the family belongs to ("mlp" / "moe" / "attention")
    sweep_category: str | None = None
    #: ``fn(shape, *, world, spec=H800, ...) -> [(task_name, TuneTask)]``;
    #: the family's own extras (``router_seed`` for MoE, ``causal`` for
    #: attention) are exact keywords, so a stale or misspelt one raises
    #: ``TypeError``
    sweep_entries: Callable[..., list] | None = None
    #: ``fn(world, spec) -> [(task_name, TuneTask)]`` for the warm cache,
    #: or None when the family ships no warm-cache entries
    warm_tasks: Callable[..., list | None] | None = None
    #: extra serving method contributed by this family
    serve_method: ServeMethod | None = None
    #: one-line description
    doc: str = ""
    #: ``module:lineno`` of the register_family() call (filled automatically)
    provenance: str = ""


_REGISTRY: dict[str, KernelFamily] = {}
_SERVE_METHODS: dict[str, ServeMethod] = {}
_discovered = False

#: (field, human-readable requirement) — validated before insertion so a
#: partial registration fails loudly, naming the missing piece.
_REQUIRED_CALLABLES = (
    ("launch", "launch builder"),
    ("tune_task", "tune_task factory"),
    ("analyze_plans", "analyze_plans factory"),
    ("bench_builders", "bench_builders factory"),
)


def register_family(
    *,
    name: str,
    config_cls: type | None = None,
    launch: Callable | None = None,
    tune_task: Callable | None = None,
    analyze_plans: Callable | None = None,
    bench_builders: Callable | None = None,
    worlds: tuple[int, ...] = (),
    modes: tuple[str, ...] = (),
    kernels: tuple = (),
    tile_ir: bool = True,
    sweep_category: str | None = None,
    sweep_entries: Callable | None = None,
    warm_tasks: Callable | None = None,
    serve_method: ServeMethod | None = None,
    doc: str = "",
) -> KernelFamily:
    """Validate and insert one :class:`KernelFamily`.

    ``analyze_plans`` needs no hand-written plan: each of its thunks runs
    the family's own ``launch`` at a small size (and a 4-block grid)
    against a recording :class:`repro.analyze.model.PlanContext` and
    returns ``ctx.build()`` — see
    :func:`repro.kernels.ag_gemm.build_ag_gemm_plan`.

    Raises :class:`~repro.errors.RegistryError` naming the missing piece
    when the record is incomplete; nothing is inserted on failure.
    """
    if not name or not isinstance(name, str):
        raise RegistryError("kernel family needs a non-empty string name")

    def bad(piece: str) -> RegistryError:
        return RegistryError(
            f"kernel family {name!r} is missing its {piece}; "
            f"register_family() needs every consumer hook (tuner, analyzer, "
            f"bench, launch) to be provided"
        )

    if name in _REGISTRY:
        raise RegistryError(
            f"kernel family {name!r} is already registered "
            f"(from {_REGISTRY[name].provenance})"
        )
    if config_cls is None or not dataclasses.is_dataclass(config_cls):
        raise bad("config dataclass (config_cls)")
    for fname, piece in _REQUIRED_CALLABLES:
        if not callable(locals()[fname]):
            raise bad(f"{piece} ({fname})")
    if not worlds:
        raise bad("supported world sizes (worlds)")
    if tile_ir:
        if not kernels:
            raise bad("@kernel entry points (kernels)")
        for kdef in kernels:
            meta = getattr(kdef, "meta", None) or {}
            if "role" not in meta or "outputs" not in meta:
                kname = getattr(kdef, "name", repr(kdef))
                raise RegistryError(
                    f"kernel family {name!r}: kernel {kname!r} has no "
                    f"'role'/'outputs' meta annotations "
                    f"(set them via <kernel>.meta.update(...))"
                )
    if serve_method is not None:
        if not isinstance(serve_method, ServeMethod):
            raise bad("serve_method (expected a ServeMethod)")
        if serve_method.name in BASE_SERVE_METHODS:
            raise RegistryError(
                f"kernel family {name!r}: serving method "
                f"{serve_method.name!r} collides with a base method"
            )
        if serve_method.name in _SERVE_METHODS:
            raise RegistryError(
                f"kernel family {name!r}: serving method "
                f"{serve_method.name!r} is already registered"
            )
        if serve_method.base not in BASE_SERVE_METHODS:
            raise RegistryError(
                f"kernel family {name!r}: serving method base "
                f"{serve_method.base!r} is not one of {BASE_SERVE_METHODS}"
            )

    caller = sys._getframe(1)
    provenance = f"{caller.f_globals.get('__name__', '?')}:{caller.f_lineno}"
    family = KernelFamily(
        name=name, config_cls=config_cls, launch=launch,
        tune_task=tune_task,
        analyze_plans=analyze_plans, bench_builders=bench_builders,
        worlds=tuple(worlds), modes=tuple(modes), kernels=tuple(kernels),
        tile_ir=tile_ir, sweep_category=sweep_category,
        sweep_entries=sweep_entries, warm_tasks=warm_tasks,
        serve_method=serve_method,
        doc=doc, provenance=provenance,
    )
    _REGISTRY[name] = family
    if serve_method is not None:
        _SERVE_METHODS[serve_method.name] = serve_method
    return family


def discover() -> None:
    """Import every ``repro.kernels`` module once so families self-register."""
    global _discovered
    if _discovered:
        return
    _discovered = True
    pkg = importlib.import_module("repro.kernels")
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"repro.kernels.{info.name}")


def families() -> dict[str, KernelFamily]:
    """All registered families, keyed by name (triggers discovery)."""
    discover()
    return dict(_REGISTRY)


def get_family(name: str) -> KernelFamily:
    discover()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise RegistryError(
            f"unknown kernel family {name!r}; registered: "
            f"{', '.join(_REGISTRY) or '(none)'}"
        ) from None


def serve_method_names(*, shipped_only: bool = False) -> tuple[str, ...]:
    """The serving ``method`` axis: base methods + registered extras."""
    discover()
    extras = [
        m.name for m in _SERVE_METHODS.values()
        if m.shipped or not shipped_only
    ]
    return tuple(BASE_SERVE_METHODS) + tuple(extras)


def resolve_serve_method(name: str) -> tuple[str, dict[str, Callable]]:
    """Resolve a method name to ``(base_method, op_overrides)``."""
    if name in BASE_SERVE_METHODS:
        return name, {}
    discover()
    method = _SERVE_METHODS.get(name)
    if method is None:
        raise RegistryError(
            f"unknown serving method {name!r}; available: "
            f"{', '.join(serve_method_names())}"
        )
    return method.base, dict(method.op_overrides)


# ---------------------------------------------------------------------------
# CLI: python -m repro.registry --list [--json]
# ---------------------------------------------------------------------------

def _manifest() -> dict:
    fams = []
    for fam in families().values():
        fams.append({
            "name": fam.name,
            "doc": fam.doc,
            "config": fam.config_cls.__name__,
            "worlds": list(fam.worlds),
            "modes": list(fam.modes),
            "tile_ir": fam.tile_ir,
            "kernels": [k.name for k in fam.kernels],
            "plans": len(fam.analyze_plans()),
            "sweep_category": fam.sweep_category,
            "warm_cached": fam.warm_tasks is not None,
            "serve_method": (fam.serve_method.name
                             if fam.serve_method else None),
            "provenance": fam.provenance,
        })
    return {
        "families": fams,
        "serve_methods": list(serve_method_names()),
        "shipped_serve_methods": list(serve_method_names(shipped_only=True)),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.registry",
        description="inspect the declarative kernel-family registry",
    )
    parser.add_argument("--list", action="store_true",
                        help="list registered families (default action)")
    parser.add_argument("--json", action="store_true",
                        help="emit the manifest as JSON")
    args = parser.parse_args(argv)

    manifest = _manifest()
    if args.json:
        print(json.dumps(manifest, indent=2))
        return 0
    for fam in manifest["families"]:
        modes = ",".join(fam["modes"]) or "-"
        print(f"{fam['name']}: worlds={fam['worlds']} modes={modes} "
              f"plans={fam['plans']} kernels={len(fam['kernels'])} "
              f"[{fam['provenance']}]")
    print(f"serving methods: {', '.join(manifest['serve_methods'])}")
    return 0


if __name__ == "__main__":
    # ``python -m repro.registry`` executes this file as ``__main__`` while
    # the kernel modules register into the canonically-imported
    # ``repro.registry`` — delegate so both see the same registry.
    from repro.registry import main as _canonical_main

    sys.exit(_canonical_main())
