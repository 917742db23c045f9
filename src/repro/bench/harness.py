"""Shared benchmark plumbing.

Every measurement boots a *fresh* simulated node (pipe watermarks, signal
banks and traces never leak between runs), builds one workload on it in
timing mode, and drains the event loop; the returned simulated seconds are
what the paper's tables/figures report (relative numbers).
"""

from __future__ import annotations

import os
from typing import Callable

from repro.config import H800, HardwareSpec, SimConfig
from repro.runtime.context import DistContext

#: paper testbed size
DEFAULT_WORLD = 8


def env_flag(name: str, default: str = "0") -> bool:
    """Boolean environment flag, case-insensitively.

    ``"0"``, the empty string, ``"false"``, ``"no"`` and ``"off"`` (any
    capitalization, surrounding whitespace ignored) are false; anything
    else is true.  The case fold matters: a naive exact-match parse
    reads ``REPRO_FAST=False`` as *enabling* fast mode.
    """
    return os.environ.get(name, default).strip().lower() \
        not in ("0", "", "false", "no", "off")


def make_ctx(world: int = DEFAULT_WORLD, numerics: bool = False,
             trace: bool = False, spec: HardwareSpec = H800,
             n_nodes: int = 1, seed: int = 0) -> DistContext:
    cfg = SimConfig(world_size=world, execute_numerics=numerics, trace=trace,
                    spec=spec, n_nodes=n_nodes, seed=seed)
    return DistContext.create(cfg)


def run_builder(builder: Callable[[DistContext], None],
                world: int = DEFAULT_WORLD, trace: bool = False,
                spec: HardwareSpec = H800, seed: int = 0) -> float:
    """Build one workload on a fresh node; return simulated seconds."""
    ctx = make_ctx(world=world, trace=trace, spec=spec, seed=seed)
    builder(ctx)
    return ctx.run()


def run_builder_traced(builder: Callable[[DistContext], None],
                       world: int = DEFAULT_WORLD,
                       spec: HardwareSpec = H800,
                       seed: int = 0) -> tuple[float, DistContext]:
    """Like :func:`run_builder` but returns the context (for its trace)."""
    ctx = make_ctx(world=world, trace=True, spec=spec, seed=seed)
    builder(ctx)
    total = ctx.run()
    return total, ctx
