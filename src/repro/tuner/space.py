"""Declarative search spaces over the decoupled design space (paper §3.1).

The paper's central observation is that an overlapped kernel is picked from
*independent* subspaces: compute tile sizes, communication tile sizes,
push vs. pull dataflow, SM vs. copy-engine transport, and the number of
communication SMs.  :class:`SearchSpace` makes that product explicit — a
tuple of named :class:`Axis` objects plus an optional constraint that
rejects invalid/duplicate combinations (e.g. shape-divisibility rules, or
the fact that a copy-engine mapping ignores the ``comm_blocks`` axis).

Each kernel defines a *space factory* next to its config dataclass (see
``repro.kernels.ag_gemm``).  To add a new kernel to the tuner:

1. write ``def my_kernel_search_space(m, n, k, world)`` returning a
   :class:`SearchSpace` whose axis names match the kernel's
   config-dataclass fields,
2. write ``def my_kernel_tune_task(m, n, k, *, world, spec)`` building a
   :class:`repro.tuner.search.TuneTask` over that space, and
3. tune it with ``tune(my_kernel_tune_task(...), world=..., spec=...)``;
   :func:`repro.registry.register_family` takes the task factory so the
   sweep drivers and the analyzer see the family too.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from repro.errors import TileLinkError


class TunerError(TileLinkError):
    """Invalid search-space definition or tuner usage."""


#: A candidate point: axis name -> chosen value.
Candidate = dict


@dataclass(frozen=True)
class Axis:
    """One named knob of the design space with its discrete values."""

    name: str
    values: tuple

    def __post_init__(self) -> None:
        if not self.values:
            raise TunerError(f"axis {self.name!r} needs at least one value")
        if len(set(self.values)) != len(self.values):
            raise TunerError(f"axis {self.name!r} has duplicate values")


@dataclass(frozen=True)
class SearchSpace:
    """Cartesian product of :class:`Axis` values, minus constraint rejects.

    ``constraint(candidate) -> bool`` prunes invalid points *structurally*
    (divisibility, aliasing axes); performance-based pruning is the job of
    :mod:`repro.tuner.costprune`.
    """

    axes: tuple[Axis, ...]
    constraint: Callable[[Candidate], bool] | None = field(default=None)

    def __post_init__(self) -> None:
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise TunerError(f"duplicate axis names: {names}")

    @property
    def axis_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.axes)

    def candidates(self) -> Iterator[Candidate]:
        """Yield every valid candidate (deterministic axis-major order)."""
        for combo in itertools.product(*(a.values for a in self.axes)):
            cand = dict(zip(self.axis_names, combo))
            if self.constraint is None or self.constraint(cand):
                yield cand

    def __len__(self) -> int:
        return sum(1 for _ in self.candidates())

    def fingerprint(self) -> str:
        """Short stable hash of the axes (names + values).

        Used in cache keys so a changed space invalidates stale entries.
        The constraint is intentionally not hashed (not reliably
        serialisable); change an axis when a space's semantics change.
        """
        payload = json.dumps(
            [[a.name, [repr(v) for v in a.values]] for a in self.axes])
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def divisors_of(extent: int, values: Sequence[int]) -> tuple[int, ...]:
    """Filter ``values`` down to those dividing ``extent`` (axis helper)."""
    out = tuple(v for v in values if extent % v == 0)
    if not out:
        raise TunerError(f"no value of {values} divides extent {extent}")
    return out
