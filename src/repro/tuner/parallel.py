"""Parallel execution layer for multi-shape sweeps (``sweep(..., workers=N)``).

A cold sweep over a paper shape table pays every candidate simulation on
one core; the tasks are independent once deduplicated, so the sweep can
fan out.  :func:`parallel_sweep` keeps the serial driver's exact
semantics by splitting the work in three:

1. **partition** — every task's full cache key is computed up front (the
   same :func:`~repro.tuner.search.task_cache_key` the serial path uses);
   tasks aliasing an earlier key never reach a worker, they share the
   leader's result exactly as serial dedup does;
2. **resolve warm leaders in-parent** — a key already present in the
   shared cache is answered by a cache probe (zero simulations), so a
   warm rerun never spawns a process;
3. **fan out cold leaders** — :func:`repro.util.forkpool.fork_run`
   (the fork-inheriting index pool this layer was extracted into) tunes
   each remaining group.  Every group writes to its *own* cache file
   (atomic rename, written once when the group finishes), and the
   parent folds the finished files into the shared cache through
   :meth:`~repro.tuner.cache.TuneCache.merge_from` — the same
   flock-protected read-merge-rename path every other cache write takes.
   A worker that crashes mid-group therefore cannot corrupt the shared
   file or drop other groups' results: its file simply never exists,
   while completed groups are merged in a ``finally`` before the failure
   propagates.

:class:`~repro.tuner.search.TuneTask` carries closures (builder
factories, analytic bounds) that cannot cross a pickle boundary, so the
pool inherits the task table over ``fork()`` and workers receive only a
group index.  On platforms without ``fork`` the driver degrades to the
serial loop — same report, no parallelism.  (The serial loop is kept
here rather than delegated to the pool's own fallback because it tunes
against the *shared* cache, not private per-group files.)

The report is assembled in task order from per-key results, so entry
order, dedup labels and ``n_simulated`` accounting are identical to the
serial run (``SweepReport.rows()`` compares byte-for-byte): the
simulator is deterministic, and a cold group tunes against an empty
private cache exactly like a cold serial task tunes against a shared
cache that does not contain its key.
"""

from __future__ import annotations

import shutil
import tempfile
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from time import perf_counter
from typing import Callable

from repro.config import H800, HardwareSpec
from repro.tuner import cache as cache_mod
from repro.tuner.search import TuneResult, TuneTask, task_cache_key, tune
from repro.tuner.space import TunerError
from repro.util.forkpool import fork_available, fork_run


def _merge_worker_caches(cache: cache_mod.TuneCache | None,
                         cache_dir: str | None) -> int:
    """Fold every *finished* per-group cache file into the shared cache
    (one flush for all of them).

    Group files appear atomically when their tune completes, so this is
    safe to run after a worker crash: partial groups have no file, and
    the shared cache only ever sees complete entries.

    A readonly shared cache is skipped outright: ``merge_from`` raises on
    readonly handles (nothing would persist), and this runs in a
    ``finally`` where raising would discard the completed report — the
    same silent-no-persist semantics the serial path's ``put`` has.
    """
    if cache is None or cache_dir is None or cache.readonly:
        return 0
    # numeric group order (not lexicographic): merge_from gives later
    # sources precedence on key conflicts, so precedence must follow the
    # group index, not "group10" < "group2"
    files = sorted(Path(cache_dir).glob("group*.json"),
                   key=lambda p: int(p.stem[len("group"):]))
    return cache.merge_from(*files)


def parallel_sweep(named: list[tuple[str, TuneTask]], *, world: int = 8,
                   spec: HardwareSpec = H800, strategy: str = "exhaustive",
                   cache: cache_mod.TuneCache | None = None,
                   max_trials: int | None = None, workers: int = 2,
                   progress: Callable[[str], None] | None = None,
                   recorder=None):
    """Run one sweep's task list with cold key groups fanned out over a
    process pool.  Called by :func:`repro.tuner.sweep.sweep` with the
    already-normalized ``(name, task)`` list; not meant to be invoked
    directly.

    ``recorder`` spans cover only parent-side work: warm-leader cache
    probes, the serial fallback, and one ``fanout`` span bracketing the
    whole worker pool.  Per-candidate spans recorded *inside* forked
    children die with the child process (a fork-pool worker returns only
    its pickled :class:`TuneResult`), so a parallel sweep's span total
    under-counts by design — the fanout span is the honest envelope.
    """
    from repro.tuner.sweep import SweepEntry, SweepReport

    rec = (recorder if recorder is not None
           and getattr(recorder, "enabled", False) else None)

    tune_kwargs = dict(world=world, spec=spec, strategy=strategy,
                       max_trials=max_trials)

    # computing every key first also rejects an unknown strategy before
    # any simulation or fork
    keyed = [(name, task, task_cache_key(task, **tune_kwargs))
             for name, task in named]

    # -- partition: one leader per unique key, in first-occurrence order --
    leaders: list[tuple[str, TuneTask, str]] = []
    seen: set[str] = set()
    for name, task, key in keyed:
        if key not in seen:
            seen.add(key)
            leaders.append((name, task, key))

    results: dict[str, TuneResult] = {}

    # -- warm leaders: a shared-cache probe answers without simulating ----
    cold: list[tuple[str, TuneTask, str]] = []
    for name, task, key in leaders:
        if cache is not None and key in cache:
            results[key] = tune(task, cache=cache, recorder=recorder,
                                **tune_kwargs)
        else:
            cold.append((name, task, key))

    # -- cold leaders: fan out (or fall back to the serial loop) ----------
    if cold and (not fork_available() or workers <= 1 or len(cold) == 1):
        for name, task, key in cold:
            results[key] = tune(task, cache=cache, recorder=recorder,
                                **tune_kwargs)
    elif cold:
        cache_dir = (tempfile.mkdtemp(prefix="repro-sweep-workers-")
                     if cache is not None else None)
        cold_tasks = [task for _, task, _ in cold]

        def tune_group(index: int) -> TuneResult:
            """Tune one cold key group against a private cache file
            (inherited over ``fork()``; only ``index`` crosses)."""
            group_cache = None
            if cache_dir is not None:
                group_cache = cache_mod.TuneCache(
                    Path(cache_dir) / f"group{index}.json")
            return tune(cold_tasks[index], cache=group_cache, **tune_kwargs)

        t_fan = perf_counter() if rec is not None else 0.0
        try:
            group_results, group_failures = fork_run(
                tune_group, len(cold), workers)
            if rec is not None:
                rec.span(t_fan, perf_counter(), "fanout",
                         f"{len(cold)} groups x {workers} workers")
        finally:
            try:
                _merge_worker_caches(cache, cache_dir)
            finally:
                if cache_dir is not None:
                    shutil.rmtree(cache_dir, ignore_errors=True)
        for i, result in group_results.items():
            results[cold[i][2]] = result
        if group_failures:
            # a dead worker fails *every* unfinished future with
            # BrokenProcessPool, so prefer a real exception (the root
            # cause) for the re-raise; name no specific task otherwise
            failures = [(cold[i][0], exc) for i, exc in group_failures]
            for name, exc in failures:
                if not isinstance(exc, BrokenProcessPool):
                    raise exc
            names = sorted(name for name, _ in failures)
            raise TunerError(
                f"a sweep worker died while tuning one of {names}; "
                f"completed groups were merged into the shared cache"
            ) from failures[0][1]

    # -- assemble in task order: identical to the serial report -----------
    first_name: dict[str, str] = {}
    entries: list[SweepEntry] = []
    for name, task, key in keyed:
        if key in first_name:
            entries.append(SweepEntry(
                name=name, kernel=task.kernel, shape_key=task.shape_key,
                cache_key=key, result=results[key],
                deduped_from=first_name[key]))
            if progress is not None:
                # keep this line identical to the serial driver's: dedup
                # keys on the FULL cache key, so name the shared key
                progress(f"[sweep] {name}: deduplicated (same cache key "
                         f"as {first_name[key]}: {key})")
            continue
        first_name[key] = name
        result = results[key]
        entries.append(SweepEntry(
            name=name, kernel=task.kernel, shape_key=task.shape_key,
            cache_key=key, result=result))
        if progress is not None:
            provenance = ("cache" if result.from_cache
                          else f"{result.n_simulated} simulations")
            progress(f"[sweep] {name}: best {result.best_time * 1e3:.3f} ms "
                     f"({provenance})")
    return SweepReport(entries=entries)
