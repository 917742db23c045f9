"""Search strategies over the pruned candidate set (the *search* stage).

The pipeline a :func:`tune` call runs:

1. **cache probe** — return immediately on a hit (no simulation at all);
2. **incumbent seed** — simulate the task's hand-picked default config
   once; its time is the bar every candidate must beat;
3. **prune** — :func:`repro.tuner.costprune.prune` discards every
   candidate whose analytic lower bound already exceeds the incumbent;
4. **search** — simulate survivors through
   :func:`repro.bench.harness.run_builder` under one of two strategies:

   * ``"exhaustive"`` — every survivor, in ascending-bound order, with
     *dynamic* re-pruning: as the incumbent drops, later candidates whose
     bound now exceeds it are skipped without simulating.  It is the
     reference the model strategy is checked against;
   * ``"model"`` — model-guided search: a :class:`repro.tuner.model.ResidualModel`
     is trained online on the trials already paid for, re-ranks the
     remaining survivors by predicted time, and the search stops as soon
     as no remaining candidate's optimistic prediction beats the
     incumbent (73 vs 200 simulations over the full Figure-8 MLP table,
     never worse than the default);

5. **cache write** — persist the winner keyed on (kernel, shape, world,
   spec fingerprint, space fingerprint).

The default config is always simulated and included in the final
ranking, so ``best_time <= default_time`` holds by construction — tuning
can only match or improve on the hand-picked point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

from repro.config import H800, HardwareSpec
from repro.tuner import cache as cache_mod
from repro.tuner.costprune import PruneResult, prune
from repro.tuner.model import (
    DEFAULT_OPTIMISM,
    DEFAULT_PROBES,
    model_guided_search,
)
from repro.tuner.space import Candidate, SearchSpace, TunerError

#: builder(ctx) callable accepted by repro.bench.harness.run_builder.
Builder = Callable[[Any], None]


@dataclass(frozen=True)
class TuneTask:
    """Everything the searcher needs to tune one kernel on one shape.

    Kernel modules construct these next to their config dataclasses with
    a ``*_tune_task`` factory (see ``repro.kernels.ag_gemm``).  ``make_builder(candidate)`` must return a
    fresh-context builder simulating the candidate on the task's shape.
    ``bound(candidate)`` is the analytic lower bound the pruner uses;
    ``finalize(candidate)`` converts the winning dict into the kernel's
    config object.
    """

    kernel: str
    shape_key: str
    space: SearchSpace
    default: Candidate
    make_builder: Callable[[Candidate], Builder]
    bound: Callable[[Candidate], float]
    finalize: Callable[[Candidate], Any] = field(default=lambda c: dict(c))


@dataclass
class TuneResult:
    """Outcome of one :func:`tune` call (also what the cache reconstructs)."""

    best: Candidate
    best_time: float
    best_config: Any
    default_time: float | None
    n_candidates: int
    n_pruned: int           # discarded by the analytic pre-filter
    n_pruned_dynamic: int   # skipped later as the incumbent improved
    n_simulated: int        # full discrete-event simulations actually run
    from_cache: bool
    strategy: str
    #: candidates abandoned when the model strategy's early stop fired
    #: (no remaining optimistic prediction beat the incumbent); 0 for
    #: exhaustive search and for cache hits.
    n_model_skipped: int = 0
    trials: list[tuple[Candidate, float]] = field(default_factory=list)

    @property
    def prune_fraction(self) -> float:
        return self.n_pruned / self.n_candidates if self.n_candidates else 0.0


#: the strategies :func:`tune` accepts
STRATEGIES = ("exhaustive", "model")


def search_signature(strategy: str, max_trials: int | None) -> str:
    """Cache-key suffix identifying a *restricted* search.

    The canonical full search (exhaustive, uncapped) keeps a bare key so
    bench reruns and the shipped warm cache all share one entry; every weaker
    search is suffixed so its possibly-weaker winner never aliases it.
    The suffix folds in ``max_trials`` (``mtall`` when uncapped) and, for
    the model strategy, its probe budget and stop optimism (both move
    the early-stop point and therefore the winner).

    This is the one place the strategy is validated: :func:`tune`,
    :func:`task_cache_key` and the sweep drivers all compute a key before
    any simulation, so an unknown strategy raises :class:`TunerError`
    before any work is paid for.
    """
    if strategy not in STRATEGIES:
        raise TunerError(f"unknown search strategy {strategy!r}; "
                         f"expected one of {STRATEGIES}")
    if strategy == "exhaustive" and max_trials is None:
        return ""
    mt = "all" if max_trials is None else str(int(max_trials))
    sig = f"|{strategy}-mt{mt}"
    if strategy == "model":
        sig += f"-p{int(DEFAULT_PROBES)}-o{float(DEFAULT_OPTIMISM):g}"
    return sig


def task_cache_key(task: TuneTask, *, world: int, spec: HardwareSpec,
                   strategy: str = "exhaustive",
                   max_trials: int | None = None) -> str:
    """The exact persistent-cache key a :func:`tune` call would use."""
    return cache_mod.make_key(
        task.kernel, task.shape_key, world, spec.fingerprint(),
        task.space.fingerprint()) + search_signature(strategy, max_trials)


def _simulate(task: TuneTask, cand: Candidate, *, world: int,
              spec: HardwareSpec) -> float:
    # Imported lazily: repro.bench pulls in the kernel zoo, which itself
    # imports the tuner for its search spaces and cost bounds.
    from repro.bench.harness import run_builder

    return run_builder(task.make_builder(cand), world=world, spec=spec)


def tune(task: TuneTask, *, world: int = 8, spec: HardwareSpec = H800,
         strategy: str = "exhaustive", cache: cache_mod.TuneCache | None = None,
         max_trials: int | None = None, recorder=None) -> TuneResult:
    """Autotune ``task`` and return the best configuration found.

    This is the subsystem's one-call API: prune with the cost model,
    search the survivors through the simulator, memoise the winner.

    ``recorder`` (an enabled :class:`repro.obs.Recorder`, duck-typed —
    this module never imports :mod:`repro.obs`) collects *wall-clock*
    spans: one per candidate simulation (labelled by kernel/shape and
    search stage), one per prune pass, one per cache probe/write — so a
    sweep's wall time is attributable span by span.  ``None`` (the
    default) records nothing and skips every timing call.
    """
    # The search signature is part of the key: a capped or model search
    # must not alias a later, stronger search on the same shape/spec/space.
    # Computing it first also rejects an unknown strategy before any work.
    key = task_cache_key(task, world=world, spec=spec, strategy=strategy,
                         max_trials=max_trials)

    rec = (recorder if recorder is not None
           and getattr(recorder, "enabled", False) else None)
    if rec is not None:
        rec.meta.setdefault("kind", "spans")
    shape = f"{task.kernel}:{task.shape_key}"

    def sim(cand: Candidate, stage: str) -> float:
        """One candidate simulation, span-recorded when tracing."""
        if rec is None:
            return _simulate(task, cand, world=world, spec=spec)
        t0 = perf_counter()
        t = _simulate(task, cand, world=world, spec=spec)
        rec.span(t0, perf_counter(), "simulate", f"{shape}:{stage}")
        return t

    if cache is not None:
        t_probe = perf_counter() if rec is not None else 0.0
        hit = cache.get(key)
        if rec is not None:
            rec.span(t_probe, perf_counter(), "cache",
                     f"{'hit' if hit is not None else 'miss'}:{shape}")
        if hit is not None:
            best = dict(hit["best"])
            default_time = hit.get("meta", {}).get("default_time")
            return TuneResult(
                best=best, best_time=float(hit["time_s"]),
                best_config=task.finalize(best),
                # coerce like time_s: a hand-edited or foreign cache file
                # may carry the meta value as a JSON string, and a stringly
                # default_time would leak into SweepReport.rows()
                default_time=(float(default_time)
                              if default_time is not None else None),
                n_candidates=int(hit.get("meta", {}).get("n_candidates", 0)),
                n_pruned=int(hit.get("meta", {}).get("n_pruned", 0)),
                n_pruned_dynamic=0, n_simulated=0, from_cache=True,
                strategy=str(hit.get("meta", {}).get("strategy", strategy)))

    candidates = list(task.space.candidates())
    if not candidates:
        raise TunerError(f"search space for {task.kernel!r} is empty")

    # -- incumbent seed: the hand-picked default --------------------------
    default_time = sim(task.default, "default")
    n_simulated = 1
    trials: list[tuple[Candidate, float]] = [(dict(task.default), default_time)]
    incumbent = default_time

    # -- static prune against the incumbent -------------------------------
    others = [c for c in candidates if c != task.default]
    t_prune = perf_counter() if rec is not None else 0.0
    pruned: PruneResult = prune(others, task.bound, incumbent)
    if rec is not None:
        rec.span(t_prune, perf_counter(), "prune",
                 f"{shape}:{pruned.n_pruned}/{len(others)}")

    # -- pick the trial list per strategy ----------------------------------
    survivors = list(pruned.survivors)
    n_dynamic = 0
    n_model_skipped = 0
    if max_trials is not None:
        survivors = survivors[:max_trials]
    if strategy == "model":
        incumbent, n_model_sim, n_dynamic, n_model_skipped = \
            model_guided_search(
                survivors, pruned.bounds[:len(survivors)], trials, incumbent,
                lambda c: sim(c, "model"), task.bound,
                probes=DEFAULT_PROBES, optimism=DEFAULT_OPTIMISM)
        n_simulated += n_model_sim
        survivors = []          # the exhaustive pass below has no work

    # -- exhaustive pass with dynamic re-pruning ---------------------------
    for cand in survivors:
        if task.bound(cand) > incumbent:
            n_dynamic += 1
            continue
        t = sim(cand, "search")
        n_simulated += 1
        trials.append((dict(cand), t))
        incumbent = min(incumbent, t)

    best, best_time = min(trials, key=lambda ct: ct[1])
    result = TuneResult(
        best=best, best_time=best_time, best_config=task.finalize(best),
        default_time=default_time, n_candidates=len(candidates),
        n_pruned=pruned.n_pruned, n_pruned_dynamic=n_dynamic,
        n_simulated=n_simulated, from_cache=False, strategy=strategy,
        n_model_skipped=n_model_skipped, trials=trials)

    if cache is not None:
        t_put = perf_counter() if rec is not None else 0.0
        cache.put(key, best, best_time, meta={
            "default_time": default_time, "n_candidates": len(candidates),
            "n_pruned": pruned.n_pruned, "strategy": strategy,
            "n_simulated": n_simulated,
            "kernel": task.kernel, "shape": task.shape_key, "world": world,
        })
        if rec is not None:
            rec.span(t_put, perf_counter(), "cache", f"put:{shape}")
    return result
