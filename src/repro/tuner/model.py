"""Model-guided search (the *model* strategy, ``tune(strategy="model")``).

Exhaustive search still pays one simulation per cost-model survivor.
But the pruner's analytic lower bound (:mod:`repro.tuner.costprune`) is
already a good *shape* of the truth — what it misses is a per-candidate
residual: how much slower than its floor a candidate actually runs once
wave quantization, signal waits and stream scheduling bite.  That residual is strongly structured by the
design-space axes (a ``pull`` mapping pays SM-transport overhead at any
tile size; a tiny ``block_k`` always re-reads the accumulator), so a
lightweight model over the axes can *rank* the remaining candidates
before the searcher pays for them.

:class:`ResidualModel` fits exactly that: per-axis multiplicative
residuals, ridge-regularized, pure-stdlib math.  Each trial contributes
one observation ``log(time / bound)``; the features are one-hot
indicators per (axis, value) pair plus an intercept; ridge-regularized
least squares keeps the tiny, collinear system well-posed.  Predictions
are ``bound * exp(x . w)``, clamped to never dip below the analytic
bound (the bound is provably a floor — the model must not "un-learn"
that).

:func:`model_guided_search` is the search loop built on top, used by
``tune(strategy="model")``:

1. seed with the hand-picked default (simulated by ``tune`` itself) plus
   a small **bound-stratified probe set** — evenly spaced picks over the
   ascending-bound survivor order, so the model sees cheap and expensive
   corners alike;
2. repeatedly refit on every trial paid so far, re-rank the remaining
   survivors by predicted time, and simulate the best-ranked candidate
   **only while its optimistic prediction still beats the incumbent** —
   ``optimistic = bound + optimism * (predicted - bound)``, so
   ``optimism=0`` degrades to pure bound-based dynamic pruning (never
   stops earlier than exhaustive would) and ``optimism=1`` trusts the
   fitted prediction outright;
3. stop the moment no remaining candidate's optimistic prediction beats
   the incumbent.

The fallback is provable: the default config is always simulated and
stays in the trial list, so ``best_time <= default_time`` holds no
matter how wrong the model is — early stopping can only cost optimality,
never correctness.  ``tune`` always runs the loop with
:data:`DEFAULT_PROBES` and :data:`DEFAULT_OPTIMISM`; because the stop
budget *does* change the winner, ``search_signature()`` folds both
constants into the cache key, so a model-search entry never aliases an
exhaustive one and changing either constant re-keys the cache.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from repro.tuner.space import Candidate, TunerError

#: default probe-set size (bound-stratified seeds before the first fit)
DEFAULT_PROBES = 4
#: default optimism: fraction of the predicted residual the stop rule
#: trusts (0 = pure bound / exhaustive behaviour, 1 = trust the model).
DEFAULT_OPTIMISM = 0.75

#: numeric guards: log-residuals are clamped so exp() cannot overflow
_MAX_LOG = 16.0
_TINY = 1e-30


def stratified_probe_indices(n: int, probes: int) -> list[int]:
    """Evenly spaced indices over ``range(n)`` including both endpoints.

    The survivor list arrives sorted by ascending analytic bound, so
    these picks stratify the probe set over the bound distribution —
    the model's first fit sees the promising *and* the dominated end.
    """
    if n <= 0:
        return []
    if probes >= n:
        return list(range(n))
    if probes <= 1:
        return [0]
    return sorted({round(i * (n - 1) / (probes - 1)) for i in range(probes)})


def _solve(a: list[list[float]], b: list[float]) -> list[float]:
    """Solve ``a @ x = b`` by Gaussian elimination with partial pivoting.

    The systems here are tiny (one row per distinct (axis, value) pair,
    typically < 30) and ridge-regularized, so this is both fast and
    well-conditioned — no numpy dependency in the tuner's hot loop.
    """
    n = len(b)
    m = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(m[r][col]))
        if abs(m[pivot][col]) < 1e-12:
            raise TunerError("singular system in ResidualModel fit "
                             "(ridge must be > 0)")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1.0 / m[col][col]
        for r in range(n):
            if r == col:
                continue
            f = m[r][col] * inv
            if f == 0.0:
                continue
            for c in range(col, n + 1):
                m[r][c] -= f * m[col][c]
    return [m[i][n] / m[i][i] for i in range(n)]


class ResidualModel:
    """Ridge regression of per-axis multiplicative residuals.

    Observations are ``y = log(time / bound)`` per trial; features are an
    intercept plus one-hot indicators per (axis, value) pair seen in the
    training set.  A value never seen in training contributes nothing
    (the intercept carries the average residual), so predictions degrade
    gracefully toward "typical slowdown over the bound" instead of
    extrapolating.  ``ridge`` regularizes every coefficient except the
    intercept, which keeps the intentionally-collinear one-hot system
    (each axis's indicators sum to the intercept column) well-posed.
    """

    def __init__(self, ridge: float = 1.0):
        if ridge <= 0:
            raise TunerError(f"ridge must be > 0, got {ridge}")
        self.ridge = float(ridge)
        self._features: dict[tuple[str, str], int] = {}
        self._weights: list[float] | None = None

    @property
    def fitted(self) -> bool:
        return self._weights is not None

    def _encode(self, cand: Candidate) -> list[int]:
        """Indices (into the weight vector) of the candidate's active
        features; the intercept (index 0) is implicit."""
        return [idx for idx in (self._features.get((axis, repr(value)))
                                for axis, value in cand.items())
                if idx is not None]

    def fit(self, candidates: Sequence[Candidate], bounds: Sequence[float],
            times: Sequence[float]) -> None:
        """(Re)fit from scratch on the trials paid so far."""
        if not (len(candidates) == len(bounds) == len(times)):
            raise TunerError("fit() needs parallel candidate/bound/time "
                             "sequences")
        if not candidates:
            self._features, self._weights = {}, None
            return
        self._features = {}
        for cand in candidates:
            for axis, value in cand.items():
                self._features.setdefault((axis, repr(value)),
                                          len(self._features) + 1)
        dim = 1 + len(self._features)
        xs: list[list[int]] = [[0] + self._encode(c) for c in candidates]
        ys = [max(0.0, min(_MAX_LOG,
                           math.log(max(t, _TINY) / max(b, _TINY))))
              for b, t in zip(bounds, times)]
        # normal equations on the sparse one-hot rows
        ata = [[0.0] * dim for _ in range(dim)]
        aty = [0.0] * dim
        for active, y in zip(xs, ys):
            for i in active:
                aty[i] += y
                for j in active:
                    ata[i][j] += 1.0
        for i in range(1, dim):           # regularize all but the intercept
            ata[i][i] += self.ridge
        ata[0][0] += 1e-9                 # keep the pivot nonzero pre-data
        self._weights = _solve(ata, aty)

    def predict(self, cand: Candidate, bound: float) -> float:
        """Predicted full-fidelity time, never below the analytic bound.

        Unfitted models predict the bound itself (maximum optimism): the
        searcher then behaves like bound-ordered exhaustive search until
        the first fit lands.
        """
        if self._weights is None:
            return bound
        z = self._weights[0] + sum(self._weights[i]
                                   for i in self._encode(cand))
        return max(bound, bound * math.exp(max(-_MAX_LOG, min(_MAX_LOG, z))))


def model_guided_search(
    survivors: Sequence[Candidate], bounds: Sequence[float],
    trials: list[tuple[Candidate, float]], incumbent: float,
    simulate: Callable[[Candidate], float],
    bound_of: Callable[[Candidate], float], *, probes: int = DEFAULT_PROBES,
    optimism: float = DEFAULT_OPTIMISM, ridge: float = 1.0,
) -> tuple[float, int, int, int]:
    """Run the model-guided loop over ``survivors`` (ascending bound).

    Mutates ``trials`` in place (the caller's trial log, already seeded
    with the simulated default) and returns ``(incumbent, n_simulated,
    n_pruned_dynamic, n_model_skipped)`` — the last being the candidates
    abandoned when no remaining optimistic prediction beat the incumbent.
    """
    if not 0.0 <= optimism <= 1.0:
        raise TunerError(f"model optimism must be in [0, 1], got {optimism}")
    if probes < 1:
        raise TunerError(f"model probe count must be >= 1, got {probes}")
    n_sim = n_dyn = 0
    remaining = list(zip(survivors, bounds))

    # -- phase 1: bound-stratified probes seed the first fit --------------
    picked = set(stratified_probe_indices(len(remaining), probes))
    probe_set = [cb for i, cb in enumerate(remaining) if i in picked]
    remaining = [cb for i, cb in enumerate(remaining) if i not in picked]
    for cand, bound in probe_set:
        if bound > incumbent:
            n_dyn += 1
            continue
        t = simulate(cand)
        n_sim += 1
        trials.append((dict(cand), t))
        incumbent = min(incumbent, t)

    # -- phase 2: refit, re-rank, simulate while the model says it pays ---
    model = ResidualModel(ridge=ridge)
    while remaining:
        model.fit([c for c, _ in trials],
                  [bound_of(c) for c, _ in trials],
                  [t for _, t in trials])
        ranked = sorted(
            ((b + optimism * (model.predict(c, b) - b), c, b)
             for c, b in remaining), key=lambda obc: obc[0])
        optimistic, cand, bound = ranked[0]
        if optimistic > incumbent:
            # no remaining candidate is predicted to beat the incumbent,
            # even optimistically: stop paying for simulations.  (This
            # subsumes bound-based pruning: optimistic >= bound, so a
            # bound above the incumbent can never reach a simulation.)
            return incumbent, n_sim, n_dyn, len(remaining)
        remaining = [(c, b) for c, b in remaining if c is not cand]
        t = simulate(cand)
        n_sim += 1
        trials.append((dict(cand), t))
        incumbent = min(incumbent, t)
    return incumbent, n_sim, n_dyn, 0
