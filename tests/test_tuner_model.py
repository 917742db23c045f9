"""Tests for the model-guided search strategy (``repro.tuner.model``).

Covers the PR's acceptance scenario: ``strategy="model"`` runs strictly
fewer full-fidelity simulations than ``strategy="exhaustive"`` on the
Figure-8 MLP shapes while ``best_time <= default_time`` holds on every
shape, and a model-search cache entry never aliases an exhaustive one
(the probe budget and stop optimism constants are folded into the
search signature).
"""

from __future__ import annotations

import math

import pytest

import repro.tuner.search as search_mod
from repro.bench.experiments import mlp_sweep_tasks
from repro.bench.harness import run_builder
from repro.kernels.ag_gemm import ag_gemm_tune_task
from repro.models.configs import MLP_BENCHES
from repro.tuner import (
    ResidualModel,
    TuneCache,
    TunerError,
    model_guided_search,
    prune,
    stratified_probe_indices,
    sweep,
    task_cache_key,
    tune,
)
from repro.config import H800

SMALL = dict(m=512, n=256, k=256)
SMALL_WORLD = 4


def small_task(**kw):
    return ag_gemm_tune_task(SMALL["m"], SMALL["n"], SMALL["k"],
                             world=SMALL_WORLD, **kw)


# ---------------------------------------------------------------------------
# ResidualModel
# ---------------------------------------------------------------------------

def test_residual_model_learns_per_axis_residuals():
    """Synthetic ground truth with exact per-axis multiplicative
    residuals: time = bound * f(mode) * g(block).  The fitted model must
    rank candidates correctly and predict within a few percent."""
    modes = {"dma": 1.1, "pull": 1.9}
    blocks = {64: 1.4, 128: 1.0}
    cands, bounds, times = [], [], []
    for mode, mf in modes.items():
        for block, bf in blocks.items():
            for rep in range(2):                   # a couple of shapes each
                bound = 1e-3 * (1 + rep)
                cands.append({"mode": mode, "block_m": block})
                bounds.append(bound)
                times.append(bound * mf * bf)
    model = ResidualModel(ridge=1e-3)
    assert not model.fitted
    model.fit(cands, bounds, times)
    assert model.fitted
    preds = {(c["mode"], c["block_m"]): model.predict(c, b)
             for c, b in zip(cands, bounds) if b == 1e-3}
    # ranking matches the ground-truth residual ordering
    ranked = sorted(preds, key=preds.get)
    assert ranked[0] == ("dma", 128)
    assert ranked[-1] == ("pull", 64)
    for (mode, block), pred in preds.items():
        truth = 1e-3 * modes[mode] * blocks[block]
        assert pred == pytest.approx(truth, rel=0.05)


def test_residual_model_never_predicts_below_the_bound():
    model = ResidualModel()
    cand = {"mode": "dma"}
    assert model.predict(cand, 2.5e-4) == 2.5e-4       # unfitted: the bound
    # train on times *equal* to the bound: log-residual 0, prediction
    # clamped at the bound even if ridge pulls weights slightly negative
    model.fit([cand] * 3, [1e-3] * 3, [1e-3] * 3)
    assert model.predict(cand, 1e-3) >= 1e-3
    # an unseen axis value degrades to the intercept, not an explosion
    pred = model.predict({"mode": "never-seen"}, 1e-3)
    assert 1e-3 <= pred < 1.0


def test_residual_model_input_validation():
    with pytest.raises(TunerError):
        ResidualModel(ridge=0.0)
    with pytest.raises(TunerError):
        ResidualModel().fit([{"a": 1}], [1.0], [1.0, 2.0])
    # empty fit resets to unfitted
    m = ResidualModel()
    m.fit([{"a": 1}], [1.0], [2.0])
    assert m.fitted
    m.fit([], [], [])
    assert not m.fitted


def test_stratified_probe_indices():
    assert stratified_probe_indices(0, 4) == []
    assert stratified_probe_indices(3, 8) == [0, 1, 2]
    assert stratified_probe_indices(10, 1) == [0]
    idx = stratified_probe_indices(10, 4)
    assert idx[0] == 0 and idx[-1] == 9 and len(idx) == 4
    assert idx == sorted(set(idx))


# ---------------------------------------------------------------------------
# strategy="model" through tune()
# ---------------------------------------------------------------------------

def test_model_strategy_never_worse_than_default():
    res = tune(small_task(), world=SMALL_WORLD, strategy="model")
    assert res.best_time <= res.default_time          # provable fallback
    assert res.strategy == "model"
    assert res.trials and res.trials[0][0] == small_task().default
    # the early stop really fired or everything was simulated — either
    # way the accounting adds up over the survivor set
    survivors = res.n_candidates - res.n_pruned - 1   # minus the default
    assert (res.n_simulated - 1) + res.n_pruned_dynamic \
        + res.n_model_skipped == survivors


def test_model_strategy_rejects_bad_parameters():
    def search(**kw):
        return model_guided_search([{"a": 1}], [1.0], [], 2.0,
                                   lambda c: 1.0, lambda c: 1.0, **kw)

    with pytest.raises(TunerError):
        search(optimism=1.5)
    with pytest.raises(TunerError):
        search(probes=0)


def test_model_strategy_respects_max_trials():
    res = tune(small_task(), world=SMALL_WORLD, strategy="model",
               max_trials=3)
    assert res.n_simulated <= 1 + 3                   # default + capped set


def test_model_signature_and_cache_non_aliasing(tmp_path, monkeypatch):
    """A model-search entry must never be served to an exhaustive request
    (or vice versa), while an identical model request hits its own key."""
    cache = TuneCache(tmp_path / "cache.json")
    mo = tune(small_task(), world=SMALL_WORLD, strategy="model", cache=cache)
    ex = tune(small_task(), world=SMALL_WORLD, cache=cache)
    assert not ex.from_cache                  # model entry not served
    assert ex.best_time <= mo.best_time       # exhaustive is the floor
    assert len(cache) == 2
    # an identical model request hits its own entry, zero simulations
    again = tune(small_task(), world=SMALL_WORLD, strategy="model",
                 cache=cache)
    assert again.from_cache and again.n_simulated == 0
    assert again.best == mo.best
    # a different optimism constant re-searches instead of aliasing
    monkeypatch.setattr(search_mod, "DEFAULT_OPTIMISM", 0.5)
    other = tune(small_task(), world=SMALL_WORLD, strategy="model",
                 cache=cache)
    assert not other.from_cache
    key = task_cache_key(small_task(), world=SMALL_WORLD, spec=H800,
                         strategy="model")
    assert key.endswith("-o0.5") and key in cache


def test_model_optimism_zero_degrades_to_bound_pruning():
    """optimism=0 makes the optimistic prediction the analytic bound
    itself: the stop rule can only fire where bound-based dynamic
    re-pruning would have skipped anyway, so nothing that exhaustive
    simulates is skipped and the winner matches exhaustive's."""
    task = small_task()
    ex = tune(task, world=SMALL_WORLD)

    def simulate(cand):
        return run_builder(task.make_builder(cand), world=SMALL_WORLD)

    default_time = simulate(task.default)
    trials = [(dict(task.default), default_time)]
    pruned = prune([c for c in task.space.candidates() if c != task.default],
                   task.bound, default_time)
    _, n_sim, n_dyn, n_skipped = model_guided_search(
        pruned.survivors, pruned.bounds, trials, default_time, simulate,
        task.bound, optimism=0.0)
    best, best_time = min(trials, key=lambda ct: ct[1])
    assert best == ex.best
    assert best_time == pytest.approx(ex.best_time)
    # + 1: exhaustive's count includes the default's simulation
    assert 1 + n_sim + n_dyn + n_skipped >= ex.n_simulated


# ---------------------------------------------------------------------------
# acceptance: Figure-8 MLP shapes
# ---------------------------------------------------------------------------

def test_acceptance_model_fewer_sims_than_exhaustive_fig8(tmp_path):
    """On a Figure-8 MLP shape (both kernels, paper scale, world=8) the
    model strategy must run strictly fewer full-fidelity simulations
    than exhaustive while best_time <= default_time on every shape."""
    tasks = mlp_sweep_tasks(MLP_BENCHES[:1], world=8)
    ex = sweep(tasks, world=8, cache=TuneCache(tmp_path / "ex.json"))
    mo = sweep(tasks, world=8, cache=TuneCache(tmp_path / "mo.json"),
               strategy="model")
    assert mo.n_simulated < ex.n_simulated
    assert sum(e.result.n_model_skipped for e in mo.entries) > 0
    for entry in mo.entries:
        assert entry.result.best_time <= entry.result.default_time
    # the model found genuinely competitive configs, not just cheap ones:
    # within a few percent of the exhaustive winner on every shape
    for e_ex, e_mo in zip(ex.entries, mo.entries):
        assert e_mo.result.best_time <= e_ex.result.best_time * 1.05
