"""Tests for the shipped warm cache and the tuned-by-default bench columns.

``benchmarks/warm_cache.json`` is a checked-in tuner cache covering the
Figure-8 MLP, Table-4 MoE and Figure-10 attention shape tables; when it
resolves, the ``*_builders`` in :mod:`repro.bench.experiments` grow a
TileLink-tuned column *by default* and every tuned-column lookup at
bench time is a warm hit — zero simulations.
``benchmarks/refresh_warm_cache.py --check`` is the CI staleness
tripwire; the tests here are its tier-1 shadow.
"""

from __future__ import annotations

import pytest

from repro.bench import experiments
from repro.bench.experiments import (
    ENV_WARM_CACHE,
    ag_gemm_builders,
    attention_builders,
    attention_sweep_tasks,
    mlp_sweep_tasks,
    moe_part2_builders,
    moe_sweep_tasks,
    resolve_warm_cache,
    warm_cache_path,
)
from repro.config import H800
from repro.kernels.ag_gemm import ag_gemm_tune_task
from repro.models.configs import ATTENTION_BENCHES, MLP_BENCHES, MOE_BENCHES
from repro.tuner import task_cache_key, tune

WORLD = 8


def test_warm_cache_ships_and_covers_the_paper_tables():
    """The checked-in cache must hold a current-fingerprint entry for
    every Figure-8 MLP, Table-4 MoE and Figure-10 attention tuning task
    (else it is stale — CI runs refresh_warm_cache.py --check for the
    same contract)."""
    cache = resolve_warm_cache()
    assert cache is not None, \
        f"{warm_cache_path()} must ship with the repo"
    assert cache.readonly
    tasks = (mlp_sweep_tasks(MLP_BENCHES, world=WORLD)
             + moe_sweep_tasks(MOE_BENCHES, world=WORLD)
             + attention_sweep_tasks(ATTENTION_BENCHES, world=WORLD))
    missing = [name for name, task in tasks
               if task_cache_key(task, world=WORLD, spec=H800) not in cache]
    assert not missing, f"warm cache is stale; missing: {missing}"


def test_warm_cache_resolution_performs_zero_simulations():
    shape = MLP_BENCHES[0]
    task = ag_gemm_tune_task(shape.s, shape.i // WORLD, shape.h, world=WORLD)
    res = tune(task, world=WORLD, cache=resolve_warm_cache())
    assert res.from_cache and res.n_simulated == 0
    assert res.best_time <= res.default_time


def test_builders_default_to_tuned_column_when_warm():
    for shape, builders_fn in ((MLP_BENCHES[0], ag_gemm_builders),
                               (MOE_BENCHES[0], moe_part2_builders)):
        builders = builders_fn(shape, WORLD)       # tuned=None -> auto
        assert "TileLink-tuned" in builders, builders_fn.__name__
    # explicit opt-out still wins
    assert "TileLink-tuned" not in ag_gemm_builders(MLP_BENCHES[0], WORLD,
                                                    tuned=False)


def test_tuned_column_resolves_without_simulating():
    """The auto-enabled column runs the tuned config straight from the
    warm cache: never slower than the paper-config TileLink column."""
    from repro.bench.harness import run_builder

    builders = moe_part2_builders(MOE_BENCHES[0], WORLD)
    t_paper = run_builder(builders["TileLink"], world=WORLD)
    t_tuned = run_builder(builders["TileLink-tuned"], world=WORLD)
    assert t_tuned <= t_paper * 1.001


def test_auto_tuned_column_never_simulates_on_runtime_mismatch(monkeypatch):
    """The auto probe keys on the builder world + H800, but the closure
    launches at ctx world/spec: on a runtime key miss it must fall back
    to the paper config, never tune inside the timed bench."""
    from repro.bench.harness import run_builder

    builders = ag_gemm_builders(MLP_BENCHES[0], WORLD)   # probed at world=8
    assert "TileLink-tuned" in builders

    def boom(*args, **kwargs):
        raise AssertionError("tune ran on a warm-cache runtime miss")

    monkeypatch.setattr(experiments, "tune", boom)
    # world=4 has no warm entry: the tuned builder must still run (paper
    # config) without ever reaching tune
    t_tuned = run_builder(builders["TileLink-tuned"], world=4)
    t_paper = run_builder(builders["TileLink"], world=4)
    assert t_tuned == pytest.approx(t_paper)


def test_missing_warm_cache_disables_auto_columns(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_WARM_CACHE, str(tmp_path / "nope.json"))
    assert resolve_warm_cache() is None
    builders = ag_gemm_builders(MLP_BENCHES[0], WORLD)
    assert "TileLink-tuned" not in builders


def test_foreign_shape_keeps_untuned_columns(monkeypatch):
    """A shape the warm cache does not cover must not enable the column
    (enabling it would simulate at bench time)."""
    from repro.models.configs import MlpShape

    odd = MlpShape("odd", 2048, 512, 2048, "not-in-the-tables")
    builders = ag_gemm_builders(odd, WORLD)
    assert "TileLink-tuned" not in builders


# ---------------------------------------------------------------------------
# Figure-10 attention: the same warm-cache contract as Figures 8/9
# ---------------------------------------------------------------------------

def test_attention_builders_default_to_tuned_column_when_warm():
    shape, seq_len = ATTENTION_BENCHES[0], ATTENTION_BENCHES[0].seq_lens[0]
    builders = attention_builders(shape, seq_len, WORLD)  # tuned=None
    assert "TileLink-tuned" in builders
    # explicit opt-out still wins
    assert "TileLink-tuned" not in attention_builders(shape, seq_len, WORLD,
                                                      tuned=False)


def test_attention_tuned_column_resolves_without_simulating(monkeypatch):
    """The auto-enabled Figure-10 column runs the tuned config straight
    from the warm cache — zero bench-time simulations (tune must never
    be reached), never slower than the paper-config TileLink."""
    from repro.bench.harness import run_builder

    shape, seq_len = ATTENTION_BENCHES[0], ATTENTION_BENCHES[0].seq_lens[0]
    builders = attention_builders(shape, seq_len, WORLD)

    def boom(*args, **kwargs):
        raise AssertionError("tune simulated inside the timed bench")

    monkeypatch.setattr(experiments, "tune", boom)
    t_paper = run_builder(builders["TileLink"], world=WORLD)
    t_tuned = run_builder(builders["TileLink-tuned"], world=WORLD)
    assert t_tuned <= t_paper * 1.001


def test_attention_auto_column_never_simulates_on_runtime_mismatch(
        monkeypatch):
    """Runtime world/spec diverging from the build-time probe must fall
    back to the paper config, never tune inside the timed bench."""
    from repro.bench.harness import run_builder

    shape, seq_len = ATTENTION_BENCHES[0], ATTENTION_BENCHES[0].seq_lens[0]
    builders = attention_builders(shape, seq_len, WORLD)  # probed at world=8
    assert "TileLink-tuned" in builders

    def boom(*args, **kwargs):
        raise AssertionError("tune ran on a warm-cache runtime miss")

    monkeypatch.setattr(experiments, "tune", boom)
    # world=4 has no warm entry: still runs, on the paper config
    t_tuned = run_builder(builders["TileLink-tuned"], world=4)
    t_paper = run_builder(builders["TileLink"], world=4)
    assert t_tuned == pytest.approx(t_paper)


def test_foreign_seq_len_keeps_untuned_attention_columns():
    """A sequence length outside the Figure-10 sweep must not enable the
    column (enabling it would simulate at bench time)."""
    shape = ATTENTION_BENCHES[0]
    assert 8192 not in shape.seq_lens
    builders = attention_builders(shape, 8192, WORLD)
    assert "TileLink-tuned" not in builders


def test_missing_warm_cache_disables_attention_auto_column(tmp_path,
                                                           monkeypatch):
    monkeypatch.setenv(ENV_WARM_CACHE, str(tmp_path / "nope.json"))
    shape, seq_len = ATTENTION_BENCHES[0], ATTENTION_BENCHES[0].seq_lens[0]
    assert "TileLink-tuned" not in attention_builders(shape, seq_len, WORLD)


def test_warm_cache_file_is_never_written_by_benches():
    path = warm_cache_path()
    if not path.is_file():
        pytest.skip("warm cache not shipped in this checkout")
    before = path.read_bytes()
    cache = resolve_warm_cache()
    cache.put("scratch", {"block_m": 128}, 1.0)
    assert path.read_bytes() == before
