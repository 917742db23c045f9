"""Tests of the benchmark itself, at the quick input size.

Run from the repository root::

    python -m pytest stackbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED = 3


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "stackbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def quick(workload: str, trace: int = 0, seed: int = SEED):
    out = bench("--workload", workload, "--seed", str(seed), "--seconds",
                "0", "--trace", str(trace), "--size", "quick")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    (digest,) = [ln.split()[-1] for ln in lines
                 if ln.startswith("# sim_digest")]
    return result, digest, out.stderr, out.stdout


@pytest.fixture(scope="module")
def untraced():
    return {w: quick(w) for w in run.WORKLOAD_NAMES}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_quick_pass_is_correct_and_complete(untraced, workload):
    result, _, stderr, _ = untraced[workload]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, stderr
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [n for n, _ in run.END_TO_END]
    for name, unit in run.END_TO_END:
        value = result["metrics"][name]
        assert value["unit"] == unit
        assert isinstance(value["value"], float) and value["value"] > 0


def test_traced_run_prints_every_layer_and_keeps_the_digest(untraced):
    result, digest, stderr, stdout = quick("numeric-verify", trace=1)
    assert result["correct"], stderr
    assert list(result["metrics"]) == [n for n, _ in run.PER_LAYER]
    # the traced run compared its digest with the stored untraced one
    assert digest == untraced["numeric-verify"][1]
    assert "and the stored untraced run" in stdout
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["sim.events"] > 0 and m["runtime.launches"] > 0
    assert 0 < m["compiler.interp.share"] < 1
    assert m["analyze.plans"] > 0 and m["serve.steps"] == 0


def test_metric_names_follow_the_grammar():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key in ("end_to_end", "per_layer"):
        names = [m["name"] for m in spec[key]]
        assert len(names) == len(set(names))
        for m in spec[key]:
            assert NAME.match(m["name"]), m["name"]
            assert UNIT.match(m["unit"]), m["unit"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == \
        list(run.WORKLOAD_NAMES)


def test_layer_map_names_real_metrics():
    layers = json.loads((BENCH / "layers.json").read_text())
    per_layer = {n for n, _ in run.PER_LAYER}
    e2e = {n for n, _ in run.END_TO_END}
    for layer in layers["layers"]:
        for name in layer["metrics"]:
            names = {name.replace("<family>", f) for f in run.FAMILIES}
            assert names <= per_layer, name
        for metric, workload in layer["moves"]:
            assert metric in e2e
            assert workload == "all" or workload in run.WORKLOAD_NAMES
        assert set(layer.get("no_change", ())) <= set(run.WORKLOAD_NAMES)
    assert set(layers["op_p50_ms"]) == set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_same_seed_gives_the_same_digest(untraced, workload, tmp_path):
    import workloads
    from speed import Speed

    wl = workloads.WORKLOADS[workload](SEED, "quick", tmp_path)
    try:
        p = workloads.Pass(Speed())
        wl.run_pass(p)
    finally:
        wl.close()
    assert p.failed == 0, p.errors
    assert run.digest(p) == untraced[workload][1]


def test_another_seed_changes_the_serving_digest(untraced):
    _, digest, _, _ = quick("serve-mix", seed=SEED + 1)
    assert digest != untraced["serve-mix"][1]


def test_a_failed_check_fails_the_run(monkeypatch, capsys):
    import workloads

    finish = workloads.ServeMix.finish

    def failing_finish(self, p):
        finish(self, p)
        p.check("injected", False)

    monkeypatch.setattr(workloads.ServeMix, "finish", failing_finish)
    code = run.main(["--workload", "serve-mix", "--seed", str(SEED + 2),
                     "--seconds", "0", "--size", "quick"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert not result["correct"] and result["failed"] == 1
    assert result["metrics"]["success_rate"]["value"] < 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "stackbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "serve-mix", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert "correct" not in out.stdout
