"""Smoke test of the benchmark harness on tiny epoch budgets.

Runs every workload once untraced, and two of them traced, with budgets
small enough for a few seconds each, and checks that each metric
BENCHMARK.json names is emitted with its unit, that spans nest, that the
output checks catch an inaccurate or changed result, and that the entry point
refuses a checkout without the package.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import harness  # noqa: E402
import layers  # noqa: E402

TINY = {
    "training.epochs_first": "30",
    "training.epochs_rest": "5",
    "lr.probe_epochs": "20",
}
TINY_STEPS = {"frac_long": "4", "call_truncated": "3", "call_mapped": "3"}


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _tiny(name):
    overrides = dict(TINY)
    if name in TINY_STEPS:
        overrides["grid.n_steps"] = TINY_STEPS[name]
    return overrides


def test_benchmark_json_lists_the_harness_workloads_and_metrics():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER_UNITS


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name, tmp_path):
    result, stamp, iterations, _ = harness.measure(
        harness.WORKLOADS[name], 1, 0.0, False, ROOT, str(tmp_path), _tiny(name)
    )
    assert result["attempted"] == len(iterations) == 1
    for metric in _spec()["end_to_end"]:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float) and emitted["value"] > 0.0
    assert stamp["nproc"] >= 1 and stamp["child_env"]["OPENBLAS_NUM_THREADS"] == "1"
    # lr_probe's confirming solve is untimed: the iteration covers the search alone
    assert len(iterations[0].out_dirs) == 1
    if name == "call_truncated":
        # 30 epochs cannot meet the 2e-2 acceptance gate: the check must say so
        assert result["failed"] == 1 and "exceeds" in iterations[0].failure
    else:
        assert result["correct"], iterations[0].failure


@pytest.mark.parametrize("name", ["call_mapped", "lr_probe"])
def test_traced_run_emits_every_per_layer_metric_and_spans_nest(name, tmp_path):
    result, _, iterations, rec = harness.measure(
        harness.WORKLOADS[name], 2, 0.0, True, ROOT, str(tmp_path), _tiny(name)
    )
    assert result["correct"], [it.failure for it in iterations]
    for metric in _spec()["per_layer"]:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float)
    assert rec.spans and layers.check_nesting(rec.spans) == []
    names = {sp.name for sp in rec.spans}
    layer = layers.WRITE if name == "call_mapped" else layers.LR_SEARCH
    assert {layers.CLI, layers.TRAIN, layers.CONTEXT, layer} <= names
    counts = {k: result["metrics"][k]["value"] for k in ("trainer.steps", "trainer.probes")}
    assert counts == ({"trainer.steps": 3.0, "trainer.probes": 0.0} if name == "call_mapped"
                      else {"trainer.steps": 0.0, "trainer.probes": 8.0})


def test_iteration_fails_when_outputs_differ_from_the_reference(tmp_path):
    wl = harness.WORKLOADS["call_mapped"]
    cfg_path = harness.derive_config(ROOT, wl, str(tmp_path), _tiny(wl.name))
    runner = harness.child_runner(str(tmp_path))
    first = harness.run_iteration(wl, cfg_path, str(tmp_path), runner, None)
    assert first.failure is None and "surface.csv" in first.digests
    again = harness.run_iteration(wl, cfg_path, str(tmp_path), runner, first.digests)
    assert again.failure is None
    changed = dict(first.digests, **{"surface.csv": "0" * 64})
    differs = harness.run_iteration(wl, cfg_path, str(tmp_path), runner, changed)
    assert differs.failure == "outputs differ from the first iteration's"


def test_nesting_check_flags_a_child_outside_its_parent():
    rec = layers.Recorder()
    with rec.span("outer"):
        with rec.span("inner"):
            pass
    assert layers.check_nesting(rec.spans) == []
    rec.spans[1].end = rec.spans[0].end + 1.0
    assert layers.check_nesting(rec.spans) != []


def test_useful_epochs_counts_until_the_cost_settles():
    assert layers.useful_epochs(np.array([10.0, 5.0, 1.005, 1.0, 1.0])) == 2
    assert layers.useful_epochs(np.array([1.0])) == 0


def test_entry_point_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "call_mapped", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
