"""Smoke tests of the scripts under ``scripts/``: each starts, and each
experiment script finishes a tiny run."""

import csv
import importlib.util
import json
import os
import subprocess
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scripts")
NAMES = ("bench_closed_loop.py", "run_labeling_benchmark.py", "run_racing_experiment.py")


def run_script(name, *args):
    return subprocess.run([sys.executable, os.path.join(SCRIPTS, name), *args],
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name", NAMES)
def test_help_exits_zero(name):
    done = run_script(name, "--help")
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout


def test_labeling_benchmark_writes_its_row(tmp_path):
    done = run_script("run_labeling_benchmark.py", "--sets", "disk", "--rho", "1.0",
                      "--n", "200", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    with open(tmp_path / "labeling_benchmark.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["set"], float(row["rho"])) for row in rows] == [("disk", 1.0)]
    assert 0.0 <= float(rows[0]["balanced_accuracy"]) <= 1.0


def test_racing_experiment_runs_both_methods(tmp_path):
    done = run_script("run_racing_experiment.py", "--seeds", "1", "--epochs", "1",
                      "--track", "circle", "--expert", "pid", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    with open(tmp_path / "summary.csv", newline="") as fh:
        assert [row["method"] for row in csv.DictReader(fh)] == ["ca", "bc"]
    with open(tmp_path / "summary.json") as fh:
        summary = json.load(fh)
    assert (summary["seeds"], summary["epochs"]) == (1, 1)


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location(
        "bench_closed_loop", os.path.join(SCRIPTS, "bench_closed_loop.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_kernels_time_every_network(bench, monkeypatch):
    monkeypatch.setattr(bench, "REPEATS", 1)
    monkeypatch.setattr(bench, "NN_CALLS", 1)
    kernels = bench._nn()
    assert sorted(kernels) == sorted(
        [f"nn.{op}.{net}" for op in ("forward", "backward", "adam_step")
         for net in ("policy", "dyn", "clf")] + ["critic.safety_penalty"])
    assert all(entry["us_per_call"] > 0 and entry["batch"] == bench.NN_BATCH
               for entry in kernels.values())
    assert "nn" in bench.PAIRED_GROUPS


def test_bench_hull_cases_build_from_the_sample_store(bench):
    cases = bench._hull_cases()
    assert {name: len(c) for name, c in cases.items()} == {
        "labeldemo_rho1": bench.HULL_QUERIES, "train_gp": bench.HULL_QUERIES}
