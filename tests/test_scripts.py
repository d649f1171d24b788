"""Smoke tests of the scripts under ``scripts/``: each starts, and each
experiment script finishes a tiny run. Also the argument checks of the
labeling benchmark, ``cabc labeldemo``."""

import csv
import importlib.util
import json
import os
import re
import subprocess
import sys

import pytest

from cabc.cli import main

SCRIPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scripts")
NAMES = ("bench_closed_loop.py", "run_racing_experiment.py")


def run_script(name, *args):
    return subprocess.run([sys.executable, os.path.join(SCRIPTS, name), *args],
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name", NAMES)
def test_help_exits_zero(name):
    done = run_script(name, "--help")
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout


# The labeling benchmark is ``cabc labeldemo``, whose summary.csv replaced
# scripts/run_labeling_benchmark.py. The ids are those of the script's cases.
@pytest.mark.parametrize("args, message", [
    pytest.param(("--rho", ""), "--rho must be comma-separated numbers",
                 id="args2---rho must be comma-separated numbers"),
    pytest.param(("--rho", "1.0,x"), "--rho must be comma-separated numbers",
                 id="args4---rho must be comma-separated numbers"),
    pytest.param(("--rho", "1.0,-0.5"), "finite and non-negative, got -0.5",
                 id="args5-finite and non-negative, got -0.5"),
    pytest.param(("--rho", "nan"), "finite and non-negative, got nan",
                 id="args6-finite and non-negative, got nan"),
    pytest.param(("--rho", "0.5,inf"), "finite and non-negative, got inf",
                 id="args7-finite and non-negative, got inf"),
    pytest.param(("--n", "0"), "--n must be at least 1", id="args8---n must be at least 1"),
])
def test_labeling_benchmark_checks_its_arguments_first(tmp_path, capsys, args, message):
    """A bad radius or point count is refused before any pair is labeled."""
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=re.escape(message)):
        main(["labeldemo", "--set", "disk", "--n", "200", *args, "--out", str(out)])
    assert not out.exists() and not capsys.readouterr().out


def test_racing_experiment_runs_both_methods(tmp_path):
    done = run_script("run_racing_experiment.py", "--seeds", "1", "--epochs", "1",
                      "--track", "circle", "--expert", "pid", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    with open(tmp_path / "summary.csv", newline="") as fh:
        assert [row["method"] for row in csv.DictReader(fh)] == ["ca", "bc"]
    with open(tmp_path / "summary.json") as fh:
        summary = json.load(fh)
    assert (summary["seeds"], summary["epochs"]) == (1, 1)


def test_racing_experiment_refuses_no_seeds(tmp_path):
    out = tmp_path / "out"
    done = run_script("run_racing_experiment.py", "--seeds", "0", "--out", str(out))
    assert done.returncode == 2
    assert "--seeds must be at least 1, got 0" in done.stderr
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (("--epochs", "-1"), "epochs must be non-negative"),
    (("--track", "oval"), "unknown track 'oval'"),
    (("--expert", "mpc"), "unknown expert 'mpc'"),
])
def test_racing_experiment_checks_settings_before_making_out(tmp_path, args, message):
    out = tmp_path / "out"
    done = run_script("run_racing_experiment.py", "--seeds", "1", *args, "--out", str(out))
    assert done.returncode != 0
    assert message in done.stderr
    assert not out.exists()


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
