"""Smoke tests of the scripts under ``scripts/``: each starts, and each
experiment script finishes a tiny run. Also the argument checks of the
labeling benchmark, ``cabc labeldemo``."""

import csv
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

from cabc.reports import read_reports_csv

from conftest import abort_after_one_epoch, cli_refuses

SCRIPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scripts")
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
NAMES = ("bench_closed_loop.py", "run_racing_experiment.py")   # every script, sorted


def load_script(name):
    """The script ``name`` loaded as a module, so a test can call its functions."""
    spec = importlib.util.spec_from_file_location(name[:-3], os.path.join(SCRIPTS, name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    pytest.param(("--rho", ""), "argument --rho: must be comma-separated numbers, got ''",
                 id="args2---rho must be comma-separated numbers"),
    pytest.param(("--rho", "1.0,x"), "argument --rho: must be comma-separated numbers",
                 id="args4---rho must be comma-separated numbers"),
    pytest.param(("--rho", "1.0,-0.5"), "finite and non-negative, got -0.5",
                 id="args5-finite and non-negative, got -0.5"),
    pytest.param(("--rho", "nan"), "finite and non-negative, got nan",
                 id="args6-finite and non-negative, got nan"),
    pytest.param(("--rho", "0.5,inf"), "finite and non-negative, got inf",
                 id="args7-finite and non-negative, got inf"),
    pytest.param(("--n", "0"), "argument --n: must be at least 1, got 0",
                 id="args8---n must be at least 1"),
])
def test_labeling_benchmark_checks_its_arguments_first(tmp_path, capsys, args, message):
    """A bad radius or point count is refused before any pair is labeled."""
    out = tmp_path / "out"
    assert message in cli_refuses(capsys, "labeldemo", "--set", "disk", "--n", "200", *args,
                                  "--out", str(out))
    assert not out.exists()


# a few seconds per cell: two epochs of five gradient steps, two-lap evaluations
TINY_CONFIG = ("epochs = 2\nhidden = 16,16\ngrad_steps_policy = 5\ngrad_steps_dyn = 5\n"
               "grad_steps_clf = 5\neval_laps = 2\nearly_stop = 0\n")


def tiny_config(tmp_path, text=TINY_CONFIG):
    path = tmp_path / "tiny.cfg"
    path.write_text(text)
    return str(path)


def test_every_script_is_smoke_tested():
    assert list(NAMES) == sorted(n for n in os.listdir(SCRIPTS) if n.endswith(".py"))


def test_racing_experiment_runs_both_methods(tmp_path):
    # the config's feedback mode stands in each cell, given no --obs
    config = tiny_config(tmp_path, TINY_CONFIG.replace("epochs = 2", "epochs = 1")
                         + "observation_mode = full\n")
    out = tmp_path / "out"
    done = run_script("run_racing_experiment.py", "--seeds", "1", "--track", "circle",
                      "--expert", "pid", "--config", config, "--out", str(out))
    assert done.returncode == 0, done.stderr
    with open(out / "summary.csv", newline="") as fh:
        assert [row["method"] for row in csv.DictReader(fh)] == ["ca", "bc"]
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert (summary["seeds"], summary["epochs"]) == (1, 1)
    for cell in ("ca_seed0", "bc_seed0"):
        assert "\nobservation_mode = full\n" in (out / cell / "config.txt").read_text(), cell


def test_racing_experiment_refuses_no_seeds(tmp_path):
    out = tmp_path / "out"
    done = run_script("run_racing_experiment.py", "--seeds", "0", "--out", str(out))
    assert done.returncode == 2
    assert "argument --seeds: must be at least 1, got 0" in done.stderr
    assert not out.exists()


# The first three ids are kept from when these settings were the script's own
# options; an unknown expert is now refused by `cabc train`'s parser.
@pytest.mark.parametrize("config, args, message", [
    pytest.param("epochs = -1\n", (), "epochs must be non-negative",
                 id="args0-epochs must be non-negative"),
    pytest.param("", ("--track", "oval"), "unknown track 'oval'",
                 id="args1-unknown track 'oval'"),
    pytest.param("", ("--expert", "mpc"), "invalid choice: 'mpc'",
                 id="args2-unknown expert 'mpc'"),
    # each cell sets these; --seed is not read as --seeds
    pytest.param("", ("--method", "bc"), "--method is set by each cell", id="--method bc"),
    pytest.param("", ("--method=bc",), "--method is set by each cell", id="--method=bc"),
    pytest.param("", ("--seed", "3"), "--seed is set by each cell", id="--seed 3"),
    pytest.param("", ("--seed=3",), "--seed is set by each cell", id="--seed=3"),
])
def test_racing_experiment_checks_settings_before_making_out(tmp_path, config, args, message):
    out = tmp_path / "out"
    done = run_script("run_racing_experiment.py", "--seeds", "1", "--config",
                      tiny_config(tmp_path, config), *args, "--out", str(out))
    assert done.returncode == 2
    assert message in done.stderr and "Traceback" not in done.stderr
    assert not out.exists()


def test_racing_experiment_refuses_an_abbreviated_option(tmp_path):
    """``cabc train`` used to read a passed-through ``--se 3`` as ``--seed 3``."""
    out = tmp_path / "out"
    done = run_script("run_racing_experiment.py", "--seeds", "1", "--se", "3",
                      "--out", str(out))
    assert done.returncode == 2
    assert "unrecognized arguments: --se 3" in done.stderr
    assert not out.exists()


@pytest.fixture(scope="module")
def experiment():
    return load_script("run_racing_experiment.py")


@pytest.fixture(scope="module")
def experiment_run(experiment, tmp_path_factory):
    """Two seeds of the experiment on the tiny config, run in this process."""
    root = tmp_path_factory.mktemp("experiment")
    out = root / "out"
    assert experiment.main(["--seeds", "2", "--track", "circle", "--expert", "pid",
                            "--config", tiny_config(root), "--out", str(out)]) == 0
    return out


def test_racing_experiment_summarises_its_run_directories(experiment_run):
    with open(experiment_run / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["seed"], row["method"]) for row in rows] == [
        ("0", "ca"), ("0", "bc"), ("1", "ca"), ("1", "bc")]
    firsts = {"ca": [], "bc": []}
    for row in rows:
        reports = read_reports_csv(experiment_run / f"{row['method']}_seed{row['seed']}"
                                   / "reports.csv")
        first = next((r["epoch"] for r in reports if r["eval_laps"] >= 2), None)
        assert row["first_full_eval"] == ("" if first is None else str(first))
        assert int(row["best_laps"]) == max(r["eval_laps"] for r in reports)
        assert int(row["epochs_run"]) == len(reports) == 2
        firsts[row["method"]].append(3 if first is None else first)
    summary = json.loads((experiment_run / "summary.json").read_text())
    assert summary == {
        "ca_first_full": firsts["ca"], "bc_first_full": firsts["bc"],
        "ca_median": statistics.median(firsts["ca"]),
        "bc_median": statistics.median(firsts["bc"]),
        "ca_success_seeds": sum(v <= 2 for v in firsts["ca"]),
        "bc_success_seeds": sum(v <= 2 for v in firsts["bc"]),
        "epochs": 2, "seeds": 2}


def test_racing_experiment_cells_are_run_directories(experiment_run):
    for cell in ("ca_seed0", "bc_seed0", "ca_seed1", "bc_seed1"):
        names = os.listdir(experiment_run / cell)
        assert {"reports.csv", "meta.json", "config.txt"} <= set(names), cell
        assert "checkpoints" not in names, cell


def test_racing_experiment_passes_a_checkpoint_cadence(experiment, tmp_path):
    out = tmp_path / "out"
    assert experiment.main(["--seeds", "1", "--track", "circle", "--expert", "pid",
                            "--config", tiny_config(tmp_path), "--checkpoint-every", "1",
                            "--out", str(out)]) == 0
    for cell in ("ca_seed0", "bc_seed0"):
        assert sorted(os.listdir(out / cell / "checkpoints")) == ["epoch_0000"]


def test_racing_experiment_stops_at_an_aborted_cell(experiment, tmp_path, monkeypatch):
    abort_after_one_epoch(monkeypatch, "clone_loss became non-finite at epoch 1: nan")
    out = tmp_path / "out"
    assert experiment.main(["--seeds", "2", "--track", "circle", "--expert", "pid",
                            "--config", tiny_config(tmp_path), "--out", str(out)]) == 2
    assert os.listdir(out) == ["ca_seed0"]
    meta = json.loads((out / "ca_seed0" / "meta.json").read_text())
    assert (meta["completed_epochs"], meta["aborted"]) == (
        1, "clone_loss became non-finite at epoch 1: nan")


@pytest.fixture(scope="module")
def bench():
    return load_script("bench_closed_loop.py")


@pytest.fixture
def small_bench(bench, monkeypatch):
    """The bench with two rounds of one run each, on small cases."""
    for name, value in (("PAIRS", 2), ("PAIR_REPEATS", 1), ("NN_CALLS", 1),
                        ("HULL_QUERIES", 5), ("EVAL_LAPS", 1)):
        monkeypatch.setattr(bench, name, value)
    return bench


def bench_case_names(bench):
    """Every group's sorted case names; the hull cases' are pinned, building them is slow."""
    cases = {group: sorted(build("cabc")) for group, build in bench.GROUPS.items()
             if group != "hulls"}
    cases["hulls"] = ["labeldemo_rho1", "train_gp"]
    return cases


def check_timed_tree(tree, cases):
    """``tree`` holds µs per unit and units for every case in ``cases``."""
    assert {group: sorted(entries) for group, entries in tree.items()} == cases
    assert all(case["us"] > 0 and case["units"] >= 1
               for entries in tree.values() for case in entries.values())


def test_bench_kernels_time_every_network(bench, monkeypatch):
    monkeypatch.setattr(bench, "NN_CALLS", 1)
    kernels = bench._nn("cabc")
    assert sorted(kernels) == sorted(
        [f"nn.{op}.{net}" for op in ("forward", "backward", "adam_step")
         for net in ("policy", "dyn", "clf")] + ["critic.safety_penalty"])
    assert all(run() == 1 and info == {"batch": bench.NN_BATCH}
               for run, info in kernels.values())
    assert bench.GROUPS["nn"] is bench._nn


def test_bench_hull_cases_build_from_the_collected_rollouts(bench):
    cases = bench._hull_cases("cabc")
    assert {name: len(c) for name, c in cases.items()} == {
        "labeldemo_rho1": bench.HULL_QUERIES, "train_gp": bench.HULL_QUERIES}


def test_bench_loads_a_second_tree_beside_cabc(bench, tmp_path):
    import cabc.track

    shutil.copytree(os.path.join(SRC, "cabc"), tmp_path / "cabc",
                    ignore=shutil.ignore_patterns("__pycache__"))
    track_py = tmp_path / "cabc" / "track.py"
    text = track_py.read_text()
    assert text.count("def get_track(name: str) -> TrackSpec:\n") == 1
    track_py.write_text(text.replace("def get_track(name: str) -> TrackSpec:\n",
                                     "def get_track(name: str) -> TrackSpec:\n"
                                     "    return 'altered'\n"))
    pkg = bench.load_tree(str(tmp_path), "_test_tree")
    try:
        track, sim = (importlib.import_module(f"{pkg}.{name}") for name in ("track", "sim"))
        loaded = [m for name, m in sys.modules.items() if name.startswith(pkg + ".")]
        assert len(loaded) >= 2 and all(
            os.path.commonpath([m.__file__, str(tmp_path)]) == str(tmp_path) for m in loaded)
        assert track is not cabc.track and sim.TrackSpec is track.TrackSpec
        assert sim.TrackSpec is not cabc.track.TrackSpec
        assert track.get_track("gp") == "altered"
        assert cabc.track.get_track("gp").name == "gp"
    finally:
        bench.unload_tree(pkg)
    assert not [name for name in sys.modules if name.startswith(pkg)]


def test_bench_one_tree_records_us_for_every_case_and_no_ratios(small_bench, tmp_path):
    out = tmp_path / "bench.json"
    assert small_bench.main(["--label", "one", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert sorted(doc) == ["host", "records"]
    record = doc["records"][-1]
    assert set(record) == {"label", "started", "rounds", "repeats", "trees"}
    assert (record["label"], record["rounds"], record["repeats"]) == ("one", 2, 1)
    assert list(record["trees"]) == ["src"]
    check_timed_tree(record["trees"]["src"], bench_case_names(small_bench))
    assert record["trees"]["src"]["evaluate"]["racing_gp"]["laps"] == 1


def test_bench_against_itself_writes_a_ratio_for_every_case(small_bench, tmp_path):
    bench = small_bench
    out = tmp_path / "bench.json"
    assert bench.main(["--label", "self", "--out", str(out), "--against", SRC]) == 0
    record = json.loads(out.read_text())["records"][-1]
    assert record["label"] == "self" and set(record) == {
        "label", "started", "rounds", "repeats", "trees",
        "ratio_median", "ratio_q1", "ratio_q3", "ratios"}
    cases = bench_case_names(bench)
    for key in ("ratio_median", "ratio_q1", "ratio_q3", "ratios"):
        assert {group: sorted(entries) for group, entries in record[key].items()} == cases
    assert all(len(ratios) == 2 and all(r > 0 for r in ratios)
               for entries in record["ratios"].values() for ratios in entries.values())
    # each tree's µs and case details sit beside the ratios; one tree gives equal details
    trees = record["trees"]
    assert sorted(trees) == ["against", "src"]
    for tree in trees.values():
        check_timed_tree(tree, cases)

    def details(tree):
        return {group: {name: {k: v for k, v in case.items() if k != "us"}
                        for name, case in entries.items()} for group, entries in tree.items()}
    assert details(trees["src"]) == details(trees["against"])
    io = details(trees["src"])["io"]
    assert io["core.load_dataset"] == io["core.DatasetWriter.write"]
    assert io["core.load_dataset"]["bytes"] > 0 and io["nn.save_weights"]["bytes"] > 0
    assert set(io["nn.save_weights"]) == {"units", "bytes"}
    assert set(trees["src"]["hulls"]["train_gp"]) == {"us", "units", "points_mean", "accepted"}
    assert not [name for name in sys.modules if name.startswith("_bench_pair")]


def test_bench_builds_every_case_on_a_tree_before_the_full_mode_name(small_bench, tmp_path):
    """An older tree: its ``TrainConfig`` names the full-state mode
    ``full_state``, and ``core`` has no ``rng_stream``."""
    shutil.copytree(os.path.join(SRC, "cabc"), tmp_path / "cabc",
                    ignore=shutil.ignore_patterns("__pycache__"))
    trainer_py = tmp_path / "cabc" / "trainer.py"
    text = trainer_py.read_text()
    check = ('if self.observation_mode not in ("output", "full"):\n'
             '            raise ValueError("observation_mode must be \'output\' or \'full\'")\n')
    assert text.count(check) == 1
    trainer_py.write_text(text.replace(check, check.replace("full", "full_state")))
    pkg = small_bench.load_tree(str(tmp_path), "_test_old_tree")
    try:
        modules = {name: importlib.import_module(f"{pkg}.{name}") for name in (
            "autolabel", "core", "critic", "evalharness", "experts", "nn", "reports", "sim",
            "track", "trainer")}
        del modules["core"].rng_stream   # the modules hold their own reference
        with pytest.raises(ValueError, match="full_state"):
            modules["trainer"].TrainConfig(observation_mode="full")
        for group, build in small_bench.GROUPS.items():
            for name, (run, _) in build(pkg).items():
                assert run() >= 1, (group, name)
    finally:
        small_bench.unload_tree(pkg)


def test_bench_io_writes_and_reads_one_fixed_collection(bench):
    from cabc.core import load_dataset
    from cabc.trainer import TrainConfig

    cases = bench._io("cabc")
    assert sorted(cases) == ["core.DatasetWriter.write", "core.load_dataset",
                             "nn.load_weights", "nn.save_weights"]
    assert all(run() == 1 for run, _ in cases.values())
    info = cases["core.load_dataset"][1]
    assert cases["core.DatasetWriter.write"][1] == info
    assert info["rollouts"] == bench.DATASET_EPOCHS * TrainConfig().episodes_per_epoch
    assert info["bytes"] > 0 and info["steps"] > info["rollouts"]
    # a second build collects the same rollouts
    assert bench._io("cabc")["core.load_dataset"][1] == info
