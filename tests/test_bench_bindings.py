"""The benchmark under ``perfbench/`` reaches the program from outside: it
wraps functions at the attribute their caller looks up, picks the ``ca-gp``
seed by running one collection epoch itself, and reads the files of
``train`` and ``labeldemo`` to check each pass.  A change that deletes or
renames one of those names, or changes those files, breaks the benchmark,
not the program's own tests, so each is checked here."""

import csv
import importlib
import importlib.util
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bench_module(name):
    """``perfbench/<name>.py`` as a module of its own name, as its scripts import it."""
    path = os.path.join(ROOT, "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


spans = load_bench_module("spans")
workloads = load_bench_module("workloads")
one_run = load_bench_module("one_run")
run = load_bench_module("run")
selftest = load_bench_module("selftest")


@pytest.mark.parametrize("module, path", [(module, path) for module, path, _, _ in spans.TRACED],
                         ids=[f"{module}.{path}" for module, path, _, _ in spans.TRACED])
def test_traced_binding_resolves(module, path):
    # the owner's own dict, as ``Tracer.wrap`` reads it: an inherited or
    # module-level name does not count
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert attr in vars(owner)


def test_ca_gp_seed_is_found():
    seed = workloads.seed_for(workloads.WORKLOADS["ca-gp"], 1, ROOT, smoke=True)
    assert seed in range(1000, 2000)


def test_labeldemo_output_passes_the_bench_check(tmp_path):
    from cabc.cli import main

    out = tmp_path / "demo"
    rhos = workloads.LABELDEMO_RHOS
    assert main(["labeldemo", "--set", "crescent", "--n", "120", "--grid", "8",
                 "--rho", ",".join(map(str, rhos)), "--seed", "3", "--out", str(out)]) == 0
    checks = one_run._check_labeldemo(str(out), "crescent", rhos)
    assert checks["ops_ok"] == [True] * len(rhos)
    with open(out / "summary.csv", newline="") as fh:
        removed = [int(row["removed"]) for row in csv.DictReader(fh)]
    assert checks["record"]["removed"] == removed
    assert checks["record"]["numpy_repr_in_points_csv"] is False


@pytest.mark.parametrize("method", ["bc", "ca"])
def test_train_output_passes_the_bench_check(method, tmp_path):
    """The bench's check reads the run directory's layout: a BC run has no
    pool to digest, and a CA run's pool is digested."""
    from cabc.cli import main

    cfg, out, epochs = tmp_path / "tiny.cfg", tmp_path / "run", 2
    cfg.write_text(f"epochs = {epochs}\nearly_stop = 0\nhidden = 8\nmax_steps = 300\n"
                   "grad_steps_policy = 5\ngrad_steps_dyn = 5\ngrad_steps_clf = 5\n"
                   "eval_laps = 1\nseed = 5\n")
    assert main(["train", "--method", method, "--track", "circle", "--expert", "pid",
                 "--config", str(cfg), "--out", str(out)]) == 0
    checks = one_run._check_train(str(out), epochs)
    assert checks["ops_ok"] == [True] * epochs
    assert sorted(checks["digests"]) == (["pool.jsonl", "reports.csv"] if method == "ca"
                                         else ["reports.csv"])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_smoke_run_passes_the_self_test(name, tmp_path):
    """Every per-layer metric is reached where ``REACHED_ON`` says, no two
    trainer phases overlap, and the run's outputs check out, as
    ``perfbench/selftest.py`` checks them."""
    workload = workloads.WORKLOADS[name]
    result = run.run_once(str(tmp_path), workload,
                          workloads.seed_for(workload, 0, ROOT, smoke=True), 0,
                          trace=True, smoke=True)
    assert selftest.check(name, result) == []
