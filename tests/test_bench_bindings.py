"""The benchmark under ``perfbench/`` reaches the program from outside: it
wraps functions at the attribute their caller looks up, and picks the
``ca-gp`` seed by running one collection epoch itself.  A change that
deletes or renames one of those names breaks the benchmark, not the
program's own tests, so each is checked here."""

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
