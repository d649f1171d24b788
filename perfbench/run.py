"""Benchmark entry point: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload ca-gp --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each run of the workload is one ``cabc``
command in a fresh process (``perfbench/one_run.py``) with one BLAS thread;
its outputs go to ``.bench_tmp/`` in the repository and are deleted once
measured.  The benchmark seed picks the command's input (its ``--seed``).
With ``--trace 0`` the invocation runs the command the workload's number of
times, and more while ``--seconds`` have not passed, and reports the
end-to-end metrics.  With ``--trace 1`` it runs the command untraced, then
once more traced, and reports the per-layer metrics of the traced run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation (one
epoch, or one labeling radius) fails if its command exits non-zero or its
output check fails.  If the program cannot be run at all the benchmark exits
non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import PER_LAYER_UNITS, layer_metrics  # noqa: E402
from workloads import LABELDEMO_RHOS, WORKLOADS, Workload, seed_for  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "epoch_s": "s",
                    "peak_rss_mb": "MB", "disk_mb": "MB"}
RUN_TIMEOUT_S = 150.0      # one command
BUDGET_S = 165.0           # no new run starts once it could end past this


class BenchError(RuntimeError):
    """The program could not be run; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               CABC_THREADS="1", PYTHONHASHSEED="0")
    return env


@contextlib.contextmanager
def scratch_dir(tag: str):
    """A fresh directory under ``.bench_tmp/``, removed with everything in it."""
    parent = os.path.join(ROOT, ".bench_tmp")
    path = os.path.join(parent, f"{tag}-{os.getpid()}")
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(parent)


def _tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path)
               for f in files)


def run_once(work: str, workload: Workload, seed: int, index: int, trace: bool,
             smoke: bool = False) -> dict:
    """Run the workload's command once on ``seed`` and return its measurements."""
    run_dir = os.path.join(work, f"run{index}")
    out = os.path.join(run_dir, "out")
    os.makedirs(out)
    config = os.path.join(run_dir, "config.txt")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(workload.config_text(smoke))
    request = os.path.join(run_dir, "request.json")
    result_path = os.path.join(run_dir, "result.json")
    spans_path = os.path.join(run_dir, "spans.json")
    argv = workload.argv
    req = {"root": ROOT, "argv": workload.command(seed, out, config, smoke), "out": out,
           "trace": trace, "ops": workload.ops(smoke), "rhos": LABELDEMO_RHOS,
           "set": argv[argv.index("--set") + 1] if "--set" in argv else None,
           "result": result_path, "spans": spans_path}
    log = os.path.join(run_dir, "log.txt")
    with open(log, "w", encoding="utf-8") as log_fh:
        req["spawn_t"] = time.monotonic()
        with open(request, "w", encoding="utf-8") as fh:
            json.dump(req, fh)
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "one_run.py"), request],
                                stdout=log_fh, stderr=subprocess.STDOUT, cwd=ROOT,
                                env=_child_env())
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = "timeout"
        finally:   # also on SIGTERM: no run outlives the benchmark
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0 or not os.path.exists(result_path):
        with open(log, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-3000:]
        raise BenchError(f"{workload.name} seed {seed}: run exited with {code}\n{tail}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    if result["rc"] != 0:
        with open(log, encoding="utf-8", errors="replace") as fh:
            sys.stderr.write(fh.read()[-3000:])
    result["seed"] = seed
    result["disk_mb"] = _tree_bytes(out) / 1e6
    result["epoch_s"] = statistics.median(result["op_times"]) if result["op_times"] else 0.0
    if trace:
        with open(spans_path, encoding="utf-8") as fh:
            result["layers"] = layer_metrics(json.load(fh), result["dataset_bytes"])
    shutil.rmtree(run_dir)
    return result


def _high_percentile(samples) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    xs = sorted(samples)
    k = len(xs) - 11
    if k < 0:
        return "no percentile has 10 samples beyond it"
    return f"p{100 * (k + 1) // len(xs)} = {xs[k]:.6g}"


def end_to_end(results) -> dict:
    """Each metric as its median over the invocation's runs of one input."""
    metrics = {}
    for name, unit in END_TO_END_UNITS.items():
        value = statistics.median(r[name] for r in results)
        samples = ([t for r in results for t in r["op_times"]] if name == "epoch_s"
                   else [r[name] for r in results])
        print(f"{name} = {value:.6g} {unit}  (median of {len(results)} runs; "
              f"{len(samples)} samples, {_high_percentile(samples)})")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def _count_failures(results) -> tuple:
    """(attempted, failed) operations.  All runs share one input, so a run
    whose outputs differ from the first run's fails all its operations."""
    attempted = failed = 0
    for r in results:
        ok = list(r["ops_ok"])
        if r["digests"] != results[0]["digests"]:
            print("# outputs differ from the first run's", file=sys.stderr)
            ok = [False] * len(ok)
        attempted += len(ok)
        failed += ok.count(False)
    return attempted, failed


def measure(work: str, workload: Workload, seed: int, seconds: float, trace: bool,
            t0: float) -> list:
    """All runs of one invocation; when tracing, the traced run comes last."""
    results = []

    def run(traced=False) -> float:
        t = time.monotonic()
        results.append(run_once(work, workload, seed, len(results), traced))
        return time.monotonic() - t

    if trace:
        last = run()
        while (time.monotonic() - t0 < seconds / 2
               and time.monotonic() - t0 + 3 * last < BUDGET_S):
            last = run()
        run(traced=True)
        return results
    last = max(run() for _ in range(workload.repeats))
    while time.monotonic() - t0 < seconds and time.monotonic() - t0 + last < BUDGET_S:
        run()
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    # turn SIGTERM into SystemExit so the current run is killed and the
    # scratch directory removed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "cabc", "__init__.py")):
        print(f"benchmark: no cabc package under {ROOT}/src", file=sys.stderr)
        return 2
    t0 = time.monotonic()
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    seed = seed_for(workload, args.seed, ROOT)
    try:
        with scratch_dir(workload.name) as work:
            results = measure(work, workload, seed, args.seconds, bool(args.trace), t0)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    v = results[0]["versions"]
    print(f"# {workload.name} bench seed {args.seed}, trace {args.trace}: "
          f"{len(results)} runs of cabc seed {results[0]['seed']}; "
          f"nproc {v['nproc']}, python {v['python']}, numpy {v['numpy']}, "
          f"scipy {v['scipy']}, {v['blas']}, BLAS threads {v['blas_threads']}")
    for r in results:
        print(f"# run: exit {r['rc']}, setup_s {r['setup_s']:.4f}, "
              f"run_s {r['run_s']:.4f}, record {json.dumps(r['record'])}")
    attempted, failed = _count_failures(results)
    if args.trace:
        traced = results[-1]
        untraced_run_s = statistics.median(r["run_s"] for r in results[:-1])
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = (traced["run_s"] - untraced_run_s, 1)
        metrics = {}
        for name, unit in PER_LAYER_UNITS.items():
            value, calls = layers[name]
            print(f"{name} = {value:.6g} {unit}  ({calls} spans)")
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = end_to_end(results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
