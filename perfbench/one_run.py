"""One workload run: a single ``cabc`` command, in-process, in a fresh process.

Usage: ``python3 perfbench/one_run.py REQUEST.json``.  The request names the
repository root, the command, the output directory, whether to trace, the
parent's clock reading just before it started this process, and where to
write the result.  Times are read from the system-wide monotonic clock, so
set-up time includes interpreter start and imports.

After the command returns, and outside the timed region, the run checks the
command's outputs and writes a JSON result (and, when traced, its spans).
Exit code 3 means the program could not be loaded at all.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def _digest(path: str) -> str:
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _check_train(out: str, epochs: int) -> dict:
    """Per-epoch verdicts: one ``reports.csv`` row per epoch, losses finite."""
    path = os.path.join(out, "reports.csv")
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    ok = []
    for epoch in range(epochs):
        row = rows[epoch] if epoch < len(rows) else None
        ok.append(row is not None and int(row["epoch"]) == epoch and all(
            math.isfinite(float(row[k]))
            for k in ("clone_loss", "safety_loss", "dyn_loss", "clf_loss")))
    pool = os.path.join(out, "pool.jsonl.gz")
    digests = {"reports.csv": _digest(path)}
    if os.path.exists(pool):
        digests["pool.jsonl"] = _digest(pool)   # gzip headers carry a timestamp
    last = rows[-1] if rows else {}
    return {"ops_ok": ok, "digests": digests,
            "record": {"eval_laps": last.get("eval_laps"), "n_minus": last.get("n_minus")}}


def _coordinate(text: str) -> tuple:
    """A points-CSV coordinate, and whether it was written as a numpy repr.

    ``labeldemo`` writes ``repr()`` of numpy scalars, which under numpy 2
    reads ``np.float64(1.25)`` rather than ``1.25``.
    """
    if text.startswith("np.float64(") and text.endswith(")"):
        return float(text[len("np.float64("):-1]), True
    return float(text), False


def _check_labeldemo(out: str, set_name: str, rhos) -> dict:
    """Per-rho verdicts: no removed point further than rho outside the set."""
    from cabc.autolabel import SyntheticSet, prop1_violation_count

    synth = getattr(SyntheticSet, set_name)()
    ok, removed_counts, numpy_repr = [], [], False
    for rho in rhos:
        tag = f"rho{rho:g}".replace(".", "p")
        points = os.path.join(out, f"points_{tag}.csv")
        if not all(os.path.exists(os.path.join(out, f"{stem}_{tag}.{ext}")) for stem, ext in
                   (("points", "csv"), ("decision_grid", "csv"), ("overlay", "svg"))):
            ok.append(False)
            removed_counts.append(None)
            continue
        removed = []
        with open(points, encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                (x, repr_x), (y, repr_y) = _coordinate(row["x"]), _coordinate(row["y"])
                numpy_repr = numpy_repr or repr_x or repr_y
                if row["removed"] == "1":
                    removed.append((x, y))
        ok.append(not removed or prop1_violation_count(removed, synth, rho) == 0)
        removed_counts.append(len(removed))
    return {"ops_ok": ok, "digests": {"removed": removed_counts},
            "record": {"removed": removed_counts, "numpy_repr_in_points_csv": numpy_repr}}


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0))}


def main(request_path: str) -> int:
    with open(request_path, encoding="utf-8") as fh:
        req = json.load(fh)
    src = os.path.join(req["root"], "src")
    if not os.path.isfile(os.path.join(src, "cabc", "__init__.py")):
        print(f"no cabc package under {src}", file=sys.stderr)
        return 3
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import cabc.cli
    from spans import BOUNDARY, TRACED, Tracer

    tracer = Tracer()
    tracer.install(TRACED if req["trace"] else BOUNDARY)
    error = None
    try:
        rc = cabc.cli.main(req["argv"])
    except Exception:  # the command's own failure is a measured outcome
        rc, error = None, traceback.format_exc()
    t_end = time.monotonic()
    tracer.uninstall()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    out, train = req["out"], req["argv"][0] == "train"
    if train:
        first = tracer.first_start("cli.train")
        marks = tracer.starts_of("reports.write_csv")   # called once per epoch end
        bounds = ([first] if first is not None else []) + marks
    else:
        bounds = tracer.starts_of("autolabel.label_synthetic") + [t_end]
        first = bounds[0] if len(bounds) > 1 else None
    if first is None:   # failed before its first operation
        first = t_end
    op_times = [b - a for a, b in zip(bounds, bounds[1:])]

    checks = {"ops_ok": [False] * req["ops"], "digests": {}, "record": {}}
    if rc == 0:
        try:
            checks = (_check_train(out, req["ops"]) if train
                      else _check_labeldemo(out, req["set"], req["rhos"]))
        except (OSError, KeyError, ValueError):
            error = traceback.format_exc()
    if error:
        print(error, file=sys.stderr)
    dataset_bytes = sum(os.path.getsize(os.path.join(out, f))
                        for f in ("trajectories.jsonl.gz", "pool.jsonl.gz")
                        if os.path.exists(os.path.join(out, f)))
    result = {
        "rc": rc,
        "setup_s": first - req["spawn_t"],
        "run_s": t_end - first,
        "op_times": op_times,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "dataset_bytes": dataset_bytes,
        "versions": _versions(),
        **checks,
    }
    if req["trace"]:
        tracer.dump(req["spans"])
    with open(req["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
