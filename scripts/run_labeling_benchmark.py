#!/usr/bin/env python3
"""Safe-set estimation benchmark on the synthetic 2-D sets.

For each set and each exclusion radius: label, count soundness violations
and incorrect removals, train the classifier, and score it against ground
truth on a dense grid.  Writes one CSV row per (set, rho) pair.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from cabc.autolabel import (
    SyntheticSet,
    classifier_grid,
    grid_map,
    incorrect_removals,
    label_synthetic,
    prop1_violation_count,
    train_synthetic_classifier,
)


def balanced_accuracy(synth, params, n_grid: int = 200) -> float:
    xs, ys, probs = classifier_grid(params, (-5.0, 5.0), n=n_grid)
    truth = grid_map(synth.contains, xs, ys) > 0.5   # grid_map returns floats
    pred = probs > 0.5
    tpr = (pred & truth).sum() / max(truth.sum(), 1)
    tnr = (~pred & ~truth).sum() / max((~truth).sum(), 1)
    return 0.5 * float(tpr + tnr)


MAKERS = {"disk": SyntheticSet.disk, "crescent": SyntheticSet.crescent,
          "sector": SyntheticSet.sector}


def parse_args(argv=None):
    """The arguments, with ``--sets`` and ``--rho`` split into lists; a set
    name, radius or point count that cannot be run is a usage error before
    any labeling."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--sets", default="crescent,sector",
                        help=f"comma-separated set names, from {', '.join(MAKERS)}")
    parser.add_argument("--rho", default="1.0,0.5,0.25",
                        help="comma-separated finite, non-negative radii")
    parser.add_argument("--n", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=123)
    parser.add_argument("--out", default="runs/labeling")
    args = parser.parse_args(argv)
    args.sets = args.sets.split(",")
    unknown = [name for name in args.sets if name not in MAKERS]
    if unknown:
        parser.error(f"--sets: unknown set {unknown[0]!r}; choose from {', '.join(MAKERS)}")
    try:
        args.rho = [float(tok) for tok in args.rho.split(",")]
    except ValueError:
        parser.error(f"--rho must be comma-separated numbers, got {args.rho!r}")
    bad = [rho for rho in args.rho if not 0.0 <= rho < math.inf]
    if bad:
        parser.error(f"--rho radii must be finite and non-negative, got {bad[0]!r}")
    if args.n < 1:
        parser.error(f"--n must be at least 1, got {args.n}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for name in args.sets:
        synth = MAKERS[name]()
        for rho in args.rho:
            rng = np.random.default_rng(args.seed)
            plus, query, removed = label_synthetic(synth, args.n, args.n, rho, rng)
            violations = prop1_violation_count(query[removed], synth, rho)
            incorrect = incorrect_removals(removed, query, synth)
            params = train_synthetic_classifier(plus, query[~removed], seed=args.seed)
            acc = balanced_accuracy(synth, params)
            rows.append({"set": name, "rho": rho, "removed": int(removed.sum()),
                         "violations": violations, "incorrect_removals": incorrect,
                         "balanced_accuracy": round(acc, 4)})
            print(rows[-1], flush=True)
    path = os.path.join(args.out, "labeling_benchmark.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
