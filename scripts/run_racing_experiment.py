#!/usr/bin/env python3
"""Head-to-head racing experiment: baseline cloning vs constraint-aware cloning.

Runs ``cabc train`` for each (seed, method) cell into OUT/<method>_seed<seed>,
then writes each cell's epochs to the first full evaluation, and the medians,
to OUT/summary.csv and OUT/summary.json.  Every other argument goes to each
``cabc train`` as it is; no checkpoint is written unless --checkpoint-every is
passed, and ``early_stop = 0`` in the config gives BC its full epoch budget.

Usage:
    python scripts/run_racing_experiment.py --seeds 5 --out runs/racing \\
        --track gp --expert racing --config racing.cfg
"""

import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from cabc import cli
from cabc.evalharness import full_epochs
from cabc.reports import read_run, write_csv


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(allow_abbrev=False, description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=cli._at_least(1), default=5,
                        help="seeds 0 to SEEDS-1, per method")
    parser.add_argument("--out", default="runs/racing", help="experiment directory")
    args, passed = parser.parse_known_args(argv)
    for flag in (arg.split("=", 1)[0] for arg in passed):
        if flag in ("--method", "--seed"):
            parser.error(f"{flag} is set by each cell of the experiment")

    results, rows = {"ca": [], "bc": []}, []
    for seed in range(args.seeds):
        for method in results:
            run = os.path.join(args.out, f"{method}_seed{seed}")
            t0 = time.time()
            code = cli.main(["train", "--checkpoint-every", "0", *passed, "--method", method,
                             "--seed", str(seed), "--out", run])
            if code:
                return code
            wall_s = round(time.time() - t0, 1)
            cfg, _, reports = read_run(run)
            laps = [r["eval_laps"] for r in reports]
            first = next(iter(full_epochs(laps, cfg.eval_laps)), None)
            best = max(laps, default=0)
            results[method].append(cfg.epochs + 1 if first is None else first)
            rows.append((seed, method, "" if first is None else first, best, len(reports),
                         wall_s))
            print(f"seed {seed} {method}: first full eval at {'never' if first is None else first}"
                  f" (best {best} laps, {wall_s}s)", flush=True)

    write_csv(os.path.join(args.out, "summary.csv"),
              ("seed", "method", "first_full_eval", "best_laps", "epochs_run", "wall_s"), rows)
    summary = {**{f"{m}_first_full": v for m, v in results.items()},
               **{f"{m}_median": statistics.median(v) for m, v in results.items()},
               **{f"{m}_success_seeds": sum(x <= cfg.epochs for x in v)
                  for m, v in results.items()},
               "epochs": cfg.epochs, "seeds": args.seeds}
    with open(os.path.join(args.out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
