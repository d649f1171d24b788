#!/usr/bin/env python3
"""Head-to-head racing experiment: baseline cloning vs constraint-aware cloning.

Trains both methods on the gp track with the racing expert under output
feedback, over several seeds, and reports epochs-to-first-full-evaluation
per seed plus the medians.  Runs never stop early unless requested, so the
baseline gets its full epoch budget.

Usage:
    python scripts/run_racing_experiment.py --seeds 5 --epochs 300 --out runs/racing
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import replace

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from cabc.sim import SimConfig
from cabc.track import get_track
from cabc.trainer import TrainConfig, make_expert_factory, train


def first_full_eval(reports, full_laps: int) -> int | None:
    for r in reports:
        if r.eval_laps >= full_laps:
            return r.epoch
    return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--epochs", type=int, default=300)
    parser.add_argument("--track", default="gp")
    parser.add_argument("--expert", default="racing")
    parser.add_argument("--obs", choices=("output", "full"), default="output")
    parser.add_argument("--lam", type=float, default=10.0)
    parser.add_argument("--rho", type=float, default=1.0)
    parser.add_argument("--out", default="runs/racing")
    parser.add_argument("--early-stop", action="store_true",
                        help="stop each run at the second full evaluation")
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error(f"--seeds must be at least 1, got {args.seeds}")

    sim = SimConfig(max_steps=600)
    mode = "output" if args.obs == "output" else "full_state"
    # every setting is checked before --out is made, so a bad one leaves no directory
    try:
        track = get_track(args.track)
        factory = make_expert_factory(args.expert, sim, track)
        configs = [TrainConfig(epochs=args.epochs, seed=seed, method=method,
                               observation_mode=mode, sim=sim, lam=args.lam,
                               rho=args.rho, early_stop=args.early_stop)
                   for seed in range(args.seeds) for method in ("ca", "bc")]
    except (KeyError, ValueError) as exc:
        parser.error(exc.args[0])
    os.makedirs(args.out, exist_ok=True)

    results = {"ca": [], "bc": []}
    rows = []
    for cfg in configs:
        t0 = time.time()
        res = train(cfg, track, factory)
        first = first_full_eval(res.reports, cfg.eval_laps)
        best = max((r.eval_laps for r in res.reports), default=0)
        results[cfg.method].append(args.epochs + 1 if first is None else first)
        rows.append({"seed": cfg.seed, "method": cfg.method,
                     "first_full_eval": first, "best_laps": best,
                     "epochs_run": len(res.reports),
                     "wall_s": round(time.time() - t0, 1)})
        print(f"seed {cfg.seed} {cfg.method}: first full eval at "
              f"{first if first is not None else 'never'} "
              f"(best {best} laps, {rows[-1]['wall_s']}s)", flush=True)

    with open(os.path.join(args.out, "summary.csv"), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)

    def median(xs):
        xs = sorted(xs)
        return xs[len(xs) // 2] if len(xs) % 2 else 0.5 * (xs[len(xs) // 2 - 1]
                                                           + xs[len(xs) // 2])

    summary = {
        "ca_first_full": results["ca"],
        "bc_first_full": results["bc"],
        "ca_median": median(results["ca"]),
        "bc_median": median(results["bc"]),
        "ca_success_seeds": sum(1 for v in results["ca"] if v <= args.epochs),
        "bc_success_seeds": sum(1 for v in results["bc"] if v <= args.epochs),
        "epochs": args.epochs,
        "seeds": args.seeds,
    }
    with open(os.path.join(args.out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
