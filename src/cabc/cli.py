"""Command-line entry points: train, eval, report, sim, labeldemo.

Every command runs on numpy alone.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import nn
from .autolabel import (
    SyntheticSet,
    classifier_grid,
    grid_map,
    incorrect_removals,
    label_synthetic,
    prop1_violation_count,
    train_synthetic_classifier,
)
from .config import (
    expert_params_from,
    parse_config_file,
    sim_config_from,
    snapshot_config,
    train_config_from,
)
from .core import DatasetWriter, save_dataset
from .critic import save_critic
from .evalharness import evaluate
from .reports import (
    contour_segments,
    emit_reports,
    policy_rollout_figure,
    svg_xy_figure,
    write_reports_csv,
)
from .sim import rng_stream
from .track import resolve_track
from .trainer import NonFiniteLossError, load_policy, make_expert_factory, train

EXIT_NONFINITE = 2


def _check_seed(seed: int) -> None:
    """Refuse a negative ``--seed`` before a command writes anything."""
    if seed < 0:
        raise ValueError(f"--seed must be non-negative, got {seed}")


def _load_configs(args) -> tuple:
    values = parse_config_file(args.config) if args.config else {}
    sim = sim_config_from(values)
    if args.seed is not None:
        values["seed"] = str(args.seed)
    # the command line's method and feedback override the file's, and are in
    # place when the config is validated
    options = {"method": args.method,
               "observation_mode": "output" if args.obs == "output" else "full_state"}
    cfg = train_config_from({**values, **options}, sim)
    return cfg, values


def _cmd_train(args) -> int:
    if args.checkpoint_every < 0:
        raise ValueError(f"--checkpoint-every must be non-negative, got {args.checkpoint_every}")
    cfg, values = _load_configs(args)
    track = resolve_track(args.track)
    v_ref, pid_gains, race_params = expert_params_from(values)
    factory = make_expert_factory(args.expert, cfg.sim, track, v_ref=v_ref,
                                  pid_gains=pid_gains, race_params=race_params)

    out = args.out
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "config.txt"), "w", encoding="utf-8") as fh:
        fh.write(snapshot_config(cfg, values))

    expert_eval = evaluate(factory(), cfg.sim, track, seed=cfg.seed, laps=cfg.eval_laps)
    meta = {
        "track": args.track,
        "expert": args.expert,
        "method": cfg.method,
        "observation_mode": cfg.observation_mode,
        "eval_laps": cfg.eval_laps,
        "expert_lap_mean": expert_eval.lap_mean,
        "expert_lap_std": expert_eval.lap_std,
        "expert_laps": expert_eval.laps_completed,
    }

    reports = []
    ckpt_dir = os.path.join(out, "checkpoints")

    def on_epoch(report, policy_params):
        reports.append(report)
        write_reports_csv(reports, os.path.join(out, "reports.csv"))
        if args.checkpoint_every and report.epoch % args.checkpoint_every == 0:
            d = os.path.join(ckpt_dir, f"epoch_{report.epoch:04d}")
            os.makedirs(d, exist_ok=True)
            nn.save_weights(policy_params, os.path.join(d, "policy.npz"))

    try:
        with DatasetWriter(os.path.join(out, "trajectories.jsonl.gz")) as writer:
            result = train(cfg, track, factory, epoch_callback=on_epoch,
                           traj_callback=lambda epoch, trajs: [writer.write(t) for t in trajs])
    except NonFiniteLossError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_NONFINITE
    if not result.reports:
        # with no epoch, on_epoch never wrote the table that `cabc report` reads
        write_reports_csv([], os.path.join(out, "reports.csv"))

    nn.save_weights(result.policy, os.path.join(out, "policy.npz"))
    if result.dyn is not None and result.clf is not None:
        save_critic(result.dyn, result.clf, os.path.join(out, "critic"))
    if len(result.pool.d_plus) or len(result.pool.d_query):
        save_dataset(result.pool, os.path.join(out, "pool.jsonl.gz"))
    meta["early_stopped_at"] = result.early_stopped_at
    meta["completed_epochs"] = len(result.reports)
    with open(os.path.join(out, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1)
    best = max((r.eval_laps for r in result.reports), default=0)
    print(f"done: {len(result.reports)} epochs, best eval {best} laps, "
          f"early stop at {result.early_stopped_at}")
    return 0


def _print_result(result, *stats: str) -> None:
    """An evaluation's laps, how it ended and the named lap statistics, as JSON."""
    print(json.dumps({"laps_completed": result.laps_completed,
                      "terminated_by": result.terminated_by.value,
                      **{name: getattr(result, name) for name in stats}}, indent=1))


def _cmd_eval(args) -> int:
    _check_seed(args.seed)
    values = parse_config_file(args.config) if args.config else {}
    sim = sim_config_from(values)
    track = resolve_track(args.track)
    mode = "output" if args.obs == "output" else "full_state"
    policy = load_policy(args.weights, mode, sim, track)
    _print_result(evaluate(policy, sim, track, seed=args.seed, laps=args.laps),
                  "lap_mean", "lap_std", "lap_min", "lap_max")
    return 0


def _cmd_report(args) -> int:
    written = emit_reports(args.run, args.out, baseline_dir=args.baseline)
    run_policy = os.path.join(args.run, "policy.npz")
    cfg_path = os.path.join(args.run, "config.txt")
    meta_path = os.path.join(args.run, "meta.json")
    if os.path.exists(run_policy) and os.path.exists(cfg_path) and os.path.exists(meta_path):
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
        values = parse_config_file(cfg_path)
        sim = sim_config_from(values)
        track = resolve_track(meta["track"])
        policy = load_policy(run_policy, meta.get("observation_mode", "output"), sim, track)
        path = os.path.join(args.out, "trajectory_xy.svg")
        policy_rollout_figure(policy, sim, track, seed=int(values.get("seed", "0")),
                              out_path=path)
        written.append(path)
    for path in written:
        print(path)
    return 0


def _cmd_sim(args) -> int:
    _check_seed(args.seed)
    values = parse_config_file(args.config) if args.config else {}
    sim = sim_config_from(values)
    track = resolve_track(args.track)
    v_ref, pid_gains, race_params = expert_params_from(values)
    factory = make_expert_factory(args.expert, sim, track, v_ref=v_ref,
                                  pid_gains=pid_gains, race_params=race_params)
    _print_result(evaluate(factory(), sim, track, seed=args.seed, laps=args.laps),
                  "lap_mean", "lap_std")
    if args.render:
        policy_rollout_figure(factory(), sim, track, seed=args.seed,
                              out_path=args.render, laps=min(3, args.laps))
        print(args.render)
    return 0


_SYNTH = {
    "disk": SyntheticSet.disk,
    "crescent": SyntheticSet.crescent,
    "sector": SyntheticSet.sector,
}


# The labeldemo CSVs are written as csv.writer would write them: "\r\n" line
# ends and no quoting, since a float's repr holds no delimiter, quote or line
# break.  Rows are formatted from Python floats and streamed.

def write_points_csv(path, plus, sdf_plus, query, sdf_query, removed) -> None:
    """Safe points (label 1), then query points: label -1 if removed, else 0."""
    flags = {True: "-1,1", False: "0,0"}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("x,y,true_sdf,label,removed\r\n")
        fh.writelines(f"{x!r},{y!r},{s!r},1,0\r\n"
                      for (x, y), s in zip(plus.tolist(), sdf_plus.tolist()))
        fh.writelines(f"{x!r},{y!r},{s!r},{flags[rm]}\r\n"
                      for (x, y), s, rm in zip(query.tolist(), sdf_query.tolist(),
                                               removed.tolist()))


def write_grid_csv(path, xs, ys, probs) -> None:
    """The p(safe) matrix: a header row of ``y\\x`` and the x-coordinates,
    then one row per y, that y followed by ``probs[i, :]`` along x."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"y\\x,{','.join(map(repr, xs.tolist()))}\r\n")
        fh.writelines(f"{y!r},{','.join(map(repr, row.tolist()))}\r\n"
                      for y, row in zip(ys.tolist(), probs))


def _rho_tag(rho: float) -> str:
    """The file-name tag of one ``--rho`` radius."""
    return f"rho{rho:g}".replace(".", "p")


def _labeldemo_radii(args) -> list:
    """The ``--rho`` radii, once every argument is checked: a bad one raises
    ``ValueError`` naming it before anything is written."""
    try:
        rhos = [float(tok) for tok in args.rho.split(",") if tok]
    except ValueError:
        rhos = []
    if not rhos:
        raise ValueError(f"--rho must be comma-separated numbers, got {args.rho!r}")
    for rho in rhos:
        if not 0.0 <= rho < math.inf:
            raise ValueError(f"--rho radii must be finite and non-negative, got {rho!r}")
    tags = [_rho_tag(rho) for rho in rhos]
    for i, tag in enumerate(tags):
        if tag in tags[:i]:
            raise ValueError(f"--rho radius {rhos[i]!r} repeats the file tag {tag!r} "
                             f"of radius {rhos[tags.index(tag)]!r}")
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    if args.grid < 2:
        raise ValueError(f"--grid must be at least 2, got {args.grid}")
    _check_seed(args.seed)
    return rhos


def _cmd_labeldemo(args) -> int:
    synth = _SYNTH[args.set]()
    rhos = _labeldemo_radii(args)
    os.makedirs(args.out, exist_ok=True)
    summary_path = os.path.join(args.out, "summary.csv")
    summary = [("set", "rho", "removed", "violations", "incorrect_removals",
                "balanced_accuracy")]
    for rho in rhos:
        rng = rng_stream(args.seed)
        plus, query, removed = label_synthetic(synth, args.n, args.n, rho, rng)
        sdf_plus = synth.signed_distance(plus)
        sdf_query = synth.signed_distance(query)
        tag = _rho_tag(rho)

        points_path = os.path.join(args.out, f"points_{tag}.csv")
        write_points_csv(points_path, plus, sdf_plus, query, sdf_query, removed)

        minus = query[~removed]
        params = train_synthetic_classifier(plus, minus, seed=args.seed)
        xs, ys, probs = classifier_grid(params, bounds=(-5.0, 5.0), n=args.grid)
        grid_path = os.path.join(args.out, f"decision_grid_{tag}.csv")
        write_grid_csv(grid_path, xs, ys, probs)

        # true boundary (dotted) and classifier decision boundary overlay
        sdf_grid = grid_map(synth.signed_distance, xs, ys)
        svg = svg_xy_figure(
            [],
            title=f"{args.set}, rho = {rho:g}: removed points in red",
            points=[
                {"x": plus[:, 0], "y": plus[:, 1], "color": "#bbbbbb", "r": 1.0},
                {"x": minus[:, 0], "y": minus[:, 1], "color": "#7f7fff", "r": 1.0},
                {"x": query[removed][:, 0], "y": query[removed][:, 1],
                 "color": "#d62728", "r": 1.8},
            ],
            segments=[
                {"segs": contour_segments(xs, ys, sdf_grid, 0.0), "color": "black",
                 "dash": "2 3"},
                {"segs": contour_segments(xs, ys, probs, 0.5), "color": "#1f77b4"},
            ],
        )
        svg_path = os.path.join(args.out, f"overlay_{tag}.svg")
        with open(svg_path, "w", encoding="utf-8") as fh:
            fh.write(svg)
        n_inc = incorrect_removals(removed, query, synth)
        # balanced accuracy: the mean of the true-positive and true-negative
        # rates of p(safe) > 0.5 on the grid
        truth, pred = grid_map(synth.contains, xs, ys) > 0.5, probs > 0.5
        accuracy = 0.5 * float((pred & truth).sum() / max(truth.sum(), 1)
                               + (~pred & ~truth).sum() / max((~truth).sum(), 1))
        summary.append((args.set, rho, int(removed.sum()),
                        prop1_violation_count(query[removed], synth, rho), n_inc, accuracy))
        with open(summary_path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(f"{','.join(map(str, row))}\r\n" for row in summary)
        print(f"rho={rho:g}: removed {int(removed.sum())} of {len(query)} "
              f"({n_inc} outside the true set); wrote {points_path}, {grid_path}, {svg_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cabc",
        description="Constraint-aware behavior cloning on a built-in racing simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run a training method and write a run directory")
    p.add_argument("--method", choices=("bc", "ca"), required=True)
    p.add_argument("--track", default="gp", help="built-in track name or track file")
    p.add_argument("--expert", choices=("pid", "racing"), default="racing")
    p.add_argument("--obs", choices=("full", "output"), default="output")
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint-every", type=int, default=1,
                   help="policy checkpoint cadence in epochs (0 disables)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate saved policy weights")
    p.add_argument("--weights", required=True,
                   help="policy .npz archive written by train, e.g. RUN/policy.npz or "
                        "RUN/checkpoints/epoch_NNNN/policy.npz: .npy members flat "
                        "(float64 parameters), sizes, head and seed")
    p.add_argument("--track", default="gp")
    p.add_argument("--obs", choices=("full", "output"), default="output")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--laps", type=int, default=50)
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("report", help="emit charts from run directories")
    p.add_argument("--run", required=True)
    p.add_argument("--baseline", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("sim", help="run an expert and optionally render its path")
    p.add_argument("--expert", choices=("pid", "racing"), default="racing")
    p.add_argument("--track", default="gp")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--laps", type=int, default=3)
    p.add_argument("--render", default=None, help="output SVG path")
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_sim)

    p = sub.add_parser(
        "labeldemo", help="synthetic-set auto-labeling benchmark",
        description="Label one synthetic set at each --rho radius, fit a classifier to "
                    "the labels and evaluate it on a --grid x --grid grid. Writes "
                    "points_<tag>.csv, decision_grid_<tag>.csv and overlay_<tag>.svg per "
                    "radius, and summary.csv, one row per radius: set, rho, removed, "
                    "violations, incorrect_removals, balanced_accuracy.")
    p.add_argument("--set", choices=tuple(_SYNTH), default="crescent")
    p.add_argument("--rho", default="1.0,0.5,0.25", help="comma-separated radii")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_labeldemo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
