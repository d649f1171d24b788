"""Command-line entry points: train, eval, report, sim, labeldemo.

Every command runs on numpy alone.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from . import nn
from .autolabel import (
    SyntheticSet,
    classifier_grid,
    grid_map,
    incorrect_removals,
    label_synthetic,
    prop1_violation_count,
    sample_box,
    train_synthetic_classifier,
)
from .config import parse_config_file, settings_from, snapshot_config
from .core import DatasetWriter, rng_stream, save_dataset
from .critic import save_critic
from .evalharness import evaluate
from .reports import (
    contour_segments,
    emit_reports,
    policy_rollout_figure,
    read_run,
    svg_xy_figure,
    write_csv,
    write_reports_csv,
)
from .track import resolve_track, track_ref
from .trainer import NonFiniteLossError, load_policy, make_expert_factory, train

EXIT_NONFINITE = 2


@contextlib.contextmanager
def _refused(args, out=None):
    """Build a command's settings in this block: a setting it refuses, or an
    ``out`` directory that exists and is not empty (one run directory holds one
    run), ends the command with its parser's one-line usage error, exit 2.  The
    block must write nothing, so that a refused command leaves nothing behind."""
    try:
        if out and os.path.exists(out) and (not os.path.isdir(out) or os.listdir(out)):
            raise ValueError(f"--out {out} exists and is not an empty directory")
        yield
    except (ValueError, KeyError, OSError) as exc:
        args.parser.error(exc.args[0] if isinstance(exc, KeyError) else str(exc))


def _settings(args, **options):
    """``(values, TrainConfig, expert params)`` of the ``--config`` file, with
    each ``options`` key that is not ``None`` in place of the file's value."""
    values = parse_config_file(args.config) if args.config else {}
    values.update((key, str(value)) for key, value in options.items() if value is not None)
    return values, *settings_from(values)


def _cmd_train(args) -> int:
    with _refused(args, out=args.out):
        values, cfg, expert = _settings(args, method=args.method, observation_mode=args.obs,
                                        seed=args.seed)
        track = resolve_track(args.track)
        factory = make_expert_factory(args.expert, cfg.sim, track, *expert)

    out = args.out
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "config.txt"), "w", encoding="utf-8") as fh:
        fh.write(snapshot_config(cfg, values))

    expert_eval = evaluate(factory(), cfg.sim, track, seed=cfg.seed, laps=cfg.eval_laps)
    meta = {
        "track": track_ref(args.track),
        "expert": args.expert,
        "expert_lap_mean": expert_eval.lap_mean,
        "expert_lap_std": expert_eval.lap_std,
        "expert_laps": expert_eval.laps_completed,
    }

    def write_meta(**extra):
        with open(os.path.join(out, "meta.json"), "w", encoding="utf-8") as fh:
            json.dump({**meta, **extra}, fh, indent=1)

    # written before the first epoch, so that an aborted run can be reported
    write_meta()

    reports = []
    ckpt_dir = os.path.join(out, "checkpoints")

    def checkpoint_dir(epoch):
        """Where ``epoch``'s policy is checkpointed, or None off the cadence."""
        if args.checkpoint_every and epoch % args.checkpoint_every == 0:
            return os.path.join(ckpt_dir, f"epoch_{epoch:04d}")
        return None

    def on_epoch(report, policy_params):
        reports.append(report)
        write_reports_csv(reports, os.path.join(out, "reports.csv"))
        d = checkpoint_dir(report.epoch)
        if d is not None:
            os.makedirs(d, exist_ok=True)
            nn.save_weights(policy_params, os.path.join(d, "policy.npz"))

    aborted = None
    try:
        with DatasetWriter(os.path.join(out, "trajectories.jsonl.gz")) as writer:
            result = train(cfg, track, factory, epoch_callback=on_epoch,
                           traj_callback=lambda epoch, trajs: [writer.write(t) for t in trajs])
    except NonFiniteLossError as exc:
        aborted = str(exc)
    if not reports:
        # with no epoch, on_epoch never wrote the table that `cabc report` reads
        write_reports_csv([], os.path.join(out, "reports.csv"))
    if aborted is not None:
        write_meta(completed_epochs=len(reports), aborted=aborted)
        print(f"aborted: {aborted}", file=sys.stderr)
        return EXIT_NONFINITE

    # the final epoch's checkpoint, when it has one, is moved to policy.npz
    # rather than written twice; checkpoints/ keeps the cadence epochs before it
    final = os.path.join(out, "policy.npz")
    last = checkpoint_dir(result.reports[-1].epoch) if result.reports else None
    if last is None:
        nn.save_weights(result.policy, final)
    else:
        os.replace(os.path.join(last, "policy.npz"), final)
        os.rmdir(last)
        if not os.listdir(ckpt_dir):
            os.rmdir(ckpt_dir)
    if result.dyn is not None and result.clf is not None:
        save_critic(result.dyn, result.clf, os.path.join(out, "critic"))
    # the labeler's output, one D- flag per step of trajectories.jsonl.gz; a BC
    # run labels no negatives, so its flags would all read 0
    if cfg.method == "ca" and len(result.minus):
        save_dataset(result.minus, os.path.join(out, "pool.jsonl.gz"))
    write_meta(early_stopped_at=result.early_stopped_at, completed_epochs=len(result.reports))
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
    with _refused(args):
        _, cfg, _ = _settings(args, observation_mode=args.obs, eval_laps=args.laps)
        track = resolve_track(args.track)
        policy = load_policy(args.weights, cfg.observation_mode, cfg.sim, track)
    _print_result(evaluate(policy, cfg.sim, track, seed=args.seed, laps=cfg.eval_laps),
                  "lap_mean", "lap_std", "lap_min", "lap_max")
    return 0


def _cmd_report(args) -> int:
    with _refused(args):
        if os.path.exists(args.out) and not os.path.isdir(args.out):
            raise ValueError(f"--out {args.out} exists and is not a directory")
        run = read_run(args.run)
        baseline = None if args.baseline is None else read_run(args.baseline)
        cfg, meta, _ = run
        run_policy, policy = os.path.join(args.run, "policy.npz"), None
        if os.path.exists(run_policy):
            if "track" not in meta:
                raise ValueError(f"{os.path.join(args.run, 'meta.json')} has no 'track' key, "
                                 f"which {run_policy} needs")
            track = resolve_track(meta["track"])
            policy = load_policy(run_policy, cfg.observation_mode, cfg.sim, track)
    written = emit_reports(run, args.out, baseline)
    if policy is not None:
        path = os.path.join(args.out, "trajectory_xy.svg")
        policy_rollout_figure(policy, cfg.sim, track, seed=cfg.seed, out_path=path)
        written.append(path)
    for path in written:
        print(path)
    return 0


def _cmd_sim(args) -> int:
    with _refused(args):
        if args.render and os.path.isdir(args.render):
            raise ValueError(f"--render {args.render} is a directory")
        if args.render and not os.path.isdir(os.path.dirname(args.render) or "."):
            raise ValueError(f"--render {args.render}: no directory "
                             f"{os.path.dirname(args.render)}")
        _, cfg, expert = _settings(args)
        track = resolve_track(args.track)
        factory = make_expert_factory(args.expert, cfg.sim, track, *expert)
    _print_result(evaluate(factory(), cfg.sim, track, seed=args.seed, laps=args.laps),
                  "lap_mean", "lap_std")
    if args.render:
        policy_rollout_figure(factory(), cfg.sim, track, seed=args.seed,
                              out_path=args.render, laps=min(3, args.laps))
        print(args.render)
    return 0


_SYNTH = {
    "disk": SyntheticSet.disk,
    "crescent": SyntheticSet.crescent,
    "sector": SyntheticSet.sector,
}


def write_samples_csv(path, plus, sdf_plus, query, sdf_query) -> None:
    """Every sample once, with its signed distance to the true boundary: the
    plus points (pool ``plus``), then the query points (pool ``query``)."""
    write_csv(path, ("x", "y", "true_sdf", "pool"),
              ((x, y, s, pool)
               for pool, pts, sdf in (("plus", plus, sdf_plus), ("query", query, sdf_query))
               for (x, y), s in zip(pts.tolist(), sdf.tolist())))


def write_points_csv(path, query, removed) -> None:
    """One radius's decisions: each query point, in ``samples.csv`` order, with
    ``removed`` 1 if the hull test dropped it from the negative set, else 0."""
    write_csv(path, ("x", "y", "removed"),
              ((x, y, rm) for (x, y), rm in zip(query.tolist(), removed.astype(int).tolist())))


def write_grid_csv(path, xs, ys, probs) -> None:
    """The p(safe) matrix: a header row of ``y\\x`` and the x-coordinates,
    then one row per y, that y followed by ``probs[i, :]`` along x."""
    write_csv(path, ("y\\x", *xs.tolist()),
              ((y, *row) for y, row in zip(ys.tolist(), probs.tolist())))


def _rho_tag(rho: float) -> str:
    """The file-name tag of one ``--rho`` radius."""
    return f"rho{rho:g}".replace(".", "p")


def _radii(text: str) -> list:
    """The ``--rho`` radii: comma-separated numbers, each finite and
    non-negative, no two with one file tag (the second pass would overwrite
    the first pass's files)."""
    try:
        rhos = [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        rhos = []
    if not rhos:
        raise argparse.ArgumentTypeError(f"must be comma-separated numbers, got {text!r}")
    for rho in rhos:
        if not 0.0 <= rho < math.inf:
            raise argparse.ArgumentTypeError(f"radii must be finite and non-negative, "
                                             f"got {rho!r}")
    tags = [_rho_tag(rho) for rho in rhos]
    for i, tag in enumerate(tags):
        if tag in tags[:i]:
            raise argparse.ArgumentTypeError(f"radius {rhos[i]!r} repeats the file tag "
                                             f"{tag!r} of radius {rhos[tags.index(tag)]!r}")
    return rhos


def _at_least(least: int):
    """An ``argparse`` type: an integer of at least ``least``.  Text that is no
    integer reads as ``invalid integer value``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value
    return integer


def _cmd_labeldemo(args) -> int:
    with _refused(args, out=args.out):
        synth = _SYNTH[args.set]()
    rng = rng_stream(args.seed)
    plus = synth.sample_inside(args.n, rng)
    query = sample_box(args.n, rng)
    os.makedirs(args.out, exist_ok=True)
    summary_path = os.path.join(args.out, "summary.csv")
    summary = []        # one row per radius, the file rewritten after each pass
    true_set = None     # (zero contour, truth mask) of the true set on the grid
    for i, rho in enumerate(args.rho):
        # each pass begins with its own labeling call (perfbench marks the
        # passes there); every pass labels the one draw that samples.csv holds
        removed = label_synthetic(plus, query, rho)
        if i == 0:
            write_samples_csv(os.path.join(args.out, "samples.csv"),
                              plus, synth.signed_distance(plus),
                              query, synth.signed_distance(query))
        tag = _rho_tag(rho)

        points_path = os.path.join(args.out, f"points_{tag}.csv")
        write_points_csv(points_path, query, removed)

        minus = query[~removed]
        params = train_synthetic_classifier(plus, minus, seed=args.seed)
        xs, ys, probs = classifier_grid(params, bounds=(-5.0, 5.0), n=args.grid)
        grid_path = os.path.join(args.out, f"decision_grid_{tag}.csv")
        write_grid_csv(grid_path, xs, ys, probs)
        if true_set is None:    # every pass evaluates on the same grid
            boundary = contour_segments(xs, ys, grid_map(synth.signed_distance, xs, ys), 0.0)
            # kept as one float array, about an eighth of the size of its tuples
            true_set = np.array(boundary), grid_map(synth.contains, xs, ys) > 0.5
        boundary, truth = true_set

        # true boundary (dotted) and classifier decision boundary overlay
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
                {"segs": boundary, "color": "black", "dash": "2 3"},
                {"segs": contour_segments(xs, ys, probs, 0.5), "color": "#1f77b4"},
            ],
        )
        svg_path = os.path.join(args.out, f"overlay_{tag}.svg")
        with open(svg_path, "w", encoding="utf-8") as fh:
            fh.write(svg)
        n_inc = incorrect_removals(removed, query, synth)
        # balanced accuracy: the mean of the true-positive and true-negative
        # rates of p(safe) > 0.5 on the grid
        pred = probs > 0.5
        accuracy = 0.5 * float((pred & truth).sum() / max(truth.sum(), 1)
                               + (~pred & ~truth).sum() / max((~truth).sum(), 1))
        summary.append((args.set, rho, int(removed.sum()),
                        prop1_violation_count(query[removed], synth, rho), n_inc, accuracy))
        write_csv(summary_path, ("set", "rho", "removed", "violations", "incorrect_removals",
                                 "balanced_accuracy"), summary)
        print(f"rho={rho:g}: removed {int(removed.sum())} of {len(query)} "
              f"({n_inc} outside the true set); wrote {points_path}, {grid_path}, {svg_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # no option may be abbreviated: a prefix such as --se would be read as
    # --seed, and the experiment script passes unknown options through
    parser = argparse.ArgumentParser(
        prog="cabc", allow_abbrev=False,
        description="Constraint-aware behavior cloning on a built-in racing simulator.")
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    # an option that names a setting replaces the --config file's value only when given
    p = add_parser("train", help="run a training method and write a run directory")
    p.add_argument("--method", choices=("bc", "ca"), required=True)
    p.add_argument("--track", default="gp", help="built-in track name or track file")
    p.add_argument("--expert", choices=("pid", "racing"), default="racing")
    p.add_argument("--obs", help="output or full; replaces the config's observation_mode")
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--seed", type=_at_least(0), default=None)
    p.add_argument("--out", required=True, help="run directory, absent or empty")
    p.add_argument("--checkpoint-every", type=_at_least(0), default=1,
                   help="policy checkpoint cadence in epochs (0 disables); checkpoints/ "
                        "holds the cadence epochs before the last, whose policy is "
                        "policy.npz")
    p.set_defaults(func=_cmd_train, parser=p)

    p = add_parser("eval", help="evaluate saved policy weights")
    p.add_argument("--weights", required=True,
                   help="policy .npz archive written by train, e.g. RUN/policy.npz or "
                        "RUN/checkpoints/epoch_NNNN/policy.npz: .npy members flat "
                        "(float64 parameters), sizes, head and seed")
    p.add_argument("--track", default="gp")
    p.add_argument("--obs", help="output or full; replaces the config's observation_mode")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--laps", type=_at_least(1), help="replaces the config's eval_laps")
    p.add_argument("--config", default=None, help="key = value config file, e.g. RUN/config.txt")
    p.set_defaults(func=_cmd_eval, parser=p)

    p = add_parser("report", help="emit charts from run directories")
    p.add_argument("--run", required=True)
    p.add_argument("--baseline", default=None)
    p.add_argument("--out", required=True, help="report directory, made if absent")
    p.set_defaults(func=_cmd_report, parser=p)

    p = add_parser("sim", help="run an expert and optionally render its path")
    p.add_argument("--expert", choices=("pid", "racing"), default="racing")
    p.add_argument("--track", default="gp")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--laps", type=_at_least(1), default=3)
    p.add_argument("--render", default=None, help="output SVG path")
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_sim, parser=p)

    p = add_parser(
        "labeldemo", help="synthetic-set auto-labeling benchmark",
        description="Label one synthetic set at each --rho radius, fit a classifier to "
                    "the labels and evaluate it on a --grid x --grid grid. Every radius "
                    "labels the same samples, written once to samples.csv (x, y, "
                    "true_sdf, pool: the plus points, then the query points). Per "
                    "radius it writes points_<tag>.csv (x, y, removed: one row per "
                    "query point, in samples.csv order), decision_grid_<tag>.csv and "
                    "overlay_<tag>.svg, and summary.csv has one row per radius: set, "
                    "rho, removed, violations, incorrect_removals, balanced_accuracy.")
    p.add_argument("--set", choices=tuple(_SYNTH), default="crescent")
    p.add_argument("--rho", type=_radii, default="1.0,0.5,0.25", help="comma-separated radii")
    p.add_argument("--n", type=_at_least(1), default=2000)
    p.add_argument("--grid", type=_at_least(2), default=200)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--out", required=True, help="output directory, absent or empty")
    p.set_defaults(func=_cmd_labeldemo, parser=p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
