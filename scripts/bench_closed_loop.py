#!/usr/bin/env python3
"""Closed-loop microbenchmark: microseconds per simulated step and per call.

Loops (minimum over ``REPEATS`` of the mean cost of one step):

- ``racing_gp``:     the racing expert on gp, two laps, observation noise;
- ``pid_circle``:    the PID expert on circle, two laps;
- ``mixed_circle``:  collection's mixture on circle: the PID expert and an
  untrained 128-wide output-feedback policy, beta = 0.5, actuation noise;
- ``mixed_full_circle``: the same mixture with a 128-wide full-state policy
  (``--obs full``).

Evaluations (minimum over ``REPEATS`` of the mean cost of one step of
``evalharness.evaluate`` over ``EVAL_LAPS`` laps, default simulator, seed 0):

- ``pid_circle``: the PID expert on circle;
- ``racing_gp``:  the racing expert on gp.

Calls (minimum over ``REPEATS`` of the mean cost of one call, each made on
the states and observations the racing loop visits, stepped here through
``sim.step`` and ``sim.observe`` so that any version of the trajectory
record gives the same calls): ``sim.step``,
``sim.observe``, ``sim.lane_preview``, ``track.frenet_to_cartesian``,
``RacingExpert.__call__``, the batch-1 ``MlpPolicy.__call__`` and the
full-state policy features ``trainer.features_from_state``; and one call of
``reports.track_polylines`` on gp, the outline of the rollout figure.

Kernels (minimum over ``REPEATS`` of the mean cost of one of ``NN_CALLS``
calls, each on a batch of ``NN_BATCH`` random rows): a taped ``nn.forward``,
``nn.backward`` from its tape and ``nn.adam_step`` of the default 128x3
output-feedback policy (13 -> 2, tanh head), dynamics model (9 -> 6) and
safety classifier (7 -> 1), and one ``critic.safety_penalty_and_input_grad``
batch through that dynamics model and classifier.

Hull tests (minimum over ``HULL_REPEATS`` of the mean cost of one
``autolabel.hull_membership`` call, with the number accepted), each over the
first ``HULL_QUERIES`` queries that have a neighbor:

- ``labeldemo_rho1``: 2-D, the shape ``cabc labeldemo --set crescent --n 6000``
  tests at rho = 1: every pool point within rho, default tolerance;
- ``train_gp``: 7-D, the shape training tests: the failed states of a
  fixed-seed expert collection on gp (eight epochs, alpha = 1) against at most
  ``neighbor_cap`` nearest safe states within ``rho``, at ``hull_tol``.

Weight files (minimum over ``REPEATS`` of one call, with the file's size):
``nn.save_weights`` and ``nn.load_weights`` of the default 128x3
output-feedback policy, in a temporary directory.

Start-up (minimum over ``STARTUP_REPEATS`` fresh interpreters, run one after
another with ``--src`` on ``PYTHONPATH``, of the wall time from spawn to exit
and of the child's ``ru_maxrss``):

- ``import_cli``: ``import cabc.cli``, what every command loads.  Records
  from before the labeling commands dropped scipy also hold
  ``import_cli_scipy``, ``import cabc.cli, scipy.spatial``, what
  ``train --method ca`` and ``labeldemo`` loaded then.

Each invocation appends one record under ``--label`` to ``--out`` and
rewrites the per-label summary: the minimum over that label's records, since
on a shared host whose speed drifts the fastest invocation is the one least
disturbed.  To compare two versions of the package, alternate invocations
with ``--src`` pointing at each checkout's ``src``:

    python3 scripts/bench_closed_loop.py --label before --src ../old/src
    python3 scripts/bench_closed_loop.py --label after

Paired comparison: with ``--against OTHER_SRC`` the invocation measures only
the loops, evaluations, calls and kernels, in ``PAIRS`` pairs of child processes,
one per tree, alternating which tree runs first.  Each pair gives one ratio
per entry, ``--src`` over ``OTHER_SRC`` (below 1 means ``--src`` is faster).
The record holds every ratio and their median; slow drift cancels within a
pair, but a host on which whole processes run at different speeds spreads
the ratios, so read the median together with that spread:

    python3 scripts/bench_closed_loop.py --label change-vs-parent --against ../old/src
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPEATS = 20
EVAL_LAPS = 10
HULL_REPEATS = 3
HULL_QUERIES = 100
STARTUP_REPEATS = 10
PAIRS = 10
NN_BATCH = 256
NN_CALLS = 20
PAIRED_GROUPS = ("loops", "evaluate", "calls", "nn")
STARTUP = {"import_cli": "import cabc.cli"}


def _import_cabc(src: str) -> None:
    sys.path.insert(0, os.path.abspath(src))
    import cabc  # noqa: F401


def _loops() -> dict:
    from cabc.experts import PidCenterline, RacingExpert
    from cabc.sim import SimConfig, default_start_state, rng_stream, rollout
    from cabc.track import get_track
    from cabc.trainer import MixedPolicy, MlpPolicy, TrainConfig, init_policy

    gp, circle = get_track("gp"), get_track("circle")
    cfg = SimConfig(lap_target=2)
    learner = MlpPolicy(init_policy(TrainConfig(seed=1, sim=cfg), circle), "output", circle)
    full_cfg = TrainConfig(seed=1, sim=cfg, observation_mode="full_state")
    full_learner = MlpPolicy(init_policy(full_cfg, circle), "full_state", circle)

    def racing_gp():
        return rollout(cfg, gp, RacingExpert(cfg, gp), default_start_state(), 1200,
                       rng_stream(11, 0))

    def pid_circle():
        return rollout(cfg, circle, PidCenterline(cfg, circle), default_start_state(), 1200,
                       rng_stream(12, 0))

    def mixture(policy):
        mixed = MixedPolicy(PidCenterline(cfg, circle), policy, 0.5, rng_stream(13, 1),
                            sigma_u=0.15)
        return rollout(cfg, circle, mixed, default_start_state(), 1200, rng_stream(13, 0),
                       relabel=lambda x: mixed.last_expert_action)

    out = {}
    for name, run in (("racing_gp", racing_gp), ("pid_circle", pid_circle),
                      ("mixed_circle", lambda: mixture(learner)),
                      ("mixed_full_circle", lambda: mixture(full_learner))):
        best, steps = float("inf"), 0
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            traj = run()
            dt = time.perf_counter() - t0
            steps = len(traj)
            best = min(best, dt / steps)
        out[name] = {"us_per_step": round(best * 1e6, 3), "steps": steps}
    return out


def _evaluations() -> dict:
    from cabc.evalharness import evaluate
    from cabc.experts import PidCenterline, RacingExpert
    from cabc.sim import SimConfig
    from cabc.track import get_track

    gp, circle = get_track("gp"), get_track("circle")
    cfg = SimConfig()
    cases = {"pid_circle": (circle, PidCenterline), "racing_gp": (gp, RacingExpert)}
    out = {}
    for name, (track, expert) in cases.items():
        best, steps = float("inf"), 0
        for _ in range(REPEATS):
            policy = expert(cfg, track)
            t0 = time.perf_counter()
            result = evaluate(policy, cfg, track, seed=0, laps=EVAL_LAPS)
            dt = time.perf_counter() - t0
            if result.laps_completed != EVAL_LAPS:
                raise RuntimeError(f"{name}: {result.laps_completed} of {EVAL_LAPS} laps")
            # each lap time is a whole number of steps times dt
            steps = sum(round(t / cfg.dt) for t in result.lap_times)
            best = min(best, dt / steps)
        out[name] = {"us_per_step": round(best * 1e6, 3), "steps": steps, "laps": EVAL_LAPS}
    return out


def _calls() -> dict:
    from cabc.experts import RacingExpert
    from cabc.reports import track_polylines
    from cabc.sim import (
        SimConfig,
        default_start_state,
        in_constraints,
        in_target,
        lane_preview,
        observe,
        rng_stream,
        step,
    )
    from cabc.track import frenet_to_cartesian, get_track
    from cabc.trainer import MlpPolicy, TrainConfig, features_from_state, init_policy

    gp = get_track("gp")
    cfg = SimConfig(lap_target=2)
    # the racing loop's steps, as ``rollout`` drives them
    expert, rng_obs, x = RacingExpert(cfg, gp), rng_stream(11, 0), default_start_state()
    states, obs, acts = [], [], []
    for _ in range(1200):
        y = observe(cfg, gp, x, rng_obs)
        u = expert(y, x)
        states.append(x)
        obs.append(y)
        acts.append(u)
        x = step(cfg, gp, x, u)
        if not in_constraints(cfg, gp, x) or in_target(cfg, gp, x, 0.0):
            break
    expert = RacingExpert(cfg, gp)
    policy = MlpPolicy(init_policy(TrainConfig(seed=1, sim=cfg), gp), "output", gp)
    rng = rng_stream(0, 0)
    distances = cfg.preview_distances
    pairs = list(zip(states, acts, obs))

    cases = {
        "sim.step": lambda: [step(cfg, gp, x, u) for x, u, _ in pairs],
        "sim.observe": lambda: [observe(cfg, gp, x, rng) for x in states],
        "sim.lane_preview": lambda: [lane_preview(gp, x, distances) for x in states],
        "track.frenet_to_cartesian": lambda: [frenet_to_cartesian(gp, *x[3:]) for x in states],
        "RacingExpert.__call__": lambda: [expert(y, x) for x, _, y in pairs],
        "MlpPolicy.__call__": lambda: [policy(y, x) for x, _, y in pairs],
        "trainer.features_from_state": lambda: [features_from_state(x, gp) for x in states],
        "reports.track_polylines": lambda: track_polylines(gp),
    }
    out = {}
    for name, run in cases.items():
        calls = 1 if name == "reports.track_polylines" else len(pairs)
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            run()
            best = min(best, (time.perf_counter() - t0) / calls)
        out[name] = {"us_per_call": round(best * 1e6, 3), "calls": calls}
    return out


def _nn() -> dict:
    from cabc import nn
    from cabc.autolabel import fit_norm
    from cabc.critic import init_dyn_model, init_safety_clf, safety_penalty_and_input_grad
    from cabc.sim import SimConfig, rng_stream
    from cabc.track import get_track
    from cabc.trainer import TrainConfig, init_policy

    gp, cfg = get_track("gp"), SimConfig()
    rng = rng_stream(0, 0)
    states, actions = rng.normal(size=(NN_BATCH, 6)), rng.normal(size=(NN_BATCH, 2))
    norm = fit_norm(states, gp.lap_length)
    dyn, clf = init_dyn_model(norm, cfg, seed=1), init_safety_clf(norm, seed=2)
    nets = {"policy": init_policy(TrainConfig(seed=1), gp), "dyn": dyn.params,
            "clf": clf.params}

    def timed(run) -> float:
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            for _ in range(NN_CALLS):
                run()
            best = min(best, (time.perf_counter() - t0) / NN_CALLS)
        return round(best * 1e6, 3)

    out = {}
    for name, params in nets.items():
        x = rng.normal(size=(NN_BATCH, params.sizes[0]))
        upstream = rng.normal(size=(NN_BATCH, params.sizes[-1]))
        tape, opt = nn.Tape(), nn.init_opt(params)
        out[f"nn.forward.{name}"] = timed(lambda: nn.forward(params, x, tape))
        # one taped forward feeds every backward: the tape is not consumed
        grads, _ = nn.backward(params, tape, upstream)
        out[f"nn.backward.{name}"] = timed(lambda: nn.backward(params, tape, upstream))
        out[f"nn.adam_step.{name}"] = timed(lambda: nn.adam_step(params, grads, opt))
    tapes = (nn.Tape(), nn.Tape())
    out["critic.safety_penalty"] = timed(
        lambda: safety_penalty_and_input_grad(clf, dyn, states, actions, 10.0, tapes=tapes))
    return {name: {"us_per_call": us, "batch": NN_BATCH} for name, us in out.items()}


def _hull_cases() -> dict:
    """``(x, points, tol)`` triples of the two hull-test shapes."""
    import numpy as np
    from cabc.autolabel import HULL_TOL, NeighborIndex, SyntheticSet, fit_norm, sample_box
    from cabc.track import get_track
    from cabc.trainer import (
        TrainConfig,
        _collect_epoch,
        _SampleStore,
        init_policy,
        make_expert_factory,
        policy_input_dim,
    )

    rng = np.random.default_rng(0)
    plus = SyntheticSet.crescent().sample_inside(6000, rng)
    index = NeighborIndex(plus)
    demo = [(q, plus[idx], HULL_TOL) for q in sample_box(6000, rng)
            if len(idx := index.query(q, 1.0))]

    cfg = TrainConfig(seed=0, alpha=1.0)
    gp = get_track("gp")
    factory = make_expert_factory("racing", cfg.sim, gp)
    policy = init_policy(cfg, gp)
    store = _SampleStore(policy_input_dim(cfg.observation_mode, cfg.sim))
    store.add_trajectories(
        [t for epoch in range(8) for t in _collect_epoch(cfg, gp, factory, policy, epoch)],
        cfg.observation_mode, gp)
    plus, query = (store.states[rows] for rows in store.pools())
    norm = fit_norm(plus, gp.lap_length)
    safe = norm.normalize_states(plus)
    index = NeighborIndex(safe)
    train = [(q, safe[idx], cfg.hull_tol) for q in norm.normalize_states(query)
             if len(idx := index.query_nearest(q, cfg.rho, cfg.neighbor_cap))]
    return {"labeldemo_rho1": demo[:HULL_QUERIES], "train_gp": train[:HULL_QUERIES]}


def _hulls() -> dict:
    from cabc.autolabel import hull_membership

    out = {}
    for name, cases in _hull_cases().items():
        best = float("inf")
        for _ in range(HULL_REPEATS):
            t0 = time.perf_counter()
            accepted = sum(hull_membership(x, pts, tol) for x, pts, tol in cases)
            best = min(best, (time.perf_counter() - t0) / len(cases))
        out[name] = {"us_per_call": round(best * 1e6, 3), "calls": len(cases),
                     "points_mean": round(sum(len(c[1]) for c in cases) / len(cases), 2),
                     "accepted": int(accepted)}
    return out


def _io() -> dict:
    from cabc import nn
    from cabc.track import get_track
    from cabc.trainer import TrainConfig, init_policy

    gp = get_track("gp")
    policy = init_policy(TrainConfig(seed=1), gp)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "policy")
        cases = {"nn.save_weights": lambda: nn.save_weights(policy, path),
                 "nn.load_weights": lambda: nn.load_weights(path)}
        for name, run in cases.items():
            best = float("inf")
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                run()
                best = min(best, time.perf_counter() - t0)
            out[name] = {"us_per_call": round(best * 1e6, 3), "bytes": os.path.getsize(path)}
    return out


def _startup(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = {}
    for name, stmt in STARTUP.items():
        wall, rss_kb = float("inf"), float("inf")
        for _ in range(STARTUP_REPEATS):
            t0 = time.perf_counter()
            child = subprocess.Popen([sys.executable, "-c", stmt], env=env)
            _, status, usage = os.wait4(child.pid, 0)   # the child's own rusage
            wall = min(wall, time.perf_counter() - t0)
            child.returncode = os.waitstatus_to_exitcode(status)
            if child.returncode != 0:
                raise RuntimeError(f"{stmt!r} exited with {child.returncode}")
            rss_kb = min(rss_kb, usage.ru_maxrss)
        out[name] = {"s": round(wall, 4), "peak_rss_mb": round(rss_kb / 1024.0, 2)}
    return out


def _paired(src: str, against: str) -> dict:
    """Per-pair ratios ``src / against`` of every paired entry, and their medians."""
    import numpy as np

    ratios: dict = {}
    trees = (src, against)
    for i in range(PAIRS):
        runs = [None, None]   # by side, so that a tree measured against itself pairs two runs
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            child = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--paired-child",
                 "--src", trees[side]], check=True, capture_output=True, text=True)
            runs[side] = json.loads(child.stdout)
        for group in PAIRED_GROUPS:
            for name, entry in runs[0][group].items():
                unit = "us_per_step" if "us_per_step" in entry else "us_per_call"
                ratio = entry[unit] / runs[1][group][name][unit]
                ratios.setdefault(group, {}).setdefault(name, []).append(round(ratio, 4))
    return {"pairs": PAIRS,
            "ratio_median": {g: {n: round(float(np.median(r)), 4) for n, r in entries.items()}
                             for g, entries in ratios.items()},
            "ratios": ratios}


def _summary(records: list) -> dict:
    by_label: dict = {}
    for rec in records:
        by_label.setdefault(rec["label"], []).append(rec)
    out = {}
    for label, recs in by_label.items():
        summ = {"records": len(recs)}
        for group, unit in (("loops", "us_per_step"), ("evaluate", "us_per_step"),
                            ("calls", "us_per_call"), ("nn", "us_per_call"),
                            ("hulls", "us_per_call"), ("io", "us_per_call"),
                            ("startup", "s"), ("startup", "peak_rss_mb")):
            # a measurement added later is summarised over the records that have it
            names = dict.fromkeys(name for r in recs for name in r.get(group, {}))
            mins = {name: min(r[group][name][unit] for r in recs if name in r.get(group, {}))
                    for name in names}
            if group == "startup":
                summ.setdefault(group, {})[unit] = mins
            else:
                summ[group] = mins
        paired = [r["paired"] for r in recs if "paired" in r]
        if paired:
            summ["paired_ratio_median"] = paired[-1]["ratio_median"]
        out[label] = summ
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", help="name of the measured version (required)")
    ap.add_argument("--src", default=os.path.join(HERE, "..", "src"),
                    help="the src directory of the cabc package to measure")
    ap.add_argument("--out", default=os.path.join(HERE, "..", "BENCH_micro.json"))
    ap.add_argument("--against", default=None, metavar="OTHER_SRC",
                    help="measure loops, evaluations, calls and kernels in pairs against the "
                         "package in this src directory")
    ap.add_argument("--paired-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.paired_child:
        _import_cabc(args.src)
        print(json.dumps({"loops": _loops(), "evaluate": _evaluations(), "calls": _calls(),
                          "nn": _nn()}))
        return 0
    if not args.label:
        ap.error("--label is required")

    record = {"label": args.label, "started": time.strftime("%Y-%m-%dT%H:%M:%S")}
    if args.against:
        record["paired"] = _paired(args.src, args.against)
    else:
        # before this process loads numpy: a child's ru_maxrss counts the image it
        # was forked from, so the children must be spawned from a small process
        startup = _startup(args.src)
        _import_cabc(args.src)
        record.update(loops=_loops(), evaluate=_evaluations(), calls=_calls(), nn=_nn(),
                      hulls=_hulls(), io=_io(), startup=startup)
    import numpy as np

    doc = {"records": []}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["host"] = {"python": platform.python_version(), "numpy": np.__version__,
                   "machine": platform.machine(), "cpus": os.cpu_count()}
    doc["repeats"] = REPEATS
    doc["startup_repeats"] = STARTUP_REPEATS
    doc["records"].append(record)
    doc["summary"] = _summary(doc["records"])
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(json.dumps({k: v for k, v in record.items() if k != "started"}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
