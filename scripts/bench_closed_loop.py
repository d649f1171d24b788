#!/usr/bin/env python3
"""Closed-loop microbenchmark: microseconds per simulated step and per call.

Each group below is a builder: given the name of a loaded ``cabc`` package,
it returns cases, each a function of no argument that returns how many units
(steps or calls) it ran.  One timing loop times any case: the fewest seconds
per unit over a number of runs.

Loops (per step):

- ``racing_gp``:     the racing expert on gp, two laps, observation noise;
- ``pid_circle``:    the PID expert on circle, two laps;
- ``mixed_circle``:  collection's mixture on circle: the PID expert and an
  untrained 128-wide output-feedback policy, beta = 0.5, actuation noise;
- ``mixed_full_circle``: the same mixture with a 128-wide full-state policy
  (``--obs full``).

Evaluations (per step of ``evalharness.evaluate`` over ``EVAL_LAPS`` laps,
default simulator, seed 0): ``pid_circle``, the PID expert on circle, and
``racing_gp``, the racing expert on gp.

Calls (per call, each made on the states, actions and observations of one
``sim.rollout`` of the racing loop, ``racing_gp``): ``sim.step``,
``sim.observe``, ``sim.lane_preview``, ``track.frenet_to_cartesian``,
``RacingExpert.__call__``, the batch-1 ``MlpPolicy.__call__`` and the
full-state policy features ``trainer.features_from_state``; and one call of
``reports.track_polylines`` on gp, the outline of the rollout figure.

Kernels (per call of ``NN_CALLS``, each on a batch of ``NN_BATCH`` random
rows): a taped ``nn.forward``, ``nn.backward`` from its tape and
``nn.adam_step`` of the default 128x3 output-feedback policy (13 -> 2, tanh
head), dynamics model (9 -> 6) and safety classifier (7 -> 1), and one
``critic.safety_penalty_and_input_grad`` batch through that dynamics model
and classifier.

Hull tests (per ``autolabel.hull_membership`` call, with the number
accepted), each over the first ``HULL_QUERIES`` queries that have a neighbor:

- ``labeldemo_rho1``: 2-D, the shape ``cabc labeldemo --set crescent --n 6000``
  tests at rho = 1: every pool point within rho, default tolerance;
- ``train_gp``: 7-D, the shape training tests: the failed states of a
  fixed-seed expert collection on gp (eight epochs, alpha = 1) against at most
  ``neighbor_cap`` nearest safe states within ``rho``, at ``hull_tol``.

Files (per call, with the file's size), each in a temporary file:

- ``nn.save_weights`` and ``nn.load_weights`` of the default 128x3
  output-feedback policy;
- ``core.DatasetWriter.write`` and ``core.load_dataset``: one
  ``trajectories.jsonl.gz`` written whole (writer opened, every rollout
  written, closed) and read whole.  The collection is fixed: the first
  ``DATASET_EPOCHS`` epochs of ``trainer._collect_epoch`` with the PID expert
  on circle, seed ``DATASET_SEED`` (a ``bc-circle`` run's) and an untrained
  policy; its rollout and step counts are in the record.  Run with
  ``--against`` on trees of two dataset formats, these cases compare the
  formats.

Start-up (minimum over ``STARTUP_REPEATS`` fresh interpreters, run one after
another with ``--src`` on ``PYTHONPATH``, of the wall time from spawn to exit
and of the child's ``ru_maxrss``): ``import_cli``, ``import cabc.cli``, what
every command loads.  Records from before the labeling commands dropped
scipy also hold ``import_cli_scipy``.

One tree: an invocation times each case ``REPEATS`` times (hull tests
``HULL_REPEATS`` times), keeps the fewest seconds per unit, and appends one
record under ``--label`` to ``--out``:

    python3 scripts/bench_closed_loop.py --label change

Two trees: with ``--against OTHER_SRC`` an invocation compares the package
in ``--src`` with the one in ``OTHER_SRC`` inside this one process, in
``PAIRS`` pairs; start-up is not compared.  Each pair imports both trees
afresh under new package names and builds their cases.  It then times each
case ``PAIR_REPEATS`` times on each tree, one run on one tree right after
one on the other, and keeps each tree's fewest seconds per unit.  Pairs
alternate which tree is built and timed first.  The record holds, for every
case, each pair's ratio ``--src`` over ``OTHER_SRC`` (below 1 means
``--src`` is faster), their median and their quartiles, and under ``info``
each tree's case details (file bytes, laps, hull points and acceptances) as
the first pair built them:

    python3 scripts/bench_closed_loop.py --label change-vs-parent --against ../parent/src

Why afresh: with both trees loaded and their cases built only once, two
copies of one tree read some cases a steady few percent apart
(``nn.adam_step.policy`` 1.047, quartiles 1.034-1.066, over 20 pairs on a
2-core x86_64 host), a bias that follows the loading, not the code.  A fresh
import per pair makes it vary from pair to pair; there, every median of the
same two copies lay within 2% of 1.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import time
import weakref

HERE = os.path.dirname(os.path.abspath(__file__))
REPEATS = 20
HULL_REPEATS = 3
PAIRS = 20
PAIR_REPEATS = 3
EVAL_LAPS = 10
HULL_QUERIES = 100
STARTUP_REPEATS = 10
NN_BATCH = 256
NN_CALLS = 20
DATASET_SEED = 1000
DATASET_EPOCHS = 3
STARTUP = {"import_cli": "import cabc.cli"}
STEP_GROUPS = ("loops", "evaluate")   # timed per simulated step; the others per call


def load_tree(src: str, name: str) -> str:
    """Import the ``cabc`` package in the directory ``src`` as package ``name``.

    The package's relative imports resolve to its own modules, so trees
    loaded under different names run side by side.  Returns ``name``.
    """
    package = os.path.join(os.path.abspath(src), "cabc")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return name


def unload_tree(name: str) -> None:
    for key in [key for key in sys.modules if key == name or key.startswith(name + ".")]:
        del sys.modules[key]


def _modules(pkg: str, *names: str) -> list:
    return [importlib.import_module(f"{pkg}.{name}") for name in names]


def _loops(pkg: str) -> dict:
    core, experts, sim, track, trainer = _modules(pkg, "core", "experts", "sim", "track",
                                                  "trainer")
    gp, circle = track.get_track("gp"), track.get_track("circle")
    cfg = sim.SimConfig(lap_target=2)
    learner = trainer.MlpPolicy(
        trainer.init_policy(trainer.TrainConfig(seed=1, sim=cfg), circle), "output", circle)
    full_cfg = trainer.TrainConfig(seed=1, sim=cfg, observation_mode="full")
    full_learner = trainer.MlpPolicy(trainer.init_policy(full_cfg, circle), "full", circle)

    def racing_gp():
        return len(sim.rollout(cfg, gp, experts.RacingExpert(cfg, gp),
                               sim.default_start_state(), 1200, core.rng_stream(11, 0)))

    def pid_circle():
        return len(sim.rollout(cfg, circle, experts.PidCenterline(cfg, circle),
                               sim.default_start_state(), 1200, core.rng_stream(12, 0)))

    def mixture(policy):
        def run():
            mixed = trainer.MixedPolicy(experts.PidCenterline(cfg, circle), policy, 0.5,
                                        core.rng_stream(13, 1), sigma_u=0.15)
            return len(sim.rollout(cfg, circle, mixed, sim.default_start_state(), 1200,
                                   core.rng_stream(13, 0),
                                   relabel=lambda x: mixed.last_expert_action))
        return run

    return {"racing_gp": (racing_gp, {}), "pid_circle": (pid_circle, {}),
            "mixed_circle": (mixture(learner), {}),
            "mixed_full_circle": (mixture(full_learner), {})}


def _evaluate(pkg: str) -> dict:
    evalharness, experts, sim, track = _modules(pkg, "evalharness", "experts", "sim", "track")
    cfg = sim.SimConfig()

    def case(name, track_name, expert):
        circuit = track.get_track(track_name)

        def run():
            result = evalharness.evaluate(expert(cfg, circuit), cfg, circuit, seed=0,
                                          laps=EVAL_LAPS)
            if result.laps_completed != EVAL_LAPS:
                raise RuntimeError(f"{name}: {result.laps_completed} of {EVAL_LAPS} laps")
            # each lap time is a whole number of steps times dt
            return sum(round(t / cfg.dt) for t in result.lap_times)
        return run, {"laps": EVAL_LAPS}

    return {"pid_circle": case("pid_circle", "circle", experts.PidCenterline),
            "racing_gp": case("racing_gp", "gp", experts.RacingExpert)}


def _calls(pkg: str) -> dict:
    core, experts, reports, sim, track, trainer = _modules(
        pkg, "core", "experts", "reports", "sim", "track", "trainer")
    gp = track.get_track("gp")
    cfg = sim.SimConfig(lap_target=2)
    traj = sim.rollout(cfg, gp, experts.RacingExpert(cfg, gp), sim.default_start_state(), 1200,
                       core.rng_stream(11, 0))
    pairs = [(tuple(x), tuple(u), tuple(y)) for x, u, y in zip(
        traj.states[:-1].tolist(), traj.u_applied.tolist(), traj.y.tolist())]
    expert = experts.RacingExpert(cfg, gp)
    policy = trainer.MlpPolicy(
        trainer.init_policy(trainer.TrainConfig(seed=1, sim=cfg), gp), "output", gp)
    rng = core.rng_stream(0, 0)
    distances = cfg.preview_distances

    def per_state(call):
        def run():
            for args in pairs:
                call(*args)
            return len(pairs)
        return run, {}

    def polylines():
        reports.track_polylines(gp)
        return 1

    return {
        "sim.step": per_state(lambda x, u, y: sim.step(cfg, gp, x, u)),
        "sim.observe": per_state(lambda x, u, y: sim.observe(cfg, gp, x, rng)),
        "sim.lane_preview": per_state(lambda x, u, y: sim.lane_preview(gp, x, distances)),
        "track.frenet_to_cartesian": per_state(
            lambda x, u, y: track.frenet_to_cartesian(gp, *x[3:])),
        "RacingExpert.__call__": per_state(lambda x, u, y: expert(y, x)),
        "MlpPolicy.__call__": per_state(lambda x, u, y: policy(y, x)),
        "trainer.features_from_state": per_state(
            lambda x, u, y: trainer.features_from_state(x, gp)),
        "reports.track_polylines": (polylines, {}),
    }


def _nn(pkg: str) -> dict:
    nn, autolabel, core, critic, sim, track, trainer = _modules(
        pkg, "nn", "autolabel", "core", "critic", "sim", "track", "trainer")
    gp, cfg = track.get_track("gp"), sim.SimConfig()
    rng = core.rng_stream(0, 0)
    states, actions = rng.normal(size=(NN_BATCH, 6)), rng.normal(size=(NN_BATCH, 2))
    norm = autolabel.fit_norm(states, gp.lap_length)
    hidden = trainer.TrainConfig().hidden
    dyn = critic.init_dyn_model(norm, cfg, hidden=hidden, seed=1)
    clf = critic.init_safety_clf(norm, hidden=hidden, seed=2)
    nets = {"policy": trainer.init_policy(trainer.TrainConfig(seed=1), gp), "dyn": dyn.params,
            "clf": clf.params}

    def repeated(call, *args, **kwargs):
        def run():
            for _ in range(NN_CALLS):
                call(*args, **kwargs)
            return NN_CALLS
        return run, {"batch": NN_BATCH}

    cases = {}
    for name, params in nets.items():
        x = rng.normal(size=(NN_BATCH, params.sizes[0]))
        upstream = rng.normal(size=(NN_BATCH, params.sizes[-1]))
        tape, opt = nn.Tape(), nn.init_opt(params)
        # one taped forward feeds every backward: the tape is not consumed
        nn.forward(params, x, tape)
        grads, _ = nn.backward(params, tape, upstream)
        cases[f"nn.forward.{name}"] = repeated(nn.forward, params, x, tape)
        cases[f"nn.backward.{name}"] = repeated(nn.backward, params, tape, upstream)
        cases[f"nn.adam_step.{name}"] = repeated(nn.adam_step, params, grads, opt)
    cases["critic.safety_penalty"] = repeated(
        critic.safety_penalty_and_input_grad, clf, dyn, states, actions, 10.0,
        tapes=(nn.Tape(), nn.Tape()))
    return cases


def _hull_cases(pkg: str) -> dict:
    """``(x, points, tol)`` triples of the two hull-test shapes."""
    autolabel, core, track, trainer = _modules(pkg, "autolabel", "core", "track", "trainer")
    rng = core.rng_stream(0)
    plus = autolabel.SyntheticSet.crescent().sample_inside(6000, rng)
    index = autolabel.NeighborIndex(plus)
    demo = [(q, plus[idx], autolabel.HULL_TOL) for q in autolabel.sample_box(6000, rng)
            if len(idx := index.query(q, 1.0))]

    cfg = trainer.TrainConfig(seed=0, alpha=1.0)
    gp = track.get_track("gp")
    factory = trainer.make_expert_factory("racing", cfg.sim, gp)
    policy = trainer.init_policy(cfg, gp)
    store = trainer._SampleStore(trainer.policy_input_dim(cfg.observation_mode, cfg.sim))
    store.add_trajectories(
        [t for epoch in range(8) for t in trainer._collect_epoch(cfg, gp, factory, policy, epoch)],
        cfg.observation_mode, gp)
    plus, query = (store.states[rows] for rows in store.pools())
    norm = autolabel.fit_norm(plus, gp.lap_length)
    safe = norm.normalize_states(plus)
    index = autolabel.NeighborIndex(safe)
    train = [(q, safe[idx], cfg.hull_tol) for q in norm.normalize_states(query)
             if len(idx := index.query_nearest(q, cfg.rho, cfg.neighbor_cap))]
    return {"labeldemo_rho1": demo[:HULL_QUERIES], "train_gp": train[:HULL_QUERIES]}


def _hulls(pkg: str) -> dict:
    (autolabel,) = _modules(pkg, "autolabel")
    cases = {}
    for name, triples in _hull_cases(pkg).items():
        def run(triples=triples):
            for x, points, tol in triples:
                autolabel.hull_membership(x, points, tol)
            return len(triples)
        accepted = sum(autolabel.hull_membership(x, pts, tol) for x, pts, tol in triples)
        cases[name] = (run, {"points_mean": round(sum(len(t[1]) for t in triples)
                                                  / len(triples), 2),
                             "accepted": int(accepted)})
    return cases


def _temp_path(owner, suffix: str) -> str:
    """A new temporary file's path, the file removed when ``owner`` is collected."""
    fd, path = tempfile.mkstemp(suffix=suffix)
    os.close(fd)
    weakref.finalize(owner, os.remove, path)
    return path


def _io(pkg: str) -> dict:
    core, nn, track, trainer = _modules(pkg, "core", "nn", "track", "trainer")
    policy = trainer.init_policy(trainer.TrainConfig(seed=1), track.get_track("gp"))

    def save():
        nn.save_weights(policy, weights)
        return 1

    def load():
        nn.load_weights(weights)
        return 1

    weights = _temp_path(save, ".npz")
    nn.save_weights(policy, weights)
    weights_info = {"bytes": os.path.getsize(weights)}

    circle, cfg = track.get_track("circle"), trainer.TrainConfig(seed=DATASET_SEED)
    factory = trainer.make_expert_factory("pid", cfg.sim, circle)
    trajs = [t for epoch in range(DATASET_EPOCHS) for t in trainer._collect_epoch(
        cfg, circle, factory, trainer.init_policy(cfg, circle), epoch)]

    def write():
        with core.DatasetWriter(dataset) as writer:
            for traj in trajs:
                writer.write(traj)
        return 1

    def read():
        core.load_dataset(dataset)
        return 1

    dataset = _temp_path(write, ".jsonl.gz")
    write()
    dataset_info = {"bytes": os.path.getsize(dataset), "rollouts": len(trajs),
                    "steps": sum(map(len, trajs))}
    return {"nn.save_weights": (save, weights_info), "nn.load_weights": (load, weights_info),
            "core.DatasetWriter.write": (write, dataset_info),
            "core.load_dataset": (read, dataset_info)}


GROUPS = {"loops": _loops, "evaluate": _evaluate, "calls": _calls, "nn": _nn,
          "hulls": _hulls, "io": _io}


def _per_unit(run, repeats: int) -> tuple:
    """The fewest seconds per unit over ``repeats`` calls of ``run``, and the units."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        units = run()
        best = min(best, (time.perf_counter() - t0) / units)
    return best, units


def _measure(pkg: str) -> dict:
    """Every group's cases timed once, in microseconds per unit."""
    out = {}
    for group, build in GROUPS.items():
        unit = "step" if group in STEP_GROUPS else "call"
        repeats = HULL_REPEATS if group == "hulls" else REPEATS
        out[group] = {}
        for name, (run, info) in build(pkg).items():
            seconds, units = _per_unit(run, repeats)
            out[group][name] = {f"us_per_{unit}": round(seconds * 1e6, 3), f"{unit}s": units,
                                **info}
    return out


def _compare(src: str, against: str) -> dict:
    """Per-pair ratios ``src / against`` of every case, with their median and
    quartiles, and each tree's case ``info`` from the first pair."""
    import numpy as np

    trees, ratios, info = (src, against), {}, None
    for i in range(PAIRS):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        names = [f"_bench_pair{i}_tree{side}" for side in (0, 1)]
        cases = [None, None]
        for side in order:
            load_tree(trees[side], names[side])
            cases[side] = {group: build(names[side]) for group, build in GROUPS.items()}
        if info is None:
            info = [{group: {name: case[1] for name, case in named.items()}
                     for group, named in tree.items()} for tree in cases]
        for group, named in cases[0].items():
            for name in named:
                # run by run, so that drift within one case's timing reaches both trees
                seconds = [math.inf, math.inf]
                for _ in range(PAIR_REPEATS):
                    for side in order:
                        seconds[side] = min(seconds[side],
                                            _per_unit(cases[side][group][name][0], 1)[0])
                ratios.setdefault(group, {}).setdefault(name, []).append(
                    round(seconds[0] / seconds[1], 4))
        for name in names:
            unload_tree(name)

    def stat(q):
        return {g: {n: round(float(np.quantile(r, q)), 4) for n, r in entries.items()}
                for g, entries in ratios.items()}

    return {"pairs": PAIRS, "repeats": PAIR_REPEATS, "ratio_median": stat(0.5),
            "ratio_q1": stat(0.25), "ratio_q3": stat(0.75), "ratios": ratios,
            "info": {"src": info[0], "against": info[1]}}


def _startup(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = {}
    for name, stmt in STARTUP.items():
        wall, rss_kb = math.inf, math.inf
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="name of the measured version")
    ap.add_argument("--src", default=os.path.join(HERE, "..", "src"),
                    help="the src directory of the cabc package to measure")
    ap.add_argument("--out", default=os.path.join(HERE, "..", "BENCH_micro.json"))
    ap.add_argument("--against", default=None, metavar="OTHER_SRC",
                    help="compare every group but start-up, pair by pair in this process, "
                         "with the cabc package in this src directory")
    args = ap.parse_args(argv)

    record = {"label": args.label, "started": time.strftime("%Y-%m-%dT%H:%M:%S")}
    if args.against:
        record["against"] = _compare(args.src, args.against)
    else:
        # before this process loads numpy: a child's ru_maxrss counts the image it
        # was forked from, so the children must be spawned from a small process
        startup = _startup(args.src)
        record.update(_measure(load_tree(args.src, "_bench_tree")), startup=startup)
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
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(json.dumps({k: v for k, v in record.items() if k != "started"}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
