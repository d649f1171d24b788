#!/usr/bin/env python3
"""Closed-loop microbenchmark: microseconds per simulated step and per call.

Each group below is a builder: given the name of a loaded ``cabc`` package,
it returns cases, each a function of no argument that returns how many units
(steps or calls) it ran.  One timing loop times every case of one tree or of
two (below).  A unit is a simulated step in ``loops`` and ``evaluate`` and a
call in the other groups.

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

Rounds: an invocation times the package in ``--src`` and, with ``--against
OTHER_SRC``, the one in ``OTHER_SRC`` too, inside this one process, in
``PAIRS`` rounds.  Each round imports every tree afresh under new package
names and builds its cases.  It then times each case ``PAIR_REPEATS`` times
on each tree, one run on one tree right after one on the other, and keeps
each tree's fewest seconds per unit.  Rounds alternate which tree is built
and timed first.  The invocation appends one record under ``--label`` to
``--out``:

    python3 scripts/bench_closed_loop.py --label change
    python3 scripts/bench_closed_loop.py --label change-vs-parent --against ../parent/src

Record: ``label``, ``started``, ``rounds``, ``repeats`` and, under
``trees``, one entry per tree (``src``, and ``against`` with two trees)
holding, for every case of every group, ``us``, the median over rounds of
the round's fewest microseconds per unit, ``units``, the units one run
times, and the case details (file bytes, laps, hull points and acceptances)
as the first round built them.  A two-tree record adds, for every case,
``ratios``, each round's ratio ``--src`` over ``OTHER_SRC`` (below 1 means
``--src`` is faster), and their median and quartiles, ``ratio_median``,
``ratio_q1`` and ``ratio_q3``.

Why afresh: with both trees loaded and their cases built only once, two
copies of one tree read some cases a steady few percent apart
(``nn.adam_step.policy`` 1.047, quartiles 1.034-1.066, over 20 pairs on a
2-core x86_64 host), a bias that follows the loading, not the code.  A fresh
import per round makes it vary from round to round; there, every median of
the same two copies lay within 2% of 1.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import math
import os
import platform
import sys
import tempfile
import time
import weakref

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
PAIRS = 20
PAIR_REPEATS = 3
EVAL_LAPS = 10
HULL_QUERIES = 100
NN_BATCH = 256
NN_CALLS = 20
DATASET_SEED = 1000
DATASET_EPOCHS = 3


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


def _rng(seed: int, *key: int) -> np.random.Generator:
    """The stream ``core.rng_stream(seed, *key)`` returns, built here: trees
    before the centreline-pose change define ``rng_stream`` in ``sim``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        entropy=seed, spawn_key=key)))


def _full_mode(trainer) -> str:
    """The full-state observation mode's name in the loaded tree: ``full``,
    or ``full_state`` in trees from before the two names were merged."""
    try:
        trainer.TrainConfig(observation_mode="full")
    except ValueError:
        return "full_state"
    return "full"


def _loops(pkg: str) -> dict:
    experts, sim, track, trainer = _modules(pkg, "experts", "sim", "track", "trainer")
    gp, circle = track.get_track("gp"), track.get_track("circle")
    cfg = sim.SimConfig(lap_target=2)
    learner = trainer.MlpPolicy(
        trainer.init_policy(trainer.TrainConfig(seed=1, sim=cfg), circle), "output", circle)
    full = _full_mode(trainer)
    full_cfg = trainer.TrainConfig(seed=1, sim=cfg, observation_mode=full)
    full_learner = trainer.MlpPolicy(trainer.init_policy(full_cfg, circle), full, circle)

    def racing_gp():
        return len(sim.rollout(cfg, gp, experts.RacingExpert(cfg, gp),
                               sim.default_start_state(), 1200, _rng(11, 0)))

    def pid_circle():
        return len(sim.rollout(cfg, circle, experts.PidCenterline(cfg, circle),
                               sim.default_start_state(), 1200, _rng(12, 0)))

    def mixture(policy):
        def run():
            mixed = trainer.MixedPolicy(experts.PidCenterline(cfg, circle), policy, 0.5,
                                        _rng(13, 1), sigma_u=0.15)
            return len(sim.rollout(cfg, circle, mixed, sim.default_start_state(), 1200,
                                   _rng(13, 0),
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
    experts, reports, sim, track, trainer = _modules(
        pkg, "experts", "reports", "sim", "track", "trainer")
    gp = track.get_track("gp")
    cfg = sim.SimConfig(lap_target=2)
    traj = sim.rollout(cfg, gp, experts.RacingExpert(cfg, gp), sim.default_start_state(), 1200,
                       _rng(11, 0))
    pairs = [(tuple(x), tuple(u), tuple(y)) for x, u, y in zip(
        traj.states[:-1].tolist(), traj.u_applied.tolist(), traj.y.tolist())]
    expert = experts.RacingExpert(cfg, gp)
    policy = trainer.MlpPolicy(
        trainer.init_policy(trainer.TrainConfig(seed=1, sim=cfg), gp), "output", gp)
    rng = _rng(0, 0)
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
    nn, autolabel, critic, sim, track, trainer = _modules(
        pkg, "nn", "autolabel", "critic", "sim", "track", "trainer")
    gp, cfg = track.get_track("gp"), sim.SimConfig()
    rng = _rng(0, 0)
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
    rng = _rng(0)
    plus = autolabel.SyntheticSet.crescent().sample_inside(6000, rng)
    index = autolabel.NeighborIndex(plus)
    demo = [(q, plus[idx], autolabel.HULL_TOL) for q in autolabel.sample_box(6000, rng)
            if len(idx := index.query(q, 1.0))]

    cfg = trainer.TrainConfig(seed=0, alpha=1.0)
    gp = track.get_track("gp")
    factory = trainer.make_expert_factory("racing", cfg.sim, gp)
    policy = trainer.init_policy(cfg, gp)
    trajs = [t for epoch in range(8) for t in trainer._collect_epoch(cfg, gp, factory, policy,
                                                                      epoch)]
    # D+ and D_query: the states visited by successful and by failed rollouts
    plus, query = (np.concatenate([t.states[:-1] for t in trajs
                                   if (t.outcome is core.Outcome.SUCCESS) is safe])
                   for safe in (True, False))
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


def _per_unit(run) -> tuple:
    """Seconds per unit of one call of ``run``, and the units it ran."""
    t0 = time.perf_counter()
    units = run()
    return (time.perf_counter() - t0) / units, units


def _time_trees(trees: list) -> dict:
    """Every case of the one or two trees in the src directories ``trees``,
    timed in ``PAIRS`` rounds: the record's ``rounds``, ``repeats``, ``trees``
    and, with two trees, the ratios of the first over the second."""
    sides = list(range(len(trees)))
    seconds = [{} for _ in sides]   # group -> name -> each round's fewest seconds per unit
    facts = [{} for _ in sides]   # group -> name -> units and info, as the first round built them
    for i in range(PAIRS):
        order = sides if i % 2 == 0 else sides[::-1]
        names = [f"_bench_pair{i}_tree{side}" for side in sides]
        cases = [None for _ in sides]
        for side in order:
            load_tree(trees[side], names[side])
            cases[side] = {group: build(names[side]) for group, build in GROUPS.items()}
        for group, named in cases[0].items():
            for name in named:
                # run by run, so that drift within one case's timing reaches every tree
                best, units = [math.inf for _ in sides], [None for _ in sides]
                for _ in range(PAIR_REPEATS):
                    for side in order:
                        per_unit, units[side] = _per_unit(cases[side][group][name][0])
                        best[side] = min(best[side], per_unit)
                for side in sides:
                    seconds[side].setdefault(group, {}).setdefault(name, []).append(best[side])
                    facts[side].setdefault(group, {}).setdefault(
                        name, {"units": units[side], **cases[side][group][name][1]})
        for name in names:
            unload_tree(name)

    record = {"rounds": PAIRS, "repeats": PAIR_REPEATS, "trees": {
        tree: {group: {name: {"us": round(float(np.median(s)) * 1e6, 3),
                              **facts[side][group][name]}
                       for name, s in named.items()}
               for group, named in seconds[side].items()}
        for tree, side in zip(("src", "against"), sides)}}
    if len(trees) == 2:
        ratios = {group: {name: [round(a / b, 4) for a, b in zip(s, seconds[1][group][name])]
                          for name, s in named.items()}
                  for group, named in seconds[0].items()}
        for key, q in (("ratio_median", 0.5), ("ratio_q1", 0.25), ("ratio_q3", 0.75)):
            record[key] = {group: {name: round(float(np.quantile(r, q)), 4)
                                   for name, r in named.items()}
                           for group, named in ratios.items()}
        record["ratios"] = ratios
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="name of the measured version")
    ap.add_argument("--src", default=os.path.join(HERE, "..", "src"),
                    help="the src directory of the cabc package to measure")
    ap.add_argument("--out", default=os.path.join(HERE, "..", "BENCH_micro.json"))
    ap.add_argument("--against", default=None, metavar="OTHER_SRC",
                    help="also time the cabc package in this src directory, round by round "
                         "beside --src in this process, and record --src over it")
    args = ap.parse_args(argv)

    record = {"label": args.label, "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
              **_time_trees([args.src] + ([args.against] if args.against else []))}
    doc = {"records": []}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["host"] = {"python": platform.python_version(), "numpy": np.__version__,
                   "machine": platform.machine(), "cpus": os.cpu_count()}
    doc["records"].append(record)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(json.dumps({k: v for k, v in record.items() if k != "started"}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
