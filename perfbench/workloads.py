"""The benchmark's workloads: which ``cabc`` command each one runs, at what size,
on which seeds, and which layers it must reach.

One run of a workload is one ``cabc`` command in a fresh process.  A
benchmark invocation runs the workload ``repeats`` times on one input derived
from the benchmark seed, so the same seed always gives the same input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

# every per-layer metric that must be reached (non-zero span count) on a
# workload; on the other workloads its span count must be zero
_TRAIN = ("ca-gp", "bc-circle")
_CA = ("ca-gp",)
_LABEL = ("ca-gp", "labeldemo-crescent")
_DEMO = ("labeldemo-crescent",)
_CLF = ("ca-gp", "labeldemo-crescent")
_ALL = ("ca-gp", "bc-circle", "labeldemo-crescent")

REACHED_ON: Dict[str, Tuple[str, ...]] = {
    "trainer.collect.s": _TRAIN,
    "trainer.label.s": _CA,
    "trainer.dyn.s": _CA,
    "trainer.clf.s": _CA,
    "trainer.policy.s": _TRAIN,
    "trainer.eval.s": _TRAIN,
    "trainer.other.s": _TRAIN,
    "trainer.epochs.s": _TRAIN,
    "autolabel.member_mask.s": _LABEL,
    "autolabel.hull.calls": _LABEL,
    "autolabel.hull.us": _LABEL,
    "autolabel.hull.accept_ratio": _LABEL,
    "autolabel.hull.points_mean": _LABEL,
    "autolabel.cache_skip_ratio": _LABEL,
    "autolabel.fit_norm.s": _CA,
    "autolabel.train_synthetic_classifier.s": _DEMO,
    "autolabel.classifier_grid.s": _DEMO,
    "critic.safety_penalty.calls": _CA,
    "critic.safety_penalty.us": _CA,
    "critic.dyn_loss.us": _CA,
    "critic.clf_loss.us": _CA,
    "nn.forward.policy.b256.us": _TRAIN,
    "nn.forward.dyn.b256.us": _CA,
    "nn.forward.clf.b256.us": _CLF,
    "nn.forward.policy.b1.calls": _TRAIN,
    "nn.forward.policy.b1.us": _TRAIN,
    "nn.backward.policy.us": _TRAIN,
    "nn.backward.dyn.us": _CA,
    "nn.backward.clf.us": _CLF,
    "nn.adam_step.policy.us": _TRAIN,
    "nn.adam_step.dyn.us": _CA,
    "nn.adam_step.clf.us": _CLF,
    "nn.save_weights.calls": _TRAIN,
    "nn.save_weights.s": _TRAIN,
    "sim.collect.steps": _TRAIN,
    "sim.eval.steps": _TRAIN,
    "sim.step.us": _TRAIN,
    "sim.observe.us": _TRAIN,
    "sim.rollout.self_s": _TRAIN,
    "experts.calls": _TRAIN,
    "experts.us": _TRAIN,
    "evalharness.evaluate.s": _TRAIN,
    "evalharness.laps": _TRAIN,
    "cli.expert_eval.s": _TRAIN,
    "core.dataset_write.s": _TRAIN,
    "core.dataset_write.bytes": _TRAIN,
    "reports.write_csv.s": _TRAIN,
    "reports.svg.s": _DEMO,
    "cli.labeldemo.other.s": _DEMO,
    "trace.overhead_s": _ALL,
}


LABELDEMO_RHOS = (1.0, 0.5, 0.25)   # labeldemo's default --rho, which it runs at


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Tuple[str, ...]          # the cabc command, without --seed/--out/--config
    repeats: int                   # runs per benchmark invocation
    config: Dict[str, str] = field(default_factory=dict)   # train config file
    smoke_argv: Tuple[str, ...] = ()                       # self-test size
    smoke_config: Dict[str, str] = field(default_factory=dict)

    @property
    def is_train(self) -> bool:
        return self.argv[0] == "train"

    def ops(self, smoke: bool = False) -> int:
        """Operations per run: epochs for train, rho passes for labeldemo."""
        if self.is_train:
            return int({**self.config, **(self.smoke_config if smoke else {})}["epochs"])
        return len(LABELDEMO_RHOS)

    def command(self, seed: int, out: str, config_path: str, smoke: bool = False) -> List[str]:
        argv = list(self.argv) + list(self.smoke_argv if smoke else ())
        argv += ["--seed", str(seed), "--out", out]
        if self.is_train:
            argv += ["--config", config_path]
        return argv

    def config_text(self, smoke: bool = False) -> str:
        values = {**self.config, **(self.smoke_config if smoke else {})}
        return "".join(f"{k} = {v}\n" for k, v in values.items())


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # the paper's method on its headline task: collection, hull labeling
    # (full pass at the metric refit, incremental after), the dynamics and
    # classifier fits and the critic-penalised policy update
    Workload(
        name="ca-gp",
        argv=("train", "--method", "ca", "--track", "gp", "--expert", "racing",
              "--obs", "output"),
        repeats=3,
        config={"epochs": "2", "early_stop": "0"},
        smoke_config={"grad_steps_policy": "5", "grad_steps_dyn": "5",
                      "grad_steps_clf": "5", "eval_laps": "2"},
    ),
    # plain cloning where evaluation drives full laps every epoch: the
    # simulator and batch-1 inference path, with labeling and critics off
    Workload(
        name="bc-circle",
        argv=("train", "--method", "bc", "--track", "circle", "--expert", "pid",
              "--obs", "output"),
        repeats=5,
        config={"epochs": "3", "early_stop": "0"},
        smoke_config={"epochs": "2", "grad_steps_policy": "5", "eval_laps": "2"},
    ),
    # 2-D synthetic labeling: large uncached hulls, one full pass per rho,
    # then the 2-D classifier, its grid and the CSV/SVG writes
    Workload(
        name="labeldemo-crescent",
        argv=("labeldemo", "--set", "crescent", "--n", "6000", "--grid", "100"),
        repeats=3,
        smoke_argv=("--n", "300", "--grid", "20"),
    ),
)}


def seed_for(workload: Workload, bench_seed: int, root: str, smoke: bool = False) -> int:
    """The command seed one invocation runs, derived from the benchmark seed.

    ``ca-gp`` takes the first candidate whose first-epoch collection (pure
    expert plus actuation noise) completes a lap, fails one, and records at
    least one full minibatch of states.  Without a success no state metric
    is fitted before the next dynamics refit, so labeling and the critic
    chain would not run at all in a short run; without a failure the
    classifier has no negatives and is skipped; with fewer states than a
    minibatch every update runs on a short batch, and the per-call costs at
    batch 256 are not measured.  Such a run would not measure what this
    workload exists for.
    """
    candidates = range(bench_seed * 1000, bench_seed * 1000 + 1000)
    if workload.name != "ca-gp":
        return candidates[0]
    return next(s for s in candidates if _full_first_epoch(workload, s, root, smoke))


def _full_first_epoch(workload: Workload, seed: int, root: str, smoke: bool) -> bool:
    import sys
    from dataclasses import replace

    if f"{root}/src" not in sys.path:
        sys.path.insert(0, f"{root}/src")
    from cabc.config import expert_params_from, sim_config_from, train_config_from
    from cabc.core import Outcome
    from cabc.track import resolve_track
    from cabc.trainer import _collect_epoch, init_policy, make_expert_factory

    argv = list(workload.argv)
    values = {**workload.config, **(workload.smoke_config if smoke else {}), "seed": str(seed)}
    cfg = replace(train_config_from(values, sim_config_from(values)), method="ca",
                  observation_mode="output")
    track = resolve_track(argv[argv.index("--track") + 1])
    v_ref, gains, race = expert_params_from(values)
    factory = make_expert_factory(argv[argv.index("--expert") + 1], cfg.sim, track,
                                  v_ref=v_ref, pid_gains=gains, race_params=race)
    trajs = _collect_epoch(cfg, track, factory, init_policy(cfg, track), 0)
    return ({t.outcome for t in trajs} == {Outcome.SUCCESS, Outcome.FAILURE}
            and sum(len(t) for t in trajs) >= cfg.batch_size)
