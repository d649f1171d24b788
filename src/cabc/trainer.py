"""Training loops: iterative collection with expert mixing, safety
auto-labeling, and interleaved updates of policy, dynamics model, and
safety classifier.

Each epoch: roll out the mixed collection policy (expert with probability
``alpha**epoch``, learner otherwise, plus actuation noise), relabel every
visited state with the expert action, record it once in the sample store,
pick the negatives D- among the store's rows, then run minibatch updates.
D- is decided afresh from the current pools and metric alone; no label
carries over from an earlier epoch.  The policy trains every epoch on clone
MSE plus the frozen-critic safety penalty; the dynamics model and
classifier train on their own cadences.

The baseline trainer is the same loop with labeling, critics, and the
safety term removed; with a zero safety weight the two code paths perform
bit-identical policy updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import nn
from .autolabel import NormStats, embed, fit_norm, member_mask
from .core import LabeledPool, Outcome, Trajectory, check_fields, clamp_action
from .critic import (
    DynModel,
    SafetyClf,
    clf_loss_and_grad,
    dyn_loss_and_grad,
    init_dyn_model,
    init_safety_clf,
    safety_penalty_and_input_grad,
)
from .evalharness import early_stop_epoch, evaluate
from .experts import PidCenterline, PidGains, RaceParams, RacingExpert
from .sim import SimConfig, rng_stream, rollout
from .track import TrackSpec


class NonFiniteLossError(RuntimeError):
    """A training loss stopped being finite; the run is aborted."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50                     # M: training epochs
    alpha: float = 0.7                   # expert-mixing decay base
    rho: float = 1.0                     # auto-labeling ball radius (normalized)
    lam: float = 10.0                    # safety penalty weight
    k_f: int = 5                         # dynamics-model update cadence (epochs)
    k_p: int = 10                        # classifier update cadence (epochs)
    episodes_per_epoch: int = 2
    actuation_noise_sigma: float = 0.15  # collection-time action noise
    hull_tol: float = 0.05               # Euclidean distance to the hull (normalized)
    neighbor_cap: int = 64               # nearest neighbors per hull test
    batch_size: int = 256
    lr_policy: float = 1e-3
    lr_dyn: float = 1e-3
    lr_clf: float = 1e-3
    grad_steps_policy: int = 200
    grad_steps_dyn: int = 200
    grad_steps_clf: int = 200
    seed: int = 0
    method: str = "ca"                   # "ca" | "bc"
    observation_mode: str = "output"     # "output" | "full_state"
    hidden: Tuple[int, ...] = (128, 128, 128)
    eval_laps: int = 50
    early_stop: bool = True
    sim: SimConfig = field(default_factory=SimConfig)

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        # a NaN sigma would silently turn actuation noise off, and every random
        # stream is rooted at a SeedSequence, which takes no negative seed
        check_fields(self, positive=("lr_policy", "lr_dyn", "lr_clf"),
                     non_negative=("rho", "lam", "hull_tol", "actuation_noise_sigma", "epochs",
                                   "seed"),
                     at_least_one=("neighbor_cap", "k_f", "k_p", "episodes_per_epoch",
                                   "grad_steps_policy", "grad_steps_dyn", "grad_steps_clf",
                                   "eval_laps"))
        # the classifier batch is half safe, half unsafe states
        min_batch = 2 if self.method == "ca" else 1
        if self.batch_size < min_batch:
            raise ValueError(f"batch_size must be >= {min_batch} for method {self.method!r}")
        if self.method not in ("ca", "bc"):
            raise ValueError("method must be 'ca' or 'bc'")
        if self.observation_mode not in ("output", "full_state"):
            raise ValueError("observation_mode must be 'output' or 'full_state'")
        if any(width < 1 for width in self.hidden):
            raise ValueError("hidden widths must be >= 1")


@dataclass(frozen=True)
class EpochReport:
    epoch: int
    clone_loss: float
    safety_loss: float
    dyn_loss: float
    clf_loss: float
    new_successes: int
    new_failures: int
    n_plus: int
    n_query: int
    n_minus: int
    eval_laps: int
    eval_lap_mean: float
    eval_lap_std: float
    clf_degenerate: bool = False
    safety_on: bool = False            # the policy update ran the safety term
    clf_fit_epoch: int = -1            # epoch of the classifier's last fit, -1 before it
    eval_terminated_by: str = ""       # EvalResult.terminated_by.value

    def row(self) -> list:
        return [getattr(self, name) for name in self.FIELDS]


# the reports.csv columns, in order
EpochReport.FIELDS = tuple(f.name for f in fields(EpochReport))


# --- policy featurization -------------------------------------------------------

_VEL_SCALES = (0.5, 2.0, 0.5)   # v_long, v_tran, omega
_VEL_SCALE = np.array(_VEL_SCALES)


def policy_input_dim(mode: str, sim_cfg: SimConfig) -> int:
    if mode == "output":
        return 3 + len(sim_cfg.preview_distances)
    return 7


def features_from_obs(y) -> np.ndarray:
    """Policy features of an observation row ``(3 + k,)`` or rows ``(n, 3 + k)``."""
    out = np.array(y, dtype=float)
    out[..., 0:3] *= _VEL_SCALE
    return out


def features_from_state_array(x_arr: np.ndarray, track: TrackSpec) -> np.ndarray:
    """The state embedding with each column brought to order one."""
    out = embed(x_arr, track.lap_length)
    out[:, 0:3] *= _VEL_SCALE
    out[:, 6] *= 2.0   # then / pi: (e_psi * 2) / pi rounds unlike e_psi * (2 / pi)
    out[:, 5:7] /= (track.half_width, math.pi)
    return out


def features_from_state(x: tuple, track: TrackSpec) -> np.ndarray:
    """The features of one state row: a row of :func:`features_from_state_array`,
    bit for bit, in float arithmetic."""
    v_long, v_tran, omega_psi, s, x_tran, e_psi = x
    k_long, k_tran, k_omega = _VEL_SCALES
    ang = 2.0 * math.pi * s / track.lap_length
    return np.array([k_long * v_long, k_tran * v_tran, k_omega * omega_psi,
                     math.cos(ang), math.sin(ang),
                     x_tran / track.half_width, e_psi * 2.0 / math.pi])


class MlpPolicy:
    """Policy-network wrapper usable as a rollout policy."""

    def __init__(self, params: nn.MlpParams, mode: str, track: TrackSpec):
        if params.head != "tanh":
            raise ValueError("policy network must use the bounded head")
        self.params = params
        self.track = track
        self.state_feedback = mode != "output"   # full-state features skip ``y``

    def __call__(self, y: Optional[tuple], x: tuple) -> tuple:
        feats = features_from_state(x, self.track) if self.state_feedback else features_from_obs(y)
        u_a, u_steer = nn.forward(self.params, feats).tolist()
        return (u_a, u_steer)


def load_policy(path, mode: str, sim_cfg: SimConfig, track: TrackSpec) -> MlpPolicy:
    """The saved policy at ``path``; ``ValueError`` if its input width is not ``mode``'s."""
    params = nn.load_weights(path)
    want = policy_input_dim(mode, sim_cfg)
    if params.sizes[0] != want:
        obs = "output" if mode == "output" else "full"
        raise ValueError(f"{path}: the policy takes {params.sizes[0]} inputs, but "
                         f"observation mode {mode!r} (--obs {obs}) gives {want}")
    return MlpPolicy(params, mode, track)


def init_policy(cfg: TrainConfig, track: TrackSpec) -> nn.MlpParams:
    sizes = (policy_input_dim(cfg.observation_mode, cfg.sim), *cfg.hidden, 2)
    return nn.init_mlp(sizes, head="tanh", seed=cfg.seed)


# --- collection ------------------------------------------------------------------

class MixedPolicy:
    """Per-step Bernoulli mixture of expert and learner, plus actuation noise.

    The expert is queried every step regardless of the coin so its action is
    available for relabeling; stochastic choices come from the policy's own
    stream, independent of the observation noise.
    """

    def __init__(self, pi_beta, pi_theta, beta_prob: float,
                 rng: np.random.Generator, sigma_u: float = 0.0):
        if not 0.0 <= beta_prob <= 1.0:
            raise ValueError("beta_prob must be in [0, 1]")
        self.pi_beta = pi_beta
        self.pi_theta = pi_theta
        self.beta_prob = beta_prob
        self.rng = rng
        self.sigma_u = sigma_u
        self.last_expert_action: Optional[tuple] = None
        self.expert_steps = 0
        self.total_steps = 0

    def __call__(self, y: Optional[tuple], x: tuple) -> tuple:
        u_exp = self.pi_beta(y, x)
        self.last_expert_action = u_exp
        take_expert = self.rng.random() < self.beta_prob
        self.total_steps += 1
        if take_expert:
            self.expert_steps += 1
            u = u_exp
        else:
            u = self.pi_theta(y, x)
        if self.sigma_u > 0.0:
            u_a, u_steer = u
            n_a, n_steer = self.rng.normal(0.0, self.sigma_u, size=2).tolist()
            u = clamp_action(u_a + n_a, u_steer + n_steer)
        return u


def make_expert_factory(name: str, sim_cfg: SimConfig, track: TrackSpec,
                        v_ref: float = 1.0,
                        pid_gains: PidGains = PidGains(),
                        race_params: RaceParams = RaceParams()) -> Callable[[], object]:
    if name == "pid":
        return lambda: PidCenterline(sim_cfg, track, v_ref=v_ref, gains=pid_gains)
    if name == "racing":
        return lambda: RacingExpert(sim_cfg, track, params=race_params)
    raise ValueError(f"unknown expert {name!r}; use 'pid' or 'racing'")


def _collect_epoch(cfg: TrainConfig, track: TrackSpec, expert_factory,
                   policy_params: nn.MlpParams, epoch: int) -> List[Trajectory]:
    beta = cfg.alpha ** epoch
    trajs = []
    for i in range(cfg.episodes_per_epoch):
        rng_noise = rng_stream(cfg.seed, 1, epoch, i)
        rng_obs = rng_stream(cfg.seed, 2, epoch, i)
        s0 = rng_noise.uniform(0.0, track.lap_length)
        xt0 = rng_noise.uniform(-0.15, 0.15)
        x0 = (1.0, 0.0, 0.0, s0, xt0, 0.0)
        learner = MlpPolicy(policy_params, cfg.observation_mode, track)
        mixed = MixedPolicy(expert_factory(), learner, beta, rng_noise,
                            cfg.actuation_noise_sigma)
        traj = rollout(cfg.sim, track, mixed, x0, cfg.sim.max_steps, rng_obs,
                       relabel=lambda x: mixed.last_expert_action)
        trajs.append(traj)
    return trajs


# --- gradient computation ---------------------------------------------------------

def agent_loss_and_grad(policy: nn.MlpParams, feats: np.ndarray, u_expert: np.ndarray,
                        x_raw: Optional[np.ndarray], dyn: Optional[DynModel],
                        clf: Optional[SafetyClf], lam: float,
                        tapes: Optional[Tuple[nn.Tape, nn.Tape, nn.Tape]] = None):
    """Joint policy objective: clone MSE plus the frozen-critic safety penalty.

    Returns ``(clone_loss, safety_loss, policy_grads)``.  The safety term, with
    weight ``lam``, runs when a critic pair is given; it is evaluated at the
    policy's own action, so its gradient flows back through the action head,
    and the critic networks receive no parameter gradient.
    ``tapes`` (policy, dynamics, classifier) lets a training loop reuse their
    buffers across steps; the returned gradients live in the policy tape.
    """
    tape, *critic_tapes = tapes or (nn.Tape(), nn.Tape(), nn.Tape())
    pred = nn.forward(policy, feats, tape)
    diff = pred - u_expert
    clone = float((diff * diff).sum(axis=1).mean())
    B = len(feats)
    upstream = 2.0 * diff / B
    safety = 0.0
    if clf is not None and dyn is not None:
        penalty, g_u = safety_penalty_and_input_grad(clf, dyn, x_raw, pred, lam,
                                                     tapes=critic_tapes)
        safety = float(penalty.mean())
        upstream = upstream + g_u / B
    grads, _ = nn.backward(policy, tape, upstream)
    return clone, safety, grads


# --- the training loop -------------------------------------------------------------

@dataclass
class TrainResult:
    policy: nn.MlpParams
    reports: List[EpochReport]
    pool: LabeledPool
    dyn: Optional[DynModel] = None
    clf: Optional[SafetyClf] = None
    early_stopped_at: Optional[int] = None


class _SampleStore:
    """The one record of visited states, extended by :meth:`add_trajectories`.

    ``states`` holds the ``states`` rows of each rollout, so every visited
    state is stored once.  The other columns hold one row per step:
    ``rows[k]`` is the ``states`` row of step ``k`` (the state it reached is
    row ``rows[k] + 1``), ``feats`` its policy
    features, ``u_expert`` and ``u_applied`` its actions, and ``safe``
    whether its rollout succeeded.  The labeling pools are ``states`` rows
    of steps (see :meth:`pools`), in visit order.
    """

    def __init__(self, n_feats: int):
        self.states = np.zeros((0, 6))
        self.rows = np.zeros(0, dtype=np.intp)
        self.feats = np.zeros((0, n_feats))
        self.u_expert = np.zeros((0, 2))
        self.u_applied = np.zeros((0, 2))
        self.safe = np.zeros(0, dtype=bool)

    def add_trajectories(self, trajs: Sequence[Trajectory], mode: str, track: TrackSpec):
        chunks = {k: [column] for k, column in vars(self).items()}
        first = len(self.states)
        for traj in trajs:
            if not len(traj):
                raise ValueError("cannot record a trajectory with zero steps")
            if mode == "output":
                feats = features_from_obs(traj.y)
            else:
                feats = features_from_state_array(traj.states[:-1], track)
            chunks["states"].append(traj.states)
            chunks["rows"].append(np.arange(first, first + len(traj)))
            chunks["feats"].append(feats)
            chunks["u_expert"].append(traj.u_expert)
            chunks["u_applied"].append(traj.u_applied)
            chunks["safe"].append(np.full(len(traj), traj.outcome is Outcome.SUCCESS))
            first += len(traj) + 1
        for key, parts in chunks.items():
            setattr(self, key, np.concatenate(parts))

    def __len__(self) -> int:
        return len(self.rows)

    def pools(self) -> Tuple[np.ndarray, np.ndarray]:
        """D+ and D_query: the ``states`` rows visited by successful and by failed rollouts."""
        return self.rows[self.safe], self.rows[~self.safe]


@dataclass(frozen=True)
class _LabelState:
    """The labeling seam: the run's fixed labeling parameters, and D- from them.

    It holds no labels.  Every :meth:`relabel` decides each D_query row
    against the hull of its capped safe neighbors under the metric it is
    given, so D- is a function of its arguments alone.
    """

    rho: float
    hull_tol: float
    neighbor_cap: Optional[int]

    def relabel(self, states: np.ndarray, plus: np.ndarray, query: np.ndarray,
                norm: NormStats) -> np.ndarray:
        """D-: the ``query`` rows of ``states`` outside the hulls of their ``plus`` neighbors."""
        member = member_mask(norm.normalize_states(states[plus]),
                             norm.normalize_states(states[query]),
                             self.rho, tol=self.hull_tol, max_neighbors=self.neighbor_cap)
        return query[~member]


def _finite_or_raise(name: str, value: float, epoch: int) -> float:
    if not math.isfinite(value):
        raise NonFiniteLossError(f"{name} became non-finite at epoch {epoch}: {value!r}")
    return value


@dataclass
class _Critic:
    """One critic network of a run: its weights and metric, Adam state, schedule and last fit."""

    name: str                      # "dyn" or "clf"
    cadence: int                   # k_f or k_p: fit at every cadence-th epoch
    steps: int                     # grad_steps_dyn or grad_steps_clf: Adam steps per fit
    net: Optional[Union[DynModel, SafetyClf]] = None   # None until the run has a metric
    opt: Optional[nn.OptState] = None
    tape: nn.Tape = field(default_factory=nn.Tape)
    fit_epoch: int = -1            # epoch of the last fit, -1 before it
    loss: float = 0.0              # the last fit's final minibatch loss

    def due(self, epoch: int) -> bool:
        return epoch % self.cadence == 0

    def fit(self, epoch: int, rng: np.random.Generator, sample, loss_and_grad) -> None:
        """``steps`` Adam steps on ``loss_and_grad(net, *sample(rng))``."""
        for _ in range(self.steps):
            loss, grads = loss_and_grad(self.net, *sample(rng), tape=self.tape)
            params, self.opt = nn.adam_step(self.net.params, grads, self.opt)
            self.net = replace(self.net, params=params)
        self.loss = _finite_or_raise(f"{self.name}_loss", loss, epoch)
        self.fit_epoch = epoch


def train(cfg: TrainConfig, track: TrackSpec, expert_factory,
          epoch_callback: Optional[Callable[[EpochReport, nn.MlpParams], None]] = None,
          traj_callback: Optional[Callable[[int, List[Trajectory]], None]] = None
          ) -> TrainResult:
    """Run ``cfg.method`` end to end.

    ``"ca"`` is the full loop with auto-labeling and critics; ``"bc"`` is the
    same loop minus labeling, critics, and the safety term.
    """
    constraint_aware = cfg.method == "ca"
    policy = init_policy(cfg, track)
    opt_policy = nn.init_opt(policy, lr=cfg.lr_policy)
    store = _SampleStore(policy_input_dim(cfg.observation_mode, cfg.sim))
    # D+, D_query and D- as rows of store.states; BC labels no negatives
    plus = query = minus = np.zeros(0, dtype=np.intp)
    labels = _LabelState(cfg.rho, cfg.hull_tol, cfg.neighbor_cap)
    norm: Optional[NormStats] = None
    dyn = _Critic("dyn", cfg.k_f, cfg.grad_steps_dyn)
    clf = _Critic("clf", cfg.k_p, cfg.grad_steps_clf)
    reports: List[EpochReport] = []
    early_stopped_at = None
    # one tape per network, reused by every step of every phase: the critic
    # fits and the policy update's frozen critic pair run at the same batch
    tapes = (nn.Tape(), dyn.tape, clf.tape)
    half = cfg.batch_size // 2
    clf_targets = np.concatenate([np.ones(half), np.zeros(half)])

    def dyn_batch(rng):
        idx = rng.integers(0, len(store), size=min(cfg.batch_size, len(store)))
        at = store.rows[idx]
        return store.states[at], store.u_applied[idx], store.states[at + 1]

    def clf_batch(rng):
        # half safe, half unsafe states
        ip = rng.integers(0, len(plus), size=half)
        im = rng.integers(0, len(minus), size=half)
        return store.states[np.concatenate([plus[ip], minus[im]])], clf_targets

    for epoch in range(cfg.epochs):
        trajs = _collect_epoch(cfg, track, expert_factory, policy, epoch)
        if traj_callback is not None:
            traj_callback(epoch, trajs)
        store.add_trajectories(trajs, cfg.observation_mode, track)
        states, n = store.states, len(store)
        new_succ = sum(t.outcome is Outcome.SUCCESS for t in trajs)
        plus, query = store.pools()

        if constraint_aware:
            if (dyn.due(epoch) or clf.due(epoch)) and len(plus) >= 2:
                norm = fit_norm(states[plus], track.lap_length)
                if dyn.net is None:
                    dyn.net = init_dyn_model(norm, cfg.sim, hidden=cfg.hidden, seed=cfg.seed + 1)
                    clf.net = init_safety_clf(norm, hidden=cfg.hidden, seed=cfg.seed + 2)
                    dyn.opt = nn.init_opt(dyn.net.params, lr=cfg.lr_dyn)
                    clf.opt = nn.init_opt(clf.net.params, lr=cfg.lr_clf)
                else:
                    # both networks take the new metric, the one not due too (ROADMAP item 2 (b))
                    dyn.net = replace(dyn.net, norm=norm)
                    clf.net = replace(clf.net, norm=norm)
            # no metric yet: nothing can be excluded from the negatives
            minus = query if norm is None else labels.relabel(states, plus, query, norm)

            if dyn.due(epoch) and dyn.net is not None:
                dyn.fit(epoch, rng_stream(cfg.seed, 4, epoch), dyn_batch, dyn_loss_and_grad)
            if clf.due(epoch) and clf.net is not None and len(plus) and len(minus):
                clf.fit(epoch, rng_stream(cfg.seed, 5, epoch), clf_batch, clf_loss_and_grad)

        # policy update (identical code path for both methods; this is the one
        # place that decides whether the safety term runs).  It runs only
        # through a critic pair that has been fit, which only CA does: until
        # each network's first fit its weights are its random initialization
        rng_b = rng_stream(cfg.seed, 3, epoch)
        clone_sum = safety_sum = 0.0
        use_critic = cfg.lam > 0.0 and dyn.fit_epoch >= 0 and clf.fit_epoch >= 0
        for _ in range(cfg.grad_steps_policy):
            idx = rng_b.integers(0, n, size=min(cfg.batch_size, n))
            clone, safety, grads = agent_loss_and_grad(
                policy, store.feats[idx], store.u_expert[idx],
                states[store.rows[idx]] if use_critic else None,
                dyn.net if use_critic else None, clf.net if use_critic else None, cfg.lam,
                tapes=tapes)
            policy, opt_policy = nn.adam_step(policy, grads, opt_policy)
            clone_sum += clone
            safety_sum += safety
        clone_mean = _finite_or_raise("clone_loss", clone_sum / cfg.grad_steps_policy, epoch)
        safety_mean = _finite_or_raise("safety_loss", safety_sum / cfg.grad_steps_policy, epoch)

        result = evaluate(MlpPolicy(policy, cfg.observation_mode, track), cfg.sim, track,
                          seed=(cfg.seed * 1000003 + epoch) & 0x7FFFFFFF,
                          laps=cfg.eval_laps)
        report = EpochReport(
            epoch=epoch,
            clone_loss=clone_mean,
            safety_loss=safety_mean,
            dyn_loss=dyn.loss,
            clf_loss=clf.loss,
            new_successes=new_succ,
            new_failures=len(trajs) - new_succ,
            n_plus=len(plus),
            n_query=len(query),
            n_minus=len(minus),
            eval_laps=result.laps_completed,
            eval_lap_mean=result.lap_mean,
            eval_lap_std=result.lap_std,
            # due, but its labels held one class only
            clf_degenerate=clf.due(epoch) and clf.net is not None and clf.fit_epoch != epoch,
            safety_on=use_critic,
            clf_fit_epoch=clf.fit_epoch,
            eval_terminated_by=result.terminated_by.value,
        )
        reports.append(report)
        if epoch_callback is not None:
            epoch_callback(report, policy)
        if cfg.early_stop and early_stop_epoch([r.eval_laps for r in reports],
                                               cfg.eval_laps) is not None:
            early_stopped_at = epoch
            break

    pool = LabeledPool(d_plus=store.states[plus], d_query=store.states[query],
                       minus=np.isin(query, minus))
    return TrainResult(policy=policy, reports=reports, pool=pool, dyn=dyn.net, clf=clf.net,
                       early_stopped_at=early_stopped_at)
