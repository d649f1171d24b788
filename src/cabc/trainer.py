"""Training loops: iterative collection with expert mixing, safety
auto-labeling, and interleaved updates of policy, dynamics model, and
safety classifier.

Each epoch: roll out the mixed collection policy (expert with probability
``alpha**epoch``, learner otherwise, plus actuation noise), relabel every
visited state with the expert action, record every visited state with its
rollout's outcome, rebuild the negative set, then run minibatch updates.  The
policy trains every epoch on clone MSE plus the frozen-critic safety
penalty; the dynamics model and classifier train on their own cadences.

The baseline trainer is the same loop with labeling, critics, and the
safety term removed; with a zero safety weight the two code paths perform
bit-identical policy updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import nn
from .autolabel import NormStats, embed, fit_norm, member_mask
from .core import Action, LabeledPool, Observation, Outcome, Trajectory, VehicleState
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
        # written so that NaN fails too
        if not self.rho >= 0:
            raise ValueError("rho must be non-negative")
        if not self.lam >= 0:
            raise ValueError("lam must be non-negative")
        if not 0 <= self.hull_tol < math.inf:
            raise ValueError("hull_tol must be non-negative and finite")
        # a NaN sigma would silently turn actuation noise off
        if not 0 <= self.actuation_noise_sigma < math.inf:
            raise ValueError("actuation_noise_sigma must be non-negative and finite")
        for name in ("lr_policy", "lr_dyn", "lr_clf"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.neighbor_cap < 1:
            raise ValueError("neighbor_cap must be >= 1")
        if self.k_f < 1 or self.k_p < 1:
            raise ValueError("k_f and k_p must be >= 1")
        for name in ("episodes_per_epoch", "grad_steps_policy", "grad_steps_dyn",
                     "grad_steps_clf", "eval_laps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
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


def features_from_obs(y: Observation) -> np.ndarray:
    # float products give the same bits as scaling an array, without temporaries
    k_long, k_tran, k_omega = _VEL_SCALES
    return np.array([k_long * y.v_long, k_tran * y.v_tran, k_omega * y.omega_psi, *y.preview])


def features_from_obs_array(y_arr: np.ndarray) -> np.ndarray:
    out = np.array(y_arr, dtype=float)
    out[:, 0:3] *= _VEL_SCALE
    return out


def features_from_state_array(x_arr: np.ndarray, track: TrackSpec) -> np.ndarray:
    """The state embedding with each column brought to order one."""
    out = embed(x_arr, track.lap_length)
    out[:, 0:3] *= _VEL_SCALE
    out[:, 6] *= 2.0   # then / pi: (e_psi * 2) / pi rounds unlike e_psi * (2 / pi)
    out[:, 5:7] /= (track.half_width, math.pi)
    return out


def features_from_state(x: VehicleState, track: TrackSpec) -> np.ndarray:
    """One row of :func:`features_from_state_array`, bit for bit, in float arithmetic."""
    k_long, k_tran, k_omega = _VEL_SCALES
    ang = 2.0 * math.pi * x.s / track.lap_length
    return np.array([k_long * x.v_long, k_tran * x.v_tran, k_omega * x.omega_psi,
                     math.cos(ang), math.sin(ang),
                     x.x_tran / track.half_width, x.e_psi * 2.0 / math.pi])


class MlpPolicy:
    """Policy-network wrapper usable as a rollout policy."""

    def __init__(self, params: nn.MlpParams, mode: str, track: TrackSpec):
        if params.head != "tanh":
            raise ValueError("policy network must use the bounded head")
        self.params = params
        self.mode = mode
        self.track = track
        self.state_feedback = mode != "output"   # full-state features skip ``y``

    def features(self, y: Observation, x: VehicleState) -> np.ndarray:
        if self.mode == "output":
            return features_from_obs(y)
        return features_from_state(x, self.track)

    def __call__(self, y: Observation, x: VehicleState) -> Action:
        u_a, u_steer = nn.forward(self.params, self.features(y, x)).tolist()
        return Action(u_a, u_steer)


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
        self.last_expert_action: Optional[Action] = None
        self.expert_steps = 0
        self.total_steps = 0

    def __call__(self, y: Observation, x: VehicleState) -> Action:
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
            n_a, n_steer = self.rng.normal(0.0, self.sigma_u, size=2).tolist()
            u = Action.clamped(u.u_a + n_a, u.u_steer + n_steer)
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
        x0 = VehicleState(v_long=1.0, v_tran=0.0, omega_psi=0.0,
                          s=s0, x_tran=xt0, e_psi=0.0)
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
    """Aligned growing arrays of everything each recorded step provides.

    This is the one record of visited states: ``safe`` marks the rows of
    successful rollouts, so the labeling pools are views of ``x_raw`` (see
    :meth:`pools`), in visit order.  Each column is one array, extended by
    every :meth:`add_trajectories` call.
    """

    _COLUMNS = ("feats", "u_expert", "x_raw", "u_applied", "x_next", "safe")

    def __init__(self):
        self._arrays = None

    def add_trajectories(self, trajs: Sequence[Trajectory], mode: str, track: TrackSpec):
        chunks = {k: [] for k in self._COLUMNS}
        for traj in trajs:
            if not len(traj):
                raise ValueError("cannot record a trajectory with zero steps")
            if mode == "output":
                feats = features_from_obs_array(traj.y)
            else:
                feats = features_from_state_array(traj.x, track)
            safe = np.full(len(traj), traj.outcome is Outcome.SUCCESS)
            for key, rows in (("feats", feats), ("u_expert", traj.u_expert), ("x_raw", traj.x),
                              ("u_applied", traj.u_applied), ("x_next", traj.x_next),
                              ("safe", safe)):
                chunks[key].append(rows)
        if chunks["feats"]:
            old = self._arrays
            self._arrays = {k: np.concatenate(v if old is None else [old[k], *v])
                            for k, v in chunks.items()}

    def arrays(self) -> dict:
        if self._arrays is None:
            return {k: np.zeros((0, 2)) for k in self._COLUMNS}
        return self._arrays

    def __len__(self) -> int:
        return 0 if self._arrays is None else len(self._arrays["feats"])

    def pools(self) -> Tuple[np.ndarray, np.ndarray]:
        """D+ and D_query: the visited states of successful and of failed rollouts."""
        if not len(self):
            return np.zeros((0, 6)), np.zeros((0, 6))
        arr = self.arrays()
        return arr["x_raw"][arr["safe"]], arr["x_raw"][~arr["safe"]]


class _LabelState:
    """Membership cache for the undecided pool.

    With a fixed metric, hull membership only grows as the positive pool
    grows, so decided members need no retesting (``member_mask`` states what
    this keeps under a neighbor cap); a metric refit invalidates the cache
    and forces a full recompute.
    """

    def __init__(self):
        self.mask = np.zeros(0, dtype=bool)

    def relabel(self, plus: np.ndarray, query: np.ndarray, norm: NormStats, rho: float,
                full: bool, tol: float, neighbor_cap: int) -> None:
        """Recompute ``mask``, the hull members among the raw ``query`` rows."""
        if full or len(self.mask) > len(query):
            assume = None
        else:
            assume = np.concatenate(
                [self.mask, np.zeros(len(query) - len(self.mask), dtype=bool)])
        self.mask = member_mask(norm.normalize_states(plus), norm.normalize_states(query),
                                rho, tol=tol, assume_member=assume,
                                max_neighbors=neighbor_cap)


def _finite_or_raise(name: str, value: float, epoch: int) -> float:
    if not math.isfinite(value):
        raise NonFiniteLossError(f"{name} became non-finite at epoch {epoch}: {value!r}")
    return value


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
    store = _SampleStore()
    plus, query = store.pools()   # empty pools when there are no epochs
    minus = np.zeros(0, dtype=bool)
    labels = _LabelState()
    norm: Optional[NormStats] = None
    dyn: Optional[DynModel] = None
    clf: Optional[SafetyClf] = None
    opt_dyn = opt_clf = None
    last_dyn_loss = 0.0
    last_clf_loss = 0.0
    reports: List[EpochReport] = []
    early_stopped_at = None
    # one tape per network, reused by every step of every phase: the critic
    # fits and the policy update's frozen critic pair run at the same batch
    tapes = (nn.Tape(), nn.Tape(), nn.Tape())
    _, tape_dyn, tape_clf = tapes

    for epoch in range(cfg.epochs):
        trajs = _collect_epoch(cfg, track, expert_factory, policy, epoch)
        if traj_callback is not None:
            traj_callback(epoch, trajs)
        store.add_trajectories(trajs, cfg.observation_mode, track)
        arr = store.arrays()
        new_succ = sum(t.outcome is Outcome.SUCCESS for t in trajs)
        plus, query = store.pools()
        minus = np.zeros(len(query), dtype=bool)

        clf_degenerate = False
        if constraint_aware:
            update_dyn = epoch % cfg.k_f == 0
            update_clf = epoch % cfg.k_p == 0
            refit = (update_dyn or update_clf) and len(plus) >= 2
            if refit:
                norm = fit_norm(plus, track.lap_length)
            if norm is not None:
                labels.relabel(plus, query, norm, cfg.rho, full=refit,
                               tol=cfg.hull_tol, neighbor_cap=cfg.neighbor_cap)
                minus = ~labels.mask
            else:
                # no metric yet: nothing can be excluded from the negatives
                minus[:] = True

            if norm is not None and dyn is None:
                dyn = init_dyn_model(norm, cfg.sim, hidden=cfg.hidden, seed=cfg.seed + 1)
                clf = init_safety_clf(norm, hidden=cfg.hidden, seed=cfg.seed + 2)
                opt_dyn = nn.init_opt(dyn.params, lr=cfg.lr_dyn)
                opt_clf = nn.init_opt(clf.params, lr=cfg.lr_clf)
            elif refit and dyn is not None:
                dyn = replace(dyn, norm=norm)
                clf = replace(clf, norm=norm)

            if update_dyn and dyn is not None and len(store) > 0:
                rng_b = rng_stream(cfg.seed, 4, epoch)
                n = len(arr["x_raw"])
                for _ in range(cfg.grad_steps_dyn):
                    idx = rng_b.integers(0, n, size=min(cfg.batch_size, n))
                    loss_f, grads = dyn_loss_and_grad(
                        dyn, arr["x_raw"][idx], arr["u_applied"][idx], arr["x_next"][idx],
                        tape=tape_dyn)
                    new_params, opt_dyn = nn.adam_step(dyn.params, grads, opt_dyn)
                    dyn = replace(dyn, params=new_params)
                last_dyn_loss = _finite_or_raise("dyn_loss", loss_f, epoch)

            if update_clf and clf is not None:
                minus_raw = query[minus]
                if len(plus) and len(minus_raw):
                    rng_b = rng_stream(cfg.seed, 5, epoch)
                    half = cfg.batch_size // 2
                    yb = np.concatenate([np.ones(half), np.zeros(half)])
                    for _ in range(cfg.grad_steps_clf):
                        ip = rng_b.integers(0, len(plus), size=half)
                        im = rng_b.integers(0, len(minus_raw), size=half)
                        xb = np.vstack([plus[ip], minus_raw[im]])
                        loss_p, grads = clf_loss_and_grad(clf, xb, yb, tape=tape_clf)
                        new_params, opt_clf = nn.adam_step(clf.params, grads, opt_clf)
                        clf = replace(clf, params=new_params)
                    last_clf_loss = _finite_or_raise("clf_loss", loss_p, epoch)
                else:
                    clf_degenerate = True

        # policy update (identical code path for both methods; this is the one
        # place that decides whether the safety term runs)
        rng_b = rng_stream(cfg.seed, 3, epoch)
        n = len(arr["feats"])
        clone_sum = safety_sum = 0.0
        use_critic = constraint_aware and cfg.lam > 0.0 and dyn is not None and clf is not None
        for _ in range(cfg.grad_steps_policy):
            idx = rng_b.integers(0, n, size=min(cfg.batch_size, n))
            clone, safety, grads = agent_loss_and_grad(
                policy, arr["feats"][idx], arr["u_expert"][idx],
                arr["x_raw"][idx] if use_critic else None,
                dyn if use_critic else None, clf if use_critic else None, cfg.lam,
                tapes=tapes)
            policy, opt_policy = nn.adam_step(policy, grads, opt_policy)
            clone_sum += clone
            safety_sum += safety
        clone_mean = _finite_or_raise(
            "clone_loss", clone_sum / cfg.grad_steps_policy, epoch)
        safety_mean = _finite_or_raise(
            "safety_loss", safety_sum / cfg.grad_steps_policy, epoch)

        eval_policy = MlpPolicy(policy, cfg.observation_mode, track)
        result = evaluate(eval_policy, cfg.sim, track,
                          seed=(cfg.seed * 1000003 + epoch) & 0x7FFFFFFF,
                          laps=cfg.eval_laps)
        report = EpochReport(
            epoch=epoch,
            clone_loss=clone_mean,
            safety_loss=safety_mean,
            dyn_loss=last_dyn_loss,
            clf_loss=last_clf_loss,
            new_successes=new_succ,
            new_failures=len(trajs) - new_succ,
            n_plus=len(plus),
            n_query=len(query),
            n_minus=int(minus.sum()),
            eval_laps=result.laps_completed,
            eval_lap_mean=result.lap_mean,
            eval_lap_std=result.lap_std,
            clf_degenerate=clf_degenerate,
        )
        reports.append(report)
        if epoch_callback is not None:
            epoch_callback(report, policy)
        if cfg.early_stop and early_stop_epoch([r.eval_laps for r in reports],
                                               cfg.eval_laps) is not None:
            early_stopped_at = epoch
            break

    pool = LabeledPool(d_plus=plus, d_query=query, minus=minus)
    return TrainResult(policy=policy, reports=reports, pool=pool, dyn=dyn, clf=clf,
                       early_stopped_at=early_stopped_at)
