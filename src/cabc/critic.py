"""Learned safety critic: dynamics surrogate and safety classifier.

The critic pair approximates the plant's one-step map and the likelihood
that a state can still be driven to the target set.  During policy training
both networks stay frozen; gradient reaches the policy action purely through
their input-gradients, so the safety penalty shapes actions without ever
updating the critic weights.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import nn
from .autolabel import NormStats, embed_vjp
from .sim import SimConfig


class DegenerateLabelsError(ValueError):
    """Classifier training needs both label classes present."""


def delta_scale_from(cfg: SimConfig) -> np.ndarray:
    """Per-dimension scale of one-step state changes, derived from the config.

    Matches the typical per-step delta magnitude of on-track driving so the
    delta-space MSE weights all state dimensions comparably.
    """
    a_lat = 0.125 * (cfg.stiff_front + cfg.stiff_rear)
    return cfg.dt * np.array([
        cfg.drive_gain,                           # v_long: full-throttle accel
        a_lat,                                    # v_tran: tire-force scale
        a_lat * cfg.l_front / cfg.yaw_radius_sq,  # omega: yaw-moment scale
        cfg.v_max / 3.0,                          # s: cruise progress rate
        cfg.v_max / 12.0,                         # x_tran: lateral drift rate
        1.2,                                      # e_psi: heading slew rate
    ])


@dataclass(frozen=True)
class DynModel:
    """One-step dynamics surrogate predicting a scaled state delta."""

    params: nn.MlpParams          # (7 embedded + 2 action) -> 6
    norm: NormStats
    delta_scale: np.ndarray

    def inputs(self, states_raw: np.ndarray, actions: np.ndarray) -> np.ndarray:
        emb = self.norm.normalize_states(states_raw)
        return np.column_stack([emb, np.atleast_2d(actions)])

    def predict(self, states_raw: np.ndarray, actions: np.ndarray,
                tape: Optional[nn.Tape] = None) -> np.ndarray:
        """Next raw states; a ``tape`` records the forward for ``nn.backward``."""
        out = nn.forward(self.params, self.inputs(states_raw, actions), tape)
        return np.atleast_2d(states_raw) + np.atleast_2d(out) * self.delta_scale


@dataclass(frozen=True)
class SafetyClf:
    """Safety-likelihood classifier on the normalized embedded state."""

    params: nn.MlpParams          # 7 -> 1, sigmoid head
    norm: NormStats

    def prob(self, states_raw: np.ndarray, tape: Optional[nn.Tape] = None) -> np.ndarray:
        """p(safe) per raw state; a ``tape`` records the forward for ``nn.backward``."""
        emb = self.norm.normalize_states(states_raw)
        return nn.forward(self.params, emb, tape)[..., 0]


def init_dyn_model(norm: NormStats, cfg: SimConfig, hidden: Sequence[int], seed: int) -> DynModel:
    params = nn.init_mlp((9, *hidden, 6), head="identity", seed=seed)
    return DynModel(params=params, norm=norm, delta_scale=delta_scale_from(cfg))


def init_safety_clf(norm: NormStats, hidden: Sequence[int], seed: int) -> SafetyClf:
    params = nn.init_mlp((7, *hidden, 1), head="sigmoid", seed=seed)
    return SafetyClf(params=params, norm=norm)


def dyn_loss_and_grad(model: DynModel, states_raw: np.ndarray, actions: np.ndarray,
                      next_states_raw: np.ndarray, tape: Optional[nn.Tape] = None):
    """Mean squared error of the scaled one-step delta, with exact gradients.

    A training loop passes the same ``tape`` every step so its buffers are
    reused; the returned gradients live in it.
    """
    states_raw = np.atleast_2d(states_raw)
    if len(states_raw) == 0:
        raise ValueError("empty dynamics batch")
    z = model.inputs(states_raw, actions)
    tape = tape or nn.Tape()
    pred = nn.forward(model.params, z, tape)
    target = (np.atleast_2d(next_states_raw) - states_raw) / model.delta_scale
    diff = pred - target
    loss = float((diff * diff).mean())
    upstream = 2.0 * diff / diff.size
    grads, _ = nn.backward(model.params, tape, upstream)
    return loss, grads


def clf_loss_and_grad(clf: SafetyClf, states_raw: np.ndarray, labels: np.ndarray,
                      tape: Optional[nn.Tape] = None):
    """Mean binary cross-entropy with exact gradients.

    The caller balances the batch: the trainer passes as many safe states
    (label 1) as unsafe ones (label 0), so the classes carry no weights.
    Raises when only one class is in the batch.  ``tape`` is reused as in
    :func:`dyn_loss_and_grad`.
    """
    states_raw = np.atleast_2d(states_raw)
    labels = np.asarray(labels, dtype=float).reshape(-1)
    if len(states_raw) == 0:
        raise ValueError("empty classifier batch")
    n_pos = int((labels == 1.0).sum())
    n_neg = int((labels == 0.0).sum())
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError(
            f"need both classes, got {n_pos} positive / {n_neg} negative")
    tape = tape or nn.Tape()
    p = clf.prob(states_raw, tape)
    loss = float(-(labels * np.log(p) + (1 - labels) * np.log(1 - p)).mean())
    dp = (-(labels / p) + (1 - labels) / (1 - p)) / len(labels)
    grads, _ = nn.backward(clf.params, tape, dp[:, None])
    return loss, grads


def safety_penalty_and_input_grad(clf: SafetyClf, dyn: DynModel,
                                  states_raw: np.ndarray, actions: np.ndarray, lam: float,
                                  tapes: Optional[Tuple[nn.Tape, nn.Tape]] = None):
    """Penalty ``-lam * log p(next state safe)`` and its gradient w.r.t. the action.

    Both networks are frozen here by construction: each runs one taped forward
    and one input-only backward (no parameter gradients are formed), so no
    parameter of either network can change.  ``tapes`` (dynamics, classifier)
    lets a training loop reuse their buffers; the action gradient lives in the
    dynamics tape.
    """
    states_raw = np.atleast_2d(np.asarray(states_raw, dtype=float))
    actions = np.atleast_2d(np.asarray(actions, dtype=float))
    tape_dyn, tape_clf = tapes or (nn.Tape(), nn.Tape())
    x_next = dyn.predict(states_raw, actions, tape_dyn)
    p = clf.prob(x_next, tape_clf)
    penalty = -lam * np.log(p)

    dp = (-lam / p)[:, None]
    _, g_emb = nn.backward(clf.params, tape_clf, dp, param_grads=False)
    g_xnext = embed_vjp(x_next, g_emb / clf.norm.std, clf.norm.lap_length)
    g_dnorm = g_xnext * dyn.delta_scale
    _, g_z = nn.backward(dyn.params, tape_dyn, g_dnorm, param_grads=False)
    return penalty, g_z[:, 7:9]


# --- checkpointing -------------------------------------------------------------

def save_critic(dyn: DynModel, clf: SafetyClf, dirpath) -> None:
    """Write ``dyn.npz`` and ``clf.npz`` (``nn.save_weights``) and the shared
    normalization, ``norm.json``, into ``dirpath``."""
    os.makedirs(dirpath, exist_ok=True)
    nn.save_weights(dyn.params, os.path.join(dirpath, "dyn.npz"))
    nn.save_weights(clf.params, os.path.join(dirpath, "clf.npz"))
    with open(os.path.join(dirpath, "norm.json"), "w", encoding="utf-8") as fh:
        json.dump({"mean": dyn.norm.mean.tolist(), "std": dyn.norm.std.tolist(),
                   "lap_length": dyn.norm.lap_length}, fh)
