import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from cabc import nn
from cabc.autolabel import NormStats, fit_norm
from cabc.core import clamp_action, rng_stream
from cabc.critic import (
    DegenerateLabelsError,
    DynModel,
    SafetyClf,
    clf_loss_and_grad,
    delta_scale_from,
    dyn_loss_and_grad,
    init_dyn_model,
    init_safety_clf,
    safety_penalty_and_input_grad,
    save_critic,
)
from cabc.experts import RacingExpert
from cabc.sim import SimConfig, default_start_state, rollout
from cabc.trainer import agent_loss_and_grad

from conftest import mlp_from_layers


LAM = 2.0  # safety weight of the penalty tests


@pytest.fixture(scope="module")
def norm7():
    return NormStats(mean=np.full(7, 0.1), std=np.full(7, 0.8), lap_length=12.0)


@pytest.fixture(scope="module")
def small_critic(norm7):
    cfg = SimConfig()
    dyn = init_dyn_model(norm7, cfg, hidden=(16, 16), seed=5)
    clf = init_safety_clf(norm7, hidden=(12,), seed=6)
    return cfg, dyn, clf


def perturb_weight(params, layer, idx, dv):
    ws = [(W.copy(), b) for W, b in params.weights]
    ws[layer][0][idx] += dv
    return mlp_from_layers(params.sizes, ws, params.head)


class TestDynLoss:
    def test_exact_linear_system_gives_zero_loss(self, norm7):
        cfg = SimConfig()
        rng = np.random.default_rng(0)
        W = rng.normal(size=(9, 6))
        b = rng.normal(size=6)
        params = mlp_from_layers((9, 6), ((W, b),))
        dyn = DynModel(params=params, norm=norm7, delta_scale=delta_scale_from(cfg))
        X = rng.normal(size=(8, 6))
        U = rng.uniform(-1, 1, size=(8, 2))
        XN = X + nn.forward(params, dyn.inputs(X, U)) * dyn.delta_scale
        loss, _ = dyn_loss_and_grad(dyn, X, U, XN)
        assert loss < 1e-28

    def test_gradients_match_finite_differences(self, small_critic):
        cfg, dyn, _ = small_critic
        rng = np.random.default_rng(1)
        X = rng.normal(size=(4, 6))
        U = rng.uniform(-1, 1, size=(4, 2))
        XN = X + 0.01 * rng.normal(size=(4, 6))
        _, grads = dyn_loss_and_grad(dyn, X, U, XN)
        h = 1e-6
        for (layer, idx) in [(0, (0, 0)), (0, (3, 5)), (1, (2, 1)), (2, (4, 3))]:
            dp = replace(dyn, params=perturb_weight(dyn.params, layer, idx, h))
            dm = replace(dyn, params=perturb_weight(dyn.params, layer, idx, -h))
            lp, _ = dyn_loss_and_grad(dp, X, U, XN)
            lm, _ = dyn_loss_and_grad(dm, X, U, XN)
            fd = (lp - lm) / (2 * h)
            analytic = grads[layer][0][idx]
            assert abs(fd - analytic) <= 1e-6 + 1e-4 * max(abs(fd), abs(analytic))

    def test_rejects_empty_batch(self, small_critic):
        cfg, dyn, _ = small_critic
        with pytest.raises(ValueError):
            dyn_loss_and_grad(dyn, np.zeros((0, 6)), np.zeros((0, 2)), np.zeros((0, 6)))

    def test_one_step_prediction_accuracy_after_training(self, gp):
        """Train on noisy racing transitions, measure held-out next-state error."""
        cfg = SimConfig(noise_sigma_v=0.0, noise_sigma_kappa=0.0)

        class Noisy:
            def __init__(self, inner, rng):
                self.inner, self.rng = inner, rng

            def __call__(self, y, x):
                u = self.inner(y, x)
                n = self.rng.normal(0.0, 0.2, size=2)
                return clamp_action(u[0] + n[0], u[1] + n[1])

        X, U, XN = [], [], []
        i = 0
        while sum(len(x) for x in X) < 10_000:
            rng = rng_stream(50 + i, 0)
            i += 1
            pol = Noisy(RacingExpert(cfg, gp), rng)
            s0 = float(rng.uniform(0, gp.lap_length))
            traj = rollout(cfg, gp, pol, default_start_state(1.0, s=s0), 600, rng)
            X.append(traj.states[:-1])
            U.append(traj.u_applied)
            XN.append(traj.states[1:])
        X, U, XN = np.concatenate(X), np.concatenate(U), np.concatenate(XN)
        n_train = int(0.9 * len(X))
        norm = fit_norm(X[:n_train], gp.lap_length)
        dyn = init_dyn_model(norm, cfg, hidden=(128, 128, 128), seed=1)
        opt = nn.init_opt(dyn.params, lr=3e-3)
        rng = np.random.default_rng(0)
        tape = nn.Tape()  # reused by every step, as the trainer does
        # the heading dimension carries the track's piecewise-constant
        # curvature jumps and needs the longer low-rate phase to resolve
        for n_steps, lr in ((2000, 3e-3), (4000, 1e-3)):
            opt = replace(opt, lr=lr)
            for _ in range(n_steps):
                idx = rng.integers(0, n_train, size=512)
                _, grads = dyn_loss_and_grad(dyn, X[idx], U[idx], XN[idx], tape=tape)
                params, opt = nn.adam_step(dyn.params, grads, opt)
                dyn = replace(dyn, params=params)
        pred = dyn.predict(X[n_train:], U[n_train:])
        rmse = np.sqrt(((pred - XN[n_train:]) ** 2).mean(axis=0))
        ratio = rmse / X[n_train:].std(axis=0)
        assert np.all(ratio < 0.05), ratio


class TestClfLoss:
    def test_coin_flip_classifier_loss_is_ln2(self, norm7):
        zero = nn.MlpParams((7, 1), np.zeros(8), "sigmoid")
        clf = SafetyClf(params=zero, norm=norm7)
        X = np.random.default_rng(0).normal(size=(10, 6))
        labels = np.array([1, 0] * 5, dtype=float)
        loss, _ = clf_loss_and_grad(clf, X, labels)
        assert loss == pytest.approx(math.log(2.0), rel=1e-12)

    def test_degenerate_labels_reported(self, small_critic):
        _, _, clf = small_critic
        X = np.random.default_rng(0).normal(size=(4, 6))
        with pytest.raises(DegenerateLabelsError):
            clf_loss_and_grad(clf, X, np.ones(4))

    def test_gradients_match_finite_differences(self, small_critic):
        _, _, clf = small_critic
        rng = np.random.default_rng(2)
        X = rng.normal(size=(6, 6))
        labels = np.array([1, 1, 0, 1, 0, 0], dtype=float)
        _, grads = clf_loss_and_grad(clf, X, labels)
        h = 1e-6
        for (layer, idx) in [(0, (0, 0)), (0, (5, 3)), (1, (7, 0))]:
            cp = replace(clf, params=perturb_weight(clf.params, layer, idx, h))
            cm = replace(clf, params=perturb_weight(clf.params, layer, idx, -h))
            lp, _ = clf_loss_and_grad(cp, X, labels)
            lm, _ = clf_loss_and_grad(cm, X, labels)
            fd = (lp - lm) / (2 * h)
            analytic = grads[layer][0][idx]
            assert abs(fd - analytic) <= 1e-6 + 1e-4 * max(abs(fd), abs(analytic))

    def test_separable_data_reaches_high_accuracy(self, norm7):
        rng = np.random.default_rng(3)
        X = np.zeros((400, 6))
        X[:, 0] = rng.uniform(0.0, 2.0, size=400)
        labels = (X[:, 0] > 1.0).astype(float)
        clf = init_safety_clf(norm7, hidden=(16,), seed=4)
        opt = nn.init_opt(clf.params, lr=1e-2)
        for _ in range(400):
            loss, grads = clf_loss_and_grad(clf, X, labels)
            params, opt = nn.adam_step(clf.params, grads, opt)
            clf = replace(clf, params=params)
        acc = ((clf.prob(X) > 0.5) == labels.astype(bool)).mean()
        assert acc >= 0.99


class TestSafetyPenalty:
    def test_action_gradient_matches_finite_differences(self, small_critic):
        _, dyn, clf = small_critic
        rng = np.random.default_rng(0)
        X = rng.normal(size=(3, 6))
        U = rng.uniform(-1, 1, size=(3, 2))
        pen, g_u = safety_penalty_and_input_grad(clf, dyn, X, U, LAM)
        h = 1e-6
        for b in range(3):
            for j in range(2):
                Up, Um = U.copy(), U.copy()
                Up[b, j] += h
                Um[b, j] -= h
                pp, _ = safety_penalty_and_input_grad(clf, dyn, X, Up, LAM)
                pm, _ = safety_penalty_and_input_grad(clf, dyn, X, Um, LAM)
                fd = (pp[b] - pm[b]) / (2 * h)
                assert abs(fd - g_u[b, j]) <= 1e-6 + 1e-4 * max(abs(fd), abs(g_u[b, j]))

    def test_zero_weight_is_exactly_zero(self, small_critic):
        _, dyn, clf = small_critic
        pen, g_u = safety_penalty_and_input_grad(clf, dyn, np.zeros((2, 6)),
                                                 np.zeros((2, 2)), 0.0)
        assert np.all(pen == 0.0) and np.all(g_u == 0.0)

    def test_saturated_safe_classifier_gives_zero_gradient(self, norm7):
        cfg = SimConfig()
        dyn = init_dyn_model(norm7, cfg, hidden=(8,), seed=0)
        sat = mlp_from_layers((7, 1), ((np.zeros((7, 1)), np.full(1, 100.0)),), "sigmoid")
        clf = SafetyClf(params=sat, norm=norm7)
        pen, g_u = safety_penalty_and_input_grad(clf, dyn, np.zeros((2, 6)),
                                                 np.zeros((2, 2)), 5.0)
        assert np.all(pen < 1e-12)
        assert np.all(g_u == 0.0)  # logit clamp zeroes the gradient

    def test_networks_stay_frozen(self, small_critic):
        _, dyn, clf = small_critic
        snap_dyn = [(W.copy(), b.copy()) for W, b in dyn.params.weights]
        snap_clf = [(W.copy(), b.copy()) for W, b in clf.params.weights]
        safety_penalty_and_input_grad(clf, dyn, np.ones((3, 6)), np.zeros((3, 2)), LAM)
        for (W, b), (W0, b0) in zip(dyn.params.weights, snap_dyn):
            assert np.all(W == W0) and np.all(b == b0)
        for (W, b), (W0, b0) in zip(clf.params.weights, snap_clf):
            assert np.all(W == W0) and np.all(b == b0)


class TestTapedPasses:
    """Every training path runs each network's forward once and reuses its tape."""

    @pytest.fixture
    def passes(self, monkeypatch):
        forwards, backwards = [], []
        inner_forward, inner_backward = nn.forward, nn.backward

        def counting_forward(p, x, tape=None):
            forwards.append(p.head)
            return inner_forward(p, x, tape)

        def recording_backward(p, tape, upstream, **kw):
            grads, gx = inner_backward(p, tape, upstream, **kw)
            backwards.append((p.head, grads is not None))
            return grads, gx

        monkeypatch.setattr(nn, "forward", counting_forward)
        monkeypatch.setattr(nn, "backward", recording_backward)
        return forwards, backwards

    def test_policy_step_with_critic(self, small_critic, passes):
        _, dyn, clf = small_critic
        forwards, backwards = passes
        policy = nn.init_mlp((5, 16, 2), head="tanh", seed=3)
        rng = np.random.default_rng(4)
        clone, safety, grads = agent_loss_and_grad(
            policy, rng.normal(size=(6, 5)), rng.uniform(-0.5, 0.5, size=(6, 2)),
            rng.normal(size=(6, 6)), dyn, clf, LAM)
        assert safety > 0.0 and len(grads) == len(policy.weights)
        # policy, then the frozen dynamics and classifier, one forward each;
        # the frozen pair return input gradients only
        assert sorted(forwards) == ["identity", "sigmoid", "tanh"]
        assert sorted(backwards) == [("identity", False), ("sigmoid", False),
                                     ("tanh", True)]

    def test_critic_fits(self, small_critic, passes):
        _, dyn, clf = small_critic
        forwards, backwards = passes
        rng = np.random.default_rng(5)
        X = rng.normal(size=(4, 6))
        dyn_loss_and_grad(dyn, X, rng.uniform(-1, 1, size=(4, 2)), X + 0.01)
        clf_loss_and_grad(clf, X, np.array([1.0, 0.0, 1.0, 0.0]))
        assert forwards == ["identity", "sigmoid"]
        assert backwards == [("identity", True), ("sigmoid", True)]


def load_critic(dirpath, cfg: SimConfig):
    """Read back what ``save_critic`` wrote: ``(DynModel, SafetyClf)``."""
    with open(os.path.join(dirpath, "norm.json"), "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    norm = NormStats(mean=np.asarray(obj["mean"]), std=np.asarray(obj["std"]),
                     lap_length=float(obj["lap_length"]))
    dyn = DynModel(params=nn.load_weights(os.path.join(dirpath, "dyn.npz")),
                   norm=norm, delta_scale=delta_scale_from(cfg))
    clf = SafetyClf(params=nn.load_weights(os.path.join(dirpath, "clf.npz")), norm=norm)
    return dyn, clf


class TestCheckpointIO:
    def test_round_trip(self, tmp_path, small_critic):
        cfg, dyn, clf = small_critic
        save_critic(dyn, clf, tmp_path / "critic")
        dyn2, clf2 = load_critic(tmp_path / "critic", cfg)
        X = np.random.default_rng(1).normal(size=(3, 6))
        U = np.random.default_rng(2).uniform(-1, 1, (3, 2))
        assert np.allclose(dyn.predict(X, U), dyn2.predict(X, U), atol=0, rtol=0)
        assert np.allclose(clf.prob(X), clf2.prob(X), atol=0, rtol=0)

    def test_round_trip_is_exact(self, tmp_path, small_critic):
        cfg, dyn, clf = small_critic
        save_critic(dyn, clf, tmp_path / "critic")
        assert sorted(os.listdir(tmp_path / "critic")) == ["clf.npz", "dyn.npz", "norm.json"]
        dyn2, clf2 = load_critic(tmp_path / "critic", cfg)
        for a, b in ((dyn.params, dyn2.params), (clf.params, clf2.params)):
            assert a.flat.tobytes() == b.flat.tobytes()
            for name in ("sizes", "head", "seed"):
                assert getattr(a, name) == getattr(b, name)
        for a, b in ((dyn.norm, dyn2.norm), (clf.norm, clf2.norm)):
            assert a.mean.tobytes() == b.mean.tobytes() and a.std.tobytes() == b.std.tobytes()
            assert a.lap_length == b.lap_length
        assert dyn2.delta_scale.tobytes() == dyn.delta_scale.tobytes()
