import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from cabc import nn
from cabc.autolabel import NormStats
from cabc.core import Outcome
from cabc.critic import (
    DynModel,
    SafetyClf,
    clf_loss_and_grad,
    delta_scale_from,
    dyn_loss_and_grad,
)
from cabc.experts import PidCenterline, RacingExpert
from cabc.sim import SimConfig, default_start_state, rng_stream, rollout
from cabc.track import get_track
from cabc.trainer import (
    EpochReport,
    MixedPolicy,
    MlpPolicy,
    NonFiniteLossError,
    TrainConfig,
    agent_loss_and_grad,
    features_from_obs,
    features_from_state,
    features_from_state_array,
    init_policy,
    make_expert_factory,
    train,
    _finite_or_raise,
)

from conftest import make_state, mlp_from_layers, same_trajectory


def tiny_cfg(track, **kw):
    sim = kw.pop("sim", SimConfig(max_steps=400))
    base = dict(epochs=3, episodes_per_epoch=2, grad_steps_policy=40,
                grad_steps_dyn=30, grad_steps_clf=30, hidden=(24, 24), seed=11,
                observation_mode="output", sim=sim, actuation_noise_sigma=0.1,
                lam=1.0, eval_laps=5)
    base.update(kw)
    return TrainConfig(**base)


def _critic_run(gp, epochs):
    """A tiny gp/racing CA run whose dynamics model is due every epoch and
    whose classifier is due every second one."""
    cfg = tiny_cfg(gp, epochs=epochs, alpha=1.0, k_f=1, k_p=2, seed=0, grad_steps_policy=5,
                   grad_steps_dyn=5, grad_steps_clf=5, eval_laps=1)
    return train(cfg, gp, make_expert_factory("racing", cfg.sim, gp))


# SHA-256 of the 3-epoch _critic_run, recorded when lane_preview came to read
# the centreline pose table (the run trains on output observations)
GOLDEN_CA_RUN = "6db71f3cc912b90653896cfbcb66b0b8a5a2d91ca94ecd7f9e729da924948e9d"


class TestConfigValidation:
    def test_alpha_range(self, circle):
        with pytest.raises(ValueError):
            tiny_cfg(circle, alpha=0.0)
        with pytest.raises(ValueError):
            tiny_cfg(circle, alpha=1.5)

    def test_cadences_positive(self, circle):
        with pytest.raises(ValueError):
            tiny_cfg(circle, k_f=0)

    def test_method_names(self, circle):
        with pytest.raises(ValueError):
            tiny_cfg(circle, method="dagger")

    def test_unknown_method_is_named_before_the_batch_rule_reads_it(self):
        with pytest.raises(ValueError, match="^method must be 'ca' or 'bc'$"):
            TrainConfig(method="dagger", batch_size=0)

    def test_neighbor_cap_positive(self, circle):
        # a zero cap used to pass here and crash in the first labeling pass
        for cap in (0, -3):
            with pytest.raises(ValueError, match="neighbor_cap"):
                tiny_cfg(circle, neighbor_cap=cap)
        assert tiny_cfg(circle, neighbor_cap=1).neighbor_cap == 1

    def test_hull_tol_nonnegative_and_finite(self, circle):
        for tol in (-1e-9, math.nan, math.inf):
            with pytest.raises(ValueError, match="hull_tol"):
                tiny_cfg(circle, hull_tol=tol)
        assert tiny_cfg(circle, hull_tol=0.0).hull_tol == 0.0

    def test_rho_rejects_nan(self, circle):
        for rho in (math.nan, -0.5):
            with pytest.raises(ValueError, match="rho"):
                tiny_cfg(circle, rho=rho)

    def test_lam_rejects_nan(self, circle):
        for lam in (math.nan, -1.0):
            with pytest.raises(ValueError, match="lam"):
                tiny_cfg(circle, lam=lam)
        assert tiny_cfg(circle, lam=0.0).lam == 0.0

    # each of these used to pass here and fail later with an unrelated error
    def test_grad_steps_dyn_positive(self, circle):
        # UnboundLocalError for the dynamics loss at the first fit
        with pytest.raises(ValueError, match="grad_steps_dyn"):
            tiny_cfg(circle, grad_steps_dyn=0)

    def test_grad_steps_clf_positive(self, circle):
        # UnboundLocalError for the classifier loss at the first fit
        with pytest.raises(ValueError, match="grad_steps_clf"):
            tiny_cfg(circle, grad_steps_clf=0)

    def test_grad_steps_policy_positive(self, circle):
        # ZeroDivisionError in the epoch's mean clone loss
        with pytest.raises(ValueError, match="grad_steps_policy"):
            tiny_cfg(circle, grad_steps_policy=0)

    def test_episodes_per_epoch_positive(self, circle):
        # a matmul shape error on the empty sample store
        with pytest.raises(ValueError, match="episodes_per_epoch"):
            tiny_cfg(circle, episodes_per_epoch=0)

    def test_batch_size_positive(self, circle):
        # "empty dynamics batch" at the first fit
        for method in ("ca", "bc"):
            with pytest.raises(ValueError, match="batch_size"):
                tiny_cfg(circle, method=method, batch_size=0)

    def test_ca_batch_size_holds_both_classes(self, circle):
        # half a batch of one is zero: "empty classifier batch" at the first fit
        with pytest.raises(ValueError, match="batch_size"):
            tiny_cfg(circle, method="ca", batch_size=1)
        assert tiny_cfg(circle, method="bc", batch_size=1).batch_size == 1

    def test_eval_laps_positive(self, circle):
        # zero laps counted as a full evaluation, so early stopping fired at epoch 1
        with pytest.raises(ValueError, match="eval_laps"):
            tiny_cfg(circle, eval_laps=0)

    def test_hidden_widths_positive(self, circle):
        # a zero width trained and saved a policy that `cabc eval` could not load
        for hidden in ((0,), (24, -1)):
            with pytest.raises(ValueError, match="hidden"):
                tiny_cfg(circle, hidden=hidden)

    def test_epochs_nonnegative(self, circle):
        with pytest.raises(ValueError, match="epochs"):
            tiny_cfg(circle, epochs=-1)
        assert tiny_cfg(circle, epochs=0).epochs == 0

    def test_actuation_noise_sigma_nonnegative_and_finite(self, circle):
        # a NaN sigma used to turn actuation noise off without a word
        for sigma in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="actuation_noise_sigma"):
                tiny_cfg(circle, actuation_noise_sigma=sigma)
        assert tiny_cfg(circle, actuation_noise_sigma=0.0).actuation_noise_sigma == 0.0

    @pytest.mark.parametrize("name", ["lr_policy", "lr_dyn", "lr_clf"])
    def test_learning_rate_positive_and_finite(self, circle, name):
        for lr in (0.0, -1e-3, math.nan, math.inf):
            with pytest.raises(ValueError, match=name):
                tiny_cfg(circle, **{name: lr})


class TestMixPolicy:
    def test_pure_expert_is_trajectorywise_identical(self, circle, noiseless_sim):
        factory = lambda: PidCenterline(noiseless_sim, circle, v_ref=1.0)
        learner = lambda y, x: (0.0, 0.0)
        mixed = MixedPolicy(factory(), learner, 1.0, rng_stream(0, 9), sigma_u=0.0)
        t_mixed = rollout(noiseless_sim, circle, mixed, default_start_state(1.0),
                          300, rng_stream(0, 1))
        t_expert = rollout(noiseless_sim, circle, factory(), default_start_state(1.0),
                           300, rng_stream(0, 1))
        assert same_trajectory(t_mixed, t_expert)

    def test_pure_learner(self, circle, noiseless_sim):
        expert = PidCenterline(noiseless_sim, circle, v_ref=1.0)
        learner = lambda y, x: (0.3, 0.0)
        mixed = MixedPolicy(expert, learner, 0.0, rng_stream(0, 9), sigma_u=0.0)
        y = None
        for _ in range(10):
            assert mixed(y, make_state(v=1.0)) == (0.3, 0.0)

    def test_bernoulli_frequency(self, circle, noiseless_sim):
        expert = lambda y, x: (1.0, 0.0)
        learner = lambda y, x: (-1.0, 0.0)
        mixed = MixedPolicy(expert, learner, 0.5, rng_stream(4, 2), sigma_u=0.0)
        x = make_state(v=1.0)
        for _ in range(10_000):
            mixed(None, x)
        frac = mixed.expert_steps / mixed.total_steps
        assert 0.48 <= frac <= 0.52

    def test_alpha_decay_fractions(self):
        for beta in (1.0, 0.7, 0.49):
            mixed = MixedPolicy(lambda y, x: (1.0, 0.0),
                                lambda y, x: (-1.0, 0.0),
                                beta, rng_stream(1, 3), sigma_u=0.0)
            x = make_state(v=1.0)
            for _ in range(5000):
                mixed(None, x)
            assert abs(mixed.expert_steps / mixed.total_steps - beta) < 0.03

    def test_noise_is_clamped(self):
        mixed = MixedPolicy(lambda y, x: (1.0, 1.0), lambda y, x: (0, 0),
                            1.0, rng_stream(2, 2), sigma_u=5.0)
        for _ in range(50):
            u_a, u_steer = mixed(None, make_state(v=1.0))
            assert -1.0 <= u_a <= 1.0 and -1.0 <= u_steer <= 1.0

    def test_expert_action_cached_for_relabeling(self, circle, noiseless_sim):
        expert = PidCenterline(noiseless_sim, circle, v_ref=1.0)
        mixed = MixedPolicy(expert, lambda y, x: (0, 0), 0.0,
                            rng_stream(0, 0), sigma_u=0.0)
        x = make_state(v=0.9)
        mixed(None, x)
        assert mixed.last_expert_action is not None


class TestTrainLoops:
    def test_one_epoch_smoke_all_success(self, circle):
        cfg = tiny_cfg(circle, epochs=1, alpha=1.0, actuation_noise_sigma=0.0,
                       method="ca", lam=1.0)
        res = train(replace(cfg, method="ca"), circle, make_expert_factory("pid", cfg.sim, circle))
        (rep,) = res.reports
        assert rep.new_successes == cfg.episodes_per_epoch
        assert rep.n_minus == 0 and rep.n_query == 0
        assert rep.clf_degenerate  # no negatives at the classifier epoch
        for name in ("clone_loss", "safety_loss", "dyn_loss", "clf_loss"):
            assert math.isfinite(getattr(rep, name))
        # a classifier that was never fit runs no safety term
        assert rep.safety_loss == 0.0 and not rep.safety_on and rep.clf_fit_epoch == -1

    def test_lambda_zero_gives_bitwise_bc_equivalence(self, circle):
        factory = make_expert_factory("pid", SimConfig(max_steps=400), circle)
        cfg = tiny_cfg(circle, lam=0.0)
        ca = train(replace(cfg, method="ca"), circle, factory)
        bc = train(replace(cfg, method="bc"), circle, factory)
        for (Wa, ba), (Wb, bb) in zip(ca.policy.weights, bc.policy.weights):
            assert np.array_equal(Wa, Wb) and np.array_equal(ba, bb)

    def test_method_field_routes_both_ways(self, circle):
        factory = make_expert_factory("pid", SimConfig(max_steps=400), circle)
        res = train(tiny_cfg(circle, method="bc"), circle, factory)
        assert res.dyn is None and res.clf is None
        res = train(tiny_cfg(circle, method="ca"), circle, factory)
        assert res.dyn is not None and res.clf is not None

    def test_deterministic_reports(self, circle):
        factory = make_expert_factory("pid", SimConfig(max_steps=400), circle)
        r1 = train(replace(tiny_cfg(circle), method="ca"), circle, factory)
        r2 = train(replace(tiny_cfg(circle), method="ca"), circle, factory)
        assert r1.reports == r2.reports

    def test_pool_growth_is_monotone(self, circle):
        cfg = tiny_cfg(circle, epochs=4, actuation_noise_sigma=0.3)
        res = train(replace(cfg, method="ca"), circle, make_expert_factory("pid", cfg.sim, circle))
        plus = [r.n_plus for r in res.reports]
        query = [r.n_query for r in res.reports]
        assert all(a <= b for a, b in zip(plus, plus[1:]))
        assert all(a <= b for a, b in zip(query, query[1:]))

    def test_pool_is_the_visited_states_by_outcome(self, circle):
        # the untrained learner drives from epoch 1 on, so both pools fill
        cfg = tiny_cfg(circle, epochs=3, alpha=0.1)
        trajs = []
        res = train(replace(cfg, method="ca"), circle, make_expert_factory("pid", cfg.sim, circle),
                    traj_callback=lambda epoch, new: trajs.extend(new))
        for rows, outcome in ((res.pool.d_plus, Outcome.SUCCESS),
                              (res.pool.d_query, Outcome.FAILURE)):
            states = [t.states[:-1] for t in trajs if t.outcome is outcome]
            assert len(states) and np.array_equal(rows, np.concatenate(states))
        last = res.reports[-1]
        assert (last.n_plus, last.n_query, last.n_minus) == (
            len(res.pool.d_plus), len(res.pool.d_query), int(res.pool.minus.sum()))

    def test_bc_labels_no_negatives_when_rollouts_fail(self, gp):
        # the learner drives half the steps from epoch 1 on and fails on gp;
        # only the CA loop turns the failed rollouts' states into negatives
        cfg = tiny_cfg(gp, method="bc", epochs=3, alpha=0.5, grad_steps_policy=5, eval_laps=1)
        res = train(cfg, gp, make_expert_factory("racing", cfg.sim, gp))
        assert sum(r.new_failures for r in res.reports) > 0
        assert res.reports[-1].n_query == len(res.pool.d_query) > 0
        assert [r.n_minus for r in res.reports] == [0] * cfg.epochs
        assert not res.pool.minus.any()

    def test_traj_callback_sees_every_episode(self, circle):
        cfg = tiny_cfg(circle, epochs=2)
        seen = []
        train(replace(cfg, method="ca"), circle, make_expert_factory("pid", cfg.sim, circle),
              traj_callback=lambda epoch, trajs: seen.append((epoch, len(trajs))))
        assert seen == [(0, cfg.episodes_per_epoch), (1, cfg.episodes_per_epoch)]

    @pytest.mark.parametrize("method", ["bc", "ca"])
    def test_reports_record_safety_term_clf_fit_and_eval_end(self, monkeypatch, gp, method):
        """The trailing report columns say what the epoch did, as spies on the
        policy step, the classifier step and the evaluation see it."""
        import cabc.trainer as trainer

        seen = []   # per epoch: safety term per policy step, classifier fit, eval end
        agent, clf_step, evaluate = (trainer.agent_loss_and_grad, trainer.clf_loss_and_grad,
                                     trainer.evaluate)

        def spy_agent(policy, feats, u, x_raw, dyn, clf, *rest, **kw):
            seen[-1]["safety"].add(clf is not None)
            return agent(policy, feats, u, x_raw, dyn, clf, *rest, **kw)

        def spy_clf(*args, **kw):
            seen[-1]["fit"] = True
            return clf_step(*args, **kw)

        def spy_eval(*args, **kw):
            result = evaluate(*args, **kw)
            seen[-1]["end"] = result.terminated_by.value
            return result

        monkeypatch.setattr(trainer, "agent_loss_and_grad", spy_agent)
        monkeypatch.setattr(trainer, "clf_loss_and_grad", spy_clf)
        monkeypatch.setattr(trainer, "evaluate", spy_eval)
        # the learner drives half the steps from epoch 1 on and fails on gp.
        # The classifier is due at epochs 0 and 2; at seed 13 both epoch-0
        # episodes succeed, so its first fit is at epoch 2
        cfg = tiny_cfg(gp, method=method, epochs=4, alpha=0.5, k_f=1, k_p=2, seed=13,
                       grad_steps_policy=5, grad_steps_dyn=5, grad_steps_clf=5, eval_laps=1)
        res = train(cfg, gp, make_expert_factory("racing", cfg.sim, gp),
                    traj_callback=lambda epoch, trajs: seen.append({"safety": set(),
                                                                    "fit": False}))
        assert EpochReport.FIELDS[-3:] == ("safety_on", "clf_fit_epoch", "eval_terminated_by")
        assert len(seen) == len(res.reports) == cfg.epochs
        fit_epoch = -1
        for report, epoch in zip(res.reports, seen):
            fit_epoch = report.epoch if epoch["fit"] else fit_epoch
            assert epoch["safety"] == {report.safety_on}
            assert report.clf_fit_epoch == fit_epoch
            assert report.eval_terminated_by == epoch["end"]
        columns = [(r.safety_on, r.clf_fit_epoch) for r in res.reports]
        if method == "bc":
            assert columns == [(False, -1)] * cfg.epochs
        else:
            assert columns == [(False, -1), (False, -1), (True, 2), (True, 2)]

    def test_safety_term_waits_for_the_first_classifier_fit(self, gp):
        """A CA run whose first epochs have no negatives trains bitwise the
        same policy as BC until its classifier is first fit: no safety term
        runs through the classifier's random initial weights."""
        # as above: at seed 13 both epoch-0 episodes succeed, so the classifier
        # due at epoch 0 has no negatives to fit, and its first fit is at epoch 2
        cfg = tiny_cfg(gp, epochs=3, alpha=0.5, k_f=1, k_p=2, seed=13, grad_steps_policy=5,
                       grad_steps_dyn=5, grad_steps_clf=5, eval_laps=1)
        factory = make_expert_factory("racing", cfg.sim, gp)
        policies = {"ca": [], "bc": []}
        reports = {}
        for method, seen in policies.items():
            res = train(replace(cfg, method=method), gp, factory,
                        epoch_callback=lambda report, params: seen.append(params.flat))
            reports[method] = res.reports
        ca = reports["ca"]
        assert ca[0].clf_degenerate and ca[0].n_minus == 0
        assert [r.clf_fit_epoch for r in ca] == [-1, -1, 2]
        assert [(r.safety_on, r.safety_loss) for r in ca] == [
            (False, 0.0), (False, 0.0), (True, ca[2].safety_loss)]
        assert ca[2].safety_loss > 0.0
        for epoch in (0, 1):
            assert np.array_equal(policies["ca"][epoch], policies["bc"][epoch])
        assert not np.array_equal(policies["ca"][2], policies["bc"][2])

    def test_safety_term_waits_for_the_first_dynamics_fit(self, gp):
        """A classifier fit alone does not start the safety term: its penalty
        runs through the dynamics model, which must have been fit too."""
        # the expert drives every step (alpha = 1).  At seed 23 both epoch-0
        # episodes fail, so there is no metric and no critic; epoch 1 has a
        # success, so the networks are made and the classifier (due every
        # epoch) is fit, but the dynamics model is first due at epoch 2
        cfg = tiny_cfg(gp, epochs=3, alpha=1.0, k_f=2, k_p=1, seed=23, grad_steps_policy=5,
                       grad_steps_dyn=5, grad_steps_clf=5, eval_laps=1)
        factory = make_expert_factory("racing", cfg.sim, gp)
        policies = {"ca": [], "bc": []}
        reports = {}
        for method, seen in policies.items():
            res = train(replace(cfg, method=method), gp, factory,
                        epoch_callback=lambda report, params: seen.append(params.flat))
            reports[method] = res.reports
        ca = reports["ca"]
        assert [(r.new_successes, r.new_failures) for r in ca[:2]] == [(0, 2), (1, 1)]
        assert [r.clf_fit_epoch for r in ca] == [-1, 1, 2]
        assert [(r.safety_on, r.safety_loss) for r in ca[:2]] == [(False, 0.0), (False, 0.0)]
        assert ca[2].safety_on and ca[2].safety_loss > 0.0
        for epoch in (0, 1):
            assert np.array_equal(policies["ca"][epoch], policies["bc"][epoch])
        assert not np.array_equal(policies["ca"][2], policies["bc"][2])

    def test_ca_run_matches_its_golden_digest(self, gp):
        """A tiny CA run, bit for bit: its reports and all three networks.

        The expert drives every step (alpha = 1).  At seed 0 epoch 0 has both
        classes, so both critics are fit from epoch 0; epoch 1 refits the
        metric for the dynamics model alone, and epoch 2 refits both."""
        res = _critic_run(gp, epochs=3)
        assert [r.clf_fit_epoch for r in res.reports] == [0, 0, 2]
        h = hashlib.sha256()
        for report in res.reports:
            h.update(repr(report.row()).encode())
        for flat in (res.policy.flat, res.dyn.params.flat, res.clf.params.flat):
            h.update(flat.tobytes())
        assert h.hexdigest() == GOLDEN_CA_RUN

    def test_dynamics_only_refit_hands_the_classifier_its_metric(self, monkeypatch, gp):
        """Today's metric swap, pinned: a refit for the dynamics model alone
        also gives the classifier the new metric, although the classifier is
        not fit under it.  One metric per network (ROADMAP item 2, step (b))
        is meant to change this test."""
        import cabc.trainer as trainer

        fit_norms = []
        clf_step = trainer.clf_loss_and_grad

        def spy_clf(clf, *args, **kw):
            fit_norms.append(clf.norm)
            return clf_step(clf, *args, **kw)

        monkeypatch.setattr(trainer, "clf_loss_and_grad", spy_clf)
        # as above, cut after epoch 1: the last refit is the dynamics model's
        # alone, and epoch 1's new success moves the metric
        res = _critic_run(gp, epochs=2)
        assert [r.clf_fit_epoch for r in res.reports] == [0, 0]
        assert res.reports[1].new_successes > 0
        last_fit = fit_norms[-1]
        assert np.array_equal(res.clf.norm.mean, res.dyn.norm.mean)
        assert np.array_equal(res.clf.norm.std, res.dyn.norm.std)
        assert not np.array_equal(res.clf.norm.mean, last_fit.mean)

    def test_nonfinite_loss_raises(self):
        with pytest.raises(NonFiniteLossError):
            _finite_or_raise("clone_loss", float("nan"), epoch=3)
        with pytest.raises(NonFiniteLossError):
            _finite_or_raise("dyn_loss", float("inf"), epoch=0)
        assert _finite_or_raise("x", 1.0, 0) == 1.0


class TestComputeGradients:
    def _setup(self, circle):
        cfg = tiny_cfg(circle)
        policy = init_policy(cfg, circle)
        norm = NormStats(mean=np.zeros(7), std=np.ones(7), lap_length=circle.lap_length)
        from cabc.critic import init_dyn_model, init_safety_clf
        dyn = init_dyn_model(norm, cfg.sim, hidden=(8,), seed=1)
        clf = init_safety_clf(norm, hidden=(8,), seed=2)
        rng = np.random.default_rng(0)
        B = 4
        batch = {
            "feats": rng.normal(size=(B, policy.sizes[0])),
            "u_expert": rng.uniform(-0.5, 0.5, size=(B, 2)),
            "x_raw": rng.normal(size=(B, 6)) * 0.3 + np.array([1, 0, 0, 3, 0, 0]),
            "u_applied": rng.uniform(-1, 1, size=(B, 2)),
            "x_next": None,
            "labels": np.array([1.0, 0.0, 1.0, 0.0]),
        }
        batch["x_next"] = batch["x_raw"] + 0.01 * rng.normal(size=(B, 6))
        return cfg, policy, dyn, clf, batch

    def test_gradient_sets_are_disjoint(self, circle):
        cfg, policy, dyn, clf, batch = self._setup(circle)
        dyn_snapshot = [(W.copy(), b.copy()) for W, b in dyn.params.weights]
        clf_snapshot = [(W.copy(), b.copy()) for W, b in clf.params.weights]
        _, _, grad_theta = agent_loss_and_grad(
            policy, batch["feats"], batch["u_expert"], batch["x_raw"], dyn, clf, 1.0)
        # the agent path must leave the critic parameters untouched
        for (W, b), (W0, b0) in zip(dyn.params.weights, dyn_snapshot):
            assert np.array_equal(W, W0) and np.array_equal(b, b0)
        for (W, b), (W0, b0) in zip(clf.params.weights, clf_snapshot):
            assert np.array_equal(W, W0) and np.array_equal(b, b0)
        _, grad_phi_f = dyn_loss_and_grad(dyn, batch["x_raw"], batch["u_applied"],
                                          batch["x_next"])
        _, grad_phi_p = clf_loss_and_grad(clf, batch["x_raw"], batch["labels"])
        assert len(grad_theta) == len(policy.weights)
        assert grad_phi_f is not None and grad_phi_p is not None

    def test_lambda_zero_reduces_to_clone_gradient(self, circle):
        cfg, policy, dyn, clf, batch = self._setup(circle)
        _, safety_loss, grad_theta = agent_loss_and_grad(
            policy, batch["feats"], batch["u_expert"], batch["x_raw"], dyn, clf, 0.0)
        assert safety_loss == 0.0
        # finite-difference check of the pure clone objective
        h = 1e-6

        def clone_loss(params):
            pred = nn.forward(params, batch["feats"])
            d = pred - batch["u_expert"]
            return float((d * d).sum(axis=1).mean())

        for layer in range(len(policy.weights)):
            W = policy.weights[layer][0]
            idx = (0, 0)
            ws_p = [(w.copy(), b.copy()) for w, b in policy.weights]
            ws_m = [(w.copy(), b.copy()) for w, b in policy.weights]
            ws_p[layer][0][idx] += h
            ws_m[layer][0][idx] -= h
            pp = mlp_from_layers(policy.sizes, ws_p, "tanh")
            pm = mlp_from_layers(policy.sizes, ws_m, "tanh")
            fd = (clone_loss(pp) - clone_loss(pm)) / (2 * h)
            analytic = grad_theta[layer][0][idx]
            assert abs(fd - analytic) <= 1e-6 + 1e-4 * max(abs(fd), abs(analytic))

    def test_hand_computed_linear_net(self, circle):
        """Single-sample, single-layer policy: compare to the chain rule by hand."""
        rng = np.random.default_rng(3)
        W = rng.normal(size=(4, 2)) * 0.3
        b = rng.normal(size=2) * 0.1
        policy = mlp_from_layers((4, 2), ((W, b),), "tanh")
        x = rng.normal(size=4)
        u_exp = np.array([0.2, -0.1])
        clone, safety, grads = agent_loss_and_grad(policy, x[None, :], u_exp[None, :],
                                                   None, None, None, 0.0)
        z = x @ W + b
        out = np.tanh(z)
        assert clone == pytest.approx(float(((out - u_exp) ** 2).sum()))
        g_z = 2.0 * (out - u_exp) * (1.0 - out ** 2)
        assert np.allclose(grads[0][0], np.outer(x, g_z))
        assert np.allclose(grads[0][1], g_z)

    def test_safety_term_pushes_toward_higher_predicted_safety(self, circle):
        """Monotone critic: p(safe) falls with throttle, so the joint gradient
        must push the policy's throttle output down."""
        cfg = tiny_cfg(circle)
        norm = NormStats(mean=np.zeros(7), std=np.ones(7), lap_length=circle.lap_length)
        W_dyn = np.zeros((9, 6))
        W_dyn[7, 0] = 1.0
        dyn = DynModel(params=mlp_from_layers((9, 6), ((W_dyn, np.zeros(6)),)),
                       norm=norm, delta_scale=delta_scale_from(cfg.sim))
        W_clf = np.zeros((7, 1))
        W_clf[0, 0] = -4.0
        clf = SafetyClf(params=mlp_from_layers((7, 1), ((W_clf, np.zeros(1)),), "sigmoid"),
                        norm=norm)
        from cabc.critic import safety_penalty_and_input_grad
        x = np.array([[1.0, 0.0, 0.0, 3.0, 0.0, 0.0]])
        u = np.array([[0.5, 0.0]])
        _, g_u = safety_penalty_and_input_grad(clf, dyn, x, u, 2.0)
        assert g_u[0, 0] > 0.0  # descent direction reduces throttle
        assert g_u[0, 1] == pytest.approx(0.0, abs=1e-12)


class TestPolicyWrapper:
    def test_output_mode_uses_observation(self, circle):
        cfg = tiny_cfg(circle, observation_mode="output")
        params = init_policy(cfg, circle)
        pol = MlpPolicy(params, "output", circle)
        from cabc.sim import observe
        x = make_state(v=1.0, s=2.0)
        y = observe(cfg.sim, circle, x, None)
        u1 = pol(y, x)
        u2 = pol(y, make_state(v=9.9, s=9.0, xt=0.4))  # state must be ignored
        assert u1 == u2

    def test_full_state_mode_uses_state(self, circle):
        cfg = tiny_cfg(circle, observation_mode="full_state")
        params = init_policy(cfg, circle)
        pol = MlpPolicy(params, "full_state", circle)
        from cabc.sim import observe
        x1, x2 = make_state(v=1.0), make_state(v=2.0)
        y = observe(cfg.sim, circle, x1, None)
        assert pol(y, x1) != pol(y, x2)

    def test_feature_dims(self, circle):
        sim = SimConfig()
        from cabc.sim import observe
        y = observe(sim, circle, make_state(v=1.0), None)
        assert len(features_from_obs(y)) == 3 + len(sim.preview_distances)
        assert len(features_from_state(make_state(v=1.0), circle)) == 7

    def test_output_features_match_training_bits(self, gp):
        # the policy is trained on the features of ``Trajectory.y`` and driven
        # on those of each row ``observe`` hands it: one function, same bits
        cfg = SimConfig(lap_target=2)
        traj = rollout(cfg, gp, RacingExpert(cfg, gp), default_start_state(), 600,
                       rng_stream(11, 0))
        batch = features_from_obs(traj.y)
        rows = np.array([features_from_obs(tuple(y)) for y in traj.y.tolist()])
        assert batch.shape == rows.shape == traj.y.shape
        assert batch.tobytes() == rows.tobytes()
        assert np.array_equal(batch[:, 3:], traj.y[:, 3:])
        assert batch[0, :3].tolist() == [0.5 * traj.y[0, 0], 2.0 * traj.y[0, 1],
                                         0.5 * traj.y[0, 2]]

    @pytest.mark.parametrize("name", ["circle", "lshaped", "gp"])
    def test_full_state_features_match_training_bits(self, name):
        # the policy is trained on the batch features and driven on the
        # per-step ones, so the two must agree bit for bit on every state
        track = get_track(name)
        states = []
        if name == "gp":
            cfg = SimConfig(lap_target=2)
            traj = rollout(cfg, track, RacingExpert(cfg, track), default_start_state(),
                           1200, rng_stream(11, 0))
            states = traj.states[:-1].tolist()
        rng = np.random.default_rng(7)
        n, lap = 10_000, track.lap_length
        raw = np.column_stack([
            rng.uniform(0.0, 5.0, n), rng.normal(0.0, 0.5, n), rng.normal(0.0, 2.0, n),
            rng.uniform(-3.0 * lap, 5.0 * lap, n),
            rng.uniform(-track.half_width, track.half_width, n),
            rng.uniform(-math.pi / 2, math.pi / 2, n)])
        states += raw.tolist()
        batch = features_from_state_array(np.array(states), track)
        rows = np.array([features_from_state(x, track) for x in states])
        assert batch.shape == rows.shape == (len(states), 7)
        differ = np.flatnonzero((batch.view(np.int64) != rows.view(np.int64)).any(axis=1))
        assert len(differ) == 0, f"{len(differ)} of {len(states)} rows differ, first {differ[:5]}"

    def test_policy_head_must_be_bounded(self, circle):
        bad = nn.init_mlp((5, 4, 2), head="identity", seed=0)
        with pytest.raises(ValueError):
            MlpPolicy(bad, "output", circle)
