import argparse
import csv
import gzip
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from cabc import nn
from cabc.cli import main
from cabc.core import Outcome, TerminationReason, clamp_action, load_dataset, rng_stream
from cabc.evalharness import early_stop_epoch, evaluate, full_epochs
from cabc.experts import PidCenterline, RacingExpert
from cabc.reports import read_reports_csv, read_run
from cabc.sim import SimConfig

from conftest import abort_after_one_epoch, cli_refuses, make_trajectory, write_track_file


class TestEvaluate:
    def test_pid_on_circle_has_periodic_lap_times(self, circle, noiseless_sim):
        policy = PidCenterline(noiseless_sim, circle, v_ref=1.0)
        result = evaluate(policy, noiseless_sim, circle, seed=0, laps=50)
        assert result.laps_completed == 50
        assert result.terminated_by is TerminationReason.REACHED_TARGET
        assert result.lap_std < 1e-6

    def test_driving_every_requested_lap_reaches_the_target(self, circle, noiseless_sim):
        # the end does not name a lap count: three laps asked, three driven
        policy = PidCenterline(noiseless_sim, circle, v_ref=1.0)
        result = evaluate(policy, noiseless_sim, circle, seed=0, laps=3)
        assert result.laps_completed == 3
        assert result.terminated_by is TerminationReason.REACHED_TARGET
        assert result.terminated_by.value == "reached_target"

    def test_zero_policy_completes_no_laps(self, circle, noiseless_sim):
        # the standard start moves at 1 m/s, so a zero policy coasts off the
        # curve; a from-rest start would time out instead (covered in sim tests)
        result = evaluate(lambda y, x: (0.0, 0.0), noiseless_sim, circle,
                          seed=0, laps=50)
        assert result.laps_completed == 0
        assert result.terminated_by in (TerminationReason.TIMEOUT,
                                        TerminationReason.CONSTRAINT_VIOLATION)
        assert (result.lap_mean, result.lap_std, result.lap_min, result.lap_max) == (0.0,) * 4

    def test_noisy_racing_violates_for_some_seed(self, gp, noiseless_sim):
        class Noisy:
            def __init__(self, inner, rng):
                self.inner, self.rng = inner, rng

            def __call__(self, y, x):
                u = self.inner(y, x)
                n = self.rng.normal(0.0, 0.3, size=2)
                return clamp_action(u[0] + n[0], u[1] + n[1])

        violated = 0
        for seed in range(10):
            policy = Noisy(RacingExpert(noiseless_sim, gp), rng_stream(seed, 7))
            result = evaluate(policy, noiseless_sim, gp, seed=seed, laps=50)
            if (result.terminated_by is TerminationReason.CONSTRAINT_VIOLATION
                    and result.laps_completed < 50):
                violated += 1
        assert violated >= 1

    def test_singularity_is_not_a_constraint_violation(self, monkeypatch, circle,
                                                       noiseless_sim):
        import cabc.evalharness as eval_mod
        from dataclasses import replace

        from cabc.core import Outcome

        def singular_rollout(*args, **kw):
            return replace(make_trajectory(0, Outcome.FAILURE),
                           termination_reason=TerminationReason.SINGULARITY)

        monkeypatch.setattr(eval_mod, "rollout", singular_rollout)
        result = evaluate(lambda y, x: (0.0, 0.0), noiseless_sim, circle,
                          seed=0, laps=50)
        assert result.laps_completed == 0
        assert result.terminated_by is TerminationReason.SINGULARITY

    def test_statistics_match_lap_list(self, circle, noiseless_sim):
        policy = PidCenterline(noiseless_sim, circle, v_ref=1.0)
        result = evaluate(policy, noiseless_sim, circle, seed=0, laps=7)
        arr = np.asarray(result.lap_times)
        assert len(arr) == result.laps_completed
        assert result.lap_mean == pytest.approx(arr.mean())
        assert result.lap_std == pytest.approx(arr.std())
        assert result.lap_min == arr.min() and result.lap_max == arr.max()

    def test_evaluation_does_not_mutate_policy(self, circle, noiseless_sim):
        from cabc import nn
        from cabc.trainer import MlpPolicy, TrainConfig, init_policy
        cfg = TrainConfig(hidden=(8,), sim=noiseless_sim)
        params = init_policy(cfg, circle)
        snapshot = [(W.copy(), b.copy()) for W, b in params.weights]
        evaluate(MlpPolicy(params, "output", circle), noiseless_sim, circle,
                 seed=1, laps=2)
        for (W, b), (W0, b0) in zip(params.weights, snapshot):
            assert np.array_equal(W, W0) and np.array_equal(b, b0)

    def test_rejects_fewer_than_one_lap(self, circle, noiseless_sim):
        # zero laps used to report a full evaluation with no lap driven
        for laps in (0, -1):
            with pytest.raises(ValueError, match="laps"):
                evaluate(PidCenterline(noiseless_sim, circle), noiseless_sim, circle,
                         seed=0, laps=laps)


class Recorder:
    """Forwards to ``inner`` and records every observation it is handed.

    It reads the observation exactly when ``inner`` does, so it copies the
    inner policy's ``state_feedback`` marker.
    """

    def __init__(self, inner):
        self.inner = inner
        self.seen = []
        self.state_feedback = getattr(inner, "state_feedback", False)

    def __call__(self, y, x):
        self.seen.append(y)
        return self.inner(y, x)


class Observed:
    """Forwards to ``inner`` unmarked, so every rollout observes it."""

    def __init__(self, inner):
        self.inner = inner

    def __call__(self, y, x):
        return self.inner(y, x)


@pytest.fixture
def observe_calls(monkeypatch):
    """Counts the calls of ``sim.observe`` that rollouts make."""
    import cabc.sim as sim_mod
    calls = []
    inner = sim_mod.observe

    def counting(*args, **kwargs):
        calls.append(args[2])
        return inner(*args, **kwargs)

    monkeypatch.setattr(sim_mod, "observe", counting)
    return calls


def _full_state_policy(track, seed=4):
    from cabc.trainer import MlpPolicy, TrainConfig, init_policy
    cfg = TrainConfig(seed=seed, hidden=(16, 16), observation_mode="full")
    return MlpPolicy(init_policy(cfg, track), "full", track)


def _output_policy(track, seed=4):
    from cabc.trainer import MlpPolicy, TrainConfig, init_policy
    cfg = TrainConfig(seed=seed, hidden=(16, 16))
    return MlpPolicy(init_policy(cfg, track), "output", track)


class TestStateFeedback:
    """Evaluation and the rollout figure skip the output map for policies
    that never read it, and nothing they report changes."""

    def test_markers(self, circle):
        sim = SimConfig()
        assert PidCenterline(sim, circle).state_feedback is True
        assert RacingExpert(sim, circle).state_feedback is True
        assert _full_state_policy(circle).state_feedback is True
        assert _output_policy(circle).state_feedback is False

    @pytest.mark.parametrize("make", [
        lambda sim, track: PidCenterline(sim, track),
        lambda sim, track: RacingExpert(sim, track),
        lambda sim, track: _full_state_policy(track),
    ])
    def test_state_feedback_is_never_observed(self, make, circle, observe_calls, tmp_path):
        from cabc.reports import policy_rollout_figure
        sim = SimConfig()
        policy = Recorder(make(sim, circle))
        evaluate(policy, sim, circle, seed=3, laps=2)
        policy_rollout_figure(policy, sim, circle, seed=3, out_path=tmp_path / "f.svg",
                              laps=2)
        assert policy.seen and set(policy.seen) == {None}
        assert observe_calls == []

    def test_rollout_records_no_observation(self, circle):
        from cabc.sim import default_start_state, rollout
        sim = SimConfig()
        skipped = rollout(sim, circle, PidCenterline(sim, circle), default_start_state(),
                          50, rng_stream(0), observe_unread=False)
        kept = rollout(sim, circle, PidCenterline(sim, circle), default_start_state(),
                       50, rng_stream(0))
        assert (len(skipped), skipped.y) == (50, None)
        assert kept.y.shape == (50, 3 + len(sim.preview_distances))
        for name in ("states", "u_expert", "u_applied"):
            assert np.array_equal(getattr(skipped, name), getattr(kept, name)), name

    @pytest.mark.parametrize("case", ["pid_circle", "racing_gp", "full_state_gp"])
    def test_results_equal_forced_observation(self, case, circle, gp, observe_calls):
        sim = SimConfig()
        track, make = {
            "pid_circle": (circle, lambda: PidCenterline(sim, circle)),
            "racing_gp": (gp, lambda: RacingExpert(sim, gp)),
            "full_state_gp": (gp, lambda: _full_state_policy(gp, seed=9)),
        }[case]
        skipped = evaluate(make(), sim, track, seed=17, laps=10)
        assert observe_calls == []
        observed = evaluate(Observed(make()), sim, track, seed=17, laps=10)
        assert observe_calls
        assert skipped == observed
        if case != "full_state_gp":
            assert skipped.laps_completed == 10

    def test_figure_equals_forced_observation(self, gp, tmp_path):
        from cabc.reports import policy_rollout_figure
        sim = SimConfig()
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        policy_rollout_figure(RacingExpert(sim, gp), sim, gp, seed=5, out_path=a, laps=2)
        policy_rollout_figure(Observed(RacingExpert(sim, gp)), sim, gp, seed=5,
                              out_path=b, laps=2)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("kind", ["output", "mixed"])
    def test_observation_readers_are_observed(self, kind, circle, observe_calls, tmp_path):
        from cabc.reports import policy_rollout_figure
        from cabc.trainer import MixedPolicy
        sim = SimConfig()
        if kind == "output":
            inner = _output_policy(circle)
        else:
            # even a mixture of two state-feedback policies is observed
            inner = MixedPolicy(PidCenterline(sim, circle), _full_state_policy(circle),
                                0.5, rng_stream(2, 1), sigma_u=0.1)
        policy = Recorder(inner)
        evaluate(policy, sim, circle, seed=3, laps=2)
        policy_rollout_figure(policy, sim, circle, seed=3, out_path=tmp_path / "f.svg",
                              laps=2)
        assert policy.seen
        width = 3 + len(sim.preview_distances)
        assert all(type(y) is tuple and len(y) == width for y in policy.seen)
        assert len(observe_calls) == len(policy.seen)


class TestEarlyStop:
    def test_triggers_on_second_full_run(self):
        laps = []
        for n, expect in ((50, None), (49, None), (50, 2)):
            laps.append(n)
            assert early_stop_epoch(laps, 50) == expect

    def test_single_full_run_is_not_enough(self):
        assert early_stop_epoch([50], 50) is None

    def test_never_triggers_below_threshold(self):
        assert early_stop_epoch([49] * 100, 50) is None

    def test_full_epochs_are_those_that_drove_full_laps(self):
        laps = [0, 3, 2, 5, 3]
        assert full_epochs(laps, 3) == [1, 3, 4]
        assert early_stop_epoch(laps, 3) == full_epochs(laps, 3)[1]
        assert full_epochs(laps, 6) == [] and full_epochs([], 3) == []


def run_cli(*argv) -> int:
    return main(list(argv))


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    """A tiny CA training run driven through the CLI."""
    root = tmp_path_factory.mktemp("runs")
    cfg_path = root / "smoke.cfg"
    cfg_path.write_text(
        "epochs = 3\nmax_steps = 400\nactuation_noise_sigma = 0.1\n"
        "hidden = 16,16\ngrad_steps_policy = 30\ngrad_steps_dyn = 20\n"
        "grad_steps_clf = 20\nlambda = 1.0\nseed = 5\neval_laps = 3\n")
    out = root / "run_ca"
    code = run_cli("train", "--method", "ca", "--track", "circle", "--expert", "pid",
                   "--obs", "output", "--config", str(cfg_path), "--out", str(out))
    assert code == 0
    return root, cfg_path, out


class TestCli:
    def test_train_writes_run_directory(self, smoke_run):
        _, _, out = smoke_run
        for name in ("config.txt", "meta.json", "reports.csv", "policy.npz",
                     "trajectories.jsonl.gz", "critic"):
            assert os.path.exists(out / name), name
        rows = read_reports_csv(out / "reports.csv")
        assert len(rows) == 3
        with open(out / "meta.json") as fh:
            meta = json.load(fh)
        assert "expert_lap_mean" in meta
        # config.txt holds the method, feedback mode and evaluation laps, and
        # meta.json repeats none of them
        assert not {"method", "observation_mode", "eval_laps"} & set(meta)
        assert "method = ca\n" in (out / "config.txt").read_text()

    def test_run_directory_weights_are_npz(self, smoke_run):
        _, _, out = smoke_run
        ckpts = sorted(os.listdir(out / "checkpoints"))
        assert ckpts == ["epoch_0000", "epoch_0001"]
        for d in ckpts:
            assert os.listdir(out / "checkpoints" / d) == ["policy.npz"]
        assert sorted(os.listdir(out / "critic")) == ["clf.npz", "dyn.npz", "norm.json"]
        # the last epoch's checkpoint became the final policy: it is not duplicated
        final = (out / "policy.npz").read_bytes()
        assert all(final != (out / "checkpoints" / d / "policy.npz").read_bytes()
                   for d in ckpts)
        assert sorted(p.name for p in out.rglob("*.json")) == ["meta.json", "norm.json"]

    def test_saved_dataset_loads(self, smoke_run):
        _, _, out = smoke_run
        from cabc.core import load_dataset
        trajs = load_dataset(out / "trajectories.jsonl.gz")
        assert len(trajs) == 6  # 3 epochs x 2 episodes

    def test_eval_subcommand_rejects_zero_laps(self, smoke_run, capsys):
        _, cfg_path, out = smoke_run
        assert cli_refuses(capsys, "eval", "--weights", str(out / "policy.npz"), "--track",
                           "circle", "--laps", "0", "--config", str(cfg_path)
                           ) == "argument --laps: must be at least 1, got 0"

    def test_train_validates_config_for_the_command_line_method(self, tmp_path, capsys):
        cfg_path = tmp_path / "b1.cfg"
        cfg_path.write_text("epochs = 1\nmax_steps = 100\nhidden = 8\nbatch_size = 1\n"
                            "grad_steps_policy = 2\neval_laps = 1\n")
        # a one-row batch is fine for plain cloning, but CA needs both classes
        assert "batch_size" in cli_refuses(
            capsys, "train", "--method", "ca", "--track", "circle", "--expert", "pid",
            "--config", str(cfg_path), "--out", str(tmp_path / "ca"))
        assert not (tmp_path / "ca").exists()
        assert run_cli("train", "--method", "bc", "--track", "circle", "--expert", "pid",
                       "--config", str(cfg_path), "--out", str(tmp_path / "bc")) == 0
        assert "method = bc\n" in (tmp_path / "bc" / "config.txt").read_text()

    def test_eval_subcommand(self, smoke_run, capsys):
        _, cfg_path, out = smoke_run
        code = run_cli("eval", "--weights", str(out / "policy.npz"),
                       "--track", "circle", "--obs", "output", "--seed", "3",
                       "--laps", "2", "--config", str(cfg_path))
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) >= {"laps_completed", "terminated_by", "lap_mean"}

    def test_eval_rejects_weights_of_the_other_observation_mode(self, smoke_run, capsys):
        # the smoke policy reads 13 output features; --obs full would feed it 7
        _, cfg_path, out = smoke_run
        assert re.search(r"takes 13 inputs, but observation mode 'full' gives 7$", cli_refuses(
            capsys, "eval", "--weights", str(out / "policy.npz"), "--track", "circle",
            "--obs", "full", "--laps", "1", "--config", str(cfg_path)))

    def test_a_policy_that_gives_no_action_pair_is_refused(self, smoke_run, tmp_path, capsys):
        """A 13 -> 3 policy is refused with the settings: ``eval`` runs no lap and
        ``report`` writes no chart."""
        _, cfg_path, out = smoke_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        nn.save_weights(nn.init_mlp((13, 8, 3), head="tanh", seed=0), run / "policy.npz")
        want = f"{run / 'policy.npz'}: the policy gives 3 outputs, but an action is the 2 of "
        assert cli_refuses(capsys, "eval", "--weights", str(run / "policy.npz"), "--track",
                           "circle", "--laps", "1", "--config", str(cfg_path)
                           ).startswith(want)
        assert cli_refuses(capsys, "report", "--run", str(run), "--out", str(tmp_path / "rep")
                           ).startswith(want)
        assert not (tmp_path / "rep").exists()

    def test_report_names_a_track_missing_from_meta(self, smoke_run, tmp_path, capsys):
        """The error names the file and the key, not the bare key."""
        _, _, out = smoke_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        meta = json.loads((run / "meta.json").read_text())
        del meta["track"]
        (run / "meta.json").write_text(json.dumps(meta))
        assert cli_refuses(capsys, "report", "--run", str(run), "--out", str(tmp_path / "rep")
                           ) == (f"{run / 'meta.json'} has no 'track' key, which "
                                 f"{run / 'policy.npz'} needs")
        assert not (tmp_path / "rep").exists()

    def test_eval_reports_missing_weights(self, tmp_path, capsys):
        missing = tmp_path / "nonexistent.npz"
        assert cli_refuses(capsys, "eval", "--weights", str(missing), "--track", "circle",
                           "--laps", "1") == f"no weight archive at {missing}"

    def test_report_refuses_an_unknown_observation_mode(self, smoke_run, tmp_path, capsys):
        """``config.txt`` names the mode the run's policy reads; an unknown one is refused."""
        _, _, out = smoke_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        text = (run / "config.txt").read_text()
        assert "observation_mode = output\n" in text
        (run / "config.txt").write_text(text.replace("observation_mode = output\n",
                                                     "observation_mode = image\n"))
        assert cli_refuses(capsys, "report", "--run", str(run), "--out", str(tmp_path / "rep")
                           ).startswith("observation_mode must be")
        assert not (tmp_path / "rep").exists()

    def test_report_refuses_an_out_that_is_a_file(self, smoke_run, tmp_path, capsys):
        """``--out RUN/config.txt`` used to end in a ``FileExistsError`` traceback."""
        _, _, out = smoke_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        before = (run / "config.txt").read_bytes()
        assert cli_refuses(capsys, "report", "--run", str(run), "--out", str(run / "config.txt")
                           ) == f"--out {run / 'config.txt'} exists and is not a directory"
        assert (run / "config.txt").read_bytes() == before
        # an existing directory takes the report
        assert run_cli("report", "--run", str(run), "--out", str(run)) == 0
        assert (run / "laps_vs_epoch.svg").exists()

    def test_report_reads_a_run_written_before_meta_lost_its_settings(self, smoke_run,
                                                                    tmp_path, capsys):
        """Old ``meta.json`` keys are ignored; a ``config.txt`` key that no
        longer exists is refused by its name."""
        _, _, out = smoke_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        meta = json.loads((run / "meta.json").read_text())
        (run / "meta.json").write_text(json.dumps(
            {**meta, "method": "bc", "observation_mode": "image", "eval_laps": 1}))
        for name, src in (("old", run), ("new", out)):
            assert run_cli("report", "--run", str(src), "--out", str(tmp_path / name)) == 0
        capsys.readouterr()
        names = sorted(os.listdir(tmp_path / "new"))
        assert sorted(os.listdir(tmp_path / "old")) == names and len(names) == 7
        for name in names:
            assert (tmp_path / "old" / name).read_bytes() == (tmp_path / "new" / name).read_bytes()
        with open(run / "config.txt", "a") as fh:
            fh.write("preview_distances = 0.5,1.0\n")
        assert "unknown key 'preview_distances'" in cli_refuses(
            capsys, "report", "--run", str(run), "--out", str(tmp_path / "rep1"))
        assert not (tmp_path / "rep1").exists()

    def test_read_run_gives_the_config_train_ran_with(self, monkeypatch, tmp_path):
        import cabc.cli as cli_mod

        ran = []
        real_train = cli_mod.train

        def recording_train(cfg, *args, **kw):
            ran.append(cfg)
            return real_train(cfg, *args, **kw)

        monkeypatch.setattr(cli_mod, "train", recording_train)
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text("epochs = 1\nhidden = 8,4\ngrad_steps_policy = 5\neval_laps = 1\n"
                            "lambda = 0.25\npreview_k = 2\npreview_spacing = 0.7\n"
                            "dt = 0.03\nv_ref = 1.5\n")
        out = tmp_path / "run"
        assert run_cli("train", "--method", "bc", "--obs", "full", "--track", "circle",
                       "--expert", "pid", "--seed", "7", "--config", str(cfg_path),
                       "--out", str(out)) == 0
        cfg, meta, rows = read_run(out)
        assert cfg == ran[0]
        assert (cfg.method, cfg.observation_mode, cfg.seed, cfg.lam) == ("bc", "full", 7, 0.25)
        assert meta["track"] == "circle" and len(rows) == 1

    @pytest.mark.parametrize("obs", ["output", "full"])
    def test_a_run_config_trains_the_run_again(self, tmp_path, obs):
        """With no --obs or --seed, a run's ``config.txt`` trains that run again: a
        full-state run's config used to train output feedback and record it."""
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text("epochs = 1\nhidden = 8\ngrad_steps_policy = 5\neval_laps = 1\n"
                            "lambda = 0.25\nv_ref = 1.25\n")
        args = ("train", "--method", "bc", "--track", "circle", "--expert", "pid")
        run, again = tmp_path / "run", tmp_path / "again"
        assert run_cli(*args, "--obs", obs, "--seed", "7", "--config", str(cfg_path),
                       "--out", str(run)) == 0
        assert run_cli(*args, "--config", str(run / "config.txt"), "--out", str(again)) == 0
        text = (run / "config.txt").read_text()
        assert "\nseed = 7\n" in text and f"\nobservation_mode = {obs}\n" in text
        for name in ("config.txt", "reports.csv", "policy.npz"):
            assert (again / name).read_bytes() == (run / name).read_bytes(), name

    def test_eval_reads_the_feedback_and_laps_from_a_run_config(self, monkeypatch, tmp_path,
                                                                capsys):
        """``--obs`` and ``--laps`` replace the config's values only when given."""
        import cabc.cli as cli_mod

        calls = []
        real_evaluate = cli_mod.evaluate

        def recording(policy, *args, **kw):
            calls.append((policy.state_feedback, kw["laps"]))
            return real_evaluate(policy, *args, **kw)

        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text("epochs = 0\nhidden = 8\neval_laps = 2\n")
        run = tmp_path / "run"
        assert run_cli("train", "--method", "bc", "--obs", "full", "--track", "circle",
                       "--expert", "pid", "--config", str(cfg_path), "--out", str(run)) == 0
        monkeypatch.setattr(cli_mod, "evaluate", recording)
        evaluate_run = ("eval", "--weights", str(run / "policy.npz"), "--track", "circle")
        assert run_cli(*evaluate_run, "--config", str(run / "config.txt")) == 0
        assert run_cli(*evaluate_run, "--config", str(run / "config.txt"), "--laps", "1") == 0
        assert calls == [(True, 2), (True, 1)]
        capsys.readouterr()
        # without the config, the policy is read as output feedback, which it is not
        assert "observation mode 'output' gives 13" in cli_refuses(capsys, *evaluate_run)

    def test_a_ca_run_whose_collection_fails_labels_and_fits_its_classifier(self, tmp_path):
        """The smoke run collects no failure; this one labels D- and fits the
        classifier, and its report marks each fit."""
        cfg_path = tmp_path / "noisy.cfg"
        cfg_path.write_text("epochs = 3\nk_p = 1\nactuation_noise_sigma = 0.6\n"
                            "max_steps = 400\nhidden = 16,16\ngrad_steps_policy = 20\n"
                            "grad_steps_dyn = 20\ngrad_steps_clf = 20\neval_laps = 1\n"
                            "seed = 5\n")
        out, rep = tmp_path / "run", tmp_path / "rep"
        assert run_cli("train", "--method", "ca", "--track", "circle", "--expert", "pid",
                       "--config", str(cfg_path), "--out", str(out)) == 0
        rows = read_reports_csv(out / "reports.csv")
        assert rows[-1]["n_minus"] > 0
        assert int(load_dataset(out / "pool.jsonl.gz").sum()) == rows[-1]["n_minus"]
        fits = {r["clf_fit_epoch"] for r in rows} - {-1}
        assert fits and rows[-1]["clf_fit_epoch"] >= 0
        assert run_cli("report", "--run", str(out), "--out", str(rep)) == 0
        svg = ET.parse(rep / "laps_vs_epoch.svg")
        texts = [e.text for e in svg.iter("{http://www.w3.org/2000/svg}text")]
        assert texts.count("clf fit") == len(fits)

    def test_report_emits_charts(self, smoke_run, tmp_path):
        _, _, out = smoke_run
        rep = tmp_path / "rep"
        code = run_cli("report", "--run", str(out), "--out", str(rep))
        assert code == 0
        for name in ("laps_vs_epoch.svg", "imitation_loss.svg", "laptime_stats.svg",
                     "trajectory_xy.svg"):
            path = rep / name
            assert path.exists()
            ET.parse(path)  # valid XML

    def test_report_with_baseline_overlay(self, smoke_run, tmp_path):
        root, cfg_path, out = smoke_run
        out_bc = root / "run_bc"
        assert run_cli("train", "--method", "bc", "--track", "circle", "--expert",
                       "pid", "--obs", "output", "--config", str(cfg_path),
                       "--out", str(out_bc)) == 0
        rep = tmp_path / "rep_cmp"
        assert run_cli("report", "--run", str(out), "--baseline", str(out_bc),
                       "--out", str(rep)) == 0
        assert (rep / "laps_vs_epoch.svg").exists()

    def test_zero_epoch_run_reports(self, tmp_path, capsys):
        cfg_path = tmp_path / "zero.cfg"
        cfg_path.write_text("epochs = 0\nhidden = 8\neval_laps = 1\n")
        out = tmp_path / "run"
        assert run_cli("train", "--method", "bc", "--track", "circle", "--expert", "pid",
                       "--config", str(cfg_path), "--out", str(out)) == 0
        assert "done: 0 epochs" in capsys.readouterr().out
        assert read_reports_csv(out / "reports.csv") == []
        rep = tmp_path / "rep"
        assert run_cli("report", "--run", str(out), "--out", str(rep)) == 0
        ET.parse(rep / "laps_vs_epoch.svg")

    def test_report_with_a_missing_baseline_makes_no_out(self, smoke_run, tmp_path, capsys):
        _, _, out = smoke_run
        rep = tmp_path / "rep"
        missing = tmp_path / "nothere"
        assert cli_refuses(capsys, "report", "--run", str(out), "--baseline", str(missing),
                           "--out", str(rep)) == (
            f"missing run files: {missing / 'config.txt'}, {missing / 'meta.json'}, "
            f"{missing / 'reports.csv'}")
        assert not rep.exists()

    def test_abbreviated_option_is_refused(self, tmp_path, capsys):
        """``--se`` used to be read as ``--seed``."""
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exited:
            run_cli("train", "--method", "bc", "--track", "circle", "--se", "3",
                    "--out", str(out))
        assert exited.value.code == 2
        assert "unrecognized arguments: --se 3" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_preview_k_run_records_its_spacing(self, tmp_path):
        """Without a preview the snapshot used to record a spacing of 1.0."""
        cfg_path = tmp_path / "zero.cfg"
        cfg_path.write_text("epochs = 0\nhidden = 8\neval_laps = 1\n"
                            "preview_k = 0\npreview_spacing = 2\n")
        out = tmp_path / "run"
        assert run_cli("train", "--method", "bc", "--track", "circle", "--expert", "pid",
                       "--config", str(cfg_path), "--out", str(out)) == 0
        text = (out / "config.txt").read_text()
        assert "preview_k = 0\npreview_spacing = 2.0\n" in text

    def test_report_on_empty_rundir_lists_missing(self, tmp_path, capsys):
        message = cli_refuses(capsys, "report", "--run", str(tmp_path / "nothing"),
                              "--out", str(tmp_path / "out"))
        for name in ("config.txt", "meta.json", "reports.csv"):
            assert str(tmp_path / "nothing" / name) in message
        assert not (tmp_path / "out").exists()

    def test_repeat_runs_are_byte_identical(self, smoke_run, tmp_path_factory):
        """Golden determinism: a repeated invocation reproduces the CSV exactly."""
        root, cfg_path, out = smoke_run
        out2 = root / "run_ca_repeat"
        assert run_cli("train", "--method", "ca", "--track", "circle", "--expert",
                       "pid", "--obs", "output", "--config", str(cfg_path),
                       "--out", str(out2)) == 0
        a = (out / "reports.csv").read_bytes()
        b = (out2 / "reports.csv").read_bytes()
        assert a == b

    def test_sim_subcommand_renders(self, tmp_path, capsys):
        svg = tmp_path / "race.svg"
        code = run_cli("sim", "--expert", "racing", "--track", "gp", "--laps", "1",
                       "--render", str(svg))
        assert code == 0
        ET.parse(svg)

    def test_sim_refuses_a_render_path_it_cannot_write(self, tmp_path, capsys):
        """The render path is checked with the settings, before the evaluation."""
        svg = tmp_path / "missing" / "race.svg"
        args = ("sim", "--expert", "pid", "--track", "circle", "--laps", "1", "--render")
        assert cli_refuses(capsys, *args, str(svg)) == (
            f"--render {svg}: no directory {tmp_path / 'missing'}")
        assert cli_refuses(capsys, *args, str(tmp_path)) == f"--render {tmp_path} is a directory"
        assert os.listdir(tmp_path) == []

    def test_labeldemo_outputs(self, tmp_path):
        out = tmp_path / "demo"
        code = run_cli("labeldemo", "--set", "crescent", "--rho", "0.5", "--n", "200",
                       "--grid", "40", "--out", str(out), "--seed", "1")
        assert code == 0
        assert (out / "decision_grid_rho0p5.csv").exists()
        ET.parse(out / "overlay_rho0p5.svg")
        # coordinates are written as plain floats, never as numpy scalar reprs;
        # samples.csv holds both pools, points_<tag>.csv the query points
        for name, n_rows in (("samples.csv", 400), ("points_rho0p5.csv", 200)):
            with open(out / name, newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == n_rows
            for row in rows:
                float(row["x"]), float(row["y"])

    def test_labeldemo_writes_its_summary(self, tmp_path, capsys):
        out = tmp_path / "demo"
        code = run_cli("labeldemo", "--set", "sector", "--rho", "0.5,1.0,0.25", "--n", "200",
                       "--grid", "40", "--out", str(out), "--seed", "1")
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["set"], row["rho"]) for row in rows] == [
            ("sector", "0.5"), ("sector", "1.0"), ("sector", "0.25")]
        for row, tag, line in zip(rows, ("rho0p5", "rho1", "rho0p25"), printed, strict=True):
            with open(out / f"points_{tag}.csv", newline="") as fh:
                removed = sum(point["removed"] == "1" for point in csv.DictReader(fh))
            assert int(row["removed"]) == removed
            assert row["violations"] == "0"
            assert f"({int(row['incorrect_removals'])} outside the true set)" in line
            assert 0.0 <= float(row["balanced_accuracy"]) <= 1.0

    def test_labeldemo_rebuilds_the_per_radius_rows(self, tmp_path):
        """``samples.csv`` and each ``points_<tag>.csv`` give back the rows one
        radius's points file held before the samples moved out of it: every
        sample that radius labeled, its exact signed distance, its label (1
        plus, -1 removed query, 0 kept query) and its removed flag."""
        from cabc.autolabel import SyntheticSet, label_synthetic, sample_box

        out = tmp_path / "demo"
        assert run_cli("labeldemo", "--set", "crescent", "--rho", "1.0,0.25", "--n", "150",
                       "--grid", "10", "--out", str(out), "--seed", "4") == 0
        synth = SyntheticSet.crescent()
        with open(out / "samples.csv", newline="") as fh:
            samples = list(csv.DictReader(fh))
        for rho, tag in ((1.0, "rho1"), (0.25, "rho0p25")):
            with open(out / f"points_{tag}.csv", newline="") as fh:
                decided = iter(list(csv.DictReader(fh)))
            rebuilt = []
            for row in samples:
                label, removed = "1", "0"
                if row["pool"] == "query":
                    point = next(decided)
                    assert (point["x"], point["y"]) == (row["x"], row["y"])
                    removed = point["removed"]
                    label = "-1" if removed == "1" else "0"
                rebuilt.append((row["x"], row["y"], row["true_sdf"], label, removed))
            assert next(decided, None) is None

            # a float's repr reads back to its bits, so equal text is equal bits
            rng = rng_stream(4)
            plus = synth.sample_inside(150, rng)
            query = sample_box(150, rng)
            mask = label_synthetic(plus, query, rho)
            want = [(repr(x), repr(y), repr(d), "1", "0") for (x, y), d in
                    zip(plus.tolist(), synth.signed_distance(plus).tolist())]
            want += [(repr(x), repr(y), repr(d), "-1" if rm else "0", "1" if rm else "0")
                     for (x, y), d, rm in zip(query.tolist(),
                                              synth.signed_distance(query).tolist(),
                                              mask.tolist())]
            assert rebuilt == want

    def test_labeldemo_passes_start_at_their_labeling_call(self, tmp_path, monkeypatch):
        """Each radius's pass begins with its own ``label_synthetic`` call, before
        it writes anything: a benchmark marks the passes there."""
        import cabc.cli

        out = tmp_path / "demo"
        label_synthetic, seen = cabc.cli.label_synthetic, []

        def recording(*args, **kwargs):
            seen.append(sorted(os.listdir(out)))
            return label_synthetic(*args, **kwargs)

        monkeypatch.setattr(cabc.cli, "label_synthetic", recording)
        assert run_cli("labeldemo", "--set", "disk", "--rho", "1.0,0.5", "--n", "60",
                       "--grid", "8", "--out", str(out), "--seed", "2") == 0
        first_pass = ["decision_grid_rho1.csv", "overlay_rho1.svg", "points_rho1.csv",
                      "samples.csv", "summary.csv"]
        assert seen == [[], first_pass]
        assert sorted(os.listdir(out)) == sorted(
            first_pass + ["decision_grid_rho0p5.csv", "overlay_rho0p5.svg",
                          "points_rho0p5.csv"])

    def test_labeldemo_csv_bytes_match_csv_writer(self, tmp_path):
        """Every CSV is written by ``reports.write_csv``, byte for byte what a
        ``csv.writer`` loop writes for cabc's values, and a float reads back
        bit for bit."""
        from cabc.cli import write_grid_csv
        from cabc.reports import write_csv

        special = [0.0, -0.0, 1e-300, 5e-324, -1e300, 0.1, 1 / 3, math.nan, math.inf,
                   -math.inf]
        rows = [special, [1, -2, 0, True, False, "plus", "query", "", "y\\x", 7],
                ["", 2.5, "", 1, 0.0, True, "a b", -0.0, "", ""], [3, "", 1e-17, False]]
        header = ["x", "y", "true_sdf", "pool", "", "removed", "a", "b", "c", "d"]
        write_csv(tmp_path / "rows.csv", header, iter(rows))
        with open(tmp_path / "ref.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        write_csv(tmp_path / "empty.csv", header, [])
        assert (tmp_path / "empty.csv").read_bytes() == b"x,y,true_sdf,pool,,removed,a,b,c,d\r\n"

        # the p(safe) matrix reads back to the grid bit for bit: nan, +-inf,
        # -0.0, subnormals
        rng = np.random.default_rng(6)
        xs, ys = np.linspace(-5.0, 5.0, 7), np.linspace(-5.0, 5.0, 9)
        probs = rng.random((len(ys), len(xs)))
        probs[0, :3] = (0.0, 1.0, 1e-17)
        probs[1:6, :2] = np.reshape(special, (5, 2))
        write_grid_csv(tmp_path / "grid.csv", xs, ys, probs)
        with open(tmp_path / "grid.csv", newline="") as fh:
            (corner, *header), *rows = list(csv.reader(fh))
        got = np.array([[float(v) for v in row] for row in rows])
        assert corner == "y\\x"
        for want, have in ((xs, np.array(header, dtype=float)), (ys, got[:, 0]),
                           (probs, got[:, 1:])):
            assert np.array_equal(want.view(np.int64), have.view(np.int64))

    def test_labeldemo_rejects_negative_rho(self, tmp_path, capsys):
        out = tmp_path / "demo"
        out.mkdir()
        for rho in ("-0.5", "1.0,-0.5"):
            assert "--rho" in cli_refuses(capsys, "labeldemo", f"--rho={rho}", "--n", "50",
                                          "--grid", "10", "--out", str(out))
            assert not list(out.iterdir())   # not even the valid radius's files

    @pytest.mark.parametrize("args, name", [
        (("--rho", ","), "--rho"), (("--rho", "0.5,nan"), "--rho"), (("--rho", "inf"), "--rho"),
        (("--rho", "0.5,x"), "--rho"), (("--n", "0"), "--n"), (("--grid", "1"), "--grid"),
        (("--grid", "0"), "--grid"),
        # radii with one file tag (rho1, rho0p123457): the second pass would
        # overwrite the first pass's files; the ids are those of the messages
        # from before the parser checked --rho
        pytest.param(("--rho", "1,0.5,1.0"),
                     "--rho: radius 1.0 repeats the file tag 'rho1' of radius 1.0",
                     id="args7---rho radius 1.0 repeats the file tag 'rho1'"),
        pytest.param(("--rho", "0.1234567,0.1234568"), "--rho: radius 0.1234568 repeats",
                     id="args8---rho radius 0.1234568 repeats"),
    ])
    def test_labeldemo_checks_arguments_before_writing(self, tmp_path, capsys, args, name):
        out = tmp_path / "demo"
        out.mkdir()
        assert name in cli_refuses(capsys, "labeldemo", "--n", "50", "--grid", "10", *args,
                                   "--out", str(out))
        assert not list(out.iterdir())

    def test_train_rejects_a_negative_checkpoint_cadence(self, tmp_path, capsys):
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text("epochs = 2\nmax_steps = 100\nhidden = 8\n"
                            "grad_steps_policy = 2\neval_laps = 1\n")
        assert cli_refuses(capsys, "train", "--method", "bc", "--track", "circle", "--expert",
                           "pid", "--config", str(cfg_path), "--out", str(tmp_path / "run"),
                           "--checkpoint-every", "-1"
                           ) == "argument --checkpoint-every: must be at least 0, got -1"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command, args", [
        ("train", ("--method", "bc", "--track", "circle", "--expert", "pid", "--seed", "-1")),
        ("train", ("--method", "bc", "--track", "circle", "--expert", "pid",
                   "--config", "SEED_FILE")),
        ("eval", ("--weights", "missing.npz", "--track", "circle", "--seed", "-1")),
        ("sim", ("--expert", "pid", "--track", "circle", "--seed", "-1", "--render", "OUT")),
        ("labeldemo", ("--n", "50", "--grid", "10", "--seed", "-1")),
    ], ids=["train", "train-config", "eval", "sim", "labeldemo"])
    def test_negative_seed_is_refused_before_writing(self, tmp_path, capsys, command, args):
        seed_file = tmp_path / "seed.cfg"
        seed_file.write_text("seed = -1\n")
        out = tmp_path / "out"
        args = [str(seed_file) if a == "SEED_FILE" else str(out) if a == "OUT" else a
                for a in args]
        if command in ("train", "labeldemo"):
            args += ["--out", str(out)]
        # a --seed option is refused by the parser, a seed key by TrainConfig
        want = ("seed must be non-negative, got -1" if "--config" in args
                else "argument --seed: must be at least 0, got -1")
        assert cli_refuses(capsys, command, *args) == want
        assert not out.exists()

    @pytest.mark.parametrize("expert, line", [
        ("racing", "race_lookahead = inf"),
        ("racing", "race_lookahead = nan"),
        ("racing", "race_lookahead = -1"),
        ("racing", "race_kappa_floor = 0"),
        ("racing", "race_pursuit_dist = 0"),
        ("racing", "race_alat_max = -1"),
        ("racing", "race_kp_v = inf"),
        ("pid", "pid_kp_v = nan"),
        ("pid", "v_ref = nan"),
    ])
    @pytest.mark.parametrize("command", ["sim", "train"])
    def test_expert_setting_is_refused_before_writing(self, tmp_path, capsys, command,
                                                      expert, line):
        """Each of these used to hang, crash mid-rollout or quietly drop the setting."""
        cfg_path = tmp_path / "expert.cfg"
        cfg_path.write_text(line + "\n")
        out = tmp_path / "out"
        track = "circle" if expert == "pid" else "gp"
        args = ["--expert", expert, "--track", track, "--config", str(cfg_path)]
        args += (["--laps", "1", "--render", str(out)] if command == "sim"
                 else ["--method", "bc", "--out", str(out)])
        key = line.split(" = ")[0]
        assert re.match(f"{key} must be", cli_refuses(capsys, command, *args))
        assert not out.exists()

    @pytest.mark.parametrize("line", ["preview_k = -3", "preview_spacing = -1",
                                      "preview_spacing = nan", "preview_spacing = inf"])
    @pytest.mark.parametrize("command", ["sim", "train"])
    def test_preview_setting_is_refused_before_writing(self, tmp_path, capsys, command, line):
        """``preview_k = -3`` used to train without a preview and snapshot ``preview_k = 0``."""
        cfg_path = tmp_path / "preview.cfg"
        cfg_path.write_text(line + "\n")
        out = tmp_path / "out"
        args = ["--expert", "pid", "--track", "circle", "--config", str(cfg_path)]
        args += (["--laps", "1", "--render", str(out)] if command == "sim"
                 else ["--method", "bc", "--out", str(out)])
        assert re.match(f"{line.split(' = ')[0]} must be", cli_refuses(capsys, command, *args))
        assert not out.exists()

    def test_nonfinite_abort_exit_code(self, monkeypatch, tmp_path):
        import cabc.cli as cli_mod
        from cabc.trainer import NonFiniteLossError

        def boom(*args, **kw):
            raise NonFiniteLossError("clone_loss became non-finite at epoch 0: nan")

        monkeypatch.setattr(cli_mod, "train", boom)
        code = run_cli("train", "--method", "bc", "--track", "circle", "--expert",
                       "pid", "--out", str(tmp_path / "r"))
        assert code == 2

    def test_aborted_run_reports(self, monkeypatch, tmp_path, capsys):
        """An aborted run keeps ``meta.json``, which names the abort and the
        epochs that finished, and ``cabc report`` charts those epochs."""
        abort_after_one_epoch(monkeypatch, "clone_loss became non-finite at epoch 1: nan")
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text("epochs = 3\nhidden = 8\ngrad_steps_policy = 5\neval_laps = 1\n")
        out = tmp_path / "run"
        assert run_cli("train", "--method", "bc", "--track", "circle", "--expert", "pid",
                       "--config", str(cfg_path), "--out", str(out)) == 2
        assert "aborted: clone_loss became non-finite" in capsys.readouterr().err
        meta = json.loads((out / "meta.json").read_text())
        assert (meta["completed_epochs"], meta["aborted"]) == (
            1, "clone_loss became non-finite at epoch 1: nan")
        assert "early_stopped_at" not in meta
        assert len(read_reports_csv(out / "reports.csv")) == 1
        rep = tmp_path / "rep"
        assert run_cli("report", "--run", str(out), "--out", str(rep)) == 0
        ET.parse(rep / "laps_vs_epoch.svg")

    def test_run_on_a_relative_track_file_reports_from_elsewhere(self, monkeypatch, tmp_path,
                                                                 circle):
        """``meta.json`` holds a track file's absolute path, a built-in's name."""
        here, elsewhere = tmp_path / "here", tmp_path / "elsewhere"
        here.mkdir()
        elsewhere.mkdir()
        write_track_file(circle, here / "my.track")
        (here / "tiny.cfg").write_text("epochs = 1\nhidden = 8\ngrad_steps_policy = 5\n"
                                       "eval_laps = 1\n")
        monkeypatch.chdir(here)
        for track in ("my.track", "circle"):
            assert run_cli("train", "--method", "bc", "--track", track, "--expert", "pid",
                           "--config", "tiny.cfg", "--out", f"run_{track}") == 0
        meta = json.loads((here / "run_my.track" / "meta.json").read_text())
        assert meta["track"] == str(here / "my.track")
        assert json.loads((here / "run_circle" / "meta.json").read_text())["track"] == "circle"
        monkeypatch.chdir(elsewhere)
        assert run_cli("report", "--run", str(here / "run_my.track"), "--out", "rep") == 0
        ET.parse(elsewhere / "rep" / "trajectory_xy.svg")

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("warp_drive = 9\n")
        assert cli_refuses(capsys, "train", "--method", "bc", "--track", "circle", "--expert",
                           "pid", "--config", str(bad), "--out", str(tmp_path / "r")
                           ) == f"{bad}: line 1: unknown key 'warp_drive'"

    def test_custom_track_file(self, tmp_path, circle):
        track_path = tmp_path / "mycircle.track"
        write_track_file(circle, track_path)
        code = run_cli("sim", "--expert", "pid", "--track", str(track_path),
                       "--laps", "1")
        assert code == 0

    def test_train_refuses_an_out_that_holds_a_run(self, tmp_path, capsys):
        """A ``bc`` run written over a ``ca`` run used to leave the CA run's
        critic and checkpoints beside a ``meta.json`` that says ``bc``."""
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text("epochs = 0\nhidden = 8\neval_laps = 1\n")
        out = tmp_path / "run"
        out.mkdir()   # an empty directory takes a run
        args = ("train", "--track", "circle", "--expert", "pid", "--config", str(cfg_path),
                "--out", str(out))
        assert run_cli(*args, "--method", "ca") == 0
        capsys.readouterr()
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert cli_refuses(capsys, *args, "--method", "bc", "--checkpoint-every", "0"
                           ) == f"--out {out} exists and is not an empty directory"
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("x")
        assert "not an empty directory" in cli_refuses(capsys, *args[:-1], str(not_a_dir),
                                                       "--method", "bc")
        assert not_a_dir.read_text() == "x"

    def test_labeldemo_refuses_an_out_that_holds_a_run(self, tmp_path, capsys):
        """``--rho 0.25`` after ``--rho 1.0,0.5`` used to leave ``points_rho1.csv``
        beside a ``summary.csv`` that lists only 0.25."""
        out = tmp_path / "demo"
        args = ("labeldemo", "--set", "disk", "--n", "40", "--grid", "6", "--out", str(out))
        assert run_cli(*args, "--rho", "1.0,0.5") == 0
        capsys.readouterr()
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert cli_refuses(capsys, *args, "--rho", "0.25"
                           ) == f"--out {out} exists and is not an empty directory"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def train_recording(monkeypatch, *argv) -> list:
    """Run ``cabc train`` on ``argv``; return a copy of the parameters each
    ``epoch_callback`` received, in epoch order."""
    import cabc.cli

    real_train, seen = cabc.cli.train, []

    def recording(*args, epoch_callback, **kw):
        def record(report, params):
            seen.append((params.sizes, params.flat.copy(), params.head, params.seed))
            epoch_callback(report, params)
        return real_train(*args, epoch_callback=record, **kw)

    monkeypatch.setattr(cabc.cli, "train", recording)
    assert run_cli("train", *argv) == 0
    return seen


def _state_rows(path) -> set:
    """Every row of six numbers in the records of the data file ``path``."""
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return {tuple(row) for line in fh for value in json.loads(line).values()
                if isinstance(value, list)
                for row in value if isinstance(row, list) and len(row) == 6}


def assert_stored_once(out) -> None:
    """No two files under ``out`` hold equal bytes, no two data files hold one
    state row, and no directory is empty."""
    files = [p for p in out.rglob("*") if p.is_file()]
    contents = [p.read_bytes() for p in files]
    assert len(set(contents)) == len(contents), sorted(
        str(p.relative_to(out)) for p, c in zip(files, contents) if contents.count(c) > 1)
    rows = {str(p.relative_to(out)): _state_rows(p) for p in out.rglob("*.jsonl.gz")}
    assert rows, "no data file"
    for a, b in itertools.combinations(rows, 2):
        assert not rows[a] & rows[b], (a, b)
    assert all(any(d.iterdir()) for d in [out, *out.rglob("*")] if d.is_dir())


class TestRunLayout:
    """A run directory holds one copy of each policy: the final epoch's
    checkpoint becomes ``policy.npz``, and ``checkpoints/`` keeps the cadence
    epochs before it.  A BC run writes no pool."""

    @pytest.mark.parametrize("cadence, epochs, early_stop", [
        (1, 3, 0), (2, 3, 0), (2, 2, 0), (0, 3, 0), (1, 6, 1)],
        ids=["every-1", "every-2-final-on-cadence", "every-2-final-off-cadence",
             "every-0", "early-stop"])
    def test_a_run_stores_each_policy_once(self, monkeypatch, tmp_path, cadence, epochs,
                                           early_stop):
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(f"epochs = {epochs}\nearly_stop = {early_stop}\nhidden = 16,16\n"
                            "grad_steps_policy = 30\nmax_steps = 400\neval_laps = 1\n"
                            "seed = 5\n")
        out = tmp_path / "run"
        seen = train_recording(monkeypatch, "--method", "bc", "--track", "circle",
                               "--expert", "pid", "--config", str(cfg_path), "--out", str(out),
                               "--checkpoint-every", str(cadence))
        final = len(seen) - 1
        stopped_at = json.loads((out / "meta.json").read_text())["early_stopped_at"]
        if early_stop:   # the case needs a run that stops before its last epoch
            assert stopped_at == final < epochs - 1
        else:
            assert stopped_at is None and final == epochs - 1
        assert_stored_once(out)
        kept = {f"epoch_{e:04d}": e for e in range(final) if cadence and e % cadence == 0}
        if kept:
            assert sorted(os.listdir(out / "checkpoints")) == list(kept)
        else:
            assert not (out / "checkpoints").exists()
        loaded = nn.load_weights(out / "policy.npz")
        sizes, flat, head, seed = seen[-1]
        assert (loaded.sizes, loaded.head, loaded.seed) == (sizes, head, seed)
        assert loaded.flat.tobytes() == flat.tobytes()
        for name, epoch in kept.items():
            assert (nn.load_weights(out / "checkpoints" / name / "policy.npz").flat.tobytes()
                    == seen[epoch][1].tobytes())
        assert not (out / "pool.jsonl.gz").exists()

    def test_a_ca_run_stores_each_policy_once_and_keeps_its_pool(self, tmp_path):
        """``pool.jsonl.gz`` holds the labeler's D- flag of each step of
        ``trajectories.jsonl.gz``, in file order, and no state."""
        # the untrained learner drives from epoch 1 on, so some rollouts fail
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text("epochs = 3\nalpha = 0.1\nmax_steps = 400\nhidden = 16,16\n"
                            "grad_steps_policy = 20\ngrad_steps_dyn = 20\n"
                            "grad_steps_clf = 20\neval_laps = 1\nseed = 11\n")
        out = tmp_path / "run"
        assert run_cli("train", "--method", "ca", "--track", "circle", "--expert", "pid",
                       "--obs", "output", "--config", str(cfg_path), "--out", str(out)) == 0
        assert_stored_once(out)
        minus = load_dataset(out / "pool.jsonl.gz")
        trajs = load_dataset(out / "trajectories.jsonl.gz")
        assert minus.dtype == bool and len(minus) == sum(map(len, trajs))
        assert {t.outcome for t in trajs} == {Outcome.SUCCESS, Outcome.FAILURE}
        steps = np.cumsum([0] + [len(t) for t in trajs])
        for traj, lo, hi in zip(trajs, steps, steps[1:]):
            if traj.termination_reason is TerminationReason.REACHED_TARGET:
                assert not minus[lo:hi].any()
        n_minus = read_reports_csv(out / "reports.csv")[-1]["n_minus"]
        assert 0 < int(minus.sum()) == n_minus

    def test_an_aborted_run_keeps_its_checkpoints(self, monkeypatch, tmp_path, capsys):
        """The final checkpoint is moved only after training returns, so a run
        that aborts keeps each completed cadence epoch and has no final policy."""
        abort_after_one_epoch(monkeypatch, "clone_loss became non-finite at epoch 1: nan")
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text("epochs = 3\nhidden = 8\ngrad_steps_policy = 5\neval_laps = 1\n")
        out = tmp_path / "run"
        assert run_cli("train", "--method", "bc", "--track", "circle", "--expert", "pid",
                       "--config", str(cfg_path), "--out", str(out)) == 2
        assert "aborted:" in capsys.readouterr().err
        assert os.listdir(out / "checkpoints") == ["epoch_0000"]
        nn.load_weights(out / "checkpoints" / "epoch_0000" / "policy.npz")
        assert not (out / "policy.npz").exists()


class TestRefusal:
    def test_no_option_is_a_bare_int(self):
        """Every integer option is checked by its type, so a bad one is refused
        by the parser, in one line."""
        from cabc.cli import build_parser

        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        for name, parser in subparsers.choices.items():
            for action in parser._actions:
                assert action.type is not int, (name, action.option_strings)

    def test_unreadable_config_is_refused(self, tmp_path, capsys):
        """A missing ``--config`` file, or a directory, used to end in a traceback."""
        for path in (tmp_path / "missing.cfg", tmp_path):
            assert str(path) in cli_refuses(capsys, "sim", "--config", str(path))

    @pytest.mark.parametrize("command, args, config, named", [
        ("train", ("--method", "bc", "--track", "oval", "--out", "out"), "",
         "unknown track 'oval'"),
        ("eval", ("--weights", "missing.npz", "--track", "circle"), "", "missing.npz"),
        ("sim", ("--track", "gp", "--laps", "1", "--render", "out"), "race_alat_max = -1\n",
         "race_alat_max must be positive"),
        ("labeldemo", ("--rho", "nan", "--out", "out"), "", "argument --rho:"),
        # --obs is checked as the config's observation_mode is
        ("eval", ("--weights", "missing.npz", "--obs", "image"), "",
         "observation_mode must be 'output' or 'full'"),
    ])
    def test_bad_setting_exits_2_in_one_line(self, tmp_path, command, args, config, named):
        (tmp_path / "run.cfg").write_text(config)
        cfg = ("--config", "run.cfg") if command != "labeldemo" else ()
        refused_in_one_line(tmp_path, named, command, *args, *cfg)
        assert os.listdir(tmp_path) == ["run.cfg"]

    def test_every_command_sets_its_parser(self):
        """``_refused`` reports through the command's own parser."""
        from cabc.cli import build_parser

        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        for name, parser in subparsers.choices.items():
            assert parser.get_default("parser") is parser, name

    @pytest.mark.parametrize("command, args", [
        ("train", ("--method", "bc", "--track", "circle", "--config", "run.cfg",
                   "--out", "out")),
        ("eval", ("--weights", "run/policy.npz", "--track", "circle", "--config", "run.cfg")),
        ("sim", ("--expert", "pid", "--track", "circle", "--laps", "1", "--config", "run.cfg")),
        ("report", ("--run", "run", "--out", "out")),
    ], ids=["train", "eval", "sim", "report"])
    def test_refused_trainer_value_exits_2_in_one_line(self, smoke_run, tmp_path, command,
                                                       args):
        """``eval`` and ``sim`` used to run with a ``lambda`` that ``train``
        refuses; ``report`` reads it from the run's ``config.txt``."""
        _, _, out = smoke_run
        shutil.copytree(out, tmp_path / "run")
        config = tmp_path / "run" / "config.txt"
        assert "\nlambda = 1.0\n" in config.read_text()
        config.write_text(config.read_text().replace("\nlambda = 1.0\n", "\nlambda = -1\n"))
        (tmp_path / "run.cfg").write_text("lambda = -1\n")
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        refused_in_one_line(tmp_path, "lambda must be non-negative, got -1.0", command, *args)
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    def test_report_refuses_a_reports_cell_that_does_not_parse(self, smoke_run, tmp_path):
        """A ``safety_on`` cell of ``1`` used to read as ``False``."""
        _, _, out = smoke_run
        run = tmp_path / "run"
        shutil.copytree(out, run)
        with open(run / "reports.csv", newline="") as fh:
            table = list(csv.reader(fh))
        table[1][table[0].index("safety_on")] = "1"
        with open(run / "reports.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(table)
        refused_in_one_line(tmp_path, f"{os.path.join('run', 'reports.csv')}: line 2, "
                            "column safety_on: cannot read '1' as bool",
                            "report", "--run", "run", "--out", "rep")
        assert not (tmp_path / "rep").exists()


def refused_in_one_line(cwd, named, *argv) -> None:
    """Run ``python -m cabc.cli`` on ``argv`` in ``cwd`` and expect exit 2 with
    one ``error:`` line that names ``named``, no traceback and nothing printed."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    done = subprocess.run([sys.executable, "-m", "cabc.cli", *argv],
                          cwd=cwd, capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 2
    errors = [line for line in done.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and named in errors[0], done.stderr
    assert "Traceback" not in done.stderr and done.stdout == ""
