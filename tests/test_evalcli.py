import csv
import json
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from cabc.cli import main
from cabc.core import TerminationReason, clamp_action
from cabc.evalharness import early_stop_epoch, evaluate
from cabc.experts import PidCenterline, RacingExpert
from cabc.reports import emit_reports, read_reports_csv
from cabc.sim import SimConfig, rng_stream

from conftest import make_trajectory, write_track_file


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
    cfg = TrainConfig(seed=seed, hidden=(16, 16), observation_mode="full_state")
    return MlpPolicy(init_policy(cfg, track), "full_state", track)


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
        assert meta["method"] == "ca"
        assert "expert_lap_mean" in meta

    def test_run_directory_weights_are_npz(self, smoke_run):
        _, _, out = smoke_run
        ckpts = sorted(os.listdir(out / "checkpoints"))
        assert ckpts == ["epoch_0000", "epoch_0001", "epoch_0002"]
        for d in ckpts:
            assert os.listdir(out / "checkpoints" / d) == ["policy.npz"]
        assert sorted(os.listdir(out / "critic")) == ["clf.npz", "dyn.npz", "norm.json"]
        # the final policy is the last epoch's
        final = (out / "policy.npz").read_bytes()
        assert final == (out / "checkpoints" / "epoch_0002" / "policy.npz").read_bytes()
        assert sorted(p.name for p in out.rglob("*.json")) == ["meta.json", "norm.json"]

    def test_saved_dataset_loads(self, smoke_run):
        _, _, out = smoke_run
        from cabc.core import load_dataset
        trajs = load_dataset(out / "trajectories.jsonl.gz")
        assert len(trajs) == 6  # 3 epochs x 2 episodes

    def test_eval_subcommand_rejects_zero_laps(self, smoke_run):
        _, cfg_path, out = smoke_run
        with pytest.raises(ValueError, match="laps"):
            run_cli("eval", "--weights", str(out / "policy.npz"), "--track", "circle",
                    "--laps", "0", "--config", str(cfg_path))

    def test_train_validates_config_for_the_command_line_method(self, tmp_path):
        cfg_path = tmp_path / "b1.cfg"
        cfg_path.write_text("epochs = 1\nmax_steps = 100\nhidden = 8\nbatch_size = 1\n"
                            "grad_steps_policy = 2\neval_laps = 1\n")
        # a one-row batch is fine for plain cloning, but CA needs both classes
        with pytest.raises(ValueError, match="batch_size"):
            run_cli("train", "--method", "ca", "--track", "circle", "--expert", "pid",
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
        with pytest.raises(ValueError, match=r"takes 13 inputs, but observation mode "
                                             r"'full_state' \(--obs full\) gives 7"):
            run_cli("eval", "--weights", str(out / "policy.npz"), "--track", "circle",
                    "--obs", "full", "--laps", "1", "--config", str(cfg_path))
        assert capsys.readouterr().out == ""

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

    def test_report_on_empty_rundir_lists_missing(self, tmp_path):
        with pytest.raises(FileNotFoundError) as err:
            emit_reports(tmp_path / "nothing", tmp_path / "out")
        assert "reports.csv" in str(err.value)

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

    def test_labeldemo_outputs(self, tmp_path):
        out = tmp_path / "demo"
        code = run_cli("labeldemo", "--set", "crescent", "--rho", "0.5", "--n", "200",
                       "--grid", "40", "--out", str(out), "--seed", "1")
        assert code == 0
        assert (out / "points_rho0p5.csv").exists()
        assert (out / "decision_grid_rho0p5.csv").exists()
        ET.parse(out / "overlay_rho0p5.svg")
        # coordinates are written as plain floats, never as numpy scalar reprs
        with open(out / "points_rho0p5.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 400
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

    def test_labeldemo_csv_bytes_match_csv_writer(self, tmp_path):
        """The streamed CSVs are byte for byte what a ``csv.writer`` loop writes."""
        from cabc.cli import write_grid_csv, write_points_csv

        rng = np.random.default_rng(6)
        special = np.array([0.0, -0.0, 1e-300, 5e-324, -1e300, 0.1, 1 / 3, np.nan,
                            np.inf, -np.inf])
        plus = np.concatenate([rng.normal(size=(30, 2)), special.reshape(-1, 2)])
        query = np.concatenate([rng.normal(size=(40, 2)), special[::-1].reshape(-1, 2)])
        sdf_plus = rng.normal(size=len(plus))
        sdf_query = np.concatenate([rng.normal(size=40), special[:5]])
        removed = rng.random(len(query)) < 0.4
        xs, ys = np.linspace(-5.0, 5.0, 7), np.linspace(-5.0, 5.0, 9)
        probs = rng.random((len(ys), len(xs)))
        probs[0, :3] = (0.0, 1.0, 1e-17)
        probs[1:6, :2] = special.reshape(5, 2)

        ref_points, ref_grid = tmp_path / "ref_points.csv", tmp_path / "ref_grid.csv"
        with open(ref_points, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "y", "true_sdf", "label", "removed"])
            for p, s in zip(plus, sdf_plus):
                writer.writerow([repr(float(p[0])), repr(float(p[1])), repr(float(s)), 1, 0])
            for p, s, rm in zip(query, sdf_query, removed):
                label = -1 if rm else 0
                writer.writerow([repr(float(p[0])), repr(float(p[1])), repr(float(s)),
                                 label, int(rm)])
        with open(ref_grid, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["y\\x"] + [repr(float(x)) for x in xs])
            for i in range(len(ys)):
                writer.writerow([repr(float(ys[i]))]
                                + [repr(float(probs[i, j])) for j in range(len(xs))])

        write_points_csv(tmp_path / "points.csv", plus, sdf_plus, query, sdf_query, removed)
        write_grid_csv(tmp_path / "grid.csv", xs, ys, probs)
        assert (tmp_path / "points.csv").read_bytes() == ref_points.read_bytes()
        assert (tmp_path / "grid.csv").read_bytes() == ref_grid.read_bytes()
        # the matrix reads back to the grid bit for bit: nan, +-inf, -0.0, subnormals
        with open(tmp_path / "grid.csv", newline="") as fh:
            (corner, *header), *rows = list(csv.reader(fh))
        got = np.array([[float(v) for v in row] for row in rows])
        assert corner == "y\\x"
        for want, have in ((xs, np.array(header, dtype=float)), (ys, got[:, 0]),
                           (probs, got[:, 1:])):
            assert np.array_equal(want.view(np.int64), have.view(np.int64))

    def test_labeldemo_rejects_negative_rho(self, tmp_path):
        out = tmp_path / "demo"
        out.mkdir()
        for rho in ("-0.5", "1.0,-0.5"):
            with pytest.raises(ValueError, match="--rho"):
                run_cli("labeldemo", f"--rho={rho}", "--n", "50", "--grid", "10",
                        "--out", str(out))
            assert not list(out.iterdir())   # not even the valid radius's files

    @pytest.mark.parametrize("args, name", [
        (("--rho", ","), "--rho"), (("--rho", "0.5,nan"), "--rho"), (("--rho", "inf"), "--rho"),
        (("--rho", "0.5,x"), "--rho"), (("--n", "0"), "--n"), (("--grid", "1"), "--grid"),
        (("--grid", "0"), "--grid"),
        # radii with one file tag (rho1, rho0p123457): the second pass would
        # overwrite the first pass's files
        (("--rho", "1,0.5,1.0"), "--rho radius 1.0 repeats the file tag 'rho1'"),
        (("--rho", "0.1234567,0.1234568"), "--rho radius 0.1234568 repeats"),
    ])
    def test_labeldemo_checks_arguments_before_writing(self, tmp_path, args, name):
        out = tmp_path / "demo"
        out.mkdir()
        with pytest.raises(ValueError, match=name):
            run_cli("labeldemo", "--n", "50", "--grid", "10", *args, "--out", str(out))
        assert not list(out.iterdir())

    def test_train_rejects_a_negative_checkpoint_cadence(self, tmp_path):
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text("epochs = 2\nmax_steps = 100\nhidden = 8\n"
                            "grad_steps_policy = 2\neval_laps = 1\n")
        with pytest.raises(ValueError, match="--checkpoint-every"):
            run_cli("train", "--method", "bc", "--track", "circle", "--expert", "pid",
                    "--config", str(cfg_path), "--out", str(tmp_path / "run"),
                    "--checkpoint-every", "-1")
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
        with pytest.raises(ValueError, match=r"seed must be non-negative, got -1$"):
            run_cli(command, *args)
        assert not out.exists() and not capsys.readouterr().out

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
        with pytest.raises(ValueError, match=f"^{key}"):
            run_cli(command, *args)
        assert not out.exists() and not capsys.readouterr().out

    def test_nonfinite_abort_exit_code(self, monkeypatch, tmp_path):
        import cabc.cli as cli_mod
        from cabc.trainer import NonFiniteLossError

        def boom(*args, **kw):
            raise NonFiniteLossError("clone_loss became non-finite at epoch 0: nan")

        monkeypatch.setattr(cli_mod, "train", boom)
        code = run_cli("train", "--method", "bc", "--track", "circle", "--expert",
                       "pid", "--out", str(tmp_path / "r"))
        assert code == 2

    def test_unknown_config_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("warp_drive = 9\n")
        with pytest.raises(ValueError):
            run_cli("train", "--method", "bc", "--track", "circle", "--expert", "pid",
                    "--config", str(bad), "--out", str(tmp_path / "r"))

    def test_custom_track_file(self, tmp_path, circle):
        track_path = tmp_path / "mycircle.track"
        write_track_file(circle, track_path)
        code = run_cli("sim", "--expert", "pid", "--track", str(track_path),
                       "--laps", "1")
        assert code == 0
