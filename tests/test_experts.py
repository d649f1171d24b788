import math

import numpy as np
import pytest

from cabc.core import Outcome, clamp_action
from cabc.experts import PidCenterline, RacingExpert
from cabc.sim import default_start_state, rng_stream, rollout
from cabc.track import default_tracks

from conftest import make_state, max_abs_curvature


class NoisyPolicy:
    def __init__(self, inner, sigma, rng):
        self.inner, self.sigma, self.rng = inner, sigma, rng

    def __call__(self, y, x):
        u = self.inner(y, x)
        n = self.rng.normal(0.0, self.sigma, size=2)
        return clamp_action(u[0] + n[0], u[1] + n[1])


class TestPid:
    def test_equilibrium_tracking(self, stadium, noiseless_sim):
        cfg = noiseless_sim
        pid = PidCenterline(cfg, stadium, v_ref=1.0)
        u_a, u_steer = pid(None, make_state(v=1.0, s=1.0))
        assert u_steer == 0.0
        drag_comp = (cfg.drag_lin * 1.0 + cfg.drag_quad * 1.0) / cfg.drive_gain
        assert u_a == pytest.approx(drag_comp, abs=1e-12)

    def test_steers_back_toward_centerline(self, stadium, noiseless_sim):
        pid = PidCenterline(noiseless_sim, stadium, v_ref=1.0)
        _, u_steer = pid(None, make_state(v=1.0, s=1.0, xt=0.2))
        assert u_steer < 0.0

    @pytest.mark.parametrize("track_name", ["circle", "lshaped", "gp"])
    def test_one_meter_per_second_success_every_track(self, track_name, noiseless_sim):
        track = {t.name: t for t in default_tracks()}[track_name]
        pid = PidCenterline(noiseless_sim, track, v_ref=1.0)
        traj = rollout(noiseless_sim, track, pid, default_start_state(1.0),
                       max_steps=int(track.lap_length / noiseless_sim.dt * 2.5),
                       rng=rng_stream(0, 0))
        assert traj.outcome is Outcome.SUCCESS
        assert np.abs(traj.states[:, 4]).max() < 0.3 * track.half_width


class TestRacing:
    def test_straight_target_speed_formula(self, stadium, noiseless_sim):
        race = RacingExpert(noiseless_sim, stadium)
        p = race.params
        # mid-straight, corner beyond the lookahead window
        v_t = race.target_speed(2.0)
        expected = min(noiseless_sim.v_max, math.sqrt(p.a_lat_max / p.kappa_floor))
        assert v_t == pytest.approx(expected)

    def test_corner_speed_uses_worst_preview_curvature(self, gp, noiseless_sim):
        race = RacingExpert(noiseless_sim, gp)
        p = race.params
        kappa_max = max_abs_curvature(gp)
        v_corner = race.target_speed(2.0)  # tight chicane starts at ~2.26 m
        assert v_corner == pytest.approx(math.sqrt(p.a_lat_max / kappa_max), rel=1e-9)

    @pytest.mark.parametrize("track_name", ["circle", "lshaped", "gp"])
    def test_strictly_faster_than_pid(self, track_name, noiseless_sim):
        track = {t.name: t for t in default_tracks()}[track_name]
        max_steps = int(track.lap_length / noiseless_sim.dt * 3)
        pid_traj = rollout(noiseless_sim, track, PidCenterline(noiseless_sim, track, 1.0),
                           default_start_state(1.0), max_steps, rng_stream(0, 0))
        race_traj = rollout(noiseless_sim, track, RacingExpert(noiseless_sim, track),
                            default_start_state(1.0), max_steps, rng_stream(0, 0))
        assert pid_traj.outcome is Outcome.SUCCESS
        assert race_traj.outcome is Outcome.SUCCESS
        assert len(race_traj) < len(pid_traj)

    def test_gp_lap_time_ratio(self, gp, noiseless_sim):
        max_steps = int(gp.lap_length / noiseless_sim.dt * 3)
        pid_traj = rollout(noiseless_sim, gp, PidCenterline(noiseless_sim, gp, 1.0),
                           default_start_state(1.0), max_steps, rng_stream(0, 0))
        race_traj = rollout(noiseless_sim, gp, RacingExpert(noiseless_sim, gp),
                            default_start_state(1.0), max_steps, rng_stream(0, 0))
        assert len(race_traj) < 0.6 * len(pid_traj)

    def test_actuation_noise_produces_failures(self, gp, noiseless_sim):
        failures = 0
        for seed in range(20):
            rng = rng_stream(100 + seed, 0)
            noisy = NoisyPolicy(RacingExpert(noiseless_sim, gp), 0.2, rng)
            traj = rollout(noiseless_sim, gp, noisy, default_start_state(1.0), 2000, rng)
            failures += traj.outcome is not Outcome.SUCCESS
        assert failures >= 1
