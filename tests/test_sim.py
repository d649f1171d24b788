import math
from dataclasses import replace

import numpy as np
import pytest

from cabc.core import Outcome, TerminationReason
from cabc.experts import PidCenterline, RacingExpert
from cabc.sim import (
    SimConfig,
    SimSingularityError,
    default_start_state,
    in_constraints,
    in_target,
    lane_preview,
    observe,
    rng_stream,
    rollout,
    step,
)

from conftest import make_state, max_abs_curvature, same_trajectory


@pytest.mark.parametrize("name, value", [
    ("lap_target", 0),
    ("max_steps", 0),
    ("preview_distances", (-1.0, -2.0)),
    ("preview_distances", (-0.5, 1.0)),
    ("preview_distances", (1.0, math.nan)),
    ("preview_distances", (1.0, math.inf)),
    ("preview_distances", (1.0, 3.0, 2.0)),
], ids=["lap_target", "max_steps", "negative", "negative_first", "nan", "inf", "descending"])
def test_config_rejects_settings_that_corrupt_rollouts(name, value):
    with pytest.raises(ValueError, match=name):
        SimConfig(**{name: value})


_SIM_FLOATS = [name for name, value in vars(SimConfig()).items() if isinstance(value, float)]


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", _SIM_FLOATS)
def test_config_rejects_non_finite_floats(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        SimConfig(**{name: value})


@pytest.mark.parametrize("name", ["dt", "v_max", "yaw_radius_sq", "steer_max", "e_psi_max"])
def test_config_requires_positive(name):
    for value in (0.0, -0.5):
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            SimConfig(**{name: value})


@pytest.mark.parametrize("name", ["noise_sigma_v", "noise_sigma_kappa", "half_width_margin"])
def test_config_requires_non_negative(name):
    with pytest.raises(ValueError, match=f"{name} must be non-negative"):
        SimConfig(**{name: -1e-3})
    assert getattr(SimConfig(**{name: 0.0}), name) == 0.0


class TestStep:
    def test_zero_state_zero_input_fixed_point(self, circle, noiseless_sim):
        x = default_start_state(v_long=0.0)
        assert step(noiseless_sim, circle, x, (0.0, 0.0)) == x

    def test_refined_integration_on_straight(self, stadium, noiseless_sim):
        """Coarse Euler vs dt/100 Euler of the same longitudinal dynamics, 1 s."""
        cfg = noiseless_sim
        fine = replace(cfg, dt=cfg.dt / 100)
        u = (0.5, 0.0)
        x_coarse = default_start_state(v_long=1.0)
        x_fine = default_start_state(v_long=1.0)
        steps = int(round(1.0 / cfg.dt))
        worst = 0.0
        for _ in range(steps):
            x_coarse = step(cfg, stadium, x_coarse, u)
            for _ in range(100):
                x_fine = step(fine, stadium, x_fine, u)
            worst = max(worst, abs(x_coarse[0] - x_fine[0]) / x_fine[0])
        assert worst < 1e-3

    def test_steady_state_cornering(self, circle, noiseless_sim):
        """Constant steering chosen for the corner: yaw rate settles to v * kappa."""
        cfg = noiseless_sim
        kappa = circle.segments[0][1]
        v0 = 1.5
        wheelbase = cfg.l_front + cfg.l_rear
        a_lat = v0 * v0 * kappa
        delta = math.atan(wheelbase * kappa) + 0.5 * a_lat * (
            1.0 / cfg.stiff_front - 1.0 / cfg.stiff_rear)
        # throttle feedforward including the yaw-lateral coupling at steady state
        alpha_r = -0.5 * a_lat / cfg.stiff_rear
        v_tran_ss = max(v0, cfg.v_slip_floor) * math.tan(alpha_r) + cfg.l_rear * v0 * kappa
        u_a = (cfg.drag_lin * v0 + cfg.drag_quad * v0 * v0
               - v0 * kappa * v_tran_ss) / cfg.drive_gain
        u = (u_a, delta / cfg.steer_max)
        x = default_start_state(v_long=v0)
        ratios = []
        for k in range(80):
            x = step(cfg, circle, x, u)
            if k >= 60:
                ratios.append(x[2] / (x[0] * kappa))
        assert all(abs(r - 1.0) < 0.05 for r in ratios)

    def test_singularity_raises(self, gp, noiseless_sim):
        s_tight, kappa = next(
            (s, k) for s, (l, k) in zip(
                np.cumsum([0.0] + [l for l, _ in gp.segments]), gp.segments)
            if abs(k) == max_abs_curvature(gp))
        x = make_state(v=1.0, s=float(s_tight) + 0.1, xt=1.0 / kappa)
        with pytest.raises(SimSingularityError):
            step(noiseless_sim, gp, x, (0.0, 0.0))

    def test_finite_difference_jacobian_bounded(self, gp, noiseless_sim):
        """The step map is smooth on-track: central differences exist and stay small."""
        h = 1e-6
        x0 = make_state(v=1.5, s=3.0, xt=0.1, ep=0.05, vt=0.02, om=0.3)
        base = np.array(step(noiseless_sim, gp, x0, (0.3, 0.1)))
        for dim in range(6):
            for sign in (+1, -1):
                vals = list(x0)
                vals[dim] += sign * h
                xp = tuple(vals)
                out = np.array(step(noiseless_sim, gp, xp, (0.3, 0.1)))
                assert np.isfinite(out).all()
                assert np.abs((out - base) / h).max() < 100.0


class TestObserve:
    def test_noiseless_output_map(self, gp, noiseless_sim):
        # the row is the body velocities, then the preview, bit for bit
        x = make_state(v=1.2, s=2.5, vt=0.1, om=-0.2, xt=0.1, ep=0.05)
        row = (*x[:3], *lane_preview(gp, x, noiseless_sim.preview_distances))
        assert observe(noiseless_sim, gp, x, np.random.default_rng(0)) == row
        # without a generator a noisy configuration draws no noise
        assert observe(SimConfig(), gp, x) == row
        assert type(row) is tuple and len(row) == 3 + len(noiseless_sim.preview_distances)
        assert all(type(v) is float for v in observe(SimConfig(), gp, x, rng_stream(0, 0)))

    def test_rollout_hands_the_policy_the_row_it_records(self, gp):
        cfg = SimConfig(lap_target=2)
        seen = []
        expert = RacingExpert(cfg, gp)

        def policy(y, x):
            seen.append(y)
            return expert(y, x)

        traj = rollout(cfg, gp, policy, default_start_state(), 300, rng_stream(11, 0))
        assert len(seen) == len(traj) == 300
        width = 3 + len(cfg.preview_distances)
        assert all(type(y) is tuple and len(y) == width for y in seen)
        assert [tuple(row) for row in traj.y.tolist()] == seen

    def test_lane_preview_geometry(self, circle, stadium):
        import math
        # centered on the circular track: the lane curves away analytically
        radius = 1.0 / circle.segments[0][1]
        pv = lane_preview(circle, make_state(v=1.0), [1.0, 2.0])
        expected = [radius * (1 - math.cos(d / radius)) for d in (1.0, 2.0)]
        assert np.allclose(pv, expected, atol=1e-12)
        # lateral offset on a straight shows up directly, left positive
        assert np.allclose(lane_preview(stadium, make_state(v=1.0, s=1.0, xt=0.2),
                                        [1.0, 2.0]), [-0.2, -0.2], atol=1e-12)
        # heading error tilts the preview proportionally to range
        pv = lane_preview(stadium, make_state(v=1.0, s=1.0, ep=0.1), [1.0, 2.0])
        assert np.allclose(pv, [-math.sin(0.1), -2 * math.sin(0.1)], atol=1e-12)
        # preview wraps across the start line
        pv = lane_preview(stadium, make_state(v=1.0, s=stadium.lap_length - 0.5), [1.0])
        assert np.isfinite(pv).all()

    def test_seeded_determinism(self, gp):
        cfg = SimConfig(noise_sigma_v=0.05, noise_sigma_kappa=0.02)
        x = make_state(v=1.0, s=1.0)
        y1 = observe(cfg, gp, x, np.random.default_rng(42))
        y2 = observe(cfg, gp, x, np.random.default_rng(42))
        assert y1 == y2

    def test_monte_carlo_noise_std(self, circle):
        cfg = SimConfig(noise_sigma_v=0.05, noise_sigma_kappa=0.02,
                        preview_distances=(1.0, 2.0))
        x = make_state(v=1.0, s=0.5)
        rng = np.random.default_rng(7)
        draws = np.array([observe(cfg, circle, x, rng) for _ in range(100_000)])
        stds = draws.std(axis=0)
        assert np.allclose(stds[:3], 0.05, rtol=0.02)
        assert np.allclose(stds[3:], 0.02, rtol=0.02)


class TestSets:
    def test_centerline_moderate_speed_inside(self, gp, noiseless_sim):
        assert in_constraints(noiseless_sim, gp, make_state(v=2.0))

    def test_half_width_is_outside(self, gp, noiseless_sim):
        assert not in_constraints(noiseless_sim, gp, make_state(v=1.0, xt=gp.half_width))

    def test_margin_boundary_inclusive(self, gp, noiseless_sim):
        bound = gp.half_width - noiseless_sim.half_width_margin
        assert in_constraints(noiseless_sim, gp, make_state(v=1.0, xt=bound))
        assert not in_constraints(noiseless_sim, gp, make_state(v=1.0, xt=bound + 1e-9))

    def test_velocity_bound_inclusive(self, gp, noiseless_sim):
        assert in_constraints(noiseless_sim, gp, make_state(v=noiseless_sim.v_max))

    def test_target_requires_full_lap(self, gp, noiseless_sim):
        lap = gp.lap_length
        assert in_target(noiseless_sim, gp, make_state(v=1.0, s=lap), s_start=0.0)
        assert not in_target(noiseless_sim, gp, make_state(v=1.0, s=0.99 * lap), s_start=0.0)

    def test_target_requires_constraints(self, gp, noiseless_sim):
        x = make_state(v=1.0, s=gp.lap_length, xt=gp.half_width)
        assert not in_target(noiseless_sim, gp, x, s_start=0.0)

    def test_time_to_target_ends_at_the_target_set(self, gp, noiseless_sim):
        # the time-to-target cost counts exactly the steps outside the target set
        assert not in_target(noiseless_sim, gp, make_state(v=1.0, s=1.0), 0.0)
        assert in_target(noiseless_sim, gp, make_state(v=1.0, s=gp.lap_length + 1), 0.0)

    def test_rollout_flags_match_in_constraints_and_in_target(self, gp, noiseless_sim):
        x = make_state(v=1.0, s=1.0)
        traj = rollout(noiseless_sim, gp, lambda y, x: (0.2, 0.0), x, 1,
                       rng_stream(0, 0))
        x_next = step(noiseless_sim, gp, x, (0.2, 0.0))
        assert traj.states[-1].tolist() == list(x_next)
        assert in_constraints(noiseless_sim, gp, x_next)
        assert not in_target(noiseless_sim, gp, x_next, 0.0)
        assert traj.termination_reason is TerminationReason.TIMEOUT


class TestRollout:
    def test_zero_policy_from_rest_times_out(self, circle, noiseless_sim):
        policy = lambda y, x: (0.0, 0.0)
        x0 = default_start_state(v_long=0.0)
        traj = rollout(noiseless_sim, circle, policy, x0, 50, rng_stream(0, 0))
        assert traj.outcome is Outcome.FAILURE
        assert traj.termination_reason is TerminationReason.TIMEOUT
        assert traj.states.tolist() == [list(x0)] * (len(traj) + 1)

    def test_pid_lap_time_near_kinematic_estimate(self, circle, noiseless_sim):
        pid = PidCenterline(noiseless_sim, circle, v_ref=1.0)
        traj = rollout(noiseless_sim, circle, pid, default_start_state(1.0), 1000,
                       rng_stream(0, 0))
        assert traj.outcome is Outcome.SUCCESS
        lap_time = len(traj) * noiseless_sim.dt
        assert abs(lap_time - circle.lap_length / 1.0) / (circle.lap_length / 1.0) < 0.10

    def test_full_throttle_full_steer_crashes(self, gp, noiseless_sim):
        policy = lambda y, x: (1.0, 1.0)
        traj = rollout(noiseless_sim, gp, policy, default_start_state(1.0), 600,
                       rng_stream(0, 0))
        assert traj.outcome is Outcome.FAILURE
        assert traj.termination_reason in (TerminationReason.CONSTRAINT_VIOLATION,
                                           TerminationReason.SINGULARITY)

    def test_determinism_bit_identical(self, gp):
        cfg = SimConfig(noise_sigma_v=0.02, noise_sigma_kappa=0.01)
        pid1 = PidCenterline(cfg, gp, v_ref=1.0)
        pid2 = PidCenterline(cfg, gp, v_ref=1.0)
        t1 = rollout(cfg, gp, pid1, default_start_state(1.0), 400, rng_stream(3, 1))
        t2 = rollout(cfg, gp, pid2, default_start_state(1.0), 400, rng_stream(3, 1))
        assert same_trajectory(t1, t2)

    def test_success_states_all_inside_constraints(self, gp):
        cfg = SimConfig(noise_sigma_v=0.02, noise_sigma_kappa=0.01)
        pid = PidCenterline(cfg, gp, v_ref=1.0)
        traj = rollout(cfg, gp, pid, default_start_state(1.0), 1000, rng_stream(5, 0))
        assert traj.outcome is Outcome.SUCCESS
        for row in traj.states.tolist():
            assert in_constraints(cfg, gp, row)

    def test_samples_chain_and_match_plant(self, circle, noiseless_sim):
        pid = PidCenterline(noiseless_sim, circle, v_ref=1.0)
        traj = rollout(noiseless_sim, circle, pid, default_start_state(1.0), 200,
                       rng_stream(1, 1))
        for x, u, x_next in zip(traj.states[:-1].tolist(), traj.u_applied.tolist(),
                                traj.states[1:].tolist()):
            assert step(noiseless_sim, circle, x, u) == tuple(x_next)

    def test_rollout_requires_steps(self, circle, noiseless_sim):
        with pytest.raises(ValueError):
            rollout(noiseless_sim, circle, lambda y, x: (0, 0),
                    default_start_state(), 0, rng_stream(0, 0))

    def test_singularity_becomes_distinct_failure(self, gp, noiseless_sim):
        s_tight, kappa = next(
            (s, k) for s, (l, k) in zip(
                np.cumsum([0.0] + [l for l, _ in gp.segments]), gp.segments)
            if abs(k) == max_abs_curvature(gp))
        x0 = make_state(v=1.0, s=float(s_tight) + 0.1, xt=1.0 / kappa)
        traj = rollout(noiseless_sim, gp, lambda y, x: (0.0, 0.0), x0, 10,
                       rng_stream(0, 0))
        assert traj.outcome is Outcome.FAILURE
        assert traj.termination_reason is TerminationReason.SINGULARITY
