"""Closed-loop golden digests and the edge cases of the per-step row checks.

The digests pin every bit of three short seeded rollouts: each state,
observation and action is hashed through ``float.hex``.  A change to the
simulator, the experts, the policy wrappers or the validation that alters
any float, any random draw or the termination of a rollout changes them.
"""

import hashlib
import math

import numpy as np
import pytest

from cabc import sim
from cabc.core import STATE_FIELDS, Trajectory, clamp_action, state_row
from cabc.experts import PidCenterline, RaceParams, RacingExpert
from cabc.sim import SimConfig, default_start_state, lane_preview, rng_stream, rollout, step
from cabc.track import curvature_at, default_tracks, peak_curvature
from cabc.trainer import MixedPolicy, MlpPolicy, TrainConfig, init_policy

from conftest import make_state


def _digest(traj: Trajectory) -> str:
    h = hashlib.sha256()
    h.update(f"{traj.outcome.value} {traj.termination_reason.value} {len(traj)}\n".encode())
    rows = np.hstack([traj.states[:-1], traj.y, traj.u_expert, traj.u_applied, traj.states[1:]])
    for parts in rows.tolist():
        h.update(" ".join(float.hex(v) for v in parts).encode())
        h.update(b"\n")
    return h.hexdigest()


def _racing_gp(gp):
    cfg = SimConfig(lap_target=2)
    return rollout(cfg, gp, RacingExpert(cfg, gp), default_start_state(), 600,
                   rng_stream(11, 0))


def _pid_circle(circle):
    cfg = SimConfig(lap_target=2)
    return rollout(cfg, circle, PidCenterline(cfg, circle), default_start_state(), 600,
                   rng_stream(12, 0))


def _mixed_circle(circle):
    cfg = SimConfig()
    tcfg = TrainConfig(seed=1, hidden=(16, 16), sim=cfg)
    learner = MlpPolicy(init_policy(tcfg, circle), "output", circle)
    mixed = MixedPolicy(PidCenterline(cfg, circle), learner, 0.5, rng_stream(13, 1),
                        sigma_u=0.15)
    return rollout(cfg, circle, mixed, default_start_state(), 200, rng_stream(13, 0),
                   relabel=lambda x: mixed.last_expert_action)


# SHA-256 of the three rollouts, recorded before the closed-loop fast paths
GOLDEN = {
    "racing_gp": "b7a47b8fe1a6a9db2831d7efb070fb0890a0f955eb3ba0ead0357d71df7b895b",
    "pid_circle": "2b90bfe678d4e83f211f2e28bae10cd13c44c862fed80de63c942048a5b74ebb",
    "mixed_circle": "2df2aeea9a04b2f5e0476f8149baab0ccca067fa9fbf7ca9b031f98360075a82",
}


class TestGoldenRollouts:
    def test_racing_gp(self, gp):
        assert _digest(_racing_gp(gp)) == GOLDEN["racing_gp"]

    def test_pid_circle(self, circle):
        assert _digest(_pid_circle(circle)) == GOLDEN["pid_circle"]

    def test_mixed_circle(self, circle):
        assert _digest(_mixed_circle(circle)) == GOLDEN["mixed_circle"]


# --- one segment lookup per curvature ------------------------------------------------

def _reference_curvature(track, s):
    """Reference: the clamped segment search of ``TrackSpec._segment_index``."""
    return track.segments[track._segment_index(s % track.lap_length)][1]


def _probe_arcs(track):
    lap = track.lap_length
    arcs = [0.0, -0.0, 5e-324, -5e-324, -1e-17, lap, -lap, 3 * lap, -7 * lap, 1e6]
    for start in track._starts:
        for k in (-2, 0, 1):
            base = start + k * lap
            arcs += [base, math.nextafter(base, -math.inf), math.nextafter(base, math.inf),
                     -base]
    return arcs


@pytest.mark.parametrize("name", ["circle", "lshaped", "gp"])
def test_curvature_lookup_matches_clamped_search(name):
    track = {t.name: t for t in default_tracks()}[name]
    arcs = _probe_arcs(track)
    # rounding maps some negative arcs onto the lap end, the clamped case
    assert any(s % track.lap_length == track.lap_length for s in arcs)
    for s in arcs:
        assert curvature_at(track, s) == _reference_curvature(track, s), s


@pytest.mark.parametrize("name", ["circle", "lshaped", "gp"])
def test_peak_curvature_matches_clamped_search(name):
    track = {t.name: t for t in default_tracks()}[name]
    params = RaceParams()
    for s in _probe_arcs(track):
        for lookahead, ds in ((params.lookahead, 0.25), (0.0, 0.25), (3 * track.lap_length, 7.0)):
            worst, d = 0.0, 0.0
            while d <= lookahead:
                worst = max(worst, abs(_reference_curvature(track, s + d)))
                d += ds
            assert peak_curvature(track, s, lookahead, ds) == worst, (s, lookahead)


# --- lane preview ---------------------------------------------------------------------

def _reference_lane_preview(track, x, distances):
    """Reference walk: sorts the distances and recomputes the heading's sine
    and cosine at every advance."""
    order = sorted(range(len(distances)), key=lambda i: distances[i])
    out = [0.0] * len(distances)
    px, py, psi = 0.0, 0.0, 0.0
    arc = 0.0
    _, _, _, s, x_tran, e_psi = x
    s_w = s % track.lap_length
    seg = track._segment_index(s_w)
    n_seg = len(track.segments)
    remaining = track._starts[seg + 1] - s_w
    sin_e, cos_e = math.sin(e_psi), math.cos(e_psi)

    def advance(length, kappa):
        nonlocal px, py, psi
        if abs(kappa) < 1e-12:
            px += length * math.cos(psi)
            py += length * math.sin(psi)
        else:
            p1 = psi + kappa * length
            px += (math.sin(p1) - math.sin(psi)) / kappa
            py -= (math.cos(p1) - math.cos(psi)) / kappa
            psi = p1

    for i in order:
        d = float(distances[i])
        while arc + remaining < d:
            advance(remaining, track.segments[seg][1])
            arc += remaining
            seg = (seg + 1) % n_seg
            remaining = track.segments[seg][0]
        partial = d - arc
        advance(partial, track.segments[seg][1])
        remaining -= partial
        arc = d
        out[i] = -sin_e * px + cos_e * (py - x_tran)
    return out


def _preview_states(track, n=40):
    rng = np.random.default_rng(7)
    return [make_state(s=float(s), xt=float(xt), ep=float(ep))
            for s, xt, ep in zip(rng.uniform(-track.lap_length, 3 * track.lap_length, n),
                                 rng.uniform(-0.5, 0.5, n), rng.uniform(-1.0, 1.0, n))]


@pytest.mark.parametrize("name", ["circle", "lshaped", "gp"])
def test_lane_preview_matches_reference_walk(name):
    track = {t.name: t for t in default_tracks()}[name]
    # long ranges cross many segments and wrap the lap
    for distances in (SimConfig().preview_distances, (0.5, 7.0, 7.0, 30.0, 95.0)):
        for x in _preview_states(track):
            assert lane_preview(track, x, distances) == _reference_lane_preview(track, x, distances)


def test_lane_preview_rejects_descending_distances(gp):
    distances = [3.0, 1, 7.5, 2.0, 2.0, 10.0, 0.5]
    for x in _preview_states(gp, 10):
        for bad in (distances, np.array(distances), [-0.5, 1.0]):
            with pytest.raises(ValueError, match="ascending"):
                lane_preview(gp, x, bad)


# --- validation where a row is made ---------------------------------------------------

_NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("bad", _NON_FINITE)
def test_state_fast_path_still_rejects_non_finite(bad, circle, noiseless_sim, monkeypatch):
    """A stepped state that is not finite raises, naming its field."""
    x = default_start_state()
    for k, name in enumerate(STATE_FIELDS):
        if k == 0 and not math.isnan(bad):
            continue   # an infinite rate only drives v_long to a bound of [0, v_max]
        rates = [0.0] * 6
        rates[k] = bad
        monkeypatch.setattr(sim, "_derivatives", lambda *args: tuple(rates))
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            step(noiseless_sim, circle, x, (0.0, 0.0))


def test_step_names_the_field_that_overflows(circle, noiseless_sim):
    # the yaw rate times the speed overflows the lateral acceleration
    x = (5.0, 0.0, 1.7e308, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="^v_tran must be finite, got -inf"):
        step(noiseless_sim, circle, x, (0.0, 0.0))


@pytest.mark.parametrize("bad", _NON_FINITE)
def test_action_fast_path_still_rejects_non_finite(bad, circle, noiseless_sim):
    with pytest.raises(ValueError, match="u_steer must be finite"):
        clamp_action(0.0, bad)
    with pytest.raises(ValueError, match="u_a must be finite"):
        clamp_action(bad, 0.0)
    for u, name in (((bad, 0.0), "u_a"), ((0.5, np.float64(bad)), "u_steer")):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            rollout(noiseless_sim, circle, lambda y, x: u, default_start_state(), 3,
                    rng_stream(0, 0))


def test_fast_paths_still_convert_numpy_scalars_and_ints(circle, noiseless_sim, monkeypatch):
    x0 = (np.float64(1.5), 0, np.float32(0.25), np.int64(3), 0.1, -0.0)
    assert state_row(x0) == (1.5, 0.0, 0.25, 3.0, 0.1, -0.0)
    assert clamp_action(np.float64(3.0), np.float32(-0.5)) == (1.0, -0.5)
    assert all(type(v) is float for v in state_row(x0) + clamp_action(np.int64(1), -1))
    # the rollout hands the policy and the plant Python floats
    handed = []
    real_step = sim.step

    def spy(cfg, track, x, u):
        handed.append(x + u)
        return real_step(cfg, track, x, u)

    outputs = [(np.float64(0.5), -1), np.array([0.25, 0.0]), [np.float32(0.5), 1]]

    def policy(y, x):
        handed.append(x)
        return outputs.pop()

    monkeypatch.setattr(sim, "step", spy)
    traj = rollout(noiseless_sim, circle, policy, x0, 3, rng_stream(0, 0))
    assert all(type(v) is float for row in handed for v in row)
    assert traj.u_applied.tolist() == [[0.5, 1.0], [0.25, 0.0], [0.5, -1.0]]
    assert traj.states[0].tolist() == [1.5, 0.0, 0.25, 3.0, 0.1, -0.0]


def test_fast_paths_accept_finite_values_whose_sum_overflows(circle, noiseless_sim):
    big = 1e308
    assert state_row((big,) * 6) == (big,) * 6
    # a stepped state whose components sum past the float range is still finite
    reached = step(noiseless_sim, circle, (1.0, 0.0, 0.0, big, big, 0.0), (0.0, 0.0))
    assert reached[3] == reached[4] == big
    assert math.isinf(sum(reached))


def test_action_fast_path_keeps_the_box():
    assert clamp_action(-1.0, 1.0) == (-1.0, 1.0)
    assert clamp_action(1.0, -1.0) == (1.0, -1.0)
    for edge in (1.0, -1.0):
        outside = math.nextafter(edge, 2.0 * edge)
        assert clamp_action(outside, 0.0) == (edge, 0.0)
        assert clamp_action(0.0, outside) == (0.0, edge)
    # inside the box every bit is kept, the sign of zero too
    inside = np.random.default_rng(0).uniform(-1.0, 1.0, size=(1000, 2)).tolist()
    inside += [[-0.0, 0.0], [5e-324, -5e-324]]
    for u_a, u_steer in inside:
        kept = clamp_action(u_a, u_steer)
        assert [float.hex(v) for v in kept] == [float.hex(u_a), float.hex(u_steer)]


# --- clamping in the loop ------------------------------------------------------------------

def test_rollout_applies_actions_as_they_are_and_clamps_the_rest(circle, noiseless_sim):
    traj = rollout(noiseless_sim, circle, lambda y, x: (0.3, 0.1), default_start_state(), 3,
                   rng_stream(0, 0))
    assert traj.u_applied.tolist() == [[0.3, 0.1]] * 3
    traj = rollout(noiseless_sim, circle, lambda y, x: np.array([4.0, -2.0]),
                   default_start_state(), 3, rng_stream(0, 0))
    assert traj.u_applied.tolist() == [[1.0, -1.0]] * 3
    # the relabeled action is recorded through the same clamp
    traj = rollout(noiseless_sim, circle, lambda y, x: (0.3, 0.1), default_start_state(), 3,
                   rng_stream(0, 0), relabel=lambda x: (-7.0, 0.5))
    assert traj.u_expert.tolist() == [[-1.0, 0.5]] * 3
    with pytest.raises(ValueError, match="u_a must be finite"):
        rollout(noiseless_sim, circle, lambda y, x: (math.nan, 0.0),
                default_start_state(), 3, rng_stream(0, 0))
