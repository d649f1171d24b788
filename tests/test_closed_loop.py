"""Closed-loop golden digests and the edge cases of the per-step row checks.

The digests pin every bit of three short seeded rollouts: each state,
observation and action is hashed through ``float.hex``.  A change to the
simulator, the experts, the policy wrappers or the validation that alters
any float, any random draw or the termination of a rollout changes them.
"""

import bisect
import hashlib
import math
import warnings

import numpy as np
import pytest

from cabc import sim
from cabc.core import STATE_FIELDS, Trajectory, clamp_action, state_row
from cabc.experts import PidCenterline, RaceParams, RacingExpert
from cabc.sim import SimConfig, default_start_state, lane_preview, rng_stream, rollout, step
from cabc.track import (
    TrackSpec,
    centerline_pose,
    curvature_at,
    default_tracks,
    frenet_to_cartesian,
    peak_curvature,
)
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


# SHA-256 of the three rollouts, recorded when lane_preview came to read the
# centreline pose table
GOLDEN = {
    "racing_gp": "ba4e55fff1bbcc25f89327a9b83c0c23492808d9d62d39edf9a468193bdff8d0",
    "pid_circle": "02457d53b2aa839997ed84c9b28ac8b24308fc15fc5e52c4cc61777537f9fe67",
    "mixed_circle": "d71e7e05f356578885934081876f8091ad59d04922c52e8ffe34f65dd8d688af",
}


class TestGoldenRollouts:
    def test_racing_gp(self, gp):
        assert _digest(_racing_gp(gp)) == GOLDEN["racing_gp"]

    def test_pid_circle(self, circle):
        assert _digest(_pid_circle(circle)) == GOLDEN["pid_circle"]

    def test_mixed_circle(self, circle):
        assert _digest(_mixed_circle(circle)) == GOLDEN["mixed_circle"]


# --- one segment lookup per curvature ------------------------------------------------

def _reference_segment_index(track, s_wrapped):
    """Reference search: the last segment start at or below ``s_wrapped``,
    clamped to the segments."""
    idx = bisect.bisect_right(track._starts, s_wrapped) - 1
    return min(max(idx, 0), len(track.segments) - 1)


def _reference_curvature(track, s):
    """Reference: the curvature of the clamped segment search."""
    return track.segments[_reference_segment_index(track, s % track.lap_length)][1]


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
    seg = _reference_segment_index(track, s_w)
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
            got = lane_preview(track, x, distances)
            assert np.abs(np.subtract(got, _reference_lane_preview(track, x, distances))).max() \
                <= 1e-12


def test_lane_preview_rejects_descending_distances(gp):
    distances = [3.0, 1, 7.5, 2.0, 2.0, 10.0, 0.5]
    for x in _preview_states(gp, 10):
        for bad in (distances, np.array(distances), [-0.5, 1.0]):
            with pytest.raises(ValueError, match="ascending"):
                lane_preview(gp, x, bad)


def test_lane_preview_rejects_non_finite_distances(gp):
    for bad in ([1.0, math.inf], [math.nan], [0.5, math.nan, 2.0]):
        with pytest.raises(ValueError, match="finite"):
            lane_preview(gp, make_state(s=3.0), bad)


def _seam_track():
    """Closes in heading but not in position: the lap ends 2 m from its start."""
    return TrackSpec(segments=((1.0, 0.0), (math.pi, 1.0), (2.0, 0.0), (math.pi, 1.0)),
                     half_width=0.5, name="seam")


def test_lane_preview_is_continuous_across_an_open_seam():
    """Past the lap end the preview continues along the last segment's pose,
    as the reference walk does, and does not jump by the track's 2 m gap."""
    track = _seam_track()
    rng = np.random.default_rng(3)
    lap = track.lap_length
    for s in np.concatenate([np.linspace(lap - 10.0, lap, 41), rng.uniform(lap - 10.0, lap, 40),
                             [lap - 1e-12, -1e-15]]).tolist():
        for xt, ep in ((0.0, 0.0), (0.3, -0.4), (-0.45, 1.2)):
            x = make_state(s=s, xt=xt, ep=ep)
            for distances in (SimConfig().preview_distances, (0.5, 7.0, 7.0, 30.0, 95.0)):
                got = lane_preview(track, x, distances)
                want = _reference_lane_preview(track, x, distances)
                assert np.abs(np.subtract(got, want)).max() <= 1e-12, (s, xt, ep)


# --- one centreline pose ------------------------------------------------------------------

def _reference_advance(x, y, psi, length, kappa):
    if abs(kappa) < 1e-12:
        return x + length * math.cos(psi), y + length * math.sin(psi), psi
    psi1 = psi + kappa * length
    x1 = x + (math.sin(psi1) - math.sin(psi)) / kappa
    y1 = y - (math.cos(psi1) - math.cos(psi)) / kappa
    return x1, y1, psi1


def _reference_frenet_to_cartesian(track, s, x_tran, e_psi=0.0):
    """Reference walk: every segment from the lap start, on every call."""
    s_w = s % track.lap_length
    x, y, psi = 0.0, 0.0, 0.0
    idx = _reference_segment_index(track, s_w)
    for i in range(idx):
        x, y, psi = _reference_advance(x, y, psi, *track.segments[i])
    x, y, psi = _reference_advance(x, y, psi, s_w - track._starts[idx], track.segments[idx][1])
    return x - x_tran * math.sin(psi), y + x_tran * math.cos(psi), psi + e_psi


def _hex(values):
    return [float.hex(float(v)) for v in values]


_ALL_TRACKS = [*(t.name for t in default_tracks()), "seam"]


def _track(name):
    return _seam_track() if name == "seam" else {t.name: t for t in default_tracks()}[name]


@pytest.mark.parametrize("name", _ALL_TRACKS)
def test_frenet_to_cartesian_matches_reference_walk_bit_for_bit(name):
    track = _track(name)
    arcs = _probe_arcs(track)
    for x_tran in (0.0, track.half_width, -track.half_width):
        for s in arcs:
            want = _hex(_reference_frenet_to_cartesian(track, s, x_tran, 0.25))
            assert _hex(frenet_to_cartesian(track, s, x_tran, 0.25)) == want, (s, x_tran)
        got = frenet_to_cartesian(track, np.array(arcs), np.full(len(arcs), x_tran), 0.25)
        for k, s in enumerate(arcs):
            want = _hex(_reference_frenet_to_cartesian(track, s, x_tran, 0.25))
            assert _hex(col[k] for col in got) == want, (s, x_tran)


@pytest.mark.parametrize("name", _ALL_TRACKS)
def test_array_pose_equals_scalar_poses_bit_for_bit(name):
    track = _track(name)
    arcs = _probe_arcs(track)
    arcs += np.random.default_rng(5).uniform(-3 * track.lap_length, 3 * track.lap_length,
                                             500).tolist()
    columns = centerline_pose(track, np.array(arcs))
    assert all(col.shape == (len(arcs),) for col in columns)
    for k, s in enumerate(arcs):
        assert _hex(col[k] for col in columns) == _hex(centerline_pose(track, s)), s


@pytest.mark.parametrize("name", _ALL_TRACKS)
def test_pose_is_continuous_at_segment_ends(name):
    track = _track(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # a straight's curvature is never a divisor
        for i, end in enumerate(track._starts[1:]):
            before = centerline_pose(track, np.array([math.nextafter(end, 0.0)]))
            # the last segment ends at the lap end's pose, which a track need
            # not close onto its start
            after = track._poses[-1] if i == len(track.segments) - 1 else \
                centerline_pose(track, np.array([end]))
            for a, b in zip(before, after):
                assert abs(float(a[0]) - float(np.ravel(b)[0])) <= 1e-12, (i, end)


@pytest.mark.parametrize("name", _ALL_TRACKS)
def test_pose_repeats_every_lap(name):
    track = _track(name)
    lap = track.lap_length
    # clear of the seam, where a lap's rounding can move s across it
    arcs = np.random.default_rng(9).uniform(1e-6, lap - 1e-6, 200)
    here = np.array(centerline_pose(track, arcs))
    for shifted in (arcs + lap, arcs - lap):
        assert np.abs(np.array(centerline_pose(track, shifted)) - here).max() <= 1e-12


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
