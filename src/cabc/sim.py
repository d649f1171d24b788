"""Discrete-time vehicle plant on a track, and the closed-loop rollout engine.

The plant is a mass-normalized dynamic bicycle with linear tires, integrated
by forward Euler in Frenet coordinates.  Learners must treat it as a black
box: nothing here is differentiated analytically by the training code.

Sign conventions: positive steering produces positive yaw rate and growing
``x_tran`` (left of centerline).  Throttle is symmetric: negative ``u_a``
brakes (and reverses thrust), but ``v_long`` is clamped to ``[0, v_max]``.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Optional

import numpy as np

from .core import TerminationReason, Trajectory, check_fields, clamp_action, state_row
from .track import TrackSpec, advance_pose, curvature_at, frenet_to_cartesian


class SimSingularityError(RuntimeError):
    """State left the valid Frenet chart (|1 - x_tran * kappa| ~ 0)."""


@dataclass(frozen=True)
class SimConfig:
    dt: float = 0.1            # integration step, s
    v_max: float = 5.0         # longitudinal speed ceiling, m/s

    # longitudinal: v' = drive_gain*u_a - drag_lin*v - drag_quad*v^2 + w*v_tran
    drive_gain: float = 3.0    # m/s^2 at full throttle
    drag_lin: float = 0.01     # 1/s
    drag_quad: float = 0.002   # 1/m

    # lateral/yaw: linear tires, mass- and inertia-normalized
    stiff_front: float = 9.0   # m/s^2 per rad of front slip
    stiff_rear: float = 11.0
    l_front: float = 0.15      # axle distances from CG, m
    l_rear: float = 0.15
    yaw_radius_sq: float = 0.0225   # I_z / m, m^2
    steer_max: float = 0.45    # rad at |u_steer| = 1
    v_slip_floor: float = 1.2  # slip-angle denominator guard, m/s

    # constraint set: |x_tran| <= half_width - margin, |e_psi| <= e_psi_max
    half_width_margin: float = 0.1
    e_psi_max: float = math.pi / 2

    # output map: velocities plus the lane centre's lateral offsets at preview_k
    # arc ranges preview_spacing apart, Gaussian noise
    noise_sigma_v: float = 0.02
    noise_sigma_kappa: float = 0.01
    preview_k: int = 10
    preview_spacing: float = 1.0   # m

    max_steps: int = 600       # per lap attempt
    lap_target: int = 1        # laps of progress required to reach the target set

    def __post_init__(self):
        # a negative noise sigma would silently turn observation noise off
        check_fields(self, positive=("dt", "v_max", "yaw_radius_sq", "steer_max", "e_psi_max"),
                     non_negative=("drag_lin", "drag_quad", "stiff_front", "stiff_rear",
                                   "half_width_margin", "noise_sigma_v", "noise_sigma_kappa",
                                   "preview_k", "preview_spacing"),
                     at_least_one=("max_steps", "lap_target"))
        # derived, not a field; observe reads it every step
        object.__setattr__(self, "preview_distances", tuple(
            self.preview_spacing * (i + 1) for i in range(self.preview_k)))


def _derivatives(cfg: SimConfig, kappa: float, x: tuple, u: tuple):
    v_long, v_tran, omega, s, x_tran, e_psi = x
    u_a, u_steer = u
    l_front, l_rear = cfg.l_front, cfg.l_rear
    delta = u_steer * cfg.steer_max
    v_eff = max(v_long, cfg.v_slip_floor)
    alpha_f = math.atan2(v_tran + l_front * omega, v_eff) - delta
    alpha_r = math.atan2(v_tran - l_rear * omega, v_eff)
    a_yf = -cfg.stiff_front * alpha_f
    a_yr = -cfg.stiff_rear * alpha_r
    cos_d = math.cos(delta)
    sin_e, cos_e = math.sin(e_psi), math.cos(e_psi)

    denom = 1.0 - x_tran * kappa
    if abs(denom) < 1e-6:
        raise SimSingularityError(f"Frenet singularity at s={s!r}, x_tran={x_tran!r}")
    s_dot = (v_long * cos_e - v_tran * sin_e) / denom

    dv_long = (cfg.drive_gain * u_a - cfg.drag_lin * v_long
               - cfg.drag_quad * v_long * v_long + omega * v_tran)
    dv_tran = a_yf * cos_d + a_yr - omega * v_long
    domega = (l_front * a_yf * cos_d - l_rear * a_yr) / cfg.yaw_radius_sq
    dx_tran = v_long * sin_e + v_tran * cos_e
    de_psi = omega - kappa * s_dot
    return dv_long, dv_tran, domega, s_dot, dx_tran, de_psi


def step(cfg: SimConfig, track: TrackSpec, x: tuple, u: tuple) -> tuple:
    """One forward-Euler step of the plant from state row ``x`` under action
    pair ``u``: the state row it reaches.  Deterministic.

    A reached state that is not finite raises ``ValueError`` naming the field.
    """
    v_long, v_tran, omega_psi, s, x_tran, e_psi = x
    kappa = curvature_at(track, s)
    dv_long, dv_tran, domega, s_dot, dx_tran, de_psi = _derivatives(cfg, kappa, x, u)
    dt = cfg.dt
    reached = (min(max(v_long + dt * dv_long, 0.0), cfg.v_max), v_tran + dt * dv_tran,
               omega_psi + dt * domega, s + dt * s_dot, x_tran + dt * dx_tran,
               e_psi + dt * de_psi)
    # a float sum is finite only if every term is; one that merely overflows
    # takes the per-field check, which passes it
    if math.isfinite(sum(reached)):
        return reached
    return state_row(reached)


def lane_preview(track: TrackSpec, x: tuple, distances) -> list:
    """Vehicle-frame lateral offsets of the lane center at arc ranges ahead.

    This is the information a forward lane camera provides: for each lookahead
    arc distance ``d`` the lateral coordinate (left positive) of the centerline
    pose at ``s + d`` in the vehicle's own frame.  It blends lateral deviation,
    heading error, and upcoming curvature, with no absolute localization.  The
    segment index walks the track's pose table forward, so ``distances`` must
    be finite, non-negative and ascending; anything else raises ``ValueError``.
    Past the lap end the table continues into the next lap, so a track that
    does not close in position puts no jump into the preview.
    """
    _, _, _, s, x_tran, e_psi = x
    starts, segments, poses = track._starts, track.segments, track._poses
    n_seg = len(segments)
    lap = starts[-1]
    # the vehicle's pose, in the frame of the lap that holds s + d
    vx, vy, psi_v = frenet_to_cartesian(track, s, x_tran, e_psi)
    sin_v, cos_v = math.sin(psi_v), math.cos(psi_v)
    s_w = s % lap
    seg = bisect.bisect_right(starts, s_w, 0, n_seg) - 1
    lap_start = prev = 0.0
    out = []
    for d in map(float, distances):
        if not prev <= d < math.inf:
            raise ValueError(f"preview distances must be finite, non-negative and ascending, "
                             f"got {d!r} after {prev!r}")
        prev = d
        arc = s_w + d - lap_start
        # index by index, so float rounding cannot stall the walk
        while arc >= starts[seg + 1]:
            seg += 1
            if seg == n_seg:
                # into the next lap's frame: undo the lap end's pose
                end_x, end_y, end_psi, sin_n, cos_n = poses[n_seg]
                dx, dy = vx - end_x, vy - end_y
                vx, vy = cos_n * dx + sin_n * dy, cos_n * dy - sin_n * dx
                psi_v -= end_psi
                sin_v, cos_v = math.sin(psi_v), math.cos(psi_v)
                seg = 0
                lap_start += lap
                arc = s_w + d - lap_start
        px, py, _, _, _ = advance_pose(poses[seg], arc - starts[seg], segments[seg][1])
        out.append(cos_v * (py - vy) - sin_v * (px - vx))
    return out


def observe(cfg: SimConfig, track: TrackSpec, x: tuple,
            rng: Optional[np.random.Generator] = None) -> tuple:
    """Output map: the observation row ``(v_long, v_tran, omega_psi, *preview)``.

    The body velocities and :func:`lane_preview` at ``cfg.preview_distances``,
    each plus Gaussian noise from ``rng`` (none without it): finite floats,
    as the state and the noise are.
    """
    v_long, v_tran, omega_psi, _, _, _ = x
    preview = lane_preview(track, x, cfg.preview_distances)
    # draws as Python floats, so every sum is float + float
    if rng is not None and cfg.noise_sigma_v > 0.0:
        n_long, n_tran, n_omega = rng.normal(0.0, cfg.noise_sigma_v, size=3).tolist()
        v_long, v_tran, omega_psi = v_long + n_long, v_tran + n_tran, omega_psi + n_omega
    if rng is not None and cfg.noise_sigma_kappa > 0.0 and preview:
        noise = rng.normal(0.0, cfg.noise_sigma_kappa, size=len(preview)).tolist()
        preview = map(operator.add, preview, noise)
    return (v_long, v_tran, omega_psi, *preview)


def in_constraints(cfg: SimConfig, track: TrackSpec, x: tuple) -> bool:
    v_long, _, _, _, x_tran, e_psi = x
    lat_bound = track.half_width - cfg.half_width_margin
    return (abs(x_tran) <= lat_bound
            and 0.0 <= v_long <= cfg.v_max
            and abs(e_psi) <= cfg.e_psi_max)


def in_target(cfg: SimConfig, track: TrackSpec, x: tuple, s_start: float) -> bool:
    """Target set: required lap progress made while still inside the constraints."""
    _, _, _, s, _, _ = x
    return (s >= s_start + cfg.lap_target * track.lap_length
            and in_constraints(cfg, track, x))


# Policies are callables (observation row, state row) -> action pair, handed
# the row as :func:`observe` returns it.  Full-state experts ignore the
# observation and output-feedback policies the state; one whose
# ``state_feedback`` attribute is true never reads its observation, so it may
# be handed ``None`` (recorded as ``y=None``).
Policy = Callable[[Optional[tuple], tuple], tuple]


def default_start_state(v_long: float = 1.0, s: float = 0.0) -> tuple:
    return state_row((v_long, 0.0, 0.0, s, 0.0, 0.0))


def rollout(cfg: SimConfig, track: TrackSpec, policy: Policy, x0,
            max_steps: int, rng: np.random.Generator,
            relabel: Optional[Callable[[tuple], tuple]] = None,
            observe_unread: bool = True) -> Trajectory:
    """Run the closed loop from state row ``x0`` until target, constraint
    violation, or timeout.

    Every policy output passes :func:`core.clamp_action` before stepping, so
    it enters the plant as a pair of floats inside the input box.
    ``relabel`` optionally supplies the expert action recorded at every step,
    clamped the same way; without it the applied action doubles as the
    expert action.

    ``rng`` feeds only the observation noise.  With ``observe_unread=False``
    a policy whose ``state_feedback`` attribute is true is not observed: it
    is handed ``None`` and the trajectory records ``y=None``, while its
    states and actions are unchanged.  Callers that keep the observations
    (dataset collection) leave the default.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    skip_observe = not observe_unread and getattr(policy, "state_feedback", False)
    x = state_row(x0)
    _, _, _, s_start, _, _ = x
    # one row per step, each observation as ``observe`` returned it
    states = [x]
    observations, expert_actions, applied_actions = [], [], []
    reason = TerminationReason.TIMEOUT
    for _ in range(max_steps):
        y = None if skip_observe else observe(cfg, track, x, rng)
        u = clamp_action(*policy(y, x))
        try:
            reached = step(cfg, track, x, u)
        except SimSingularityError:
            reason = TerminationReason.SINGULARITY
            break
        observations.append(y)
        expert_actions.append(clamp_action(*relabel(x)) if relabel is not None else u)
        applied_actions.append(u)
        states.append(reached)
        x = reached
        if not in_constraints(cfg, track, x):
            reason = TerminationReason.CONSTRAINT_VIOLATION
            break
        if in_target(cfg, track, x, s_start):
            reason = TerminationReason.REACHED_TARGET
            break
    y = None if skip_observe else _rows(observations, 3 + len(cfg.preview_distances))
    return Trajectory(_rows(states, 6), y, _rows(expert_actions, 2), _rows(applied_actions, 2),
                      reason)


def _rows(rows: list, width: int) -> np.ndarray:
    # a row of another width fails the reshape
    return np.fromiter(chain.from_iterable(rows), float).reshape(len(rows), width)
