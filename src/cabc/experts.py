"""Full-state expert policies.

Both experts are privileged: they read the true vehicle state.  The PID
expert is deliberately conservative; the racing expert trades margin for lap
time and is *not* guaranteed safe, which is what makes its noisy rollouts
produce genuine failures for the labeling pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

from .core import check_fields, clamp_action
from .sim import SimConfig
from .track import TrackSpec, curvature_at, peak_curvature


@dataclass(frozen=True)
class PidGains:
    kp_v: float = 1.2
    ki_v: float = 0.6
    kp_lat: float = 0.7    # rad of steering per m of lateral error
    kd_lat: float = 1.1    # rad per rad of heading error

    def __post_init__(self):
        check_fields(self, non_negative=[f.name for f in fields(self)])


def _steer_feedforward(cfg: SimConfig, kappa: float, v: float) -> float:
    """Kinematic steering for path curvature plus the linear-tire understeer term."""
    wheelbase = cfg.l_front + cfg.l_rear
    a_lat = v * v * kappa
    return math.atan(wheelbase * kappa) + 0.5 * a_lat * (1.0 / cfg.stiff_front
                                                         - 1.0 / cfg.stiff_rear)


def _drag_throttle(cfg: SimConfig, v: float) -> float:
    return (cfg.drag_lin * v + cfg.drag_quad * v * v) / cfg.drive_gain


class PidCenterline:
    """Centerline-tracking expert: PI speed control, PD lateral control.

    The speed loop carries an integrator, so use one instance per rollout.
    """

    state_feedback = True   # reads only the true state, never the observation

    def __init__(self, cfg: SimConfig, track: TrackSpec, v_ref: float = 1.0,
                 gains: PidGains = PidGains()):
        self.cfg = cfg
        self.track = track
        self.v_ref = v_ref
        self.gains = gains
        self._integral = 0.0

    def __call__(self, y: Optional[tuple], x: tuple) -> tuple:
        v_long, _, _, s, x_tran, e_psi = x
        cfg, g = self.cfg, self.gains
        err_v = self.v_ref - v_long
        self._integral = min(max(self._integral + err_v * cfg.dt, -1.0), 1.0)
        u_a = _drag_throttle(cfg, self.v_ref) + g.kp_v * err_v + g.ki_v * self._integral

        kappa = curvature_at(self.track, s)
        delta = (_steer_feedforward(cfg, kappa, v_long)
                 - g.kp_lat * x_tran - g.kd_lat * e_psi)
        return clamp_action(u_a, delta / cfg.steer_max)


@dataclass(frozen=True)
class RaceParams:
    a_lat_max: float = 2.8       # lateral-acceleration budget, m/s^2
    lookahead: float = 2.8       # arc window scanned for the worst curvature, m
    kappa_floor: float = 0.12    # caps straight-line target speed
    offset_max: float = 0.40     # largest lateral offset of the racing line, m
    offset_gain: float = 0.5     # m of offset per 1/m of upcoming curvature
    offset_lead: float = 1.2     # how far ahead the offset reference looks, m
    pursuit_dist: float = 1.0    # pure-pursuit target distance, m
    kp_v: float = 2.0
    ki_v: float = 0.4

    def __post_init__(self):
        # a zero budget, floor or pursuit distance is a divisor of the rollout
        check_fields(self, positive=("a_lat_max", "kappa_floor", "pursuit_dist"),
                     non_negative=[f.name for f in fields(self)])


class RacingExpert:
    """Curvature-aware speed profile plus pure-pursuit on an offset racing line.

    Runs near the handling limit on purpose: the speed profile has no margin
    for disturbance, so actuation noise produces real constraint violations.
    """

    state_feedback = True   # reads only the true state, never the observation

    def __init__(self, cfg: SimConfig, track: TrackSpec, params: RaceParams = RaceParams()):
        self.cfg = cfg
        self.track = track
        self.params = params
        self._integral = 0.0

    def target_speed(self, s: float) -> float:
        p = self.params
        worst = max(p.kappa_floor, peak_curvature(self.track, s, p.lookahead, 0.25))
        return min(self.cfg.v_max, math.sqrt(p.a_lat_max / worst))

    def offset_ref(self, s: float) -> float:
        p = self.params
        raw = curvature_at(self.track, s + p.offset_lead) * p.offset_gain
        return -min(max(raw, -p.offset_max), p.offset_max)

    def __call__(self, y: Optional[tuple], x: tuple) -> tuple:
        v_long, _, _, s, x_tran, e_psi = x
        cfg, p = self.cfg, self.params
        v_t = self.target_speed(s)
        err_v = v_t - v_long
        self._integral = min(max(self._integral + err_v * cfg.dt, -1.0), 1.0)
        u_a = _drag_throttle(cfg, v_t) + p.kp_v * err_v + p.ki_v * self._integral

        s_t = s + p.pursuit_dist
        dy = self.offset_ref(s_t) - x_tran
        alpha = math.atan2(dy, p.pursuit_dist) - e_psi
        l_d = math.hypot(p.pursuit_dist, dy)
        kappa_cmd = 2.0 * math.sin(alpha) / l_d + curvature_at(self.track, s)
        delta = _steer_feedforward(cfg, kappa_cmd, v_long)
        return clamp_action(u_a, delta / cfg.steer_max)
