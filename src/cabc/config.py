"""Plain-text ``key = value`` configuration files.

One flat namespace covers simulator, trainer, and expert settings so a run
can be reproduced from its snapshot alone.  Unknown keys are rejected:
silent typos in experiment configs are worse than a hard error.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from .experts import PidGains, RaceParams
from .sim import SimConfig
from .trainer import TrainConfig

_SIM_KEYS = {
    "dt": float,
    "v_max": float,
    "drive_gain": float,
    "drag_lin": float,
    "drag_quad": float,
    "stiff_front": float,
    "stiff_rear": float,
    "l_front": float,
    "l_rear": float,
    "yaw_radius_sq": float,
    "steer_max": float,
    "v_slip_floor": float,
    "half_width_margin": float,
    "e_psi_max": float,
    "noise_sigma_v": float,
    "noise_sigma_kappa": float,
    "preview_k": int,
    "preview_spacing": float,
    "max_steps": int,
    "lap_target": int,
}


def _parse_hidden(text: str) -> Tuple[int, ...]:
    return tuple(int(t) for t in text.split(",") if t)


def _parse_flag(text: str) -> bool:
    return bool(int(text))


_TRAIN_KEYS = {
    "epochs": int,
    "alpha": float,
    "rho": float,
    "lambda": float,
    "k_f": int,
    "k_p": int,
    "episodes_per_epoch": int,
    "actuation_noise_sigma": float,
    "hull_tol": float,
    "neighbor_cap": int,
    "batch_size": int,
    "lr_policy": float,
    "lr_dyn": float,
    "lr_clf": float,
    "grad_steps_policy": int,
    "grad_steps_dyn": int,
    "grad_steps_clf": int,
    "seed": int,
    "method": str,
    "observation_mode": str,
    "hidden": _parse_hidden,
    "eval_laps": int,
    "early_stop": _parse_flag,
}

# where a config key and its TrainConfig field differ in name or text form
_TRAIN_FIELDS = {"lambda": "lam"}
_RENDER = {
    "hidden": lambda hidden: ",".join(str(h) for h in hidden),
    "early_stop": lambda flag: "1" if flag else "0",
}

_EXPERT_KEYS = {
    "v_ref": float,
    "pid_kp_v": float,
    "pid_ki_v": float,
    "pid_kp_lat": float,
    "pid_kd_lat": float,
    "race_alat_max": float,
    "race_lookahead": float,
    "race_kappa_floor": float,
    "race_offset_max": float,
    "race_offset_gain": float,
    "race_offset_lead": float,
    "race_pursuit_dist": float,
    "race_kp_v": float,
    "race_ki_v": float,
}

KNOWN_KEYS = {**_SIM_KEYS, **_TRAIN_KEYS, **_EXPERT_KEYS}


def parse_config_file(path) -> Dict[str, str]:
    values: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {line_no}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in KNOWN_KEYS:
                raise ValueError(f"{path}: line {line_no}: unknown key {key!r}")
            values[key] = value
    return values


def _typed(values: Dict[str, str],
           table: Dict[str, Callable[[str], object]]) -> Dict[str, object]:
    return {k: table[k](v) for k, v in values.items() if k in table}


def sim_config_from(values: Dict[str, str]) -> SimConfig:
    typed = _typed(values, _SIM_KEYS)
    if "preview_k" in typed or "preview_spacing" in typed:
        k = typed.pop("preview_k", len(SimConfig.preview_distances))
        spacing = typed.pop("preview_spacing", 1.0)
        typed["preview_distances"] = tuple(spacing * (i + 1) for i in range(k))
    return SimConfig(**typed)


def train_config_from(values: Dict[str, str], sim: SimConfig) -> TrainConfig:
    typed = {_TRAIN_FIELDS.get(k, k): v for k, v in _typed(values, _TRAIN_KEYS).items()}
    return TrainConfig(sim=sim, **typed)


def expert_params_from(values: Dict[str, str]) -> Tuple[float, PidGains, RaceParams]:
    typed = _typed(values, _EXPERT_KEYS)
    v_ref = typed.pop("v_ref", 1.0)
    gains = PidGains(
        kp_v=typed.get("pid_kp_v", PidGains.kp_v),
        ki_v=typed.get("pid_ki_v", PidGains.ki_v),
        kp_lat=typed.get("pid_kp_lat", PidGains.kp_lat),
        kd_lat=typed.get("pid_kd_lat", PidGains.kd_lat),
    )
    race = RaceParams(
        a_lat_max=typed.get("race_alat_max", RaceParams.a_lat_max),
        lookahead=typed.get("race_lookahead", RaceParams.lookahead),
        kappa_floor=typed.get("race_kappa_floor", RaceParams.kappa_floor),
        offset_max=typed.get("race_offset_max", RaceParams.offset_max),
        offset_gain=typed.get("race_offset_gain", RaceParams.offset_gain),
        offset_lead=typed.get("race_offset_lead", RaceParams.offset_lead),
        pursuit_dist=typed.get("race_pursuit_dist", RaceParams.pursuit_dist),
        kp_v=typed.get("race_kp_v", RaceParams.kp_v),
        ki_v=typed.get("race_ki_v", RaceParams.ki_v),
    )
    return v_ref, gains, race


def _render(key: str, value) -> str:
    if key in _RENDER:
        return _RENDER[key](value)
    return value if isinstance(value, str) else repr(value)


def snapshot_config(cfg: TrainConfig, values: Dict[str, str]) -> str:
    """Render a full, reloadable snapshot of the effective configuration.

    Every simulator and trainer key is written, in table order, followed by
    the expert keys the run's own config file set.
    """
    sim = cfg.sim
    preview = {"preview_k": len(sim.preview_distances),
               "preview_spacing": sim.preview_distances[0] if sim.preview_distances else 1.0}
    current = {key: preview[key] if key in preview else getattr(sim, key) for key in _SIM_KEYS}
    current.update((key, getattr(cfg, _TRAIN_FIELDS.get(key, key))) for key in _TRAIN_KEYS)
    lines = [f"{key} = {_render(key, value)}" for key, value in current.items()]
    lines += [f"{key} = {values[key]}" for key in sorted(_EXPERT_KEYS) if key in values]
    return "\n".join(lines) + "\n"
