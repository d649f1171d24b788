"""Plain-text ``key = value`` configuration files.

One flat namespace covers simulator, trainer, and expert settings so a run
can be reproduced from its snapshot alone.  Each key is a field of
``SimConfig``, ``TrainConfig``, ``PidGains`` (prefixed ``pid_``) or
``RaceParams`` (prefixed ``race_``), and reads and writes by that field's
type.  The exceptions: ``lambda`` sets ``TrainConfig.lam``, and ``v_ref`` is
the PID expert's speed reference.  Unknown keys are rejected: silent typos in
experiment configs are worse than a hard error.  An option that names a
setting (``train --method/--obs/--seed``, ``eval --obs/--laps``) replaces the
file's value only when it is given.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Mapping, Tuple, get_type_hints

from .experts import PidGains, RaceParams
from .sim import SimConfig
from .trainer import TrainConfig


def _parse_flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError("expected 0 or 1")
    return text == "1"


# how a value of each field type reads from and writes to config text
_PARSE = {float: float, int: int, str: str, bool: _parse_flag,
          Tuple[int, ...]: lambda text: tuple(int(t) for t in text.split(",") if t)}
_RENDER = {float: repr, int: repr, str: str, bool: lambda flag: "1" if flag else "0",
           Tuple[int, ...]: lambda widths: ",".join(str(w) for w in widths)}


def _field_keys(cls, prefix: str = "", renamed: Mapping[str, str] = {}) -> Dict[str, tuple]:
    """``{key: (field name, field type)}`` for the fields of ``cls``, in field order."""
    hints = get_type_hints(cls)
    return {renamed.get(f.name, prefix + f.name): (f.name, hints[f.name])
            for f in dataclasses.fields(cls)
            if not dataclasses.is_dataclass(hints[f.name])}   # TrainConfig.sim has its own keys


_SIM_KEYS = _field_keys(SimConfig)
_TRAIN_KEYS = _field_keys(TrainConfig, renamed={"lam": "lambda"})
_PID_KEYS = _field_keys(PidGains, "pid_")
_RACE_KEYS = _field_keys(RaceParams, "race_")
_EXPERT_KEYS = {"v_ref": ("v_ref", float), **_PID_KEYS, **_RACE_KEYS}

KNOWN_KEYS = {**_SIM_KEYS, **_TRAIN_KEYS, **_EXPERT_KEYS}


def _parse(key: str, text: str):
    try:
        return _PARSE[KNOWN_KEYS[key][1]](text)
    except ValueError as exc:
        raise ValueError(f"{key} = {text!r}: {exc}") from None


def parse_config_file(path) -> Dict[str, str]:
    values: Dict[str, str] = {}
    first_line: Dict[str, int] = {}
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
            if key in first_line:
                raise ValueError(f"{path}: line {line_no}: {key!r} is already set "
                                 f"on line {first_line[key]}")
            try:
                _parse(key, value)
            except ValueError as exc:
                raise ValueError(f"{path}: line {line_no}: {exc}") from None
            first_line[key] = line_no
            values[key] = value
    return values


def _record(cls, values: Dict[str, str], keys: Dict[str, tuple], **given):
    """``cls`` from the ``given`` fields and the parsed value of each of its
    ``keys`` that ``values`` sets; a field it refuses is named by its key."""
    parsed = {keys[key][0]: _parse(key, text) for key, text in values.items() if key in keys}
    try:
        return cls(**given, **parsed)
    except ValueError as exc:
        for key, (name, _) in keys.items():
            if str(exc).startswith(name + " "):
                raise ValueError(key + str(exc)[len(name):]) from None
        raise


def sim_config_from(values: Dict[str, str]) -> SimConfig:
    return _record(SimConfig, values, _SIM_KEYS)


def train_config_from(values: Dict[str, str], sim: SimConfig) -> TrainConfig:
    return _record(TrainConfig, values, _TRAIN_KEYS, sim=sim)


def expert_params_from(values: Dict[str, str]) -> Tuple[float, PidGains, RaceParams]:
    v_ref = _parse("v_ref", values["v_ref"]) if "v_ref" in values else 1.0
    if not 0 < v_ref < math.inf:
        raise ValueError(f"v_ref must be positive and finite, got {v_ref!r}")
    return (v_ref, _record(PidGains, values, _PID_KEYS),
            _record(RaceParams, values, _RACE_KEYS))


def settings_from(values: Dict[str, str]) -> Tuple[TrainConfig, tuple]:
    """Every record ``values`` sets, each checked: the ``TrainConfig`` and the
    expert's ``(v_ref, PidGains, RaceParams)``."""
    return train_config_from(values, sim_config_from(values)), expert_params_from(values)


def snapshot_config(cfg: TrainConfig, values: Dict[str, str]) -> str:
    """Render a full, reloadable snapshot of the effective configuration.

    Every simulator and trainer key is written, in field order, followed by
    the expert keys the run's own config file set, sorted.
    """
    lines = [f"{key} = {_RENDER[kind](getattr(obj, name))}"
             for obj, keys in ((cfg.sim, _SIM_KEYS), (cfg, _TRAIN_KEYS))
             for key, (name, kind) in keys.items()]
    lines += [f"{key} = {values[key]}" for key in sorted(_EXPERT_KEYS) if key in values]
    return "\n".join(lines) + "\n"
