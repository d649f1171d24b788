import dataclasses

import pytest

from cabc.config import (
    expert_params_from,
    parse_config_file,
    sim_config_from,
    snapshot_config,
    train_config_from,
)
from cabc.experts import PidGains, RaceParams
from cabc.sim import SimConfig
from cabc.trainer import TrainConfig

_OTHER_TEXT = {"method": "bc", "observation_mode": "full_state"}


def _changed(name, value):
    """A valid value of a config field that differs from ``value``."""
    if name == "preview_distances":
        return tuple(0.75 * (i + 1) for i in range(4))
    if name == "hidden":
        return (7, 5)
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 0.125
    return _OTHER_TEXT[name]


def _all_changed(cls, **kw):
    base = cls(**kw)
    return dataclasses.replace(base, **{
        f.name: _changed(f.name, getattr(base, f.name))
        for f in dataclasses.fields(cls) if f.name not in kw})


def test_snapshot_round_trips_every_key(tmp_path):
    sim = _all_changed(SimConfig)
    cfg = _all_changed(TrainConfig, sim=sim)
    for obj, default in ((sim, SimConfig()), (cfg, TrainConfig())):
        for f in dataclasses.fields(obj):
            if f.name != "sim":
                assert getattr(obj, f.name) != getattr(default, f.name), f.name
    path = tmp_path / "config.txt"
    path.write_text(snapshot_config(cfg, {}))
    values = parse_config_file(path)
    rebuilt = train_config_from(values, sim_config_from(values))
    assert rebuilt == cfg


def test_snapshot_keeps_the_expert_keys_it_was_given(tmp_path):
    cfg = TrainConfig()
    text = snapshot_config(cfg, {"race_kp_v": "2.5", "v_ref": "1.25", "epochs": "3"})
    assert text.endswith("race_kp_v = 2.5\nv_ref = 1.25\n")
    assert "epochs = 50\n" in text   # trainer keys come from the config itself
    path = tmp_path / "config.txt"
    path.write_text(text)
    assert parse_config_file(path)["v_ref"] == "1.25"


# every key a snapshot writes, in the order it writes them; a reordered
# dataclass field must not silently reorder config.txt
_SNAPSHOT_KEYS = [
    "dt", "v_max", "drive_gain", "drag_lin", "drag_quad", "stiff_front", "stiff_rear",
    "l_front", "l_rear", "yaw_radius_sq", "steer_max", "v_slip_floor", "half_width_margin",
    "e_psi_max", "noise_sigma_v", "noise_sigma_kappa", "preview_k", "preview_spacing",
    "max_steps", "lap_target",
    "epochs", "alpha", "rho", "lambda", "k_f", "k_p", "episodes_per_epoch",
    "actuation_noise_sigma", "hull_tol", "neighbor_cap", "batch_size", "lr_policy", "lr_dyn",
    "lr_clf", "grad_steps_policy", "grad_steps_dyn", "grad_steps_clf", "seed", "method",
    "observation_mode", "hidden", "eval_laps", "early_stop",
]


def test_snapshot_key_order_is_pinned():
    text = snapshot_config(TrainConfig(), {})
    assert [line.split(" = ")[0] for line in text.splitlines()] == _SNAPSHOT_KEYS


def test_expert_params_round_trip_every_field(tmp_path):
    gains, race = _all_changed(PidGains), _all_changed(RaceParams)
    for obj, default in ((gains, PidGains()), (race, RaceParams())):
        for f in dataclasses.fields(obj):
            assert getattr(obj, f.name) != getattr(default, f.name), f.name
    keys = {"v_ref": 1.375}
    keys.update((f"pid_{f.name}", getattr(gains, f.name)) for f in dataclasses.fields(gains))
    keys.update(("race_alat_max" if f.name == "a_lat_max" else f"race_{f.name}",
                 getattr(race, f.name)) for f in dataclasses.fields(race))
    path = tmp_path / "expert.cfg"
    path.write_text("".join(f"{key} = {value!r}\n" for key, value in keys.items()))
    assert expert_params_from(parse_config_file(path)) == (1.375, gains, race)


def _parse_text(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return parse_config_file(path)


def test_bad_value_names_its_key_file_and_line(tmp_path):
    with pytest.raises(ValueError, match=r"run\.cfg: line 2: epochs = 'two': invalid literal"):
        _parse_text(tmp_path, "seed = 3\nepochs = two\n")
    with pytest.raises(ValueError, match=r"^hidden = '64,x'"):
        train_config_from({"hidden": "64,x"}, SimConfig())


@pytest.mark.parametrize("text", ["2", "-1", "true"])
def test_early_stop_takes_only_0_or_1(tmp_path, text):
    with pytest.raises(ValueError, match="early_stop"):
        _parse_text(tmp_path, f"early_stop = {text}\n")
    with pytest.raises(ValueError, match="early_stop"):
        train_config_from({"early_stop": text}, SimConfig())


def test_key_set_twice_names_both_lines(tmp_path):
    with pytest.raises(ValueError, match=r"line 4: 'epochs' is already set on line 1"):
        _parse_text(tmp_path, "epochs = 3\nseed = 1\n\nepochs = 4\n")


def test_negative_preview_spacing_is_rejected():
    with pytest.raises(ValueError, match="preview_distances"):
        sim_config_from({"preview_spacing": "-1"})
