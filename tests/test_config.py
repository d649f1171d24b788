import dataclasses

from cabc.config import parse_config_file, sim_config_from, snapshot_config, train_config_from
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
