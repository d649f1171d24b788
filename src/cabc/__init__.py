"""Constraint-aware behavior cloning on a self-contained Frenet-frame racing simulator."""

__version__ = "0.1.0"

from .core import (
    LabeledPool,
    Outcome,
    TerminationReason,
    Trajectory,
    load_dataset,
    save_dataset,
)
from .track import TrackSpec, curvature_at, default_tracks, frenet_to_cartesian, get_track
from .sim import SimConfig, in_constraints, in_target, observe, rollout, step

__all__ = [
    "LabeledPool", "Outcome", "TerminationReason", "Trajectory",
    "load_dataset", "save_dataset",
    "TrackSpec", "curvature_at", "default_tracks", "frenet_to_cartesian", "get_track",
    "SimConfig", "in_constraints", "in_target", "observe", "rollout", "step",
]
