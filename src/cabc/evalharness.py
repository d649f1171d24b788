"""Closed-loop evaluation: chained lap attempts, lap statistics, early stopping.

Evaluation always starts from the standard start state and chains lap
iterations, carrying the terminal state of each completed lap into the next
attempt.  For a policy that reads observations, observation noise stays on
(the policy must cope with it at test time).  A ``state_feedback`` policy is
not observed at all: the observation stream feeds nothing but the output
map, so skipping it leaves every result unchanged.  No actuation noise is
injected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

from .core import TerminationReason, Trajectory, rng_stream
from .sim import SimConfig, default_start_state, rollout
from .track import TrackSpec


def _lap_stat(name: str) -> property:
    """The lap times' ``ndarray`` reduction ``name``; 0.0 with no lap completed."""
    return property(lambda self: float(getattr(np.asarray(self.lap_times), name)())
                    if self.lap_times else 0.0)


@dataclass(frozen=True)
class EvalResult:
    """The completed laps' times and how the last lap attempt ended:
    ``REACHED_TARGET`` once every requested lap was driven."""

    lap_times: tuple
    terminated_by: TerminationReason

    @property
    def laps_completed(self) -> int:
        return len(self.lap_times)

    lap_mean = _lap_stat("mean")
    lap_std = _lap_stat("std")
    lap_min = _lap_stat("min")
    lap_max = _lap_stat("max")


def chained_laps(policy, cfg: SimConfig, track: TrackSpec, seed: int,
                 laps: int) -> Iterator[Trajectory]:
    """Yield up to ``laps`` chained lap attempts from the standard start; a
    failed attempt is the last.  Every lap draws from one noise stream."""
    rng = rng_stream(seed)
    x = default_start_state(v_long=1.0, s=0.0)
    for _ in range(laps):
        traj = rollout(cfg, track, policy, x, cfg.max_steps, rng, observe_unread=False)
        yield traj
        if traj.termination_reason is not TerminationReason.REACHED_TARGET:
            return
        x = traj.states[-1]


def evaluate(policy, cfg: SimConfig, track: TrackSpec, seed: int,
             laps: int = 50) -> EvalResult:
    """Drive up to ``laps`` consecutive laps; stop at the first failure.

    Lap time is the step count times ``dt``.  Each lap attempt re-anchors its
    progress target at the actual terminal state of the previous lap, so a
    policy in a periodic steady state produces identical lap times.
    """
    if laps < 1:
        raise ValueError("laps must be >= 1")
    lap_times: List[float] = []
    for traj in chained_laps(policy, cfg, track, seed, laps):
        if traj.termination_reason is TerminationReason.REACHED_TARGET:
            lap_times.append(len(traj) * cfg.dt)
    # the last attempt, failed or the last lap asked for, says how it ended
    return EvalResult(tuple(lap_times), traj.termination_reason)


def full_epochs(laps: Sequence[int], full_laps: int) -> List[int]:
    """The epochs whose evaluation drove ``full_laps``, in order.

    ``laps`` holds each epoch's completed laps, epoch 0 first.
    """
    return [epoch for epoch, n in enumerate(laps) if n >= full_laps]


def early_stop_epoch(laps: Sequence[int], full_laps: int) -> Optional[int]:
    """The epoch training stops at: the second of :func:`full_epochs`;
    ``None`` while fewer than two evaluations were full."""
    full = full_epochs(laps, full_laps)
    return full[1] if len(full) >= 2 else None
