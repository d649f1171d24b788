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
from enum import Enum
from typing import Iterator, List, Optional, Sequence

import numpy as np

from .core import Outcome, TerminationReason, Trajectory, VehicleState
from .sim import SimConfig, default_start_state, rng_stream, rollout
from .track import TrackSpec


class EvalTermination(Enum):
    FIFTY_LAPS = "fifty_laps"
    CONSTRAINT_VIOLATION = "constraint_violation"
    TIMEOUT = "timeout"
    SINGULARITY = "singularity"


_FAILURE_TERMINATION = {
    TerminationReason.CONSTRAINT_VIOLATION: EvalTermination.CONSTRAINT_VIOLATION,
    TerminationReason.TIMEOUT: EvalTermination.TIMEOUT,
    TerminationReason.SINGULARITY: EvalTermination.SINGULARITY,
}


@dataclass(frozen=True)
class EvalResult:
    laps_completed: int
    lap_times: tuple
    terminated_by: EvalTermination
    lap_mean: float
    lap_std: float
    lap_min: float
    lap_max: float

    def __post_init__(self):
        if len(self.lap_times) != self.laps_completed:
            raise ValueError("lap_times length must equal laps_completed")


def _result(lap_times: List[float], terminated_by: EvalTermination) -> EvalResult:
    if lap_times:
        arr = np.asarray(lap_times)
        stats = (float(arr.mean()), float(arr.std()), float(arr.min()), float(arr.max()))
    else:
        stats = (0.0, 0.0, 0.0, 0.0)
    return EvalResult(laps_completed=len(lap_times), lap_times=tuple(lap_times),
                      terminated_by=terminated_by, lap_mean=stats[0],
                      lap_std=stats[1], lap_min=stats[2], lap_max=stats[3])


def chained_laps(policy, cfg: SimConfig, track: TrackSpec, seed: int,
                 laps: int) -> Iterator[Trajectory]:
    """Yield up to ``laps`` chained lap attempts from the standard start; a
    failed attempt is the last.  Every lap draws from one noise stream."""
    rng = rng_stream(seed)
    x = default_start_state(v_long=1.0, s=0.0)
    for _ in range(laps):
        traj = rollout(cfg, track, policy, x, cfg.max_steps, rng, observe_unread=False)
        yield traj
        if traj.outcome is not Outcome.SUCCESS:
            return
        x = VehicleState(*traj.x_next[-1].tolist())


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
        if traj.outcome is not Outcome.SUCCESS:
            return _result(lap_times, _FAILURE_TERMINATION[traj.termination_reason])
        lap_times.append(len(traj) * cfg.dt)
    return _result(lap_times, EvalTermination.FIFTY_LAPS)


def early_stop_epoch(laps: Sequence[int], full_laps: int) -> Optional[int]:
    """The epoch training stops at: the second whose evaluation drove ``full_laps``.

    ``laps`` holds each epoch's completed laps, epoch 0 first; ``None`` while
    fewer than two evaluations were full.
    """
    full = [epoch for epoch, n in enumerate(laps) if n >= full_laps]
    return full[1] if len(full) >= 2 else None
