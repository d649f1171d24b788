"""Shared domain types, the random-stream family and dataset persistence.

The vehicle lives in Frenet coordinates attached to a closed reference path:
arc length ``s`` (stored unwrapped so progress is monotone across laps),
lateral offset ``x_tran`` (left-positive), and heading error ``e_psi``.
Datasets are JSON-lines files so they can be appended to during iterative
collection; gzip is used transparently for ``.gz`` paths.

An observation is one row of floats, ``(v_long, v_tran, omega_psi, *preview)``:
the noisy body velocities, then the lane centre's vehicle-frame lateral offset
at each preview distance.  ``sim.observe`` returns it; policies,
``Trajectory.y`` and the dataset records take it as it is.

A state is one row of six floats, ``(v_long, v_tran, omega_psi, s, x_tran,
e_psi)`` (:data:`STATE_FIELDS`), and an action one pair ``(u_a, u_steer)``,
each component in [-1, 1]: tuples in the closed loop, array rows in a
:class:`Trajectory` and lists in the files.  :func:`state_row` and
:func:`clamp_action` make them from other numbers, checked.

Trajectory files hold one ``{"kind": "traj", "reason", "states", "y",
"u_expert", "u_applied"}`` record per rollout, in the order written: its
:class:`TerminationReason` value and the :class:`Trajectory` rows of each
array member as lists.  A pool file holds one ``{"kind": "pool",
"minus_per_step"}`` record: a 0/1 flag per step of the run's trajectory file,
in file order, 1 where the auto-labeler kept the state that step left in D-.
The states themselves are the trajectory file's, so each is stored once.  A
file in an earlier format (one line per step or per pooled state, or a pool
record of states) is refused at line 1, with the member it lacks named.
"""

from __future__ import annotations

import gzip
import io
import json
from contextlib import contextmanager
from dataclasses import dataclass, fields
from enum import Enum
from itertools import chain, repeat
from math import isfinite
from typing import IO, Optional, Union

import numpy as np


class DatasetFormatError(ValueError):
    """Raised when a dataset file contains a malformed record."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def check_fields(config, positive=(), non_negative=(), at_least_one=()) -> None:
    """A settings dataclass's checks: every float field finite, and the fields in
    ``positive``, ``non_negative`` and ``at_least_one`` above 0, at least 0 and at
    least 1.  NaN fails each test, and the error names the field."""
    for f in fields(config):
        if isinstance(getattr(config, f.name), float):
            _require_finite(f.name, getattr(config, f.name))
    rules = ((positive, lambda v: v > 0, "positive"),
             (non_negative, lambda v: v >= 0, "non-negative"),
             (at_least_one, lambda v: v >= 1, ">= 1"))
    for names, holds, rule in rules:
        for name in names:
            if not holds(getattr(config, name)):
                raise ValueError(f"{name} must be {rule}, got {getattr(config, name)!r}")


# the components of a state row, in order: the body velocities (m/s, m/s,
# rad/s), the unwrapped arc length (m), the lateral deviation (m, left
# positive) and the heading error (rad)
STATE_FIELDS = ("v_long", "v_tran", "omega_psi", "s", "x_tran", "e_psi")


def state_row(values) -> tuple:
    """``values`` as a state row: six finite Python floats."""
    row = tuple(map(float, values))
    if len(row) != 6:
        raise ValueError(f"expected 6 state components, got {len(row)}")
    for name, value in zip(STATE_FIELDS, row):
        _require_finite(name, value)
    return row


def clamp_action(u_a, u_steer) -> tuple:
    """The action pair ``(u_a, u_steer)`` as Python floats, each clipped into [-1, 1].

    A component already inside the box is kept bit for bit.  A non-finite one
    raises ``ValueError`` naming it: ``max(-1.0, nan)`` is -1.0, so clipping
    would silently turn nan into a full command.
    """
    u_a, u_steer = float(u_a), float(u_steer)
    if not (isfinite(u_a) and isfinite(u_steer)):
        _require_finite("u_a", u_a)
        _require_finite("u_steer", u_steer)
    return (min(1.0, max(-1.0, u_a)), min(1.0, max(-1.0, u_steer)))


def _action_row(values) -> tuple:
    """An action row as read from a file: two finite floats inside [-1, 1]."""
    row = tuple(map(float, values))
    if len(row) != 2:
        raise ValueError(f"expected 2 action components, got {len(row)}")
    for name, value in zip(("u_a", "u_steer"), row):
        _require_finite(name, value)
        if not -1.0 <= value <= 1.0:
            raise ValueError(f"{name} out of [-1, 1]: {value}")
    return row


def _observation_row(values) -> tuple:
    """An observation row as floats: at least the three velocities, each finite."""
    row = tuple(map(float, values))
    if len(row) < 3:
        raise ValueError(f"expected at least 3 observation components, got {len(row)}")
    for name, value in zip(chain(STATE_FIELDS[:3], repeat("preview")), row):
        _require_finite(name, value)
    return row


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Independent, reproducible stream ``key`` of the family rooted at ``seed``.

    The key is the ``SeedSequence`` spawn key, so distinct keys give
    independent streams and ``rng_stream(seed)`` is the root stream itself.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        entropy=seed, spawn_key=key)))


class Outcome(Enum):
    SUCCESS = "success"
    FAILURE = "failure"


class TerminationReason(Enum):
    REACHED_TARGET = "reached_target"
    CONSTRAINT_VIOLATION = "constraint_violation"
    TIMEOUT = "timeout"
    # Dynamics singularity (state left the valid Frenet chart); always a failure.
    SINGULARITY = "singularity"

    @property
    def outcome(self) -> Outcome:
        """Success means exactly that the rollout ended inside the target set."""
        return Outcome.SUCCESS if self is TerminationReason.REACHED_TARGET else Outcome.FAILURE


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A closed-loop rollout and how it ended, one array row per step.

    ``states`` holds the start state, then the state each step reached, so
    step ``k`` leaves ``states[k]`` and reaches ``states[k + 1]``.  Row ``k``
    of the other arrays holds that step's observation ``y`` (``None`` for the
    whole rollout where it skipped the output map), the expert's relabeled
    action ``u_expert`` and the action ``u_applied`` that drove the plant:
    cloning trains against ``u_expert``, the dynamics surrogate against
    ``u_applied``.
    """

    states: np.ndarray            # (n + 1, 6), state rows
    y: Optional[np.ndarray]       # (n, 3 + k), observation rows as ``sim.observe`` returns them
    u_expert: np.ndarray          # (n, 2)
    u_applied: np.ndarray         # (n, 2)
    termination_reason: TerminationReason

    def __post_init__(self):
        n = len(self.u_applied)
        shapes = {"states": (n + 1, 6), "u_expert": (n, 2), "u_applied": (n, 2)}
        if self.y is not None:
            shapes["y"] = (n, *np.shape(self.y)[-1:])
        for name, shape in shapes.items():
            rows = np.asarray(getattr(self, name), dtype=float)
            if rows.shape != shape:
                raise ValueError(f"{name} has shape {rows.shape}, expected {shape}")
            object.__setattr__(self, name, rows)

    def __len__(self) -> int:
        return len(self.u_applied)

    @property
    def outcome(self) -> Outcome:
        return self.termination_reason.outcome


# --- JSON-lines persistence -------------------------------------------------

def _open(path, mode: str) -> IO:
    if str(path).endswith(".gz"):
        # a zero header timestamp keeps the file's bytes a function of its lines
        return io.TextIOWrapper(gzip.GzipFile(path, mode + "b", mtime=0), encoding="utf-8")
    return open(path, mode, encoding="utf-8")


# a trajectory record's array members, each with the check of one of its rows
_TRAJ_ROWS = {"states": state_row, "y": _observation_row, "u_expert": _action_row,
              "u_applied": _action_row}


def _dump(fh: IO, record: dict) -> None:
    # streamed: json.dumps of a whole rollout holds about five times its text at once
    json.dump(record, fh)
    fh.write("\n")


def save_dataset(minus: np.ndarray, path) -> None:
    """Write the labeler's per-step D- flags as a pool file's one record;
    trajectories go through :class:`DatasetWriter`."""
    with _open(path, "w") as fh:
        _dump(fh, {"kind": "pool", "minus_per_step": np.asarray(minus, dtype=int).tolist()})


class DatasetWriter:
    """Append trajectories to a JSON-lines file, one record each (single writer)."""

    def __init__(self, path):
        self._fh = _open(path, "w")

    def write(self, traj: Trajectory) -> None:
        """Append ``traj``; a rollout that skipped the output map (``y is None``)
        raises ``ValueError``."""
        if traj.y is None:
            raise ValueError("cannot write a trajectory without observations (y is None)")
        _dump(self._fh, {"kind": "traj", "reason": traj.termination_reason.value,
                         **{name: getattr(traj, name).tolist() for name in _TRAJ_ROWS}})

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "DatasetWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _field(obj: dict, line_no: int, name: str):
    if name not in obj:
        raise DatasetFormatError(line_no, f"missing field {name!r}")
    return obj[name]


@contextmanager
def _on_line(line_no: int):
    """Re-raise a ``TypeError`` or ``ValueError`` as a :class:`DatasetFormatError` of the line."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise DatasetFormatError(line_no, str(exc)) from exc


def _flag(value) -> bool:
    if type(value) is not int or value not in (0, 1):
        raise ValueError(f"minus_per_step must be 0 or 1, got {value!r}")
    return value == 1


def _rows(obj: dict, line_no: int, name: str, row) -> list:
    """Member ``name`` of a record, each of its entries checked by ``row``."""
    values = _field(obj, line_no, name)
    with _on_line(line_no):
        return [row(value) for value in values]


def _trajectory(obj: dict, line_no: int) -> Trajectory:
    reason = _field(obj, line_no, "reason")
    states, y, u_expert, u_applied = (_rows(obj, line_no, name, row)
                                      for name, row in _TRAJ_ROWS.items())
    with _on_line(line_no):
        # a rollout with no step has no observation row to give y its width
        return Trajectory(np.array(states), np.array(y) if y else np.zeros((0, 0)),
                          np.reshape(u_expert, (-1, 2)), np.reshape(u_applied, (-1, 2)),
                          TerminationReason(reason))


def load_dataset(path) -> Union[np.ndarray, list]:
    """Load a dataset written by :class:`DatasetWriter` or :func:`save_dataset`.

    Returns a list of :class:`Trajectory` for trajectory files and the bool
    array of per-step D- flags for pool files; an empty file yields an empty
    list.  Malformed records raise :class:`DatasetFormatError` with the line
    number.
    """
    trajs, pool = [], None
    with _open(path, "r") as fh:
        for line_no, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(line_no, f"invalid JSON ({exc.msg})") from exc
            if not isinstance(obj, dict):
                raise DatasetFormatError(line_no, "record is not a JSON object")
            kind = _field(obj, line_no, "kind")
            if pool is not None or (kind == "pool" and trajs):
                raise DatasetFormatError(line_no, "a pool record must be its file's only record")
            if kind == "traj":
                trajs.append(_trajectory(obj, line_no))
            elif kind == "pool":
                pool = np.array(_rows(obj, line_no, "minus_per_step", _flag), dtype=bool)
            else:
                raise DatasetFormatError(line_no, f"unknown record kind {kind!r}")
    return trajs if pool is None else pool
