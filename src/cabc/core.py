"""Shared domain types, the labeled-pool record, and dataset persistence.

The vehicle lives in Frenet coordinates attached to a closed reference path:
arc length ``s`` (stored unwrapped so progress is monotone across laps),
lateral offset ``x_tran`` (left-positive), and heading error ``e_psi``.
Datasets are JSON-lines files so they can be appended to during iterative
collection; gzip is used transparently for ``.gz`` paths.

An observation is one row of floats, ``(v_long, v_tran, omega_psi, *preview)``:
the noisy body velocities, then the lane centre's vehicle-frame lateral offset
at each preview distance.  ``sim.observe`` returns it; policies,
``Trajectory.y`` and the dataset lines take it as it is.

A state is one row of six floats, ``(v_long, v_tran, omega_psi, s, x_tran,
e_psi)`` (:data:`STATE_FIELDS`), and an action one pair ``(u_a, u_steer)``,
each component in [-1, 1]: tuples in the closed loop, array rows in a
:class:`Trajectory` and lists in the files.  :func:`state_row` and
:func:`clamp_action` make them from other numbers, checked.

Trajectory files hold a ``{"kind": "traj", "traj_id", "reason", "n",
"x_end"}`` header per rollout, ``n`` being its step count and ``x_end`` the
state its last step reached (the start state if it took none), and one
``{"kind": "sample", "traj_id", "k", "x", "y", "u_expert", "u_applied"}``
line per step ``k = 0 ... n - 1``, whose ``x`` is the state the step left.
Pool files hold one ``{"kind": "pool", "set", "x"}`` line per state of the
labeling pools, with a 0/1 ``minus`` flag on the ``"query"`` ones.
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


@dataclass(frozen=True)
class LabeledPool:
    """The safety-labeling pools as raw ``(n, 6)`` state arrays: the I/O record.

    ``d_plus`` holds the states of successful rollouts (known safe) and
    ``d_query`` those of failed ones (undecided); ``minus`` marks the query
    rows the auto-labeler keeps as negatives, so the negatives are a subset
    of the undecided states by construction.  Training keeps the pools as
    row indices into its sample store and builds this record once, at the
    end of a run.
    """

    d_plus: np.ndarray
    d_query: np.ndarray
    minus: np.ndarray

    def __post_init__(self):
        for name in ("d_plus", "d_query"):
            if np.shape(getattr(self, name))[1:] != (6,):
                raise ValueError(f"{name} must be an (n, 6) array of raw states")
        if np.shape(self.minus) != (len(self.d_query),):
            raise ValueError("minus must hold one flag per d_query row")


# --- JSON-lines persistence -------------------------------------------------

def _open(path, mode: str) -> IO:
    if str(path).endswith(".gz"):
        # a zero header timestamp keeps the file's bytes a function of its lines
        return io.TextIOWrapper(gzip.GzipFile(path, mode + "b", mtime=0), encoding="utf-8")
    return open(path, mode, encoding="utf-8")


_STEP_FIELDS = ("x", "y", "u_expert", "u_applied")


def _traj_lines(traj: Trajectory, tid: int):
    states = traj.states.tolist()
    yield {"kind": "traj", "traj_id": tid, "reason": traj.termination_reason.value,
           "n": len(traj), "x_end": states[-1]}
    columns = (states[:-1], traj.y.tolist(), traj.u_expert.tolist(), traj.u_applied.tolist())
    for k, row in enumerate(zip(*columns)):
        yield {"kind": "sample", "traj_id": tid, "k": k, **dict(zip(_STEP_FIELDS, row))}


def _pool_lines(pool: LabeledPool):
    for x in pool.d_plus.tolist():
        yield {"kind": "pool", "set": "plus", "x": x}
    for x, minus in zip(pool.d_query.tolist(), pool.minus.tolist()):
        yield {"kind": "pool", "set": "query", "x": x, "minus": 1 if minus else 0}


def save_dataset(pool: LabeledPool, path) -> None:
    """Write a labeled pool as one JSON object per line; trajectories go through
    :class:`DatasetWriter`."""
    with _open(path, "w") as fh:
        fh.writelines(json.dumps(obj) + "\n" for obj in _pool_lines(pool))


class DatasetWriter:
    """Incrementally append trajectories to a JSON-lines file (single writer)."""

    def __init__(self, path):
        self._fh = _open(path, "w")
        self._next_id = 0

    def write(self, traj: Trajectory) -> int:
        """Append ``traj`` and return its ``traj_id``; a rollout that skipped the
        output map (``y is None``) raises ``ValueError``."""
        if traj.y is None:
            raise ValueError("cannot write a trajectory without observations (y is None)")
        tid = self._next_id
        self._next_id += 1
        self._fh.writelines(json.dumps(obj) + "\n" for obj in _traj_lines(traj, tid))
        return tid

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


def _index(obj: dict, line_no: int, name: str) -> int:
    value = _field(obj, line_no, name)
    if type(value) is not int:
        raise DatasetFormatError(line_no, f"{name} must be an integer, got {value!r}")
    return value


@contextmanager
def _on_line(line_no: int):
    """Re-raise a ``TypeError`` or ``ValueError`` as a :class:`DatasetFormatError` of the line."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise DatasetFormatError(line_no, str(exc)) from exc


def _observation_row(values) -> tuple:
    """An observation row as floats: at least the three velocities, each finite."""
    row = tuple(map(float, values))
    if len(row) < 3:
        raise ValueError(f"expected at least 3 observation components, got {len(row)}")
    for name, value in zip(chain(STATE_FIELDS[:3], repeat("preview")), row):
        _require_finite(name, value)
    return row


def _parse_step(obj: dict, line_no: int) -> tuple:
    """A sample line's ``(x, y, u_expert, u_applied)``, each checked as its row."""
    x, y, u_expert, u_applied = (_field(obj, line_no, f) for f in _STEP_FIELDS)
    with _on_line(line_no):
        return state_row(x), _observation_row(y), _action_row(u_expert), _action_row(u_applied)


def _trajectory(steps: dict, reason: TerminationReason, n: int, x_end: tuple) -> Trajectory:
    """The record of one ``n``-step trajectory from its parsed step rows, keyed by ``k``."""
    missing = next((k for k in range(n) if k not in steps), None)
    if missing is not None:
        raise ValueError(f"no line for step {missing}")
    extra = min((k for k in steps if not 0 <= k < n), default=None)
    if extra is not None:
        raise ValueError(f"line for step {extra}, but the header gives n = {n}")
    x, y, u_expert, u_applied = zip(*map(steps.get, range(n))) if n else ((),) * 4
    # a rollout with no step has no observation row to give y its width
    y = np.array(y) if n else np.zeros((0, 0))
    return Trajectory(np.array(x + (x_end,)), y, np.reshape(u_expert, (-1, 2)),
                      np.reshape(u_applied, (-1, 2)), reason)


def load_dataset(path) -> Union[LabeledPool, list]:
    """Load a dataset written by :class:`DatasetWriter` or :func:`save_dataset`.

    Returns a list of :class:`Trajectory` for trajectory files and a
    :class:`LabeledPool` for pool files; an empty file yields an empty list.
    Malformed records raise :class:`DatasetFormatError` with the line number.
    """
    headers: dict = {}
    rows: dict = {}   # traj_id -> {k: step rows}
    pool = {"plus": [], "query": [], "minus": []}
    saw_pool = False
    saw_traj = False
    with _open(path, "r") as fh:
        for line_no, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(line_no, f"invalid JSON ({exc.msg})") from exc
            if not isinstance(obj, dict):
                raise DatasetFormatError(line_no, "record is not a JSON object")
            kind = _field(obj, line_no, "kind")
            if kind == "traj":
                saw_traj = True
                tid = _index(obj, line_no, "traj_id")
                if tid in headers:
                    raise DatasetFormatError(line_no, f"second 'traj' header for trajectory {tid}")
                reason = _field(obj, line_no, "reason")
                n = _index(obj, line_no, "n")
                if n < 0:
                    raise DatasetFormatError(line_no, f"n must be non-negative, got {n}")
                x_end = _field(obj, line_no, "x_end")
                with _on_line(line_no):
                    reason = TerminationReason(reason)
                    x_end = state_row(x_end)
                headers[tid] = (reason, n, x_end, line_no)
                rows[tid] = {}
            elif kind == "sample":
                saw_traj = True
                tid = _index(obj, line_no, "traj_id")
                k = _index(obj, line_no, "k")
                step = _parse_step(obj, line_no)
                if tid not in headers:
                    raise DatasetFormatError(
                        line_no, f"sample of trajectory {tid} before its 'traj' header")
                if k in rows[tid]:
                    raise DatasetFormatError(line_no, f"duplicate k={k} in trajectory {tid}")
                rows[tid][k] = step
            elif kind == "pool":
                saw_pool = True
                which = _field(obj, line_no, "set")
                x = _field(obj, line_no, "x")
                with _on_line(line_no):
                    x = state_row(x)
                if which == "plus":
                    pool["plus"].append(x)
                elif which == "query":
                    pool["query"].append(x)
                    minus = _field(obj, line_no, "minus")
                    if type(minus) is not int or minus not in (0, 1):
                        raise DatasetFormatError(line_no, f"minus must be 0 or 1, got {minus!r}")
                    pool["minus"].append(minus == 1)
                else:
                    raise DatasetFormatError(line_no, f"unknown pool set {which!r}")
            else:
                raise DatasetFormatError(line_no, f"unknown record kind {kind!r}")
    if saw_pool and saw_traj:
        raise DatasetFormatError(0, "file mixes pool and trajectory records")
    if saw_pool:
        return LabeledPool(d_plus=np.array(pool["plus"]).reshape(-1, 6),
                           d_query=np.array(pool["query"]).reshape(-1, 6),
                           minus=np.array(pool["minus"], dtype=bool))
    trajs = []
    for tid in sorted(headers):
        reason, n, x_end, line_no = headers[tid]
        try:
            trajs.append(_trajectory(rows[tid], reason, n, x_end))
        except ValueError as exc:
            raise DatasetFormatError(line_no, f"trajectory {tid}: {exc}") from exc
    return trajs
