import itertools
import math
import tracemalloc

import numpy as np
import pytest

from cabc.core import DatasetWriter, Outcome, TerminationReason, Trajectory, state_row
from cabc.nn import MlpParams
from cabc.sim import SimConfig
from cabc.track import TrackSpec, get_track


@pytest.fixture(scope="session")
def circle():
    return get_track("circle")


@pytest.fixture(scope="session")
def lshaped():
    return get_track("lshaped")


@pytest.fixture(scope="session")
def gp():
    return get_track("gp")


@pytest.fixture(scope="session")
def stadium():
    # 12 m straights joined by half circles: closed, with a long straight at s=0
    r = 1.5
    return TrackSpec(
        segments=((12.0, 0.0), (math.pi * r, 1.0 / r), (12.0, 0.0), (math.pi * r, 1.0 / r)),
        half_width=0.6, name="stadium")


@pytest.fixture(scope="session")
def noiseless_sim():
    return SimConfig(noise_sigma_v=0.0, noise_sigma_kappa=0.0)


def make_state(v=1.0, s=0.0, xt=0.0, ep=0.0, vt=0.0, om=0.0) -> tuple:
    """A state row ``(v_long, v_tran, omega_psi, s, x_tran, e_psi)``."""
    return state_row((v, vt, om, s, xt, ep))


def max_abs_curvature(track: TrackSpec) -> float:
    return max(abs(k) for _, k in track.segments)


def write_track_file(track: TrackSpec, path) -> None:
    """Write ``track`` in the plain-text format ``track.load_track`` reads."""
    lines = [f"halfwidth {track.half_width!r}"] + [f"{length!r} {kappa!r}"
                                                  for length, kappa in track.segments]
    path.write_text("\n".join(lines) + "\n")


def abort_after_one_epoch(monkeypatch, message: str) -> None:
    """Make ``cabc train`` stop on a non-finite loss, with ``message``, once its
    first epoch is reported."""
    import cabc.cli
    from cabc.trainer import NonFiniteLossError

    real_train = cabc.cli.train

    def aborting(*args, epoch_callback, **kw):
        def after_one_epoch(report, params):
            epoch_callback(report, params)
            raise NonFiniteLossError(message)
        return real_train(*args, epoch_callback=after_one_epoch, **kw)

    monkeypatch.setattr(cabc.cli, "train", aborting)


def cli_refuses(capsys, *argv) -> str:
    """Run ``cabc`` on ``argv`` and expect it to refuse: exit 2 with one
    ``error:`` line, no traceback and nothing printed.  Returns that line's
    message, the text after ``error: ``."""
    from cabc.cli import main

    with pytest.raises(SystemExit) as exited:
        main(list(argv))
    assert exited.value.code == 2
    out, err = capsys.readouterr()
    errors = [line for line in err.splitlines() if ": error: " in line]
    assert out == "" and len(errors) == 1 and "Traceback" not in err, err
    return errors[0].split(": error: ", 1)[1]


def mlp_from_layers(sizes, layers, head: str = "identity") -> MlpParams:
    """The network whose ``(W, b)`` layers are ``layers``, laid into one flat vector."""
    flat = np.concatenate([np.concatenate([np.ravel(W), np.ravel(b)]) for W, b in layers])
    return MlpParams(tuple(sizes), flat.astype(float, copy=False), head)


def states_array(states) -> np.ndarray:
    """Raw ``(n, 6)`` rows of ``states``, as the trainer's sample store holds them."""
    return np.array(states, dtype=float).reshape(-1, 6)


def make_trajectory(n: int, outcome: Outcome, k_preview: int = 2,
                    start: float = 0.0) -> Trajectory:
    """Synthetic chained trajectory for dataset-level tests: 1 m/s along the
    centerline, 0.1 m per step from arc length ``start``."""
    s = [start]
    for _ in range(n):
        s.append(s[-1] + 0.1)
    visited = states_array([make_state(v=1.0, s=s_k) for s_k in s])
    y = np.column_stack([visited[:-1, :3], np.full((n, k_preview), 0.5)])
    reason = (TerminationReason.REACHED_TARGET if outcome is Outcome.SUCCESS
              else TerminationReason.CONSTRAINT_VIOLATION)
    return Trajectory(states=visited, y=y, u_expert=np.tile([0.2, 0.0], (n, 1)),
                      u_applied=np.tile([0.25, -0.1], (n, 1)), termination_reason=reason)


def write_trajectories(trajs, path) -> None:
    """Write ``trajs`` to ``path`` through one ``DatasetWriter``, as ``cabc train`` does."""
    with DatasetWriter(path) as writer:
        for traj in trajs:
            writer.write(traj)


ARRAY_FIELDS = ("states", "y", "u_expert", "u_applied")


def same_trajectory(a: Trajectory, b: Trajectory) -> bool:
    """Equal reason, states and step rows (``Trajectory`` defines no ``__eq__``)."""
    return (a.termination_reason is b.termination_reason
            and (a.y is None) == (b.y is None)
            and all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ARRAY_FIELDS
                    if getattr(a, f) is not None))


def same_trajectories(a, b) -> bool:
    return len(a) == len(b) and all(map(same_trajectory, a, b))


def lp_hull_oracle(x: np.ndarray, points: np.ndarray, tol: float = 1e-7) -> bool:
    """Exhaustive simplex-basis enumeration: is x a convex combination of points?

    Checks every vertex subset of size up to dim + 1 (affine Caratheodory
    bound) by solving the affine system directly.
    """
    P = np.asarray(points, dtype=float)
    x = np.asarray(x, dtype=float)
    n, d = P.shape
    for k in range(1, min(n, d + 1) + 1):
        for subset in itertools.combinations(range(n), k):
            A = np.vstack([P[list(subset)].T, np.ones(k)])
            b = np.concatenate([x, [1.0]])
            w, *_ = np.linalg.lstsq(A, b, rcond=None)
            if w.min() < -1e-9:
                continue
            w = np.clip(w, 0.0, None)
            total = w.sum()
            if total <= 0.0:
                continue
            w = w / total
            if np.abs(w @ P[list(subset)] - x).max() <= tol:
                return True
    return False


def euclidean_hull_distance(x: np.ndarray, points: np.ndarray) -> float:
    """Exact Euclidean distance from x to the convex hull of points, by enumeration.

    The nearest hull point is the projection of x onto the affine hull of
    some face, spanned by at most dim + 1 vertices, with non-negative
    barycentric weights; the distance is the least over all such subsets.
    """
    P = np.asarray(points, dtype=float)
    x = np.asarray(x, dtype=float)
    n, d = P.shape
    best = math.inf
    for k in range(1, min(n, d + 1) + 1):
        for subset in itertools.combinations(range(n), k):
            V = P[list(subset)]
            c, *_ = np.linalg.lstsq((V[1:] - V[0]).T, x - V[0], rcond=None)
            w = np.concatenate([[1.0 - c.sum()], c])
            if w.min() < -1e-12:
                continue
            best = min(best, float(np.linalg.norm(w @ V - x)))
    return best


def traced_peak(fn) -> int:
    """Peak bytes ``fn()`` allocates, as ``tracemalloc`` counts them (numpy's
    array buffers included)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
