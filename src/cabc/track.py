"""Closed race-track geometry built from piecewise-constant-curvature segments.

Each segment is a straight or a circular arc, so the Cartesian reconstruction
of the centerline is closed form and track closure can be audited exactly.
Heading closure (sum of length * curvature == +-2*pi) is enforced for every
track; the built-in tracks additionally close in position, which is covered
by tests rather than the constructor.
"""

from __future__ import annotations

import bisect
import math
import os
from dataclasses import dataclass
from itertools import accumulate
from typing import List, Sequence, Tuple

import numpy as np

_CLOSURE_TOL = 1e-9


@dataclass(frozen=True)
class TrackSpec:
    """Ordered (length, curvature) segments plus a lateral half width."""

    segments: Tuple[Tuple[float, float], ...]
    half_width: float
    name: str = "track"

    def __post_init__(self):
        segs = tuple((float(l), float(k)) for l, k in self.segments)
        object.__setattr__(self, "segments", segs)
        if not segs:
            raise ValueError("track needs at least one segment")
        # each test is written so that NaN fails it
        if not all(l > 0 for l, _ in segs):
            raise ValueError("segment lengths must be positive")
        if not all(-math.inf < k < math.inf for _, k in segs):
            raise ValueError("segment curvatures must be finite")
        if not 0 < self.half_width < math.inf:
            raise ValueError(f"half_width must be positive and finite, got {self.half_width!r}")
        # cumulative arc length at segment starts, plus total lap length
        starts = tuple(accumulate((l for l, _ in segs), initial=0.0))
        if not starts[-1] < math.inf:
            raise ValueError("lap length must be finite")
        turn = sum(l * k for l, k in segs)
        if not abs(abs(turn) - 2.0 * math.pi) <= _CLOSURE_TOL:
            raise ValueError(f"track does not close in heading: total turn {turn!r}")
        object.__setattr__(self, "_starts", starts)
        # the centreline pose at each segment start, then at the lap end
        object.__setattr__(self, "_poses", tuple(accumulate(
            segs, lambda pose, seg: advance_pose(pose, *seg), initial=(0.0, 0.0, 0.0, 0.0, 1.0))))

    @property
    def lap_length(self) -> float:
        return self._starts[-1]


def curvature_at(track: TrackSpec, s: float) -> float:
    """Centerline curvature at arc length ``s`` (wrapped into one lap).

    The segment whose start is the last at or below the wrapped ``s``, in one
    search: the wrapped ``s`` is never negative, and searching only the
    segment starts (``hi`` = number of segments) maps ``s_w == lap_length``,
    which rounding can produce, to the last segment.
    """
    starts = track._starts
    return track.segments[bisect.bisect_right(starts, s % starts[-1], 0, len(starts) - 1) - 1][1]


def peak_curvature(track: TrackSpec, s: float, lookahead: float, ds: float) -> float:
    """Largest ``abs(curvature_at(track, s + d))`` over ``d = 0, ds, 2 * ds, ...``
    up to ``lookahead``, with ``d`` accumulated by repeated addition of ``ds``.

    The segment lookup of :func:`curvature_at`, made once per point without a
    call per point.
    """
    segments, starts = track.segments, track._starts
    lap, n_seg = starts[-1], len(segments)
    worst = 0.0
    d = 0.0
    while d <= lookahead:
        kappa = abs(segments[bisect.bisect_right(starts, (s + d) % lap, 0, n_seg) - 1][1])
        if kappa > worst:
            worst = kappa
        d += ds
    return worst


def advance_pose(pose: tuple, length, kappa: float, sin=math.sin, cos=math.cos) -> tuple:
    """The centreline pose ``(X, Y, psi, sin psi, cos psi)`` reached from
    ``pose`` after ``length`` along a segment of curvature ``kappa``, in
    closed form; with ``np.sin`` and ``np.cos``, ``length`` may be an array."""
    x, y, psi, sin_p, cos_p = pose
    if -1e-12 < kappa < 1e-12:
        return x + length * cos_p, y + length * sin_p, psi, sin_p, cos_p
    psi1 = psi + kappa * length
    sin_1, cos_1 = sin(psi1), cos(psi1)
    return x + (sin_1 - sin_p) / kappa, y - (cos_1 - cos_p) / kappa, psi1, sin_1, cos_1


def centerline_pose(track: TrackSpec, s):
    """The centreline pose ``(X, Y, psi, sin psi, cos psi)`` at arc length ``s``
    (wrapped into one lap): the table's pose at the start of the segment that
    :func:`curvature_at` finds, advanced by :func:`advance_pose`.  An array
    ``s`` is advanced segment by segment with ``np.sin`` and ``np.cos``, so it
    gets its floats' poses bit for bit where those equal ``math``'s."""
    starts = track._starts
    if not isinstance(s, np.ndarray):
        s_w = s % starts[-1]
        seg = bisect.bisect_right(starts, s_w, 0, len(starts) - 1) - 1
        return advance_pose(track._poses[seg], s_w - starts[seg], track.segments[seg][1])
    s_w = np.mod(s, starts[-1])
    seg = np.searchsorted(starts[:-1], s_w, side="right") - 1
    pose = np.empty((5, *s_w.shape))
    for i, (_, kappa) in enumerate(track.segments):
        on = seg == i
        ahead = advance_pose(track._poses[i], s_w[on] - starts[i], kappa, np.sin, np.cos)
        for row, value in zip(pose, ahead):
            row[on] = value
    return tuple(pose)


def frenet_to_cartesian(track: TrackSpec, s, x_tran, e_psi=0.0):
    """Map Frenet coordinates to a global pose (X, Y, psi): floats, or numpy
    arrays of one shape.

    The start line is anchored at the origin with the path tangent along +X.
    Positive ``x_tran`` offsets to the left of the travel direction.
    """
    x, y, psi, sin_p, cos_p = centerline_pose(track, s)
    # left normal of the tangent
    return x - x_tran * sin_p, y + x_tran * cos_p, psi + e_psi


def _rounded_polygon(edges: Sequence[float], turns: Sequence[float], radii: Sequence[float]):
    """Segments for a closed polygon with circular corner fillets.

    ``edges`` are straight edge lengths between corner apexes, ``turns`` the
    signed corner angles (left positive), ``radii`` the fillet radii.  Each
    corner consumes ``r * tan(|turn| / 2)`` from both adjacent edges.
    """
    n = len(edges)
    segments = []
    for i in range(n):
        t_prev = radii[i - 1] * math.tan(abs(turns[i - 1]) / 2.0)
        t_next = radii[i] * math.tan(abs(turns[i]) / 2.0)
        straight = edges[i] - t_prev - t_next
        if straight <= 0:
            raise ValueError(f"edge {i} too short for its corner fillets")
        segments.append((straight, 0.0))
        arc_len = radii[i] * abs(turns[i])
        segments.append((arc_len, math.copysign(1.0 / radii[i], turns[i])))
    return segments


def _chicane(radius: float, angle: float, sign: float = 1.0):
    """S-S-S arc triple that rejoins the original line exactly.

    An arc of ``-angle``, one of ``+2*angle``, and one of ``-angle`` (all with
    the given radius) produce zero net heading and zero lateral offset while
    advancing ``4 * radius * sin(angle)`` along the original direction.
    """
    arc = radius * angle
    k = sign / radius
    return [(arc, -k), (2.0 * arc, k), (arc, -k)], 4.0 * radius * math.sin(angle)


def _insert_chicane(straight_len: float, chicane_segments, extent: float):
    before = (straight_len - extent) * 0.45
    after = straight_len - extent - before
    if before <= 0 or after <= 0:
        raise ValueError("straight too short for chicane")
    return [(before, 0.0)] + chicane_segments + [(after, 0.0)]


def _circle_track(half_width: float = 0.6, radius: float = 2.0) -> TrackSpec:
    return TrackSpec(
        segments=((2.0 * math.pi * radius, 1.0 / radius),),
        half_width=half_width,
        name="circle",
    )


def _lshaped_track(half_width: float = 0.6) -> TrackSpec:
    # L-shaped block outline: five left 90-degree corners and one right
    # (inner) corner, which is the tight one.  Edge lengths close the polygon.
    edges = [7.0, 3.5, 3.0, 3.0, 4.0, 6.5]
    turns = [math.pi / 2, math.pi / 2, -math.pi / 2, math.pi / 2, math.pi / 2, math.pi / 2]
    radii = [1.1, 1.1, 0.85, 1.1, 1.1, 1.1]
    return TrackSpec(
        segments=tuple(_rounded_polygon(edges, turns, radii)),
        half_width=half_width,
        name="lshaped",
    )


def _gp_track(half_width: float = 0.6) -> TrackSpec:
    # Rounded rectangle with two chicanes: a tight one on the back straight
    # (minimum radius forces braking) and a faster sweep on the front straight.
    r_c = 1.1
    edges = [10.0, 6.0, 10.0, 6.0]
    turns = [math.pi / 2] * 4
    radii = [r_c] * 4
    base = _rounded_polygon(edges, turns, radii)
    # base layout: [straight0, arc0, straight1, arc1, straight2, arc2, straight3, arc3]
    tight, tight_extent = _chicane(0.8, math.pi / 3, sign=1.0)
    sweep, sweep_extent = _chicane(1.6, math.pi / 4, sign=-1.0)
    segments = (*_insert_chicane(base[0][0], tight, tight_extent), *base[1:4],
                *_insert_chicane(base[4][0], sweep, sweep_extent), *base[5:])
    return TrackSpec(segments=segments, half_width=half_width, name="gp")


def default_tracks() -> List[TrackSpec]:
    return [_circle_track(), _lshaped_track(), _gp_track()]


def get_track(name: str) -> TrackSpec:
    for t in default_tracks():
        if t.name == name:
            return t
    raise KeyError(f"unknown track {name!r}; built-ins: circle, lshaped, gp")


# --- plain-text track files ---------------------------------------------------

def _number(token: str, where: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ValueError(f"{where}: {token!r} is not a number") from None


def load_track(path, name: str | None = None) -> TrackSpec:
    """Read a track file: a ``halfwidth <m>`` line, then one ``<length> <curvature>``
    line per segment, in driving order, floats as written by ``repr``.

    Blank lines and lines starting with ``#`` are skipped.  ``name`` defaults
    to the file name without its extension.  A malformed line raises
    ``ValueError`` naming the file and the line; a track that ``TrackSpec``
    rejects as a whole raises its error prefixed with the file.
    """
    half_width = None
    segments = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            where = f"{path}: line {line_no}"
            if parts[0] == "halfwidth":
                if half_width is not None:
                    raise ValueError(f"{where}: second 'halfwidth' line")
                if len(parts) != 2:
                    raise ValueError(f"{where}: expected 'halfwidth <m>'")
                half_width = _number(parts[1], where)
            elif len(parts) == 2:
                segments.append((_number(parts[0], where), _number(parts[1], where)))
            else:
                raise ValueError(f"{where}: expected 'length curvature'")
    if half_width is None:
        raise ValueError(f"{path}: missing 'halfwidth' header")
    try:
        return TrackSpec(
            segments=tuple(segments),
            half_width=half_width,
            name=name or os.path.splitext(os.path.basename(str(path)))[0],
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def resolve_track(name_or_path: str) -> TrackSpec:
    """CLI helper: accept a built-in track name or a track-file path."""
    try:
        return get_track(name_or_path)
    except KeyError:
        if os.path.exists(name_or_path):
            return load_track(name_or_path)
        raise
