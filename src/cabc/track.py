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
from typing import List, Sequence, Tuple

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
        starts = [0.0]
        for l, _ in segs:
            starts.append(starts[-1] + l)
        if not starts[-1] < math.inf:
            raise ValueError("lap length must be finite")
        turn = sum(l * k for l, k in segs)
        if not abs(abs(turn) - 2.0 * math.pi) <= _CLOSURE_TOL:
            raise ValueError(f"track does not close in heading: total turn {turn!r}")
        object.__setattr__(self, "_starts", tuple(starts))

    @property
    def lap_length(self) -> float:
        return self._starts[-1]

    def _segment_index(self, s_wrapped: float) -> int:
        idx = bisect.bisect_right(self._starts, s_wrapped) - 1
        return min(max(idx, 0), len(self.segments) - 1)


def curvature_at(track: TrackSpec, s: float) -> float:
    """Centerline curvature at arc length ``s`` (wrapped into one lap).

    The segment of ``track._segment_index(s % lap_length)`` in one search:
    the wrapped ``s`` is never negative, and searching only the segment
    starts (``hi`` = number of segments) maps ``s_w == lap_length``, which
    rounding can produce, to the last segment.
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


def _advance(x: float, y: float, psi: float, length: float, kappa: float):
    if abs(kappa) < 1e-12:
        return x + length * math.cos(psi), y + length * math.sin(psi), psi
    psi1 = psi + kappa * length
    x1 = x + (math.sin(psi1) - math.sin(psi)) / kappa
    y1 = y - (math.cos(psi1) - math.cos(psi)) / kappa
    return x1, y1, psi1


def frenet_to_cartesian(track: TrackSpec, s: float, x_tran: float, e_psi: float = 0.0):
    """Map Frenet coordinates to a global pose (X, Y, psi).

    The start line is anchored at the origin with the path tangent along +X.
    Positive ``x_tran`` offsets to the left of the travel direction.
    """
    s_w = s % track.lap_length
    x, y, psi = 0.0, 0.0, 0.0
    idx = track._segment_index(s_w)
    for i in range(idx):
        length, kappa = track.segments[i]
        x, y, psi = _advance(x, y, psi, length, kappa)
    residual = s_w - track._starts[idx]
    length, kappa = track.segments[idx]
    x, y, psi = _advance(x, y, psi, residual, kappa)
    # left normal of the tangent
    xg = x - x_tran * math.sin(psi)
    yg = y + x_tran * math.cos(psi)
    return xg, yg, psi + e_psi


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
    segments = []
    segments.extend(_insert_chicane(base[0][0], tight, tight_extent))
    segments.append(base[1])
    segments.append(base[2])
    segments.append(base[3])
    segments.extend(_insert_chicane(base[4][0], sweep, sweep_extent))
    segments.append(base[5])
    segments.append(base[6])
    segments.append(base[7])
    return TrackSpec(segments=tuple(segments), half_width=half_width, name="gp")


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
