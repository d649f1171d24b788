"""Result emission: per-epoch CSVs and hand-written SVG charts.

Charts are plain polyline SVGs with no plotting dependency, enough to read
laps-per-epoch, loss curves, lap-time statistics, and rollout geometry at a
glance.  All output is deterministic byte-for-byte for a given run.
"""

from __future__ import annotations

import csv
import json
import math
import os
from typing import Dict, List, Optional, Sequence, Tuple, get_type_hints

import numpy as np

from .evalharness import chained_laps
from .sim import SimConfig
from .track import TrackSpec, frenet_to_cartesian
from .trainer import EpochReport


def write_reports_csv(reports: Sequence[EpochReport], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EpochReport.FIELDS)
        for r in reports:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in r.row()])


# how each reports.csv column reads back, from its EpochReport field type
_PARSE = {int: int, float: float, bool: lambda text: text == "True", str: str}
_COLUMN_PARSERS = {name: _PARSE[kind] for name, kind in get_type_hints(EpochReport).items()}


def read_reports_csv(path) -> List[Dict[str, object]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [{key: _COLUMN_PARSERS.get(key, float)(value) for key, value in record.items()}
                for record in csv.DictReader(fh)]


# --- minimal SVG emission ---------------------------------------------------------

_W, _H = 720, 420
_ML, _MR, _MT, _MB = 64, 20, 34, 46
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")
_LINE_COLOR, _SPAN_COLOR = "#555555", "#2ca02c"
_XY_SIZE = 560   # width and height of ``svg_xy_figure``, pixels


def _ticks(lo: float, hi: float, n: int = 5) -> List[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(step))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if mag * mult >= step:
            step = mag * mult
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12:
        out.append(round(t, 10))
        t += step
    return out


class SvgChart:
    """A single x/y chart with polyline series, bands, point markers, and
    shaded or marked x positions."""

    def __init__(self, title: str, xlabel: str, ylabel: str):
        self.title, self.xlabel, self.ylabel = title, xlabel, ylabel
        self.series: List[dict] = []
        self.markers: List[Tuple[float, float, str]] = []
        self.hlines: List[Tuple[float, str]] = []
        self.vlines: List[Tuple[float, str]] = []
        self.spans: List[Tuple[float, float, str]] = []

    def add_series(self, xs, ys, label: str, dash: Optional[str] = None,
                   band: Optional[Tuple] = None):
        self.series.append({"x": list(map(float, xs)), "y": list(map(float, ys)),
                            "label": label, "color": _COLORS[len(self.series) % len(_COLORS)],
                            "dash": dash, "band": band})

    def add_marker(self, x: float, y: float, text: str):
        self.markers.append((float(x), float(y), text))

    def add_hline(self, y: float, label: str):
        self.hlines.append((float(y), label))

    def add_vline(self, x: float, label: str):
        """A dotted vertical line at ``x``, labelled at its top."""
        self.vlines.append((float(x), label))

    def add_span(self, x0: float, x1: float, label: str):
        """A shaded band over ``[x0, x1]``, clipped to the chart; each label
        gets one legend entry."""
        self.spans.append((float(x0), float(x1), label))

    def _bounds(self):
        xs = [v for s in self.series for v in s["x"]] or [0.0, 1.0]
        ys = [v for s in self.series for v in s["y"]] or [0.0, 1.0]
        for s in self.series:
            if s["band"]:
                lo, hi = s["band"]
                ys.extend(map(float, lo))
                ys.extend(map(float, hi))
        ys.extend(y for y, _ in self.hlines)
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        if x_hi == x_lo:
            x_hi = x_lo + 1.0
        if y_hi == y_lo:
            y_hi = y_lo + 1.0
        pad = 0.05 * (y_hi - y_lo)
        return x_lo, x_hi, y_lo - pad, y_hi + pad

    def render(self) -> str:
        x_lo, x_hi, y_lo, y_hi = self._bounds()

        def px(x: float) -> float:
            return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

        def py(y: float) -> float:
            return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}">',
            f'<rect width="{_W}" height="{_H}" fill="white"/>',
            f'<text x="{_W / 2:.1f}" y="20" text-anchor="middle" font-size="14" '
            f'font-family="sans-serif">{self.title}</text>',
        ]
        for x0, x1, _ in self.spans:
            left, right = px(max(x0, x_lo)), px(min(x1, x_hi))
            parts.append(f'<rect class="span" x="{left:.1f}" y="{_MT}" '
                         f'width="{right - left:.1f}" height="{_H - _MT - _MB}" '
                         f'fill="{_SPAN_COLOR}" opacity="0.15"/>')
        axis = (f'M {_ML} {_MT} L {_ML} {_H - _MB} L {_W - _MR} {_H - _MB}')
        parts.append(f'<path d="{axis}" stroke="black" fill="none"/>')
        for t in _ticks(x_lo, x_hi):
            parts.append(f'<line x1="{px(t):.1f}" y1="{_H - _MB}" x2="{px(t):.1f}" '
                         f'y2="{_H - _MB + 4}" stroke="black"/>')
            parts.append(f'<text x="{px(t):.1f}" y="{_H - _MB + 17}" text-anchor="middle" '
                         f'font-size="10" font-family="sans-serif">{t:g}</text>')
        for t in _ticks(y_lo, y_hi):
            parts.append(f'<line x1="{_ML - 4}" y1="{py(t):.1f}" x2="{_ML}" '
                         f'y2="{py(t):.1f}" stroke="black"/>')
            parts.append(f'<text x="{_ML - 7}" y="{py(t) + 3:.1f}" text-anchor="end" '
                         f'font-size="10" font-family="sans-serif">{t:g}</text>')
        parts.append(f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 8}" text-anchor="middle" '
                     f'font-size="12" font-family="sans-serif">{self.xlabel}</text>')
        parts.append(f'<text x="16" y="{(_MT + _H - _MB) / 2:.1f}" text-anchor="middle" '
                     f'font-size="12" font-family="sans-serif" '
                     f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2:.1f})">{self.ylabel}</text>')
        for y, label in self.hlines:
            parts.append(f'<line x1="{_ML}" y1="{py(y):.1f}" x2="{_W - _MR}" '
                         f'y2="{py(y):.1f}" stroke="{_LINE_COLOR}" stroke-dasharray="6 4"/>')
            parts.append(f'<text x="{_W - _MR - 4}" y="{py(y) - 4:.1f}" text-anchor="end" '
                         f'font-size="10" font-family="sans-serif" '
                         f'fill="{_LINE_COLOR}">{label}</text>')
        for x, label in self.vlines:
            parts.append(f'<line class="vline" x1="{px(x):.1f}" y1="{_MT}" x2="{px(x):.1f}" '
                         f'y2="{_H - _MB}" stroke="{_LINE_COLOR}" stroke-dasharray="2 3"/>')
            parts.append(f'<text x="{px(x) + 3:.1f}" y="{_MT + 10}" font-size="10" '
                         f'font-family="sans-serif" fill="{_LINE_COLOR}">{label}</text>')
        for s in self.series:
            if s["band"]:
                lo, hi = s["band"]
                fwd = " ".join(f"{px(x):.1f},{py(h):.1f}" for x, h in zip(s["x"], hi))
                back = " ".join(f"{px(x):.1f},{py(l):.1f}"
                                for x, l in zip(reversed(s["x"]), reversed(list(lo))))
                parts.append(f'<polygon points="{fwd} {back}" fill="{s["color"]}" '
                             f'opacity="0.15" stroke="none"/>')
            pts = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in zip(s["x"], s["y"]))
            dash = f' stroke-dasharray="{s["dash"]}"' if s["dash"] else ""
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{s["color"]}" '
                         f'stroke-width="1.5"{dash}/>')
        for i, s in enumerate(self.series):
            y0 = _MT + 14 * i
            parts.append(f'<line x1="{_W - _MR - 110}" y1="{y0}" x2="{_W - _MR - 88}" '
                         f'y2="{y0}" stroke="{s["color"]}" stroke-width="2"/>')
            parts.append(f'<text x="{_W - _MR - 84}" y="{y0 + 4}" font-size="10" '
                         f'font-family="sans-serif">{s["label"]}</text>')
        span_labels = dict.fromkeys(label for _, _, label in self.spans)
        for i, label in enumerate(span_labels, start=len(self.series)):
            y0 = _MT + 14 * i
            parts.append(f'<rect x="{_W - _MR - 110}" y="{y0 - 4}" width="22" height="8" '
                         f'fill="{_SPAN_COLOR}" opacity="0.15"/>')
            parts.append(f'<text x="{_W - _MR - 84}" y="{y0 + 4}" font-size="10" '
                         f'font-family="sans-serif">{label}</text>')
        for x, y, text in self.markers:
            parts.append(f'<text x="{px(x):.1f}" y="{py(y) + 5:.1f}" text-anchor="middle" '
                         f'font-size="16" font-family="sans-serif">{text}</text>')
        parts.append("</svg>")
        return "\n".join(parts)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.render())


def svg_xy_figure(polylines: Sequence[dict], title: str, points: Sequence[dict] = (),
                  segments: Sequence[dict] = ()) -> str:
    """Equal-aspect world-coordinate figure, ``_XY_SIZE`` pixels square.

    ``polylines`` and ``points`` are ``{x, y, color, dash/r}`` dicts;
    ``segments`` are ``{segs: [((x0,y0),(x1,y1)), ...], color, dash}``.
    Each ``points`` group is drawn as one path of zero-length round-capped
    subpaths (``M x yh0``), which SVG renders as dots of radius ``r``, and each
    ``segments`` group as one path of ``M…L…`` pairs; an empty group draws
    nothing.  Groups are drawn in that order: points, segments, polylines.
    """
    lines = [(np.asarray(p["x"], dtype=float), np.asarray(p["y"], dtype=float))
             for p in polylines]
    dots = [(np.asarray(p["x"], dtype=float), np.asarray(p["y"], dtype=float))
            for p in points]
    segs = [np.asarray(s["segs"], dtype=float).reshape(-1, 4) for s in segments]
    xs = np.concatenate([x for x, _ in lines + dots] + [s[:, 0::2].ravel() for s in segs])
    ys = np.concatenate([y for _, y in lines + dots] + [s[:, 1::2].ravel() for s in segs])
    x_lo, x_hi = xs.min(), xs.max()
    y_lo, y_hi = ys.min(), ys.max()
    span = max(x_hi - x_lo, y_hi - y_lo, 1e-9)
    margin = 30
    scale = (_XY_SIZE - 2 * margin) / span
    cx, cy = 0.5 * (x_lo + x_hi), 0.5 * (y_lo + y_hi)
    half = _XY_SIZE / 2

    def pixels(x: np.ndarray, y: np.ndarray) -> tuple:
        """Pixel coordinates of world arrays ``x``, ``y``, as lists of floats."""
        return (half + (x - cx) * scale).tolist(), (half - (y - cy) * scale).tolist()

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_XY_SIZE}" height="{_XY_SIZE}" '
        f'viewBox="0 0 {_XY_SIZE} {_XY_SIZE}">',
        f'<rect width="{_XY_SIZE}" height="{_XY_SIZE}" fill="white"/>',
        f'<text x="{half}" y="18" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif">{title}</text>',
    ]
    for p, (x, y) in zip(points, dots):
        if len(x):
            d = "".join(f"M{a:.1f} {b:.1f}h0" for a, b in zip(*pixels(x, y)))
            parts.append(f'<path d="{d}" fill="none" stroke="{p.get("color", "black")}" '
                         f'stroke-width="{2 * p.get("r", 1.2):g}" stroke-linecap="round"/>')
    for s, seg in zip(segments, segs):
        if len(seg):
            x0, y0 = pixels(seg[:, 0], seg[:, 1])
            x1, y1 = pixels(seg[:, 2], seg[:, 3])
            d = "".join(f"M{a:.1f} {b:.1f}L{c:.1f} {e:.1f}"
                        for a, b, c, e in zip(x0, y0, x1, y1))
            dash = f' stroke-dasharray="{s["dash"]}"' if s.get("dash") else ""
            parts.append(f'<path d="{d}" fill="none" stroke="{s.get("color", "black")}" '
                         f'stroke-width="1.2"{dash}/>')
    for p, (x, y) in zip(polylines, lines):
        pts = " ".join(f"{a:.1f},{b:.1f}" for a, b in zip(*pixels(x, y)))
        dash = f' stroke-dasharray="{p["dash"]}"' if p.get("dash") else ""
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{p.get("color", "black")}" stroke-width="1.3"{dash}/>')
    parts.append("</svg>")
    return "\n".join(parts)


# cells per band of `contour_segments` (a band holds at least one row): its
# six (cells, 4) edge arrays take 768 kB at 4096 cells, whatever the rows
_CONTOUR_CELLS = 4096


def contour_segments(xs: np.ndarray, ys: np.ndarray, field: np.ndarray,
                     level: float) -> List[Tuple[Tuple[float, float], Tuple[float, float]]]:
    """Level-crossing segments of a scalar grid (simple marching squares).

    ``field[i, j]`` is the value at ``(xs[j], ys[i])``.  Cells are visited in
    row-major order and each cell's edges counter-clockwise from its lower
    side; an edge whose ends differ in the sign of ``field - level`` is
    crossed at the linear interpolant, and consecutive crossings within a
    cell (two or four) are joined pairwise.  Bands of cell rows of at most
    ``_CONTOUR_CELLS`` cells are worked through in turn.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 2 or len(ys) < 2:
        return []
    field = np.asarray(field)
    band = max(1, _CONTOUR_CELLS // (len(xs) - 1))
    segs = []
    for r in range(0, len(ys) - 1, band):
        segs.extend(_band_segments(xs, ys[r:r + band + 1], field[r:r + band + 1] - level))
    return segs


def _band_segments(xs: np.ndarray, ys: np.ndarray, F: np.ndarray) -> list:
    """:func:`contour_segments` of ``F`` at level 0 over all its cells."""
    lo, hi = F[:-1], F[1:]
    corners = (lo[:, :-1], lo[:, 1:], hi[:, 1:], hi[:, :-1])
    shape = corners[0].shape
    x_lo, x_hi = np.broadcast_to(xs[:-1], shape), np.broadcast_to(xs[1:], shape)
    y_lo, y_hi = np.broadcast_to(ys[:-1, None], shape), np.broadcast_to(ys[1:, None], shape)
    # (cell row, cell column, edge): edge k runs from corner k to corner k + 1
    f0 = np.stack(corners, axis=-1)
    f1 = np.stack(corners[1:] + corners[:1], axis=-1)
    x0 = np.stack((x_lo, x_hi, x_hi, x_lo), axis=-1)
    x1 = np.stack((x_hi, x_hi, x_lo, x_lo), axis=-1)
    y0 = np.stack((y_lo, y_lo, y_hi, y_hi), axis=-1)
    y1 = np.stack((y_lo, y_hi, y_hi, y_lo), axis=-1)
    cross = (f0 < 0) != (f1 < 0)
    f0, f1, x0, x1, y0, y1 = (a[cross] for a in (f0, f1, x0, x1, y0, y1))
    t = f0 / (f0 - f1)
    pts = np.column_stack((x0 + t * (x1 - x0), y0 + t * (y1 - y0)))
    return [((a, b), (c, d)) for a, b, c, d in pts.reshape(-1, 4).tolist()]


def track_polylines(track: TrackSpec, ds: float = 0.05) -> List[dict]:
    """The centreline (dashed) and both edges, sampled at most ``ds`` apart
    from the lap start to the lap end."""
    n = max(2, int(math.ceil(track.lap_length / ds)))
    s = np.arange(n + 1) * track.lap_length / n
    offsets = np.repeat([0.0, track.half_width, -track.half_width], n + 1)
    xs, ys, _ = frenet_to_cartesian(track, np.tile(s, 3), offsets)
    return [{"x": x, "y": y, "color": "#888888", "dash": dash}
            for x, y, dash in zip(np.split(xs, 3), np.split(ys, 3), ("4 4", None, None))]


# --- run-directory reports ----------------------------------------------------------

def _require(paths: Sequence[str]) -> None:
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        raise FileNotFoundError("missing run files: " + ", ".join(missing))


def emit_reports(run_dir, out_dir, baseline_dir=None) -> List[str]:
    """Produce comparison charts and CSV extracts from one or two run dirs."""
    reports_path = os.path.join(run_dir, "reports.csv")
    meta_path = os.path.join(run_dir, "meta.json")
    base_reports = None if baseline_dir is None else os.path.join(baseline_dir, "reports.csv")
    # both runs' files are checked before out_dir is made
    _require([reports_path, meta_path] + ([] if base_reports is None else [base_reports]))
    os.makedirs(out_dir, exist_ok=True)
    rows = read_reports_csv(reports_path)
    with open(meta_path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    base_rows = None if base_reports is None else read_reports_csv(base_reports)
    written: List[str] = []

    def _csv(name: str, header: List[str], data_rows: List[list]) -> None:
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(data_rows)
        written.append(path)

    full_laps = int(meta.get("eval_laps", 50))
    epochs = [r["epoch"] for r in rows]

    # laps per epoch, with the epochs whose policy update ran the safety term
    # and the classifier fits (a reports.csv older than these columns has
    # empty cells and draws no marks)
    laps_rows = [[r["epoch"], r["eval_laps"], r.get("safety_on", ""), r.get("clf_fit_epoch", "")]
                 for r in rows]
    _csv("laps_vs_epoch.csv", ["epoch", "laps", "safety_on", "clf_fit_epoch"], laps_rows)
    chart = SvgChart("Consecutive laps completed per evaluation", "epoch", "laps")
    spans: List[List[float]] = []   # runs of consecutive safety-term epochs
    for r in rows:
        epoch = r["epoch"]
        if r.get("safety_on"):
            if spans and spans[-1][1] == epoch - 0.5:
                spans[-1][1] += 1.0
            else:
                spans.append([epoch - 0.5, epoch + 0.5])
        if r.get("clf_fit_epoch") == epoch:
            chart.add_vline(epoch, "clf fit")
    for x0, x1 in spans:
        chart.add_span(x0, x1, "safety term on")
    chart.add_series(epochs, [r["eval_laps"] for r in rows], meta.get("method", "run"))
    if base_rows:
        chart.add_series([r["epoch"] for r in base_rows],
                         [r["eval_laps"] for r in base_rows], "baseline", dash="5 3")
    es = meta.get("early_stopped_at")
    if es is not None:
        chart.add_marker(es, full_laps, "x")
    path = os.path.join(out_dir, "laps_vs_epoch.svg")
    chart.save(path)
    written.append(path)

    # imitation loss
    _csv("imitation_loss.csv", ["epoch", "clone_loss"],
         [[r["epoch"], repr(r["clone_loss"])] for r in rows])
    chart = SvgChart("Imitation loss per epoch", "epoch", "clone loss")
    chart.add_series(epochs, [r["clone_loss"] for r in rows], meta.get("method", "run"))
    if base_rows:
        chart.add_series([r["epoch"] for r in base_rows],
                         [r["clone_loss"] for r in base_rows], "baseline", dash="5 3")
    if es is not None:
        chart.add_marker(es, rows[es]["clone_loss"] if es < len(rows) else 0.0, "x")
    path = os.path.join(out_dir, "imitation_loss.svg")
    chart.save(path)
    written.append(path)

    # lap-time statistics (only epochs that completed the full lap count)
    done = [r for r in rows if r["eval_laps"] >= full_laps]
    _csv("laptime_stats.csv", ["epoch", "lap_mean", "lap_std"],
         [[r["epoch"], repr(r["eval_lap_mean"]), repr(r["eval_lap_std"])] for r in done])
    chart = SvgChart("Lap time (mean +- std) at full-distance evaluations",
                     "epoch", "lap time [s]")
    if done:
        mean = [r["eval_lap_mean"] for r in done]
        std = [r["eval_lap_std"] for r in done]
        chart.add_series([r["epoch"] for r in done], mean, meta.get("method", "run"),
                         band=([m - s for m, s in zip(mean, std)],
                               [m + s for m, s in zip(mean, std)]))
    if base_rows:
        base_done = [r for r in base_rows if r["eval_laps"] >= full_laps]
        if base_done:
            chart.add_series([r["epoch"] for r in base_done],
                             [r["eval_lap_mean"] for r in base_done], "baseline", dash="5 3")
    if "expert_lap_mean" in meta:
        chart.add_hline(meta["expert_lap_mean"], "expert")
    path = os.path.join(out_dir, "laptime_stats.svg")
    chart.save(path)
    written.append(path)
    return written


def policy_rollout_figure(policy, sim_cfg: SimConfig, track: TrackSpec, seed: int,
                          out_path, laps: int = 3) -> str:
    """Draw the path of the evaluation's first ``laps`` lap attempts over the track outline."""
    polys = track_polylines(track)
    visited = np.vstack([np.empty((0, 6))] + [traj.states[:-1] for traj in
                                              chained_laps(policy, sim_cfg, track, seed, laps)])
    xs, ys, _ = frenet_to_cartesian(track, *visited[:, 3:].T)
    polys.append({"x": xs, "y": ys, "color": "#d62728"})
    svg = svg_xy_figure(polys, f"rollout on {track.name}")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return out_path
