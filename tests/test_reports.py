import csv
import dataclasses
import json
import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from cabc import nn
from cabc.autolabel import SyntheticSet, classifier_grid, grid_map
from cabc.reports import (
    _CONTOUR_CELLS,
    contour_segments,
    emit_reports,
    read_reports_csv,
    read_run,
    svg_xy_figure,
    write_reports_csv,
)
from cabc.trainer import EpochReport

from conftest import traced_peak


def contour_segments_loop(xs, ys, field, level):
    """Reference: the per-cell marching-squares loop ``contour_segments`` replaced."""
    segs = []
    F = np.asarray(field) - level
    for i in range(len(ys) - 1):
        for j in range(len(xs) - 1):
            corners = [F[i, j], F[i, j + 1], F[i + 1, j + 1], F[i + 1, j]]
            pts = []
            edges = (
                ((xs[j], ys[i]), (xs[j + 1], ys[i]), corners[0], corners[1]),
                ((xs[j + 1], ys[i]), (xs[j + 1], ys[i + 1]), corners[1], corners[2]),
                ((xs[j + 1], ys[i + 1]), (xs[j], ys[i + 1]), corners[2], corners[3]),
                ((xs[j], ys[i + 1]), (xs[j], ys[i]), corners[3], corners[0]),
            )
            for (x0, y0), (x1, y1), f0, f1 in edges:
                if (f0 < 0) != (f1 < 0):
                    t = f0 / (f0 - f1)
                    pts.append((x0 + t * (x1 - x0), y0 + t * (y1 - y0)))
            for k in range(0, len(pts) - 1, 2):
                segs.append((pts[k], pts[k + 1]))
    return segs


def _bits(segs):
    return np.asarray(segs, dtype=float).reshape(-1, 4).view(np.int64)


def _fields():
    xs = np.linspace(-5.0, 5.0, 60)
    ys = np.linspace(-4.0, 6.0, 50)
    gx, gy = np.meshgrid(xs, ys)
    crescent = SyntheticSet.crescent().signed_distance
    sdf = grid_map(crescent, xs, ys)
    # three bands of cell rows, both joins across the crescent
    tall_ys = np.linspace(-2.5, 2.5, 2 * _CONTOUR_CELLS // (len(xs) - 1) + 12)
    rng = np.random.default_rng(7)
    noise = rng.normal(size=(len(ys), len(xs)))
    holes = np.where(rng.random(noise.shape) < 0.1, np.nan, noise)
    return {
        "sdf": (xs, ys, sdf, 0.0),
        "probability": (xs, ys, 1.0 / (1.0 + np.exp(-noise)), 0.5),
        # rounding leaves 0.0 and -0.0 corners: the sign test is `< 0`, not `<= 0`
        "ties": (xs, ys, np.round(noise), 0.0),
        "nan": (xs, ys, holes, 0.25),
        "saddles": (xs, ys, np.cos(3 * gx) * np.cos(3 * gy), 0.0),
        "flat": (xs, ys, np.zeros_like(noise), 0.0),
        "one_column": (xs[:1], ys, sdf[:, :1], 0.0),
        "bands": (xs, tall_ys, grid_map(crescent, xs, tall_ys), 0.0),
    }


@pytest.mark.parametrize("name", sorted(_fields()))
def test_contour_segments_match_cell_loop_bit_for_bit(name):
    xs, ys, field, level = _fields()[name]
    expected = contour_segments_loop(xs, ys, field, level)
    got = contour_segments(xs, ys, field, level)
    assert len(got) == len(expected)
    assert np.array_equal(_bits(got), _bits(expected))
    if name in ("sdf", "saddles", "bands"):
        assert got   # the comparison is not vacuous


def test_contour_memory_does_not_grow_with_the_grid():
    params = nn.init_mlp((2, 64, 64, 1), head="sigmoid", seed=0)
    xs, ys, probs = classifier_grid(params, (-5.0, 5.0), n=200)
    assert contour_segments(xs, ys, probs, 0.5)
    # the (cells, 4) edge arrays of all 39601 cells at once would take 8.4 MB
    assert traced_peak(lambda: contour_segments(xs, ys, probs, 0.5)) < 3e6


def xy_figure_coords(polylines, points, segments, width=560, height=560):
    """Reference: the pixel strings the one-element-per-point figure gave each
    group, from per-point closures over the figure's bounds."""
    xs = [v for p in polylines for v in p["x"]] + [v for p in points for v in p["x"]]
    ys = [v for p in polylines for v in p["y"]] + [v for p in points for v in p["y"]]
    for s in segments:
        for (x0, y0), (x1, y1) in s["segs"]:
            xs.extend((x0, x1))
            ys.extend((y0, y1))
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    scale = (min(width, height) - 60) / span
    cx, cy = 0.5 * (min(xs) + max(xs)), 0.5 * (min(ys) + max(ys))

    def px(x):
        return f"{width / 2 + (x - cx) * scale:.1f}"

    def py(y):
        return f"{height / 2 - (y - cy) * scale:.1f}"

    dots = [[(px(x), py(y)) for x, y in zip(p["x"], p["y"])] for p in points]
    lines = [[(px(x0), py(y0), px(x1), py(y1)) for (x0, y0), (x1, y1) in s["segs"]]
             for s in segments]
    polys = [" ".join(f"{px(x)},{py(y)}" for x, y in zip(p["x"], p["y"])) for p in polylines]
    return dots, lines, polys


_SVG = "{http://www.w3.org/2000/svg}"


def test_xy_figure_draws_each_group_as_one_path():
    rng = np.random.default_rng(3)
    plus, minus = rng.normal(size=(500, 2)), rng.uniform(-4.0, 3.0, size=(300, 2))
    points = [
        {"x": plus[:, 0], "y": plus[:, 1], "color": "#bbbbbb", "r": 1.0},
        {"x": minus[:0, 0], "y": minus[:0, 1], "color": "#7f7fff"},   # empty: no element
        {"x": minus[:, 0], "y": minus[:, 1], "color": "#d62728", "r": 1.8},
    ]
    xs, ys = np.linspace(-5.0, 5.0, 60), np.linspace(-4.0, 6.0, 50)
    field = grid_map(SyntheticSet.crescent().signed_distance, xs, ys)
    segments = [{"segs": contour_segments(xs, ys, field, 0.0), "color": "black", "dash": "2 3"},
                {"segs": [], "color": "blue"},
                {"segs": [((9.5, -7.0), (-6.25, 8.0))], "color": "#1f77b4"}]
    polyline = {"x": [-6.0, 0.0, 2.0], "y": [1.0, -2.0, 0.5], "color": "#888888", "dash": "4 4"}
    svg = svg_xy_figure([polyline], "overlay", points=points, segments=segments)
    paths = ET.fromstring(svg).findall(f"{_SVG}path")
    dots, lines, polys = xy_figure_coords([polyline], points, segments)

    assert [(e.get("stroke"), e.get("stroke-width"), e.get("stroke-linecap"),
             e.get("stroke-dasharray"), e.get("fill")) for e in paths] == [
        ("#bbbbbb", "2", "round", None, "none"),
        ("#d62728", "3.6", "round", None, "none"),
        ("black", "1.2", None, "2 3", "none"),
        ("#1f77b4", "1.2", None, None, "none"),
    ]
    for e, want in zip(paths[:2], (dots[0], dots[2])):
        assert re.fullmatch(r"(M\S+ \S+h0)+", e.get("d"))
        assert re.findall(r"M(\S+) (\S+?)h0", e.get("d")) == want
    for e, want in zip(paths[2:], (lines[0], lines[2])):
        assert re.fullmatch(r"(M\S+ \S+L\S+ \S+?)+", e.get("d"))
        assert re.findall(r"M(\S+) (\S+)L(\S+) (\S+?)(?=M|$)", e.get("d")) == want
    assert len(lines[0]) > 100 and len(dots[0]) == 500
    assert [e.get("points") for e in ET.fromstring(svg).findall(f"{_SVG}polyline")] == polys


def test_reports_csv_round_trips_every_field(tmp_path):
    reports = [
        EpochReport(epoch=0, clone_loss=0.1 + 0.2, safety_loss=0.0, dyn_loss=1e-300,
                    clf_loss=math.pi, new_successes=2, new_failures=0, n_plus=812,
                    n_query=0, n_minus=0, eval_laps=50, eval_lap_mean=7.25,
                    eval_lap_std=1.0 / 3.0, eval_terminated_by="reached_target"),
        EpochReport(epoch=1, clone_loss=1e6, safety_loss=2.5, dyn_loss=-0.0,
                    clf_loss=0.5, new_successes=0, new_failures=2, n_plus=812,
                    n_query=600, n_minus=431, eval_laps=0, eval_lap_mean=0.0,
                    eval_lap_std=0.0, clf_degenerate=True, safety_on=True, clf_fit_epoch=0,
                    eval_terminated_by="constraint_violation"),
    ]
    path = tmp_path / "reports.csv"
    write_reports_csv(reports, path)
    assert path.read_text().splitlines()[0] == ",".join(
        f.name for f in dataclasses.fields(EpochReport))
    rows = read_reports_csv(path)
    assert [EpochReport(**row) for row in rows] == reports
    for row, report in zip(rows, reports):
        for name, value in row.items():
            assert type(value) is type(getattr(report, name)), name


@pytest.mark.parametrize("column, text, kind", [
    ("safety_on", "1", "bool"), ("safety_on", "true", "bool"), ("clf_degenerate", "Ture", "bool"),
    ("n_minus", "4.5", "int"), ("clone_loss", "", "float"),
])
def test_a_reports_cell_that_does_not_parse_is_refused(tmp_path, column, text, kind):
    """A flag other than ``True`` used to read as ``False``."""
    path, table = _two_row_reports(tmp_path)
    table[2][table[0].index(column)] = text
    _write_table(path, table)
    with pytest.raises(ValueError) as refused:
        read_reports_csv(path)
    assert str(refused.value) == f"{path}: line 3, column {column}: cannot read {text!r} as {kind}"


@pytest.mark.parametrize("cut, column, text", [
    (lambda row: row[:-1], "eval_terminated_by", None),
    (lambda row: row + ["7"], None, ["7"]),
], ids=["short", "long"])
def test_a_reports_row_that_does_not_fit_the_header_is_refused(tmp_path, cut, column, text):
    path, table = _two_row_reports(tmp_path)
    _write_table(path, [*table[:2], cut(table[2])])
    with pytest.raises(ValueError) as refused:
        read_reports_csv(path)
    assert str(refused.value).startswith(f"{path}: line 3, column {column}: cannot read {text!r}")


def _two_row_reports(tmp_path):
    """A two-epoch ``reports.csv`` and its cells, the header row first."""
    path = tmp_path / "reports.csv"
    write_reports_csv([EpochReport(epoch=e, clone_loss=0.5, safety_loss=0.0, dyn_loss=0.0,
                                   clf_loss=0.0, new_successes=2, new_failures=0, n_plus=9,
                                   n_query=0, n_minus=0, eval_laps=1, eval_lap_mean=7.0,
                                   eval_lap_std=0.0) for e in range(2)], path)
    with open(path, newline="") as fh:
        return path, list(csv.reader(fh))


def _write_table(path, table):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(table)


@pytest.mark.parametrize("stopped_at", [None, 1])
def test_early_stop_marker_follows_meta(stopped_at, tmp_path):
    """Two full evaluations draw the marker only if the run stopped there:
    an ``early_stop = 0`` run trains on and records ``early_stopped_at: null``."""
    run = write_run(tmp_path / "run", [
        EpochReport(epoch=e, clone_loss=1.0 / (e + 1), safety_loss=0.0, dyn_loss=0.0,
                    clf_loss=0.0, new_successes=2, new_failures=0, n_plus=100, n_query=0,
                    n_minus=0, eval_laps=50, eval_lap_mean=12.0, eval_lap_std=0.0)
        for e in range(3)], "bc", early_stopped_at=stopped_at)
    emit_reports(read_run(run), tmp_path / "rep")
    for name in ("laps_vs_epoch.svg", "imitation_loss.svg"):
        markers = (tmp_path / "rep" / name).read_text().count(">x</text>")
        assert markers == (stopped_at is not None), name


def write_run(run, reports, method, **meta):
    """``run`` made a run directory of ``reports``, whose ``config.txt`` sets
    ``method`` and 50 evaluation laps and whose ``meta.json`` holds ``meta``."""
    run.mkdir()
    write_reports_csv(reports, run / "reports.csv")
    (run / "config.txt").write_text(f"method = {method}\neval_laps = 50\n")
    (run / "meta.json").write_text(json.dumps(meta))
    return run


def test_laptime_chart_judges_each_run_by_its_own_eval_laps(tmp_path):
    """A 3-lap baseline's full evaluations are charted beside a 50-lap run's,
    and the CSV extract keeps only the run's full evaluations."""
    def reports(laps):
        return [EpochReport(epoch=e, clone_loss=1.0, safety_loss=0.0, dyn_loss=0.0,
                            clf_loss=0.0, new_successes=1, new_failures=1, n_plus=100,
                            n_query=0, n_minus=0, eval_laps=n, eval_lap_mean=12.0 + e,
                            eval_lap_std=0.5) for e, n in enumerate(laps)]

    run = write_run(tmp_path / "run", reports([50, 3, 50, 7]), "ca", expert_lap_mean=11.0)
    base = write_run(tmp_path / "base", reports([3, 3, 1, 3]), "bc")
    (base / "config.txt").write_text("method = bc\neval_laps = 3\n")
    emit_reports(read_run(run), tmp_path / "rep", baseline=read_run(base))
    with open(tmp_path / "rep" / "laptime_stats.csv", newline="") as fh:
        assert list(csv.reader(fh)) == [["epoch", "lap_mean", "lap_std"],
                                        ["0", "12.0", "0.5"], ["2", "14.0", "0.5"]]
    svg = ET.parse(tmp_path / "rep" / "laptime_stats.svg").getroot()
    texts = [e.text for e in svg.findall(f"{_SVG}text")]
    assert "ca" in texts and "baseline" in texts
    lines = svg.findall(f"{_SVG}polyline")
    assert [len(e.get("points").split()) for e in lines] == [2, 3]   # epochs 0, 2; 0, 1, 3
    assert lines[1].get("stroke-dasharray") == "5 3"


def _run_dir(tmp_path, safety_on, clf_fit_epoch):
    return write_run(tmp_path / "run", [
        EpochReport(epoch=e, clone_loss=1.0, safety_loss=float(on), dyn_loss=0.0,
                    clf_loss=0.0, new_successes=1, new_failures=1, n_plus=100, n_query=50,
                    n_minus=40, eval_laps=e, eval_lap_mean=12.0, eval_lap_std=0.0,
                    safety_on=on, clf_fit_epoch=fit)
        for e, (on, fit) in enumerate(zip(safety_on, clf_fit_epoch))], "ca")


def test_laps_chart_marks_safety_term_and_classifier_fits(tmp_path):
    safety_on = [False, False, True, True, False, True, True]
    clf_fit_epoch = [-1, -1, 2, 2, 2, 5, 5]
    emit_reports(read_run(_run_dir(tmp_path, safety_on, clf_fit_epoch)), tmp_path / "rep")
    with open(tmp_path / "rep" / "laps_vs_epoch.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "laps", "safety_on", "clf_fit_epoch"]
    assert rows[1:] == [[str(e), str(e), str(on), str(fit)]
                        for e, (on, fit) in enumerate(zip(safety_on, clf_fit_epoch))]

    svg = ET.parse(tmp_path / "rep" / "laps_vs_epoch.svg").getroot()
    # the x axis spans epochs 0..6 over the plot width
    plot_x = [float(v) for v in re.findall(r"[\d.]+", svg.find(f"{_SVG}path").get("d"))[::2]]
    left, right = plot_x[0], plot_x[-1]

    def px(epoch):
        return left + epoch / 6 * (right - left)

    spans = [(float(e.get("x")), float(e.get("width")))
             for e in svg.findall(f"{_SVG}rect") if e.get("class") == "span"]
    # one band per run of safety-term epochs, the last clipped to the axis
    assert spans == pytest.approx([(px(1.5), px(3.5) - px(1.5)), (px(4.5), px(6) - px(4.5))],
                                  abs=0.11)
    fits = [float(e.get("x1")) for e in svg.findall(f"{_SVG}line") if e.get("class") == "vline"]
    assert fits == pytest.approx([px(2), px(5)], abs=0.06)
    texts = [e.text for e in svg.findall(f"{_SVG}text")]
    assert texts.count("clf fit") == 2 and texts.count("safety term on") == 1


def test_reports_csv_without_the_safety_columns_still_reports(tmp_path):
    """A reports.csv written before ``safety_on`` and ``clf_fit_epoch`` existed
    gives the same charts, without their marks."""
    run = _run_dir(tmp_path, [True] * 3, [0] * 3)
    with open(run / "reports.csv", newline="") as fh:
        old = [row[:-3] for row in csv.reader(fh)]
    assert old[0][-1] == "clf_degenerate"
    with open(run / "reports.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(old)
    emit_reports(read_run(run), tmp_path / "rep")
    with open(tmp_path / "rep" / "laps_vs_epoch.csv", newline="") as fh:
        assert list(csv.reader(fh))[1:] == [[str(e), str(e), "", ""] for e in range(3)]
    svg = (tmp_path / "rep" / "laps_vs_epoch.svg").read_text()
    assert 'class="span"' not in svg and 'class="vline"' not in svg
    assert "safety term on" not in svg and "clf fit" not in svg
