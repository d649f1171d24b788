import dataclasses
import json
import math

import numpy as np
import pytest

from cabc import nn
from cabc.autolabel import SyntheticSet, classifier_grid, grid_map
from cabc.reports import (
    _CONTOUR_CELLS,
    contour_segments,
    emit_reports,
    read_reports_csv,
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


def test_reports_csv_round_trips_every_field(tmp_path):
    reports = [
        EpochReport(epoch=0, clone_loss=0.1 + 0.2, safety_loss=0.0, dyn_loss=1e-300,
                    clf_loss=math.pi, new_successes=2, new_failures=0, n_plus=812,
                    n_query=0, n_minus=0, eval_laps=50, eval_lap_mean=7.25,
                    eval_lap_std=1.0 / 3.0),
        EpochReport(epoch=1, clone_loss=1e6, safety_loss=2.5, dyn_loss=-0.0,
                    clf_loss=0.5, new_successes=0, new_failures=2, n_plus=812,
                    n_query=600, n_minus=431, eval_laps=0, eval_lap_mean=0.0,
                    eval_lap_std=0.0, clf_degenerate=True),
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


@pytest.mark.parametrize("stopped_at", [None, 1])
def test_early_stop_marker_follows_meta(stopped_at, tmp_path):
    """Two full evaluations draw the marker only if the run stopped there:
    an ``early_stop = 0`` run trains on and records ``early_stopped_at: null``."""
    run = tmp_path / "run"
    run.mkdir()
    write_reports_csv([
        EpochReport(epoch=e, clone_loss=1.0 / (e + 1), safety_loss=0.0, dyn_loss=0.0,
                    clf_loss=0.0, new_successes=2, new_failures=0, n_plus=100, n_query=0,
                    n_minus=0, eval_laps=50, eval_lap_mean=12.0, eval_lap_std=0.0)
        for e in range(3)], run / "reports.csv")
    (run / "meta.json").write_text(json.dumps(
        {"method": "bc", "eval_laps": 50, "early_stopped_at": stopped_at}))
    emit_reports(run, tmp_path / "rep")
    for name in ("laps_vs_epoch.svg", "imitation_loss.svg"):
        markers = (tmp_path / "rep" / name).read_text().count(">x</text>")
        assert markers == (stopped_at is not None), name
