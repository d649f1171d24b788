import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from conftest import max_abs_curvature, write_track_file

from cabc.track import (
    TrackSpec,
    curvature_at,
    default_tracks,
    frenet_to_cartesian,
    get_track,
    load_track,
    resolve_track,
)


def two_half_circles():
    # closed in heading only; fine for curvature lookups
    return TrackSpec(segments=((math.pi * 1.0, 1.0), (math.pi * 2.0, 0.5)),
                     half_width=0.5, name="two")


class TestSpecValidation:
    def test_rejects_open_track(self):
        with pytest.raises(ValueError):
            TrackSpec(segments=((1.0, 0.5),), half_width=0.5)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            TrackSpec(segments=((0.0, 1.0), (2 * math.pi, 1.0)), half_width=0.5)

    def test_rejects_nonpositive_half_width(self):
        with pytest.raises(ValueError):
            TrackSpec(segments=((2 * math.pi, 1.0),), half_width=0.0)

    @pytest.mark.parametrize("segments, half_width", [
        (((math.nan, 0.5),), 0.6),
        (((math.inf, 0.0), (2 * math.pi, 1.0)), 0.6),
        (((2 * math.pi, 1.0), (1.0, math.nan)), 0.6),
        (((2 * math.pi, 1.0),), math.nan),
        (((2 * math.pi, 1.0),), math.inf),
    ], ids=["nan-length", "inf-length", "nan-curvature", "nan-half-width", "inf-half-width"])
    def test_rejects_what_cannot_be_driven(self, segments, half_width):
        """NaN fails every test, and an infinite length or width is refused."""
        with pytest.raises(ValueError):
            TrackSpec(segments=segments, half_width=half_width)

    def test_heading_closure_of_defaults(self):
        for track in default_tracks():
            turn = sum(l * k for l, k in track.segments)
            assert abs(abs(turn) - 2 * math.pi) < 1e-9


class TestCurvature:
    def test_circle_constant(self, circle):
        radius = 1.0 / circle.segments[0][1]
        for s in (0.0, 1.0, circle.lap_length / 3, circle.lap_length - 1e-9):
            assert curvature_at(circle, s) == pytest.approx(1.0 / radius)

    def test_segment_boundary(self):
        track = two_half_circles()
        first_len = track.segments[0][0]
        assert curvature_at(track, first_len - 1e-9) == 1.0
        assert curvature_at(track, first_len + 1e-9) == 0.5

    def test_wrap_identity(self):
        track = two_half_circles()
        assert curvature_at(track, track.lap_length + 0.5) == curvature_at(track, 0.5)

    @given(st.floats(-100.0, 100.0))
    @settings(max_examples=50, deadline=None)
    def test_periodicity(self, s):
        # float modulo jitters by an ulp, so stay clear of segment boundaries
        track = get_track("gp")
        s_w = s % track.lap_length
        starts = [0.0]
        for length, _ in track.segments:
            starts.append(starts[-1] + length)
        assume(all(abs(s_w - b) > 1e-9 for b in starts))
        assert curvature_at(track, s) == curvature_at(track, s + track.lap_length)


class TestFrenetToCartesian:
    def test_circle_anchor(self, circle):
        x, y, psi = frenet_to_cartesian(circle, 0.0, 0.0)
        assert (x, y, psi) == (0.0, 0.0, 0.0)

    def test_circle_quarter_lap(self, circle):
        radius = 1.0 / circle.segments[0][1]
        x, y, psi = frenet_to_cartesian(circle, circle.lap_length / 4, 0.0)
        # quarter turn about the center at (0, R)
        assert x == pytest.approx(radius, abs=1e-9)
        assert y == pytest.approx(radius, abs=1e-9)
        assert psi == pytest.approx(math.pi / 2, abs=1e-12)

    def test_lateral_offset_direction(self, circle):
        x, y, _ = frenet_to_cartesian(circle, 0.0, 0.25)
        assert (x, y) == pytest.approx((0.0, 0.25))  # left of +X travel

    def test_position_closure_of_defaults(self):
        # independent re-integration of every segment, in order
        for track in default_tracks():
            x, y, psi = 0.0, 0.0, 0.0
            for length, kappa in track.segments:
                if abs(kappa) < 1e-12:
                    x += length * math.cos(psi)
                    y += length * math.sin(psi)
                else:
                    p1 = psi + kappa * length
                    x += (math.sin(p1) - math.sin(psi)) / kappa
                    y -= (math.cos(p1) - math.cos(psi)) / kappa
                    psi = p1
            assert math.hypot(x, y) < 1e-6, track.name
            assert abs(abs(psi) - 2 * math.pi) < 1e-9, track.name

    @pytest.mark.parametrize("name", ["circle", "lshaped", "gp"])
    def test_projection_round_trip(self, name):
        """Invert the map with an independent nearest-point projection."""
        track = get_track(name)
        rng = np.random.default_rng(12)

        def centerline_dist(s, px, py):
            cx, cy, _ = frenet_to_cartesian(track, s, 0.0)
            return math.hypot(cx - px, cy - py)

        for _ in range(10):
            s_true = rng.uniform(0.0, track.lap_length)
            xt_true = rng.uniform(-0.45, 0.45)
            px, py, _ = frenet_to_cartesian(track, s_true, xt_true)
            # coarse scan, then local refinement around the best arc length
            grid = np.linspace(0.0, track.lap_length, 2000, endpoint=False)
            dists = [centerline_dist(s, px, py) for s in grid]
            s0 = grid[int(np.argmin(dists))]
            span = track.lap_length / 2000 * 2
            res = minimize_scalar(lambda s: centerline_dist(s, px, py),
                                  bounds=(s0 - span, s0 + span), method="bounded",
                                  options={"xatol": 1e-10})
            s_est = res.x % track.lap_length
            cx, cy, cpsi = frenet_to_cartesian(track, s_est, 0.0)
            xt_est = -(px - cx) * math.sin(cpsi) + (py - cy) * math.cos(cpsi)
            ds = min(abs(s_est - s_true),
                     track.lap_length - abs(s_est - s_true))
            assert ds < 1e-6
            assert abs(xt_est - xt_true) < 1e-6


class TestDefaults:
    def test_names_and_shapes(self):
        tracks = {t.name: t for t in default_tracks()}
        assert set(tracks) == {"circle", "lshaped", "gp"}
        assert len(tracks["circle"].segments) == 1
        assert len(tracks["gp"].segments) >= 8

    def test_gp_has_tight_corner(self, gp):
        threshold = 1.0 / (3.0 * gp.half_width * 4.0)
        assert max_abs_curvature(gp) >= threshold

    def test_gp_alternating_curvature_signs(self, gp):
        signs = [np.sign(k) for _, k in gp.segments if k != 0.0]
        assert any(a != b for a, b in zip(signs, signs[1:]))

    def test_minimum_radius_exceeds_half_width(self):
        # keeps the Frenet chart regular everywhere inside the track
        for track in default_tracks():
            assert 1.0 / max_abs_curvature(track) > track.half_width


class TestFiles:
    def test_round_trip(self, tmp_path, gp):
        path = tmp_path / "gp.track"
        write_track_file(gp, path)
        loaded = load_track(path)
        assert loaded.segments == gp.segments
        assert loaded.half_width == gp.half_width

    def test_missing_halfwidth(self, tmp_path):
        path = tmp_path / "bad.track"
        path.write_text("1.0 0.5\n")
        with pytest.raises(ValueError):
            load_track(path)

    @pytest.mark.parametrize("text, line, message", [
        ("halfwidth\n{seg}\n", 1, "expected 'halfwidth <m>'"),
        ("halfwidth 0.6\n12.5 x\n", 2, "'x' is not a number"),
        ("halfwidth 0.6 0.7\n{seg}\n", 1, "expected 'halfwidth <m>'"),
        ("halfwidth 0.6\n{seg}\nhalfwidth 0.7\n", 3, "second 'halfwidth' line"),
    ], ids=["no-value", "not-a-number", "extra-token", "second-halfwidth"])
    def test_malformed_line_names_file_and_line(self, tmp_path, text, line, message):
        path = tmp_path / "bad.track"
        path.write_text(text.format(seg=f"{4 * math.pi!r} 0.5"))
        with pytest.raises(ValueError, match=re.escape(f"{path}: line {line}: {message}")):
            load_track(path)

    @pytest.mark.parametrize("text, message", [
        ("halfwidth 0.6\n", "track needs at least one segment"),
        ("halfwidth 0.6\n12.5 0.0\n", "track does not close in heading: total turn 0.0"),
        ("halfwidth 0\n{seg}\n", "half_width must be positive and finite"),
    ], ids=["no-segment", "open", "zero-halfwidth"])
    def test_invalid_track_names_file(self, tmp_path, text, message):
        path = tmp_path / "bad.track"
        path.write_text(text.format(seg=f"{4 * math.pi!r} 0.5"))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_track(path)

    def test_resolve_by_name_and_path(self, tmp_path, circle):
        assert resolve_track("circle").name == "circle"
        path = tmp_path / "custom.track"
        write_track_file(circle, path)
        assert resolve_track(str(path)).segments == circle.segments
        with pytest.raises(KeyError):
            resolve_track("nope")
