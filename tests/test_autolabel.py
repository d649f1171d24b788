import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

from cabc import nn
from cabc.autolabel import (
    _GRID_BLOCK,
    NeighborIndex,
    NormStats,
    HULL_TOL,
    SyntheticSet,
    classifier_grid,
    embed,
    fit_norm,
    grid_map,
    hull_membership,
    incorrect_removals,
    label_synthetic,
    member_mask,
    prop1_violation_count,
    sample_box,
)
from cabc.trainer import _LabelState

from conftest import (
    euclidean_hull_distance,
    lp_hull_oracle,
    make_state,
    states_array,
    traced_peak,
)


class TestNormalization:
    def test_degenerate_variance_is_floored(self):
        states = states_array([make_state(v=1.0, s=2.0)] * 2)
        norm = fit_norm(states, lap_length=10.0)
        assert np.all(norm.std == 1e-6)

    def test_requires_two_states(self):
        with pytest.raises(ValueError):
            fit_norm(states_array([make_state()]), lap_length=10.0)

    def test_monte_carlo_std_recovery(self):
        rng = np.random.default_rng(3)
        sigmas = {"v": 0.7, "vt": 0.2, "om": 1.3, "xt": 0.15, "ep": 0.4}
        states = [make_state(v=rng.normal(1.0, sigmas["v"]),
                             vt=rng.normal(0.0, sigmas["vt"]),
                             om=rng.normal(0.0, sigmas["om"]),
                             s=rng.uniform(0, 10),
                             xt=rng.normal(0.0, sigmas["xt"]),
                             ep=rng.normal(0.0, sigmas["ep"]))
                  for _ in range(10_000)]
        norm = fit_norm(states_array(states), lap_length=10.0)
        # non-embedded dimensions: v, vt, om at 0..2, xt at 5, ep at 6
        for idx, key in zip((0, 1, 2, 5, 6), ("v", "vt", "om", "xt", "ep")):
            assert norm.std[idx] == pytest.approx(sigmas[key], rel=0.05)

    def test_circular_embedding_joins_lap_ends(self):
        lap = 10.0
        a, b = embed(np.array([make_state(s=0.0), make_state(s=lap - 1e-6)]), lap)
        assert np.linalg.norm(a - b) < 1e-5


def _index_and_norm(plus):
    norm = fit_norm(plus, lap_length=10.0)
    return NeighborIndex(norm.normalize_states(plus)), norm


def _normalized(norm, state):
    return norm.normalize_states(states_array([state]))[0]


class TestRadiusNeighbors:
    def test_zero_radius_without_exact_match(self):
        plus = states_array([make_state(v=1.0), make_state(v=2.0)])
        index, norm = _index_and_norm(plus)
        assert index.query(_normalized(norm, make_state(v=1.5)), 0.0).tolist() == []

    def test_huge_radius_returns_all(self):
        plus = states_array([make_state(v=float(i)) for i in range(5)])
        index, norm = _index_and_norm(plus)
        found = index.query(_normalized(norm, make_state(v=2.0)), 1e9)
        assert found.tolist() == list(range(len(plus)))

    def test_rejects_negative_radius(self):
        plus = states_array([make_state(), make_state(v=2.0)])
        index, norm = _index_and_norm(plus)
        with pytest.raises(ValueError):
            index.query(_normalized(norm, make_state()), -1.0)

    def test_nearest_rejects_negative_radius(self):
        # the search squares the radius: unchecked, -0.7 would return the +0.7 sets
        index = NeighborIndex(np.random.default_rng(13).normal(size=(50, 3)))
        for q in (np.zeros(3), np.zeros((4, 3))):
            with pytest.raises(ValueError):
                index.query_nearest(q, -0.7, 8)
            with pytest.raises(ValueError):
                index.query(q, -0.7)
        with pytest.raises(ValueError):
            NeighborIndex(np.zeros((0, 3))).query_nearest(np.zeros(3), -0.7, 8)
        with pytest.raises(ValueError):
            member_mask(index.points, np.zeros((4, 3)), -0.7)

    def test_nearest_rejects_cap_below_one(self):
        # unchecked, cap = 0 would return no neighbors and so label nothing
        index = NeighborIndex(np.random.default_rng(14).normal(size=(50, 3)))
        for q in (np.zeros(3), np.zeros((4, 3))):
            for cap in (0, -1):
                with pytest.raises(ValueError, match="cap"):
                    index.query_nearest(q, 0.7, cap)
        with pytest.raises(ValueError, match="cap"):
            NeighborIndex(np.zeros((0, 3))).query_nearest(np.zeros(3), 0.7, 0)
        with pytest.raises(ValueError, match="cap"):
            member_mask(index.points, np.zeros((4, 3)), 0.7, max_neighbors=0)

    def test_index_matches_linear_scan(self):
        def radius_neighbors(x, d_plus, norm, rho):
            """Reference: rows of every pool state within normalized distance rho, by scan."""
            q = _normalized(norm, x)
            d2 = ((norm.normalize_states(d_plus) - q) ** 2).sum(axis=1)
            return np.flatnonzero(d2 <= rho * rho)

        rng = np.random.default_rng(11)
        plus = states_array([make_state(v=rng.uniform(0, 3), s=rng.uniform(0, 10),
                                        xt=rng.normal(0, 0.2), ep=rng.normal(0, 0.3),
                                        vt=rng.normal(0, 0.1), om=rng.normal(0, 0.5))
                             for _ in range(1000)])
        index, norm = _index_and_norm(plus)
        for _ in range(25):
            q = make_state(v=rng.uniform(0, 3), s=rng.uniform(0, 10),
                           xt=rng.normal(0, 0.2))
            scan = radius_neighbors(q, plus, norm, 1.0)
            idx = index.query(_normalized(norm, q), 1.0)
            assert scan.tolist() == sorted(idx.tolist())

    def test_block_queries_match_single_queries(self):
        rng = np.random.default_rng(12)
        index = NeighborIndex(rng.normal(size=(300, 3)))
        block = rng.normal(scale=1.2, size=(40, 3))
        for found, q in zip(index.query(block, 0.6), block):
            assert np.array_equal(found, index.query(q, 0.6))
        for cap in (1, 8):
            for found, q in zip(index.query_nearest(block, 0.6, cap), block):
                assert np.array_equal(found, index.query_nearest(q, 0.6, cap))
        assert index.query(block[:0], 0.6) == []
        empty = NeighborIndex(np.zeros((0, 3)))
        assert [len(i) for i in empty.query_nearest(block[:2], 0.6, 8)] == [0, 0]

    def test_point_at_exactly_rho_is_found(self):
        # 3-4-5: squared distances 25 and 25 + 8e-8 are exact against rho**2 = 25;
        # the last two sit on the edges of the first coordinate's slab
        index = NeighborIndex(np.array([[3.0, 4.0], [3.0, 4.0 + 1e-8], [0.0, 5.0],
                                        [5.0, 0.0], [-5.0, 0.0]]))
        assert index.query(np.zeros(2), 5.0).tolist() == [0, 2, 3, 4]
        assert index.query(np.array([3.0, 9.0]), 5.0).tolist() == [0, 1, 2]
        assert index.query_nearest(np.zeros(2), 5.0, 8).tolist() == [0, 2, 3, 4]
        # a difference whose square underflows is at distance 0 to the test
        assert NeighborIndex(np.array([[1e-170, 0.0]])).query(np.zeros(2), 0.0).tolist() == [0]

    def test_nearest_orders_ties_by_index(self):
        points = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0], [1.0, 0.0]])
        index = NeighborIndex(points)
        assert index.query_nearest(np.zeros(2), 2.0, 5).tolist() == [1, 3, 0, 2, 4]
        assert index.query_nearest(np.zeros(2), 2.0, 3).tolist() == [1, 3, 0]
        assert index.query_nearest(np.zeros(2), 0.0, 5).tolist() == []

    def test_nearest_matches_scan_oracle(self):
        def nearest_by_scan(points, q, rho, cap):
            """Reference: (squared distance, index) order over every point."""
            bound = (rho * (1 + 1e-12)) ** 2
            d2 = [sum((a - b) ** 2 for a, b in zip(p, q)) for p in points.tolist()]
            return sorted((d, i) for i, d in enumerate(d2) if d < bound)[:cap]

        rng = np.random.default_rng(15)
        # coordinates on a 0.25 grid, with repeated rows: many exact ties
        points = np.round(4 * rng.normal(size=(200, 3))) / 4
        points = np.vstack([points, points[:40]])
        index = NeighborIndex(points)
        queries = np.vstack([np.round(4 * rng.normal(size=(30, 3))) / 4,
                             rng.normal(size=(30, 3))])
        for rho in (0.0, 0.5, 1.0, 2.0):
            for cap in (1, 4, 64, 1000):
                for q, found in zip(queries, index.query_nearest(queries, rho, cap)):
                    expect = [i for _, i in nearest_by_scan(points, q, rho, cap)]
                    assert found.tolist() == expect

    def test_rejects_non_finite_points_and_queries(self):
        bad = np.zeros((4, 3))
        bad[2, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            NeighborIndex(bad)
        bad[2, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            NeighborIndex(bad)
        index = NeighborIndex(np.zeros((4, 3)))
        for q in (np.array([0.0, np.nan, 0.0]), np.array([[0.0] * 3, [-np.inf, 0.0, 0.0]])):
            with pytest.raises(ValueError, match="finite"):
                index.query(q, 1.0)
            with pytest.raises(ValueError, match="finite"):
                index.query_nearest(q, 1.0, 8)

    def test_infinite_radius_returns_every_point(self):
        points = np.random.default_rng(16).normal(scale=1e3, size=(100, 3))
        index = NeighborIndex(points)
        q = np.full(3, 5e3)
        assert index.query(q, math.inf).tolist() == list(range(100))
        d2 = ((points - q) ** 2).sum(axis=1)
        assert index.query_nearest(q, math.inf, 1000).tolist() == np.argsort(d2).tolist()


class TestHullMembership:
    def test_centroid_of_symmetric_set(self):
        S = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        assert hull_membership(np.zeros(2), S)

    def test_outside_bounding_box(self):
        S = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        assert not hull_membership(np.array([2.0, 0.0]), S)

    def test_empty_set_contains_nothing(self):
        assert not hull_membership(np.zeros(3), np.zeros((0, 3)))

    def test_single_point_hull(self):
        S = np.array([[1.0, 2.0]])
        assert hull_membership(np.array([1.0, 2.0]), S)
        assert not hull_membership(np.array([1.0, 2.1]), S)

    def test_agrees_with_enumeration_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(150):
            d = int(rng.integers(2, 8))
            n = int(rng.integers(1, 10))
            P = rng.normal(size=(n, d))
            if rng.random() < 0.5 and n >= 2:
                x = rng.dirichlet(np.ones(n)) @ P
            else:
                x = rng.normal(scale=1.5, size=d)
            assert hull_membership(x, P) == lp_hull_oracle(x, P)

    @pytest.mark.parametrize("tol", [1e-7, 0.05])
    def test_agrees_with_euclidean_distance_oracle(self, tol):
        rng = np.random.default_rng(23)
        for _ in range(120):
            d = int(rng.integers(2, 8))
            n = int(rng.integers(1, 9))
            P = rng.normal(size=(n, d))
            x = rng.dirichlet(np.ones(n)) @ P
            if rng.random() < 0.7:
                step = rng.normal(size=d)
                x = x + step * rng.uniform(0.0, 3.0) * tol / np.linalg.norm(step)
            dist = euclidean_hull_distance(x, P)
            if abs(dist - tol) > 1e-9:
                assert hull_membership(x, P, tol) == (dist <= tol)

    @pytest.mark.parametrize("tol", [1e-7, 0.05])
    def test_facet_distance_decides(self, tol):
        # a 7-simplex: the facet opposite vertex 0, approached along its normal
        rng = np.random.default_rng(4)
        P = rng.normal(size=(8, 7))
        facet = P[1:]
        normal = np.linalg.svd(facet[1:] - facet[0])[2][-1]
        if normal @ (P[0] - facet[0]) > 0:
            normal = -normal
        centroid = facet.mean(axis=0)
        assert hull_membership(centroid + 0.9 * tol * normal, P, tol)
        assert not hull_membership(centroid + 1.1 * tol * normal, P, tol)

    def test_vertex_diagonal_is_measured_in_euclidean_norm(self):
        # off the corner of the unit simplex along -(1, ..., 1): Euclidean
        # distance 1.2 * tol, max-norm distance 1.2 * tol / sqrt(7) < tol
        d, tol = 7, 0.05
        P = np.vstack([np.zeros(d), np.eye(d)])
        x = -1.2 * tol * np.ones(d) / math.sqrt(d)
        assert np.abs(x).max() <= tol
        assert not hull_membership(x, P, tol)
        assert hull_membership(0.8 * x, P, tol)

    def test_labeling_run_query_is_decided_at_its_euclidean_distance(self):
        # a normalized 7-D query and its 8 capped neighbors from a lambda = 1
        # CA run on gp: within 0.039 of their hull in the max norm, 0.068 in
        # the Euclidean norm, so not a member at the run's hull_tol of 0.05
        x = np.array([0.2709, -0.9486, 1.2933, -0.5383, -1.3524, -0.801, 0.4853])
        P = np.array([[0.6111, -1.2258, 0.966, -0.5387, -1.3523, -0.8223, 0.7923],
                      [0.6857, -0.3622, 1.3534, -0.5873, -1.3321, -0.9187, 0.4355],
                      [0.6397, -0.679, 0.6179, -0.5668, -1.3409, -0.6454, 0.397],
                      [0.1909, -1.5254, 1.6557, -0.5687, -1.34, -1.3458, 0.7945],
                      [0.0822, -1.0387, 0.5303, -0.4894, -1.3707, -0.6963, 0.9611],
                      [0.9463, -0.7717, 0.6996, -0.6181, -1.3181, -0.6986, 0.3869],
                      [0.5138, -0.7739, 1.7102, -0.5426, -1.3507, -0.5186, -0.2559],
                      [0.0902, -1.7887, 0.8643, -0.4926, -1.3695, -0.6522, 0.2673]])
        dist = euclidean_hull_distance(x, P)
        assert dist == pytest.approx(0.068133, abs=1e-6)
        assert not hull_membership(x, P, 0.05)
        assert not hull_membership(x, P, 0.99 * dist)
        assert hull_membership(x, P, 1.01 * dist)

    def test_degenerate_inputs(self):
        rng = np.random.default_rng(8)
        simplex = rng.normal(size=(4, 3))
        dupes = simplex[[0, 1, 1, 2, 3, 3, 3, 0]]
        assert hull_membership(simplex.mean(axis=0), dupes)
        outside = 2.0 * simplex[0] - simplex.mean(axis=0)
        assert not hull_membership(outside, dupes)

        # collinear points in 7-D: a segment from t = -1 to t = 2
        direction = rng.normal(size=7)
        direction /= np.linalg.norm(direction)
        base = rng.normal(size=7)
        line = base + np.linspace(-1.0, 2.0, 9)[:, None] * direction
        side = np.linalg.svd(direction[None, :])[2][-1]
        assert hull_membership(base + 0.3 * direction, line)
        assert hull_membership(base + (2.0 + 0.04) * direction, line, 0.05)
        assert not hull_membership(base + (2.0 + 0.06) * direction, line, 0.05)
        assert hull_membership(base + 0.04 * side, line, 0.05)
        assert not hull_membership(base + 0.06 * side, line, 0.05)

        for tol in (HULL_TOL, 0.0):
            assert hull_membership(simplex[2], simplex, tol)      # x on a vertex
            assert hull_membership(simplex[0], simplex[:1], tol)  # n = 1
            assert not hull_membership(outside, simplex, tol)
        assert hull_membership(simplex.mean(axis=0), simplex, 0.0)
        origin = np.zeros((1, 3))
        assert hull_membership(np.array([0.0, 0.03, 0.04]), origin, 0.05)
        assert not hull_membership(np.array([0.0, 0.03, 0.0401]), origin, 0.05)
        with pytest.raises(ValueError):
            hull_membership(np.array([np.nan, 0.0, 0.0]), simplex)

    def test_nearly_flat_hulls_are_decided(self):
        # one dimension squeezed to 1e-5: faces end up within ~1e-7 of x,
        # where the entering gradients are rounding; these solves used to end
        # at such a face without a certificate (trials 229 and 1697 among them)
        def nnls_distance(x, P):
            Q = P - x
            scale = np.linalg.norm(Q, axis=1).max()
            u = nnls(np.vstack([Q.T / scale, np.ones(len(P))]),
                     np.r_[np.zeros(len(x)), 1.0], maxiter=2000)[0]
            return float(np.linalg.norm(u @ Q / u.sum()))

        rng = np.random.default_rng(5)
        for trial in range(2000):
            d = int(rng.integers(2, 8))
            n = int(rng.integers(2, 30))
            P = rng.normal(size=(n, d))
            P[:, -1] *= 1e-5
            x = rng.dirichlet(np.ones(n)) @ P
            if trial % 2:
                x = x + rng.normal(scale=1e-3, size=d) * np.r_[np.ones(d - 1), 1e-5]
            dist = euclidean_hull_distance(x, P) if n <= 5 else nnls_distance(x, P)
            band = 1e-9 * np.linalg.norm(P - x, axis=1).max()
            for tol in (0.0, HULL_TOL, 0.05):
                verdict = hull_membership(x, P, tol)
                if abs(dist - tol) > band:
                    assert verdict == (dist <= tol), (trial, tol, dist)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_convex_combination_is_member(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        d = int(rng.integers(2, 6))
        P = rng.normal(size=(n, d))
        x = rng.dirichlet(np.ones(n)) @ P
        assert hull_membership(x, P)


def minus_full(plus: np.ndarray, query: np.ndarray, norm: NormStats, rho: float) -> np.ndarray:
    """The trainer's full rebuild of the negative flags, every neighbor in each hull."""
    rows = np.arange(len(plus) + len(query))
    minus = _LabelState(rho, HULL_TOL, None).relabel(np.vstack([plus, query]), rows[:len(plus)],
                                                     rows[len(plus):], norm)
    return np.isin(rows[len(plus):], minus)


class TestBuildNegatives:
    def _pool_and_norm(self):
        rng = np.random.default_rng(5)
        plus = states_array([make_state(v=rng.uniform(0.5, 2.0), s=rng.uniform(0, 10),
                                        xt=rng.normal(0, 0.1)) for _ in range(200)])
        norm = fit_norm(plus, lap_length=10.0)
        return plus, norm

    def test_duplicate_of_safe_state_is_excluded(self):
        plus, norm = self._pool_and_norm()
        assert minus_full(plus, plus[:1], norm, rho=0.5).tolist() == [False]

    def test_isolated_state_stays_negative(self):
        plus, norm = self._pool_and_norm()
        faraway = states_array([make_state(v=50.0, s=5.0, xt=0.0)])
        assert minus_full(plus, faraway, norm, rho=0.5).tolist() == [True]

    def test_query_pool_is_retained(self):
        plus, norm = self._pool_and_norm()
        queries = np.vstack([plus[:1], states_array([make_state(v=50.0, s=5.0)])])
        before = queries.copy()
        minus = minus_full(plus, queries, norm, rho=0.5)
        assert np.array_equal(queries, before)
        assert minus.tolist() == [False, True]

    def test_empty_plus_pool_keeps_all_negatives(self):
        norm = NormStats(mean=np.zeros(7), std=np.ones(7), lap_length=1.0)
        queries = states_array([make_state(v=1.0), make_state(v=2.0)])
        assert minus_full(np.zeros((0, 6)), queries, norm, rho=1.0).tolist() == [True, True]

    def test_labels_are_history_free_under_the_neighbor_cap(self):
        """A query held by its capped hull in one epoch is decided afresh in the next.

        States vary in ``v_long`` and ``v_tran`` only, under the identity
        metric.  Epoch 1: four safe states at distance 0.5 around the query
        enclose it.  Epoch 2: four safe states arrive nearer, all on one
        side, and displace the old ones from its four-neighbor hull.
        """
        norm = NormStats(mean=np.zeros(7), std=np.ones(7), lap_length=10.0)

        def states(*points):
            return states_array([make_state(v=v, vt=vt) for v, vt in points])

        around = states((0.5, 0.0), (-0.5, 0.0), (0.0, 0.5), (0.0, -0.5))
        query = states((0.0, 0.0))
        one_side = states((0.1, 0.1), (0.2, 0.1), (0.1, 0.2), (0.2, 0.3))
        pool1 = np.vstack([around, query])
        pool2 = np.vstack([pool1, one_side])
        plus1, plus2, q = np.arange(4), np.r_[0:4, 5:9], np.array([4])

        labels = _LabelState(rho=1.0, hull_tol=HULL_TOL, neighbor_cap=4)
        assert labels.relabel(pool1, plus1, q, norm).tolist() == []
        second = labels.relabel(pool2, plus2, q, norm)
        fresh = _LabelState(rho=1.0, hull_tol=HULL_TOL, neighbor_cap=4).relabel(
            pool2, plus2, q, norm)
        assert second.tolist() == fresh.tolist() == [4]
        # the cap decides it: the whole ball still encloses the query
        assert _LabelState(1.0, HULL_TOL, None).relabel(pool2, plus2, q, norm).tolist() == []


class TestSyntheticSets:
    @pytest.mark.parametrize("synth", [SyntheticSet.disk(), SyntheticSet.crescent(),
                                       SyntheticSet.sector()])
    def test_sign_matches_membership(self, synth):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-5, 5, size=(500, 2))
        sdf = synth.signed_distance(pts)
        inside = synth.contains(pts)
        assert np.all(sdf[inside] >= 0.0)
        assert np.all(sdf[~inside] <= 0.0)

    def test_boundary_points_have_zero_distance(self):
        disk = SyntheticSet.disk(center=(1.0, -2.0), radius=3.0)
        for ang in np.linspace(0, 2 * math.pi, 17):
            p = (1.0 + 3.0 * math.cos(ang), -2.0 + 3.0 * math.sin(ang))
            assert abs(disk.signed_distance([p])[0]) < 1e-12

        crescent = SyntheticSet.crescent()
        # points on the outer arc, away from circle B
        for ang in (math.pi * 0.75, math.pi, math.pi * 1.25):
            p = (3.0 * math.cos(ang), 3.0 * math.sin(ang))
            assert abs(crescent.signed_distance([p])[0]) < 1e-12

    def test_disk_sdf_is_exact(self):
        disk = SyntheticSet.disk(center=(0.0, 0.0), radius=2.0)
        assert disk.signed_distance([(0.0, 0.0)])[0] == pytest.approx(2.0)
        assert disk.signed_distance([(5.0, 0.0)])[0] == pytest.approx(-3.0)

    def test_sector_notch_is_outside(self):
        sector = SyntheticSet.sector()
        assert not sector.contains([(-1.0, 0.0)])[0]  # inside the notch direction
        assert sector.contains([(1.0, 0.0)])[0]

    def test_interior_sampling(self):
        synth = SyntheticSet.crescent()
        pts = synth.sample_inside(500, np.random.default_rng(0))
        assert pts.shape == (500, 2)
        assert synth.contains(pts).all()


def draw_synthetic(synth, n, seed):
    """``n`` points inside ``synth``, then ``n`` uniform query points, from one stream."""
    rng = np.random.default_rng(seed)
    return synth.sample_inside(n, rng), sample_box(n, rng)


class TestPropositionSoundness:
    @pytest.mark.parametrize("synth,seed", [(SyntheticSet.crescent(), 7),
                                            (SyntheticSet.sector(), 9)])
    def test_no_removed_point_is_confidently_unsafe(self, synth, seed):
        plus, query = draw_synthetic(synth, 800, seed)
        for rho in (1.0, 0.5, 0.25):
            removed = label_synthetic(plus, query, rho)
            assert prop1_violation_count(query[removed], synth, rho) == 0

    def test_negative_control_buggy_labeler(self):
        synth = SyntheticSet.crescent()
        _, query = draw_synthetic(synth, 400, 7)
        remove_all = np.ones(len(query), dtype=bool)
        assert prop1_violation_count(query[remove_all], synth, 0.5) > 0

    def test_incorrect_removals_shrink_with_rho(self):
        synth = SyntheticSet.crescent()
        plus, query = draw_synthetic(synth, 1200, 7)
        counts = []
        for rho in (1.0, 0.5, 0.25):
            removed = label_synthetic(plus, query, rho)
            counts.append(incorrect_removals(removed, query, synth))
        assert counts[0] >= counts[1] >= counts[2]
        assert counts[0] > 0  # the concavity does fool the largest radius


def _grid_points(xs, ys):
    """All grid points at once, ``x`` varying fastest."""
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel()])


class TestGrid:
    # 1369 points: one full block and a partial one
    N = 37

    @pytest.mark.parametrize("seed", [0, 1])
    def test_classifier_grid_matches_one_forward_bit_for_bit(self, seed):
        assert self.N ** 2 > _GRID_BLOCK and self.N ** 2 % _GRID_BLOCK
        params = nn.init_mlp((2, 64, 64, 1), head="sigmoid", seed=seed)
        xs, ys, probs = classifier_grid(params, (-5.0, 5.0), n=self.N)
        expected = nn.forward(params, _grid_points(xs, ys))[:, 0].reshape(self.N, self.N)
        assert np.array_equal(probs.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("synth", [SyntheticSet.crescent(), SyntheticSet.sector()],
                             ids=["crescent", "sector"])
    def test_signed_distance_grid_matches_one_call_bit_for_bit(self, synth):
        xs = np.linspace(-5.0, 5.0, self.N)
        ys = np.linspace(-4.0, 6.0, self.N + 3)
        got = grid_map(synth.signed_distance, xs, ys)
        expected = synth.signed_distance(_grid_points(xs, ys)).reshape(len(ys), len(xs))
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_classifier_grid_memory_does_not_grow_with_the_grid(self):
        params = nn.init_mlp((2, 64, 64, 1), head="sigmoid", seed=0)
        # one forward over all 40000 points would hold two 20 MB activations
        assert traced_peak(lambda: classifier_grid(params, (-5.0, 5.0), n=200)) < 8e6
