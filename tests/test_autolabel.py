import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cabc.autolabel import (
    NeighborIndex,
    NormStats,
    HULL_TOL,
    SyntheticSet,
    embed,
    fit_norm,
    hull_membership,
    incorrect_removals,
    label_synthetic,
    member_mask,
    prop1_violation_count,
    radius_neighbors,
)
from cabc.core import LabeledPool
from cabc.trainer import _LabelState

from conftest import lp_hull_oracle, make_state


class TestNormalization:
    def test_degenerate_variance_is_floored(self):
        states = [make_state(v=1.0, s=2.0)] * 2
        norm = fit_norm(states, lap_length=10.0)
        assert np.all(norm.std == 1e-6)

    def test_requires_two_states(self):
        with pytest.raises(ValueError):
            fit_norm([make_state()], lap_length=10.0)

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
        norm = fit_norm(states, lap_length=10.0)
        # non-embedded dimensions: v, vt, om at 0..2, xt at 5, ep at 6
        for idx, key in zip((0, 1, 2, 5, 6), ("v", "vt", "om", "xt", "ep")):
            assert norm.std[idx] == pytest.approx(sigmas[key], rel=0.05)

    def test_circular_embedding_joins_lap_ends(self):
        lap = 10.0
        a, b = embed(np.array([make_state(s=0.0).as_tuple(),
                               make_state(s=lap - 1e-6).as_tuple()]), lap)
        assert np.linalg.norm(a - b) < 1e-5


class TestRadiusNeighbors:
    def test_zero_radius_without_exact_match(self):
        plus = [make_state(v=1.0), make_state(v=2.0)]
        norm = fit_norm(plus, lap_length=10.0)
        assert radius_neighbors(make_state(v=1.5), plus, norm, 0.0) == []

    def test_huge_radius_returns_all(self):
        plus = [make_state(v=float(i)) for i in range(5)]
        norm = fit_norm(plus, lap_length=10.0)
        assert radius_neighbors(make_state(v=2.0), plus, norm, 1e9) == plus

    def test_rejects_negative_radius(self):
        plus = [make_state(), make_state(v=2.0)]
        norm = fit_norm(plus, lap_length=10.0)
        with pytest.raises(ValueError):
            radius_neighbors(make_state(), plus, norm, -1.0)

    def test_index_matches_linear_scan(self):
        rng = np.random.default_rng(11)
        plus = [make_state(v=rng.uniform(0, 3), s=rng.uniform(0, 10),
                           xt=rng.normal(0, 0.2), ep=rng.normal(0, 0.3),
                           vt=rng.normal(0, 0.1), om=rng.normal(0, 0.5))
                for _ in range(1000)]
        norm = fit_norm(plus, lap_length=10.0)
        index = NeighborIndex(norm.normalize_states(plus))
        for _ in range(25):
            q = make_state(v=rng.uniform(0, 3), s=rng.uniform(0, 10),
                           xt=rng.normal(0, 0.2))
            scan = radius_neighbors(q, plus, norm, 1.0)
            idx = index.query(norm.normalize_states([q])[0], 1.0)
            assert sorted(map(id, scan)) == sorted(id(plus[i]) for i in idx)


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

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_convex_combination_is_member(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        d = int(rng.integers(2, 6))
        P = rng.normal(size=(n, d))
        x = rng.dirichlet(np.ones(n)) @ P
        assert hull_membership(x, P)


def relabel_full(pool: LabeledPool, norm: NormStats, rho: float) -> None:
    """The trainer's full rebuild of ``pool.d_minus``, every neighbor in each hull."""
    _LabelState().relabel(pool, norm, rho, full=True, tol=HULL_TOL, neighbor_cap=None)


class TestBuildNegatives:
    def _pool_and_norm(self):
        rng = np.random.default_rng(5)
        plus = [make_state(v=rng.uniform(0.5, 2.0), s=rng.uniform(0, 10),
                           xt=rng.normal(0, 0.1)) for _ in range(200)]
        norm = fit_norm(plus, lap_length=10.0)
        return plus, norm

    def test_duplicate_of_safe_state_is_excluded(self):
        plus, norm = self._pool_and_norm()
        pool = LabeledPool(d_plus=plus, d_query=[plus[0]])
        relabel_full(pool, norm, rho=0.5)
        assert pool.d_minus == []

    def test_isolated_state_stays_negative(self):
        plus, norm = self._pool_and_norm()
        faraway = make_state(v=50.0, s=5.0, xt=0.0)
        pool = LabeledPool(d_plus=plus, d_query=[faraway])
        relabel_full(pool, norm, rho=0.5)
        assert pool.d_minus == [faraway]

    def test_query_pool_is_retained(self):
        plus, norm = self._pool_and_norm()
        queries = [plus[0], make_state(v=50.0, s=5.0)]
        pool = LabeledPool(d_plus=plus, d_query=list(queries))
        relabel_full(pool, norm, rho=0.5)
        assert pool.d_query == queries
        pool.validate()

    def test_empty_plus_pool_keeps_all_negatives(self):
        norm = NormStats.identity(7)
        queries = [make_state(v=1.0), make_state(v=2.0)]
        pool = LabeledPool(d_plus=[], d_query=queries)
        relabel_full(pool, norm, rho=1.0)
        assert pool.d_minus == queries

    def test_incremental_mask_matches_full_recompute(self):
        rng = np.random.default_rng(17)
        plus1 = rng.normal(size=(60, 3))
        plus2 = np.vstack([plus1, rng.normal(size=(40, 3))])
        query = rng.normal(scale=1.5, size=(50, 3))
        mask1 = member_mask(plus1, query, rho=1.0)
        incr = member_mask(plus2, query, rho=1.0, assume_member=mask1)
        full = member_mask(plus2, query, rho=1.0)
        assert np.array_equal(incr, full)


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


class TestPropositionSoundness:
    @pytest.mark.parametrize("synth,seed", [(SyntheticSet.crescent(), 7),
                                            (SyntheticSet.sector(), 9)])
    def test_no_removed_point_is_confidently_unsafe(self, synth, seed):
        for rho in (1.0, 0.5, 0.25):
            plus, query, removed = label_synthetic(synth, 800, 800, rho,
                                                   np.random.default_rng(seed))
            assert prop1_violation_count(query[removed], synth, rho) == 0

    def test_negative_control_buggy_labeler(self):
        synth = SyntheticSet.crescent()
        rng = np.random.default_rng(7)
        plus, query, _ = label_synthetic(synth, 400, 400, 0.5, rng)
        remove_all = np.ones(len(query), dtype=bool)
        assert prop1_violation_count(query[remove_all], synth, 0.5) > 0

    def test_incorrect_removals_shrink_with_rho(self):
        synth = SyntheticSet.crescent()
        counts = []
        for rho in (1.0, 0.5, 0.25):
            plus, query, removed = label_synthetic(synth, 1200, 1200, rho,
                                                   np.random.default_rng(7))
            counts.append(incorrect_removals(removed, query, synth))
        assert counts[0] >= counts[1] >= counts[2]
        assert counts[0] > 0  # the concavity does fool the largest radius
