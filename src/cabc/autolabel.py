"""Safety auto-labeling: negatives are undecided states outside the local
convex hull of known-safe neighbors.

A failed rollout proves nothing about the individual states it visited, so
they start out merely *undecided*.  A state is excluded from the negative
set when it lies in the convex hull of the known-safe states within a ball
of radius ``rho`` around it (in standardized coordinates): such a state is
within ``rho`` of the safe set, hence not confidently unsafe.  Shrinking
``rho`` makes the exclusion more conservative around concave boundary
regions.

The hull test asks whether a state lies within Euclidean distance ``tol``
of that hull, the norm the ``rho``-ball is measured in.  It is decided
exactly: a Lawson-Hanson active-set solve finds the nearest hull point, and
every verdict carries a certificate, a convex combination within ``tol`` to
accept or a separating hyperplane to reject.

Radius-neighbor search is an exact slab scan in numpy (:class:`NeighborIndex`),
so labeling, like every other command, runs on numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import nn
from .sim import rng_stream

SIGMA_MIN = 1e-6
HULL_TOL = 1e-7


# --- state embedding and normalization ---------------------------------------

def embed(states_raw: np.ndarray, lap_length: float) -> np.ndarray:
    """Raw ``(B, 6)`` states -> ``(B, 7)`` embedding with ``s`` on the unit circle.

    Columns: ``v_long, v_tran, omega_psi, cos(2 pi s / L), sin(2 pi s / L),
    x_tran, e_psi``.  The embedding makes the neighbor metric periodic in
    ``s``: states just before and just after the start line are close.
    """
    arr = np.atleast_2d(np.asarray(states_raw, dtype=float))
    ang = 2.0 * math.pi * arr[:, 3] / lap_length
    return np.column_stack([arr[:, 0], arr[:, 1], arr[:, 2],
                            np.cos(ang), np.sin(ang), arr[:, 4], arr[:, 5]])


def embed_vjp(states_raw: np.ndarray, grad_embed: np.ndarray,
              lap_length: float) -> np.ndarray:
    """Pull a ``(B, 7)`` gradient w.r.t. :func:`embed` back to the raw states.

    The embedding is identity on five dimensions and maps ``s`` onto the unit
    circle, so the only nontrivial rows are the cos/sin pair.
    """
    ang = 2.0 * math.pi * states_raw[:, 3] / lap_length
    scale = 2.0 * math.pi / lap_length
    g_x = np.empty((len(states_raw), 6))
    g_x[:, 0:3] = grad_embed[:, 0:3]
    g_x[:, 3] = scale * (-np.sin(ang) * grad_embed[:, 3] + np.cos(ang) * grad_embed[:, 4])
    g_x[:, 4] = grad_embed[:, 5]
    g_x[:, 5] = grad_embed[:, 6]
    return g_x


@dataclass(frozen=True)
class NormStats:
    """Per-dimension standardization fitted on the known-safe pool."""

    mean: np.ndarray
    std: np.ndarray
    lap_length: float

    def normalize(self, embedded: np.ndarray) -> np.ndarray:
        return (embedded - self.mean) / self.std

    def normalize_states(self, states_raw: np.ndarray) -> np.ndarray:
        """Raw ``(B, 6)`` states -> standardized ``(B, 7)`` embedding."""
        return self.normalize(embed(states_raw, self.lap_length))


def fit_norm(d_plus: np.ndarray, lap_length: float) -> NormStats:
    """Mean/std over the embedded ``(n, 6)`` positive pool, stds floored at ``SIGMA_MIN``."""
    if len(d_plus) < 2:
        raise ValueError("need at least 2 states to fit normalization")
    emb = embed(d_plus, lap_length)
    mean = emb.mean(axis=0)
    std = np.maximum(emb.std(axis=0), SIGMA_MIN)
    return NormStats(mean=mean, std=std, lap_length=lap_length)


# --- radius neighbors ---------------------------------------------------------

# The scanned slab is wider than rho by more than the rounding of p_0 - q_0
# and of its square, and than a difference whose square underflows to zero,
# so it holds every point the squared-distance test can accept.
_SLAB_REL = 2.0 ** -30
_SLAB_ABS = 1e-150
# squared distances computed at once: 64 kB stays in cache, and under
# malloc's mmap threshold, so scans do not map and fault in fresh pages
_SCAN_ELEMENTS = 8192


def _check_radius(rho: float) -> None:
    if not rho >= 0.0:
        raise ValueError("rho must be non-negative")


class NeighborIndex:
    """Exact radius search over normalized points: the points within Euclidean
    distance ``rho`` of a query, as an exhaustive scan finds them.

    The points are sorted along their first coordinate.  A block of queries
    scans one slab, the union of the slabs ``|p_0 - q_0| <= rho`` of its
    queries, so blocks whose first coordinates lie close together scan
    little more than their own slabs.  Each squared distance is summed over
    the dimensions left to right, as a k-d tree's leaf test sums it below
    eight dimensions, so points at distance exactly ``rho`` are decided as
    such a tree decides them.

    Both queries take one point ``(d,)`` and return an index array, or a
    block ``(m, d)`` and return a list of ``m`` index arrays.  Both raise
    ``ValueError`` for a negative ``rho`` or a non-finite query, and
    ``query_nearest`` also for a ``cap`` below 1; non-finite points are
    refused when the index is built.
    """

    def __init__(self, points_norm: np.ndarray):
        points = np.asarray(points_norm, dtype=float)
        if points.ndim != 2:
            raise ValueError("points must be (n, d)")
        if not np.isfinite(points).all():
            raise ValueError("points must be finite")
        self.points = points
        self._order = np.argsort(points[:, 0], kind="stable")
        self._keys = points[self._order, 0]
        self._cols = np.ascontiguousarray(points.T)   # one row per dimension

    def query(self, q: np.ndarray, rho: float):
        """All points within ``rho``, in ascending index order."""
        _check_radius(rho)
        r2 = rho * rho
        return self._scan(q, rho, lambda idx, d2: idx[d2 <= r2])

    def query_nearest(self, q: np.ndarray, rho: float, cap: int):
        """At most ``cap`` nearest neighbors within ``rho``, nearest first.

        Ties in distance go to the lower index.  The radius is widened by a
        relative ``1e-12`` and its bound is strict.
        """
        _check_radius(rho)
        if cap < 1:
            raise ValueError("cap must be >= 1")
        r = rho * (1 + 1e-12)
        r2 = r * r

        def nearest(idx, d2):
            keep = d2 < r2
            # a stable sort of the ascending indices breaks ties by index
            return idx[keep][np.argsort(d2[keep], kind="stable")[:cap]]

        return self._scan(q, r, nearest)

    def _scan(self, q, rho: float, pick):
        """``pick(idx, d2)`` for each query: the indices of its block's slab,
        ascending, and their squared distances to it."""
        q = np.asarray(q, dtype=float)
        if q.shape[-1:] != self.points.shape[1:] or q.ndim > 2:
            raise ValueError("queries must be (d,) or (m, d) matching the points")
        if not np.isfinite(q).all():
            raise ValueError("queries must be finite")
        block = np.atleast_2d(q)
        if not len(block):
            return []
        first = block[:, 0]
        half = rho + _SLAB_REL * (rho + float(np.abs(first).max())) + _SLAB_ABS
        lo, hi = np.searchsorted(self._keys, (first.min() - half, first.max() + half))
        idx = np.sort(self._order[lo:hi])
        cols = self._cols[:, idx]
        found = []
        step = max(1, _SCAN_ELEMENTS // max(len(idx), 1))
        for part in np.split(block, range(step, len(block), step)):
            d2 = np.square(cols[0] - part[:, :1])
            for col, x in zip(cols[1:], part.T[1:]):
                d2 += np.square(col - x[:, None])
            found.extend(pick(idx, row) for row in d2)
        return found[0] if q.ndim == 1 else found


# --- convex hull membership ---------------------------------------------------

# Distances below this fraction of the neighbourhood radius are float64
# rounding: a hull point computed from simplex weights is no more exact.
_ROUNDING = 2.0 ** -40
# A column enters the active-set solve only if its gradient is more negative
# than this: gradients of columns the passive ones span are rounding noise.
_ENTER_TOL = 128.0 * 2.0 ** -52


class HullSolveError(ArithmeticError):
    """The nearest-point solve ended without an accept or a reject certificate."""


def hull_membership(x: np.ndarray, points: np.ndarray, tol: float = HULL_TOL) -> bool:
    """Is ``x`` within Euclidean distance ``tol`` of the convex hull of ``points``?

    With ``Q = points - x``, Lawson-Hanson active-set NNLS solves
    ``min_{u >= 0} ||[Q^T; 1^T] u - e_{d+1}||``; at its optimum ``w = u / sum(u)``
    are the simplex weights of the hull point ``z = Q^T w`` nearest to ``x``
    (Lawson & Hanson 1974, least-distance programming).  Every outer
    iteration checks two certificates, and either one decides the verdict:

    - accept when ``||z|| <= tol``: an explicit convex combination that close;
    - reject when ``min_i q_i . z / ||z|| > tol``: a hyperplane that keeps
      every point, hence the whole hull, further than ``tol`` from ``x``.

    At the optimum exactly one of them holds, so no iteration count decides a
    verdict.  Near a face within about ``1e-8`` of ``x`` (a nearly flat hull)
    the gradients that pick entering points are rounding, so there the face's
    normal picks them instead (see the loop).  A distance below rounding
    (about ``1e-12`` of the largest ``||q_i||``) counts as zero, so ``tol = 0``
    asks for membership up to rounding.  A solve that proves neither raises
    :class:`HullSolveError`; on random flat and full-dimensional hulls that
    happens only at distances within rounding of ``tol``.  The empty hull
    contains nothing.
    """
    P = np.asarray(points, dtype=float)
    x = np.asarray(x, dtype=float)
    if P.ndim != 2 or (len(P) and P.shape[1] != x.shape[0]):
        raise ValueError("points must be (n, d) matching x")
    if not tol >= 0.0:
        raise ValueError("tol must be non-negative")
    n, d = P.shape
    if n == 0:
        return False
    # A = [Q^T; 1^T] with Q = points - x, filled row-wise: for small d that is
    # several times cheaper than broadcasting x over the rows of points
    A = np.empty((d + 1, n))
    Qt = A[:d]
    np.subtract(P.T, x[:, None], out=Qt)
    sq = np.einsum("ij,ij->j", Qt, Qt)
    radius = math.sqrt(float(sq.max()))
    if not math.isfinite(radius):
        raise ValueError("x and points must be finite")
    if radius <= tol:
        return True
    # solve at unit radius, where the simplex row of A is as large as the rest
    Qt /= radius
    A[d] = 1.0
    e = np.zeros(d + 1)
    e[d] = 1.0
    unit_tol = tol / radius
    accept_tol = max(unit_tol, _ROUNDING)

    i0 = int(np.argmin(sq))
    passive = [i0]
    u = np.array([1.0 / (1.0 + sq[i0] / (radius * radius))])
    for _ in range(3 * n):
        s = float(u.sum())
        z = Qt[:, passive] @ (u / s)
        z_norm = math.sqrt(float(z @ z))
        if z_norm <= accept_tol:
            return True
        Qz = z @ Qt
        if Qz.min() > unit_tol * z_norm:
            return False
        # gradient of 0.5 * ||A u - e||^2; it is zero on the passive set
        grad = s * Qz + (s - 1.0)
        grad[passive] = 0.0
        j = int(np.argmin(grad))
        while grad[j] < -_ENTER_TOL:
            v = np.linalg.lstsq(A[:, passive + [j]], e, rcond=None)[0]
            if v[-1] > 0.0:
                break
            grad[j] = 0.0  # dependent on the passive columns up to rounding
            j = int(np.argmin(grad))
        else:
            # no gradient clears rounding.  Each one is s * q_j . z + (s - 1)
            # with s near 1, so it carries ~1e-16 of absolute rounding, and a
            # face within ~1e-8 of x has genuine gradients that small.  The
            # face's normal, which a rank-revealing solve of its edges gives
            # to rounding, measures the same thing by heights instead: they
            # either separate every point (reject), or put one below the face,
            # which then enters as its gradient would have.
            face = Qt[:, passive]
            D = face[:, 1:] - face[:, :1]
            normal = z - D @ np.linalg.lstsq(D, z, rcond=None)[0]
            depth = math.sqrt(float(normal @ normal))
            heights = normal @ Qt
            if heights.min() > unit_tol * depth:
                return False
            heights[passive] = math.inf
            below = np.flatnonzero(heights < depth * (depth - _ENTER_TOL))
            for j in below[np.argsort(heights[below])].tolist():
                v = np.linalg.lstsq(A[:, passive + [j]], e, rcond=None)[0]
                if v[-1] > 0.0:
                    break
            else:
                raise HullSolveError(f"no certificate at the optimum: distance "
                                     f"{z_norm * radius!r}, tol {tol!r}")
        passive.append(j)
        u = np.append(u, 0.0)
        while v.min() <= 0.0:
            # step back to where the first passive weight reaches zero; drop it
            neg = np.flatnonzero(v <= 0.0)
            ratio = u[neg] / (u[neg] - v[neg])
            u = u + ratio.min() * (v - u)
            keep = u > 0.0
            keep[neg[np.argmin(ratio)]] = False
            passive = [p for p, k in zip(passive, keep) if k]
            u = u[keep]
            v = np.linalg.lstsq(A[:, passive], e, rcond=None)[0]
        u = v
    raise HullSolveError(f"no certificate after {3 * n} active-set iterations")


# queries per neighbor search in member_mask: a block of 64 keeps the lists
# of 2-D queries with hundreds of neighbors each to a few MB
_QUERY_BLOCK = 64


def member_mask(plus_norm: np.ndarray, query_norm: np.ndarray, rho: float,
                tol: float = HULL_TOL, max_neighbors: Optional[int] = None) -> np.ndarray:
    """Hull-membership flags for each query point against its radius neighbors.

    The queries are searched for neighbors in blocks of ``_QUERY_BLOCK``,
    which keeps the neighbor lists held at once small.  The blocks follow the
    queries' first coordinate, so each block's search scans one narrow slab.

    ``max_neighbors`` caps each hull at the nearest such neighbors; a subset
    hull is contained in the full one, so capping only errs toward keeping
    points in the negative set.
    """
    mask = np.zeros(len(query_norm), dtype=bool)
    order = np.argsort(query_norm[:, 0], kind="stable")
    index = NeighborIndex(plus_norm)
    for start in range(0, len(order), _QUERY_BLOCK):
        rows = order[start:start + _QUERY_BLOCK]
        if max_neighbors is None:
            neighbors = index.query(query_norm[rows], rho)
        else:
            neighbors = index.query_nearest(query_norm[rows], rho, max_neighbors)
        for i, idx in zip(rows, neighbors):
            if len(idx):
                # take: a row gather several times cheaper than plus_norm[idx]
                mask[i] = hull_membership(query_norm[i], np.take(plus_norm, idx, axis=0),
                                          tol)
    return mask


# --- synthetic 2-D benchmark sets ---------------------------------------------

def _wrap_angle(a):
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def _arc_distance(pts: np.ndarray, center, radius: float,
                  ang_center: float, ang_halfwidth: float) -> np.ndarray:
    """Distance from each point to a circular arc given by an angular window."""
    rel = pts - np.asarray(center)
    dist_c = np.hypot(rel[:, 0], rel[:, 1])
    phi = np.arctan2(rel[:, 1], rel[:, 0])
    dphi = _wrap_angle(phi - ang_center)
    on_arc = np.abs(dphi) <= ang_halfwidth
    d = np.empty(len(pts))
    d[on_arc] = np.abs(dist_c[on_arc] - radius)
    if (~on_arc).any():
        end_angle = ang_center + np.sign(dphi[~on_arc]) * ang_halfwidth
        ex = np.asarray(center)[0] + radius * np.cos(end_angle)
        ey = np.asarray(center)[1] + radius * np.sin(end_angle)
        d[~on_arc] = np.hypot(pts[~on_arc, 0] - ex, pts[~on_arc, 1] - ey)
    return d


def _segment_distance(pts: np.ndarray, a, b) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ab = b - a
    t = np.clip(((pts - a) @ ab) / float(ab @ ab), 0.0, 1.0)
    proj = a + t[:, None] * ab
    return np.hypot(pts[:, 0] - proj[:, 0], pts[:, 1] - proj[:, 1])


@dataclass(frozen=True)
class SyntheticSet:
    """A constructed planar region with an exact signed distance to its boundary.

    ``kind`` is one of ``disk``, ``crescent`` (disk minus an offset disk), or
    ``sector`` (disk with an angular notch, leaving a sharp concave corner).
    Signed distance is positive inside, zero exactly on the boundary.
    """

    kind: str
    params: tuple

    @staticmethod
    def disk(center=(0.0, 0.0), radius: float = 3.0) -> "SyntheticSet":
        return SyntheticSet("disk", (float(center[0]), float(center[1]), float(radius)))

    @staticmethod
    def crescent(center_a=(0.0, 0.0), radius_a: float = 3.0,
                 center_b=(2.0, 0.0), radius_b: float = 2.0) -> "SyntheticSet":
        d = math.hypot(center_b[0] - center_a[0], center_b[1] - center_a[1])
        if not (abs(radius_a - radius_b) < d < radius_a + radius_b):
            raise ValueError("crescent circles must intersect properly")
        return SyntheticSet("crescent", (float(center_a[0]), float(center_a[1]), float(radius_a),
                                         float(center_b[0]), float(center_b[1]), float(radius_b)))

    @staticmethod
    def sector(center=(0.0, 0.0), radius: float = 3.0,
               keep_halfangle: float = math.radians(130.0)) -> "SyntheticSet":
        if not 0.0 < keep_halfangle < math.pi:
            raise ValueError("keep_halfangle must be in (0, pi)")
        return SyntheticSet("sector", (float(center[0]), float(center[1]), float(radius),
                                       float(keep_halfangle)))

    # membership -------------------------------------------------------------
    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.kind == "disk":
            cx, cy, r = self.params
            return np.hypot(pts[:, 0] - cx, pts[:, 1] - cy) <= r
        if self.kind == "crescent":
            ax, ay, ra, bx, by, rb = self.params
            in_a = np.hypot(pts[:, 0] - ax, pts[:, 1] - ay) <= ra
            in_b = np.hypot(pts[:, 0] - bx, pts[:, 1] - by) < rb
            return in_a & ~in_b
        cx, cy, r, half = self.params
        rel_ang = np.arctan2(pts[:, 1] - cy, pts[:, 0] - cx)
        return (np.hypot(pts[:, 0] - cx, pts[:, 1] - cy) <= r) & (np.abs(rel_ang) <= half)

    # signed distance ----------------------------------------------------------
    def signed_distance(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        inside = self.contains(pts)
        sign = np.where(inside, 1.0, -1.0)
        if self.kind == "disk":
            cx, cy, r = self.params
            return r - np.hypot(pts[:, 0] - cx, pts[:, 1] - cy)
        if self.kind == "crescent":
            ax, ay, ra, bx, by, rb = self.params
            d = math.hypot(bx - ax, by - ay)
            ang_ab = math.atan2(by - ay, bx - ax)
            cos_ga = (d * d + ra * ra - rb * rb) / (2.0 * d * ra)
            cos_gb = (d * d + rb * rb - ra * ra) / (2.0 * d * rb)
            gamma_a = math.acos(min(max(cos_ga, -1.0), 1.0))
            gamma_b = math.acos(min(max(cos_gb, -1.0), 1.0))
            # outer boundary: arc of A facing away from B
            d_outer = _arc_distance(pts, (ax, ay), ra, ang_ab + math.pi, math.pi - gamma_a)
            # inner boundary: arc of B facing toward A
            d_inner = _arc_distance(pts, (bx, by), rb, ang_ab + math.pi, gamma_b)
            return sign * np.minimum(d_outer, d_inner)
        cx, cy, r, half = self.params
        d_arc = _arc_distance(pts, (cx, cy), r, 0.0, half)
        e1 = (cx + r * math.cos(half), cy + r * math.sin(half))
        e2 = (cx + r * math.cos(-half), cy + r * math.sin(-half))
        d_seg = np.minimum(_segment_distance(pts, (cx, cy), e1),
                           _segment_distance(pts, (cx, cy), e2))
        return sign * np.minimum(d_arc, d_seg)

    # sampling -----------------------------------------------------------------
    def sample_inside(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform interior samples by rejection from the box around the outer
        disk, whose ``(cx, cy, r)`` every kind's ``params`` start with."""
        cx, cy, r = self.params[:3]
        out = np.zeros((0, 2))
        while len(out) < n:
            cand = rng.uniform((cx - r, cy - r), (cx + r, cy + r), size=(4 * n, 2))
            keep = cand[self.contains(cand)]
            out = np.vstack([out, keep])
        return out[:n]


def sample_box(n: int, rng: np.random.Generator, lo: float = -5.0,
               hi: float = 5.0) -> np.ndarray:
    return rng.uniform(lo, hi, size=(n, 2))


def label_synthetic(synth: SyntheticSet, n_plus: int, n_query: int, rho: float,
                    rng: np.random.Generator):
    """Fig-style benchmark: sample pools, run the hull exclusion, return arrays.

    The queries are uniform over :func:`sample_box`'s default square, and the
    hull test runs at ``HULL_TOL`` with uncapped neighborhoods.  Returns
    ``(plus_pts, query_pts, removed_mask)`` where ``removed_mask`` flags the
    query points excluded from the negative set.
    """
    plus = synth.sample_inside(n_plus, rng)
    query = sample_box(n_query, rng)
    removed = member_mask(plus, query, rho)
    return plus, query, removed


def prop1_violation_count(removed_pts: np.ndarray, synth: SyntheticSet,
                          rho: float, slack: float = 1e-9) -> int:
    """How many excluded points are further than ``rho`` outside the true set.

    A correct exclusion rule never removes a point whose signed distance is
    below ``-rho``; any such point counts as a soundness violation.
    """
    removed_pts = np.atleast_2d(np.asarray(removed_pts, dtype=float))
    if len(removed_pts) == 0:
        return 0
    sdf = synth.signed_distance(removed_pts)
    return int((sdf < -rho - slack).sum())


def incorrect_removals(removed_mask: np.ndarray, query_pts: np.ndarray,
                       synth: SyntheticSet) -> int:
    """Removed points that are actually outside the set (hull bridged a concavity)."""
    if not removed_mask.any():
        return 0
    sdf = synth.signed_distance(query_pts[removed_mask])
    return int((sdf < 0.0).sum())


# the 2-D benchmark classifier: hidden widths, Adam steps and rate, and a
# batch of half positive, half negative points
_SYNTH_CLF_HIDDEN = (64, 64)
_SYNTH_CLF_STEPS = 1500
_SYNTH_CLF_BATCH = 256
_SYNTH_CLF_LR = 1e-3


def train_synthetic_classifier(plus_pts: np.ndarray, minus_pts: np.ndarray, seed: int = 0):
    """Fit a small probability-head MLP on auto-labeled 2-D points.

    Balanced minibatches (half positive, half negative) remove the class
    imbalance between a dense interior pool and the surviving negatives.
    """
    plus_pts = np.asarray(plus_pts, dtype=float)
    minus_pts = np.asarray(minus_pts, dtype=float)
    if len(plus_pts) == 0 or len(minus_pts) == 0:
        raise ValueError("need both positive and negative points")
    params = nn.init_mlp((2, *_SYNTH_CLF_HIDDEN, 1), head="sigmoid", seed=seed)
    opt = nn.init_opt(params, lr=_SYNTH_CLF_LR)
    rng = rng_stream(seed)
    half = _SYNTH_CLF_BATCH // 2
    yb = np.concatenate([np.ones(half), np.zeros(half)])
    tape = nn.Tape()
    for _ in range(_SYNTH_CLF_STEPS):
        ip = rng.integers(0, len(plus_pts), size=half)
        im = rng.integers(0, len(minus_pts), size=half)
        xb = np.vstack([plus_pts[ip], minus_pts[im]])
        p = nn.forward(params, xb, tape)[:, 0]
        dp = (-(yb / p) + (1 - yb) / (1 - p)) / len(yb)
        grads, _ = nn.backward(params, tape, dp[:, None])
        params, opt = nn.adam_step(params, grads, opt)
    return params


# grid points per block of `grid_map`: a multiple of 64 rows leaves BLAS the
# same leftover rows as one call over the whole grid, so a network's values
# are those of that call bit for bit, and (1024, 64) activations are 512 kB.
# Not 256, the training batch, which perfbench's per-call forward metrics key on.
_GRID_BLOCK = 1024


def grid_map(fn, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``out[i, j] = fn(point (xs[j], ys[i]))`` over the grid ``xs x ys``.

    ``fn`` maps ``(m, 2)`` points to ``m`` values, each from its own row.  It
    runs on blocks of ``_GRID_BLOCK`` points in row-major order, so the memory
    it needs does not grow with the grid.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    out = np.empty(len(ys) * len(xs))
    for start in range(0, len(out), _GRID_BLOCK):
        rows, cols = np.divmod(np.arange(start, min(start + _GRID_BLOCK, len(out))), len(xs))
        out[start:start + len(rows)] = fn(np.column_stack([xs[cols], ys[rows]]))
    return out.reshape(len(ys), len(xs))


def classifier_grid(params, bounds: Tuple[float, float], n: int = 200):
    """Probability field of a trained 2-D classifier on an ``n x n`` grid."""
    lo, hi = bounds
    xs = np.linspace(lo, hi, n)
    ys = np.linspace(lo, hi, n)
    probs = grid_map(lambda pts: nn.forward(params, pts)[:, 0], xs, ys)
    return xs, ys, probs
