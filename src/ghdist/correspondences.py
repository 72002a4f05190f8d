"""Correspondences between finite spaces and their distortion.

A correspondence is a relation between the points of two spaces that is
surjective in both directions; its distortion is the largest discrepancy
between matched distances.  The module also carries the piecewise-linear
machinery for relations drawn inside the rectangle
Q = [-lam/2, lam/2] x [-pi, pi], whose axes are a segment coordinate and a
circle angle: a point of Q pairs a segment point with a circle point, and
pair_distortion evaluates the metric discrepancy of two such pairings
directly from coordinates.  pl_distortion evaluates a relation made of
line segments exactly, from finitely many points of each pair of segments.
"""
from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CoverageGap,
    InvalidCorrespondence,
    LambdaOutOfRange,
    SpacesDiffer,
)
from .models import TWO_PI
from .spaces import FiniteMetricSpace, PointSubset

# how far a relation's endpoints may leave Q, and its projections' holes may
# open, before the relation is rejected: room for rounded coordinates
Q_TOL = 1e-9


def is_correspondence(pairs: Iterable[tuple[int, int]], n_left: int, n_right: int) -> bool:
    """True when the relation touches every point on both sides."""
    left = set()
    right = set()
    for i, j in pairs:
        if not (0 <= i < n_left and 0 <= j < n_right):
            return False
        left.add(i)
        right.add(j)
    return len(left) == n_left and len(right) == n_right


class Correspondence:
    """A validated relation between two finite metric spaces."""

    __slots__ = ("left", "right", "pairs")

    def __init__(self, left: FiniteMetricSpace, right: FiniteMetricSpace,
                 pairs: Iterable[tuple[int, int]]):
        pairs = frozenset((int(i), int(j)) for i, j in pairs)
        if not is_correspondence(pairs, left.n, right.n):
            raise InvalidCorrespondence(
                "relation must touch every point of both spaces and stay in range"
            )
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "pairs", pairs)

    def __setattr__(self, name, value):
        raise AttributeError("Correspondence is immutable")

    def __len__(self):
        return len(self.pairs)

    def sorted_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.pairs)


def distortion(corr: Correspondence) -> float:
    """max over matched pairs of |d_left - d_right|."""
    pairs = corr.sorted_pairs()
    li = np.fromiter((p[0] for p in pairs), dtype=int)
    ri = np.fromiter((p[1] for p in pairs), dtype=int)
    dl = corr.left.dist[np.ix_(li, li)]
    dr = corr.right.dist[np.ix_(ri, ri)]
    return float(np.abs(dl - dr).max())


# piecewise-linear relations in Q coordinates

def _wrap_angle(phi):
    """Wrap angles into (-pi, pi].

    Angles already in range pass through unchanged: the mod arithmetic
    would otherwise round magnitudes below eps(pi) away entirely.
    """
    p = np.asarray(phi, dtype=float)
    w = np.mod(p + math.pi, TWO_PI) - math.pi
    w = np.where(w == -math.pi, math.pi, w)
    return np.where((p > -math.pi) & (p <= math.pi), p, w)


def pair_distortion(p, q) -> float:
    """Distortion contribution of two segment-circle pairings given as Q points.

    With dt = |t - t0| and dphi the absolute angle difference after both
    angles are wrapped into (-pi, pi], the value is |dt - dphi| when
    dphi <= pi and |dt - (2*pi - dphi)| otherwise, which is exactly
    |segment distance - circle distance| for the two pairings.
    """
    t0, phi0 = float(p[0]), float(_wrap_angle(p[1]))
    t1, phi1 = float(q[0]), float(_wrap_angle(q[1]))
    dt = abs(t1 - t0)
    dphi = abs(phi1 - phi0)
    if dphi <= math.pi:
        return abs(dt - dphi)
    return abs(dt - (TWO_PI - dphi))


def distortion_bound_holds(points: Sequence, threshold: float) -> bool:
    """Check that every point of a Q relation lies in every other point's region.

    Equivalent to the pairwise criterion: the relation's distortion is at
    most the threshold exactly when, for each point, the region of that
    threshold centered there contains the whole relation.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    t = pts[:, 0]
    phi = _wrap_angle(pts[:, 1])
    for k in range(len(pts)):
        dt = np.abs(t - t[k])
        dphi = np.abs(phi - phi[k])
        circ = np.minimum(dphi, TWO_PI - dphi)
        if np.any(np.abs(dt - circ) > threshold):
            return False
    return True


class PLCorrespondence:
    """A relation in Q given as a union of line segments.

    Segments are ((t, phi), (t, phi)) coordinate pairs; endpoints must stay
    inside Q = [-lam/2, lam/2] x [-pi, pi].  The relation must be a
    correspondence: the union of the segments' t-intervals covers
    [-lam/2, lam/2] and the union of their phi-intervals covers the circle,
    up to holes of Q_TOL; otherwise CoverageGap is raised.
    """

    __slots__ = ("lam", "segments")

    def __init__(self, lam: float, segments: Sequence):
        if not (math.isfinite(lam) and lam > 0):
            raise LambdaOutOfRange(f"needs a positive finite length, got {lam}")
        segs = []
        for seg in segments:
            (t0, p0), (t1, p1) = seg
            seg = ((float(t0), float(p0)), (float(t1), float(p1)))
            for t, phi in seg:
                if not (abs(t) <= lam / 2 + Q_TOL and abs(phi) <= math.pi + Q_TOL):
                    raise InvalidCorrespondence(
                        f"endpoint ({t}, {phi}) outside Q for lam = {lam}"
                    )
            segs.append(seg)
        if not segs:
            raise InvalidCorrespondence("needs at least one segment")
        t_holes = _holes([sorted((a[0], b[0])) for a, b in segs], -lam / 2, lam / 2)
        if max(t_holes) > Q_TOL:
            raise CoverageGap(f"segment projection leaves a gap of {max(t_holes):.6g}")
        phi_holes = _holes([sorted((a[1], b[1])) for a, b in segs], -math.pi, math.pi)
        # -pi and pi are one point of the circle, so the two end holes are one
        seam = phi_holes[0] + phi_holes[-1]
        if max(phi_holes[1:-1] + [seam]) > Q_TOL:
            raise CoverageGap(
                f"angle projection leaves a gap of {max(phi_holes[1:-1] + [seam]):.6g}"
            )
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "segments", tuple(segs))

    def __setattr__(self, name, value):
        raise AttributeError("PLCorrespondence is immutable")


def _holes(intervals, lo: float, hi: float) -> list[float]:
    """Lengths of the holes the intervals leave in [lo, hi], left to right.

    The first and last entries are the holes at lo and at hi; an entry is
    negative where intervals overlap.
    """
    reach, holes = lo, []
    for a, b in sorted(intervals):
        holes.append(a - reach)
        reach = max(reach, b)
    holes.append(hi - reach)
    return holes


# Lines a*s + b*u = c bounding the unit square of segment parameters (s, u).
_SQUARE_EDGES = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 1.0],
                          [0.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
_LINE_PAIRS = np.triu_indices(8, k=1)


def pl_distortion(pl: PLCorrespondence) -> float:
    """Exact distortion of a piecewise-linear relation: the sup of pair_distortion.

    A pair of segments, one point at parameter s on the first and one at u
    on the second, has dt = t - t' and dphi = phi - phi' linear in
    (s, u) in [0, 1]^2.  The lines dt = 0 and dphi in {-pi, 0, pi} cut the
    square into cells on each of which |dt| and the circle distance of dphi
    are linear, so the value ||dt| - circ(dphi)| is convex there and takes
    its maximum at a cell vertex.  Every cell vertex is an intersection of
    two of those four lines and the square's four edges, so the maximum over
    those intersections, for every pair of segments including each segment
    with itself, is the distortion.  Every evaluated point is a pair of
    points of the relation, so rounding cannot lift the value above the
    true sup.
    """
    seg = np.array(pl.segments, dtype=float)        # (k, 2 ends, (t, phi))
    seg[..., 1] = np.clip(seg[..., 1], -math.pi, math.pi)
    first, second = np.triu_indices(len(seg))
    a, da = seg[first, 0], seg[first, 1] - seg[first, 0]
    b, db = seg[second, 0], seg[second, 1] - seg[second, 0]
    off = a - b
    # per pair, the lines dt = 0 and dphi = v for v in (-pi, 0, pi)
    lines = np.empty((len(a), 8, 3))
    lines[:, :4] = _SQUARE_EDGES
    lines[:, 4] = np.column_stack((da[:, 0], -db[:, 0], -off[:, 0]))
    for row, v in zip((5, 6, 7), (-math.pi, 0.0, math.pi)):
        lines[:, row] = np.column_stack((da[:, 1], -db[:, 1], v - off[:, 1]))
    l1, l2 = lines[:, _LINE_PAIRS[0]], lines[:, _LINE_PAIRS[1]]
    det = l1[..., 0] * l2[..., 1] - l1[..., 1] * l2[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (l1[..., 2] * l2[..., 1] - l1[..., 1] * l2[..., 2]) / det
        u = (l1[..., 0] * l2[..., 2] - l1[..., 2] * l2[..., 0]) / det
    # an intersection outside the square, or none (parallel lines), is
    # clipped into it: some pair of points of the relation all the same
    s = np.clip(np.nan_to_num(s), 0.0, 1.0)[..., None]
    u = np.clip(np.nan_to_num(u), 0.0, 1.0)[..., None]
    p = a[:, None] + s * da[:, None]
    q = b[:, None] + u * db[:, None]
    dt = np.abs(p[..., 0] - q[..., 0])
    dphi = np.abs(p[..., 1] - q[..., 1])
    return float(np.abs(dt - np.minimum(dphi, TWO_PI - dphi)).max())


def nearest_point_correspondence(space: FiniteMetricSpace, a: PointSubset,
                                 b: PointSubset) -> Correspondence:
    """Match each point of either subset to its nearest point of the other.

    All matched pairs sit within the Hausdorff distance of the subsets, so
    the distortion is at most twice that.
    """
    if a.space is not space or b.space is not space:
        raise SpacesDiffer("both subsets must live in the given ambient space")
    ai = list(a.indices)
    bi = list(b.indices)
    sub = space.dist[np.ix_(ai, bi)]
    pairs = {(k, int(sub[k].argmin())) for k in range(len(ai))}
    pairs |= {(int(sub[:, k].argmin()), k) for k in range(len(bi))}
    return Correspondence(a.subspace(), b.subspace(), pairs)
