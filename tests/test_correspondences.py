import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghdist import (
    Correspondence,
    PLCorrespondence,
    certificate,
    distortion,
    distortion_bound_holds,
    is_correspondence,
    nearest_point_correspondence,
    pair_distortion,
    pl_distortion,
)
from ghdist.errors import (
    CoverageGap,
    InvalidCorrespondence,
    LambdaOutOfRange,
)
from ghdist.models import circle_space, segment_space
from ghdist.segment_circle import _wind_once_segments, _wind_triple_segments
from ghdist.spaces import PointSubset
from ghdist.testing import random_rectangle_points

TWO_PI = 2 * math.pi


# sampled reference for pl_distortion

def sample_relation(pl: PLCorrespondence, step: float) -> np.ndarray:
    """Points of every segment at spacing <= step, endpoints included.

    Per segment the sample count is the next power of two at or above
    length/step, so halving the step always refines the previous samples.
    """
    chunks = []
    for (t0, p0), (t1, p1) in pl.segments:
        length = math.hypot(t1 - t0, p1 - p0)
        pieces = 1 << max(0, math.ceil(math.log2(length / step))) if length else 1
        frac = np.arange(pieces + 1) / pieces
        chunks.append(np.column_stack((t0 + frac * (t1 - t0), p0 + frac * (p1 - p0))))
    return np.unique(np.concatenate(chunks), axis=0)


def pairwise_distortion_max(points: np.ndarray, chunk: int = 512) -> float:
    """max of pair_distortion over all pairs of sampled points, vectorized."""
    t = points[:, 0]
    phi = np.clip(points[:, 1], -math.pi, math.pi)
    best = 0.0
    for lo in range(0, len(points), chunk):
        dt = np.abs(t[lo:lo + chunk, None] - t[None, :])
        dphi = np.abs(phi[lo:lo + chunk, None] - phi[None, :])
        best = max(best, float(np.abs(dt - np.minimum(dphi, TWO_PI - dphi)).max()))
    return best


def sampled_distortion(pl: PLCorrespondence, step: float) -> float:
    """A lower bound on the distortion, at most 4 * step below it.

    Every point of a segment lies within step of a sampled point, and the
    pair value is 2-Lipschitz in each point.
    """
    return pairwise_distortion_max(sample_relation(pl, step))


class TestCorrespondenceBasics:
    def test_is_correspondence_requires_both_projections(self):
        assert is_correspondence([(0, 0), (1, 1)], 2, 2)
        assert not is_correspondence([(0, 0), (1, 0)], 2, 2)  # misses column 1
        assert not is_correspondence([(0, 0), (0, 1)], 2, 2)  # misses row 1
        assert not is_correspondence([], 1, 1)

    def test_constructor_rejects_partial_relation(self):
        x = segment_space(1.0, 2)
        y = segment_space(2.0, 2)
        with pytest.raises(InvalidCorrespondence):
            Correspondence(x, y, {(0, 0)})

    def test_identity_distortion_zero(self):
        x = segment_space(1.0, 3)
        corr = Correspondence(x, x, {(i, i) for i in range(3)})
        assert distortion(corr) == 0.0

    def test_distortion_hand_value(self):
        x = segment_space(1.0, 2)  # distances {1}
        y = segment_space(3.0, 2)  # distances {3}
        corr = Correspondence(x, y, {(0, 0), (1, 1)})
        assert distortion(corr) == 2.0


class TestWrapOnce:
    def test_matches_continuous_formula_near_plateau_start(self):
        lam = TWO_PI / 3
        cert = certificate(lam)
        assert cert.kind == "wind-once"
        assert abs(cert.measured - (math.pi - lam / 2)) <= 1e-12

    def test_short_segment_close_to_pi(self):
        lam = 0.01
        cert = certificate(lam)
        assert cert.kind == "wind-once"
        assert abs(cert.measured - (math.pi - lam / 2)) <= 1e-12

    def test_long_segment_dominated_by_length(self):
        lam = 0.9 * math.pi  # here lam exceeds pi - lam/2
        measured = pl_distortion(PLCorrespondence(lam, _wind_once_segments(lam)))
        assert abs(measured - lam) <= 1e-12

    def test_rejects_nonpositive_length(self):
        with pytest.raises(LambdaOutOfRange):
            PLCorrespondence(0.0, _wind_once_segments(1.0))


class TestWrapTriple:
    @pytest.mark.parametrize("lam", [TWO_PI / 3, math.pi, 7 * math.pi / 6])
    def test_distortion_stays_at_two_thirds_pi(self, lam):
        measured = pl_distortion(PLCorrespondence(lam, _wind_triple_segments(lam)))
        assert abs(measured - TWO_PI / 3) <= 1e-12


class TestPairDistortion:
    def test_zero_at_same_point(self):
        assert pair_distortion((0.3, -1.2), (0.3, -1.2)) == 0.0

    def test_pure_shift_along_segment(self):
        assert pair_distortion((0.0, 0.0), (0.7, 0.0)) == 0.7

    def test_antipodal_angle_no_shift(self):
        assert pair_distortion((0.0, 0.0), (0.0, math.pi)) == math.pi

    def test_angle_wraps_to_short_arc(self):
        # raw angle gap 3*pi/2 wraps to arc pi/2
        assert abs(pair_distortion((0.0, -3 * math.pi / 4),
                                   (0.0, 3 * math.pi / 4)) - math.pi / 2) < 1e-12

    @given(st.floats(-5, 5), st.floats(-math.pi, math.pi),
           st.floats(-5, 5), st.floats(-math.pi, math.pi))
    @settings(max_examples=80, deadline=None)
    def test_symmetric(self, t1, p1, t2, p2):
        assert pair_distortion((t1, p1), (t2, p2)) == pair_distortion((t2, p2), (t1, p1))

    @given(st.floats(-4, 4))
    @settings(max_examples=40, deadline=None)
    def test_diagonal_free_within_half_turn(self, t):
        # moving equal amounts along both axes costs nothing while |t| <= pi
        if abs(t) <= math.pi:
            assert pair_distortion((0.0, 0.0), (t, t)) == 0.0


class TestDistortionRegion:
    def test_bound_check_matches_brute_force(self):
        rng = np.random.default_rng(555)
        for trial in range(40):
            pts = random_rectangle_points(int(rng.integers(1, 12)),
                                          float(rng.uniform(0.5, 8.0)),
                                          seed=int(rng.integers(2**31)))
            worst = max(
                pair_distortion(pts[i], pts[j])
                for i in range(len(pts)) for j in range(i, len(pts))
            )
            assert distortion_bound_holds(pts, worst)
            assert distortion_bound_holds(pts, worst + 1e-9)
            if worst > 0:
                assert not distortion_bound_holds(pts, worst - 1e-9)

    def test_singleton_set_needs_nonnegative_threshold(self):
        pts = np.array([[0.3, 0.2]])
        assert distortion_bound_holds(pts, 0.0)
        assert not distortion_bound_holds(pts, -1e-12)


class TestPLCorrespondence:
    def test_identity_diagonal_at_full_turn(self):
        # the sup is 2*pi, attained by the endpoint pair (-pi, -pi), (pi, pi)
        lam = TWO_PI
        pl = PLCorrespondence(lam, [((-math.pi, -math.pi), (math.pi, math.pi))])
        assert pl_distortion(pl) == TWO_PI

    def test_sample_covers_both_axes(self):
        # exact coverage accepts the full diagonal, whose projections are
        # exactly [-lam/2, lam/2] and [-pi, pi]
        lam = TWO_PI
        pl = PLCorrespondence(lam, [((-math.pi, -math.pi), (math.pi, math.pi))])
        assert pl.segments == (((-math.pi, -math.pi), (math.pi, math.pi)),)

    def test_half_diagonal_fails_circle_coverage(self):
        lam = TWO_PI
        with pytest.raises(CoverageGap):
            PLCorrespondence(lam, [((0.0, 0.0), (math.pi, math.pi / 2))])

    def test_segment_projection_gap_rejected(self):
        lam = 2.0
        segs = [((-1.0, -math.pi), (0.0, 0.0)), ((1e-6, 0.0), (1.0, math.pi))]
        with pytest.raises(CoverageGap):
            PLCorrespondence(lam, segs)
        segs[1] = ((1e-10, 0.0), (1.0, math.pi))  # below Q_TOL: rounding room
        PLCorrespondence(lam, segs)

    def test_angle_coverage_wraps_at_pi(self):
        # phi in [-pi, 0] and [0, pi - 1e-6] leaves a hole at the seam
        segs = [((-1.0, -math.pi), (0.0, 0.0)), ((0.0, 0.0), (1.0, math.pi - 1e-6))]
        with pytest.raises(CoverageGap):
            PLCorrespondence(2.0, segs)

    def test_endpoints_outside_rectangle_rejected(self):
        with pytest.raises(Exception):
            PLCorrespondence(1.0, [((0.0, 0.0), (5.0, 0.0))])

    def test_nan_endpoint_rejected(self):
        with pytest.raises(InvalidCorrespondence):
            PLCorrespondence(1.0, [((-0.5, -math.pi), (0.5, float("nan")))])

    @pytest.mark.parametrize("lam", [0.5, 3.0, 4.5, 5.8, 9.0])
    def test_exact_value_brackets_the_sample(self, lam):
        pl = certificate(lam).relation
        exact = pl_distortion(pl)
        step = math.pi / 256
        sampled = sampled_distortion(pl, step)
        assert sampled <= exact + 1e-12
        assert exact <= sampled + 4 * step


@st.composite
def pl_relations(draw):
    """A random relation in Q that covers both projections.

    A polyline through randomly placed vertices whose extreme coordinates
    are pinned to the sides of Q, plus a few free segments.
    """
    lam = draw(st.floats(min_value=1e-3, max_value=3 * math.pi))
    n_path = draw(st.integers(min_value=1, max_value=6))
    n_free = draw(st.integers(min_value=0, max_value=6 - n_path))
    unit = st.floats(min_value=0.0, max_value=1.0)
    t = np.array([draw(unit) for _ in range(n_path + 1)])
    phi = np.array([draw(unit) for _ in range(n_path + 1)])
    lo_t, hi_t = int(t.argmin()), int(t.argmax())
    if lo_t == hi_t:
        lo_t, hi_t = 0, n_path
    t = -lam / 2 + lam * t
    t[lo_t], t[hi_t] = -lam / 2, lam / 2
    lo_p, hi_p = int(phi.argmin()), int(phi.argmax())
    if lo_p == hi_p:
        lo_p, hi_p = 0, n_path
    phi = -math.pi + TWO_PI * phi
    phi[lo_p], phi[hi_p] = -math.pi, math.pi
    segs = [((t[k], phi[k]), (t[k + 1], phi[k + 1])) for k in range(n_path)]
    for _ in range(n_free):
        ends = [(-lam / 2 + lam * draw(unit), -math.pi + TWO_PI * draw(unit))
                for _ in range(2)]
        segs.append(tuple(ends))
    return PLCorrespondence(lam, segs)


@settings(max_examples=150, deadline=None)
@given(pl_relations())
def test_exact_distortion_within_sampling_error(pl):
    step = math.pi / 128
    exact = pl_distortion(pl)
    sampled = sampled_distortion(pl, step)
    assert sampled <= exact + 1e-12
    assert exact <= sampled + 4 * step


class TestNearestPointCorrespondence:
    def test_hand_case_on_a_line(self):
        space = segment_space(3.0, 4)  # points 0,1,2,3
        a = PointSubset(space, [0, 1])
        b = PointSubset(space, [2, 3])
        corr = nearest_point_correspondence(space, a, b)
        assert set(corr.sorted_pairs()) == {(0, 0), (1, 0), (1, 1)}
        assert distortion(corr) == 1.0

    def test_identical_subsets_have_zero_distortion(self):
        space = circle_space(8)
        sub = PointSubset(space, [0, 2, 4, 6])
        corr = nearest_point_correspondence(space, sub, sub)
        assert distortion(corr) == 0.0
