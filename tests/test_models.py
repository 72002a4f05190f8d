import math

import numpy as np
import pytest

from ghdist import (
    MetricGraph,
    antipodal_map,
    circle_angles,
    circle_space,
    diameter,
    segment_positions,
    segment_space,
    shortest_path_metric,
    whisker_graph,
)
from ghdist.errors import (
    DisconnectedGraph,
    LambdaOutOfRange,
    LambdaTooSmall,
    NegativeLength,
    OddOrder,
    TooFewPoints,
)


class TestSegmentSpace:
    def test_zero_length_is_single_point(self):
        space = segment_space(0.0, 1)
        assert space.n == 1

    def test_grid_values(self):
        space = segment_space(3.0, 4)
        np.testing.assert_allclose(segment_positions(3.0, 4), [0.0, 1.0, 2.0, 3.0])
        assert space.dist[0, 3] == 3.0
        assert space.dist[1, 2] == 1.0

    def test_negative_length_rejected(self):
        with pytest.raises(NegativeLength):
            segment_space(-1.0, 3)

    def test_positive_length_needs_two_points(self):
        with pytest.raises(TooFewPoints):
            segment_space(1.0, 1)

    def test_odd_grid_midpoint_exact(self):
        # the middle vertex of an odd grid sits at exactly half the length
        lam = 2 * math.pi / 3
        t = segment_positions(lam, 721)
        assert t[360] == lam / 2
        assert lam - t[360] == lam / 2


class TestCircleSpace:
    def test_needs_three_points(self):
        with pytest.raises(TooFewPoints):
            circle_space(2)

    def test_adjacent_distance(self):
        space = circle_space(6)
        assert abs(space.dist[0, 1] - math.pi / 3) < 1e-15

    def test_wraparound_shorter_arc(self):
        space = circle_space(6)
        assert space.dist[0, 5] == space.dist[0, 1]

    def test_even_antipodal_distance_exactly_pi(self):
        for n in (4, 6, 720):
            space = circle_space(n)
            assert space.dist[0, n // 2] == math.pi
            assert diameter(space) == math.pi

    def test_angles_cover_the_turn(self):
        ang = circle_angles(8)
        assert ang[0] == 0.0
        assert abs(ang[-1] - (2 * math.pi - math.pi / 4)) < 1e-12

    def test_antipodal_map_is_an_involution(self):
        alpha = antipodal_map(10)
        assert (alpha[alpha] == np.arange(10)).all()
        assert (alpha != np.arange(10)).all()

    def test_antipodal_map_rejects_odd(self):
        with pytest.raises(OddOrder):
            antipodal_map(7)


class TestShortestPathMetric:
    def test_triangle_with_shortcut(self):
        g = MetricGraph(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 4.0)])
        space = shortest_path_metric(g)
        assert space.dist[0, 2] == 3.0
        assert space.dist[0, 1] == 1.0

    def test_disconnected_rejected(self):
        g = MetricGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(DisconnectedGraph):
            shortest_path_metric(g)

    def test_path_graph_is_a_line(self):
        g = MetricGraph(4, [(0, 1, 1.5), (1, 2, 1.5), (2, 3, 1.5)])
        space = shortest_path_metric(g)
        assert space.dist[0, 3] == 4.5


class TestWhiskerGraph:
    def test_needs_lam_at_least_two_pi(self):
        with pytest.raises(LambdaTooSmall):
            whisker_graph(3.0, 12)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_length_rejected(self, lam):
        with pytest.raises(LambdaOutOfRange):
            whisker_graph(lam, 12)

    def test_uncountable_subdivision_rejected(self):
        # half/arc overflows to inf before any point is allocated
        with pytest.raises(LambdaOutOfRange):
            whisker_graph(1e308, 720)

    def test_point_partition(self):
        lam = 2 * math.pi + 1.0
        complex_ = whisker_graph(lam, 12)
        n = complex_.space.n
        circle_idx = set(complex_.circle_points.indices)
        segment_idx = set(complex_.segment_points.indices)
        assert circle_idx | segment_idx == set(range(n))
        assert complex_.whisker_length == (lam - math.pi) / 2

    def test_circle_part_keeps_arc_metric(self):
        complex_ = whisker_graph(7.0, 12)
        circ = circle_space(12)
        idx = list(complex_.circle_points.indices)
        sub = complex_.space.dist[np.ix_(idx, idx)]
        np.testing.assert_allclose(sub, circ.dist, atol=1e-12)

    def test_whisker_tip_distance_through_circle(self):
        lam = 3 * math.pi
        complex_ = whisker_graph(lam, 720)
        d = complex_.space.dist
        tips = np.unravel_index(np.argmax(d), d.shape)
        # two tips: whisker + half circle + whisker
        expected = (lam - math.pi) / 2 + math.pi + (lam - math.pi) / 2
        assert abs(d[tips] - expected) < 1e-9
