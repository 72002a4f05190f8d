import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from ghdist import (
    antipodal_lower_bound,
    antipodal_map,
    basepoint_witness,
    circle_space,
    distortion,
    line_image,
    nonlinearity_degree_exact,
    nonlinearity_degree_upper,
    normalized_witness,
    scale,
    segment_positions,
    segment_space,
    validate_antipodal_involution,
    witness_objective,
)
from ghdist.errors import NotAntipodalInvolution, NotLipschitz, TooLarge
from ghdist.serialization import space_from_json, space_to_json
from ghdist.spaces import diameter
from ghdist.testing import random_euclidean_space


def lp_degree(dist: np.ndarray) -> float:
    """Independent oracle: per-value-order linear programs over all orders.

    Minimizes z subject to 1-Lipschitz gaps, the slack constraint
    d - gap <= z, and the chosen monotone order of values.
    """
    n = dist.shape[0]
    if n == 1:
        return 0.0
    best = math.inf
    for p in itertools.permutations(range(n)):
        if p[0] > p[-1]:
            continue  # reversing the order gives the same optimum
        rows, rhs = [], []
        for a in range(n):
            for b in range(a + 1, n):
                i, j = p[a], p[b]
                d = dist[i, j]
                up = np.zeros(n + 1)
                up[j], up[i] = 1.0, -1.0
                rows.append(up)
                rhs.append(d)
                down = np.zeros(n + 1)
                down[j], down[i], down[n] = -1.0, 1.0, -1.0
                rows.append(down)
                rhs.append(-d)
        for k in range(n - 1):
            order = np.zeros(n + 1)
            order[p[k]], order[p[k + 1]] = 1.0, -1.0
            rows.append(order)
            rhs.append(0.0)
        cost = np.zeros(n + 1)
        cost[n] = 1.0
        res = linprog(cost, A_ub=np.array(rows), b_ub=np.array(rhs),
                      bounds=[(None, None)] * n + [(0, None)], method="highs")
        if res.status == 0:
            best = min(best, float(res.fun))
    return best


class TestWitnessObjective:
    def test_tight_embedding_scores_zero(self):
        space = segment_space(1.0, 2)
        assert witness_objective(space, [0.0, 1.0]) == 0.0

    def test_constant_map_scores_the_diameter(self):
        space = segment_space(1.0, 2)
        assert witness_objective(space, [0.0, 0.0]) == 1.0

    def test_expanding_map_rejected(self):
        space = segment_space(1.0, 2)
        with pytest.raises(NotLipschitz):
            witness_objective(space, [0.0, 2.0])

    def test_normalized_witness_min_is_zero(self):
        space = segment_space(2.0, 3)
        w = normalized_witness(space, [5.0, 6.0, 7.0])
        assert min(w.values) == 0.0
        assert w.objective == 0.0

    def test_basepoint_witness_always_valid(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            space = random_euclidean_space(int(rng.integers(2, 8)),
                                           seed=int(rng.integers(2**31)))
            w = basepoint_witness(space, 0)
            assert 0.0 <= w.objective <= diameter(space)


class TestExactDegree:
    def test_segment_grids_score_zero(self):
        for m in (2, 4, 7):
            value, witness = nonlinearity_degree_exact(segment_space(1.7, m))
            assert value <= 1e-9
            assert witness.objective == value

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_circle_grids_match_the_chain_bound(self, n):
        # LP oracle gives exactly pi - 2*pi/n on these grids
        value, _ = nonlinearity_degree_exact(circle_space(n))
        assert abs(value - (math.pi - 2 * math.pi / n)) <= 2e-9

    def test_matches_lp_oracle_on_frozen_seeds(self):
        frozen = {(11, 4): 0.285089918705, (12, 5): 0.489075829653}
        for (seed, n), want in frozen.items():
            space = random_euclidean_space(n, seed=seed, dim=3, scale=2.0)
            value, _ = nonlinearity_degree_exact(space)
            assert abs(value - want) <= 2e-9

    def test_matches_lp_oracle_on_fresh_randoms(self):
        rng = np.random.default_rng(2718)
        for _ in range(6):
            space = random_euclidean_space(int(rng.integers(2, 6)),
                                           seed=int(rng.integers(2**31)))
            value, _ = nonlinearity_degree_exact(space)
            assert abs(value - lp_degree(space.dist)) <= 2e-9

    def test_value_never_exceeds_diameter(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            space = random_euclidean_space(int(rng.integers(1, 7)),
                                           seed=int(rng.integers(2**31)))
            value, witness = nonlinearity_degree_exact(space)
            assert 0.0 <= value <= diameter(space) + 1e-12
            assert witness_objective(space, witness.values) == witness.objective

    def test_scaling_doubles_the_degree(self):
        space = random_euclidean_space(5, seed=40)
        base, _ = nonlinearity_degree_exact(space)
        double, _ = nonlinearity_degree_exact(scale(space, 2.0))
        assert abs(double - 2 * base) <= 1e-8

    def test_size_cap_enforced(self):
        with pytest.raises(TooLarge):
            nonlinearity_degree_exact(random_euclidean_space(9, seed=1))


class TestHeuristicDegree:
    def test_upper_bounds_the_exact_value(self):
        rng = np.random.default_rng(99)
        for _ in range(8):
            space = random_euclidean_space(int(rng.integers(2, 7)),
                                           seed=int(rng.integers(2**31)))
            exact, _ = nonlinearity_degree_exact(space)
            upper, witness = nonlinearity_degree_upper(space, restarts=16, seed=0)
            assert upper >= exact - 1e-9
            assert witness_objective(space, witness.values) == witness.objective == upper

    def test_deterministic_for_a_seed(self):
        space = random_euclidean_space(6, seed=5)
        a = nonlinearity_degree_upper(space, restarts=8, seed=3)
        b = nonlinearity_degree_upper(space, restarts=8, seed=3)
        assert a[0] == b[0]
        assert a[1].values == b[1].values

    def test_finds_zero_on_a_segment_grid(self):
        upper, _ = nonlinearity_degree_upper(segment_space(2.0, 6), restarts=8, seed=0)
        assert upper <= 1e-9

    def test_an_order_at_zero_skips_its_swap_rounds(self, monkeypatch):
        # the first start order of a segment grid is the grid order, already
        # at 0; no swap can improve it, so that one order is all that runs
        import ghdist.nonlinearity as nl

        calls = []
        solve = nl._min_threshold_for_order

        def counted(d, order, tol, cap):
            calls.append(order)
            return solve(d, order, tol, cap)

        monkeypatch.setattr(nl, "_min_threshold_for_order", counted)
        space = segment_space(3.0, 193)
        value, witness = nonlinearity_degree_upper(space, restarts=16, seed=0)
        assert len(calls) == 1
        assert value == 0.0
        assert witness == normalized_witness(space, segment_positions(3.0, 193))

    def test_an_order_within_tol_skips_its_swap_rounds(self, monkeypatch):
        # 12-digit distances leave the grid order at about 7.7e-10: above 0
        # but within tol, so it is still the only order solved
        import ghdist.nonlinearity as nl

        calls = []
        solve = nl._min_threshold_for_order

        def counted(d, order, tol, cap):
            calls.append(order)
            return solve(d, order, tol, cap)

        monkeypatch.setattr(nl, "_min_threshold_for_order", counted)
        space = space_from_json(space_to_json(segment_space(3.3, 97)))
        value, witness = nonlinearity_degree_upper(space, restarts=16, seed=0)
        assert len(calls) == 1
        assert value == 7.683409464220858e-10
        assert witness.objective == value


class TestAntipodalMachinery:
    def test_circle_antipodal_map_validates(self):
        space = circle_space(6)
        validate_antipodal_involution(space, antipodal_map(6))

    def test_fixed_point_rejected(self):
        space = circle_space(6)
        bad = np.arange(6)
        with pytest.raises(NotAntipodalInvolution):
            validate_antipodal_involution(space, bad)

    def test_non_diametral_pairing_rejected(self):
        space = circle_space(6)
        shift = (np.arange(6) + 1) % 6
        with pytest.raises(NotAntipodalInvolution):
            validate_antipodal_involution(space, shift)

    def test_chain_bound_on_even_circles(self):
        for n in (4, 6, 8):
            space = circle_space(n)
            bound = antipodal_lower_bound(space, antipodal_map(n), chain=range(n))
            assert abs(bound - (math.pi - 2 * math.pi / n)) <= 1e-12

    def test_chain_bound_is_sound(self):
        # certified lower bound never exceeds the exact degree
        for n in (4, 6):
            space = circle_space(n)
            bound = antipodal_lower_bound(space, antipodal_map(n), chain=range(n))
            exact, _ = nonlinearity_degree_exact(space)
            assert bound <= exact + 2e-9

    def test_missing_chain_warns_and_degenerates(self):
        space = circle_space(6)
        with pytest.warns(UserWarning):
            assert antipodal_lower_bound(space, antipodal_map(6)) == 0.0

    def test_open_chain_rejected(self):
        space = circle_space(6)
        with pytest.raises(NotAntipodalInvolution):
            antipodal_lower_bound(space, antipodal_map(6), chain=[0, 1, 2])


class TestLineImage:
    def test_image_is_a_line_subset(self):
        space = random_euclidean_space(5, seed=8)
        _, witness = nonlinearity_degree_exact(space)
        image, corr = line_image(space, witness)
        vals = np.sort(np.unique(witness.as_array()))
        np.testing.assert_allclose(image.dist, np.abs(vals[:, None] - vals[None, :]),
                                   atol=1e-15)

    def test_graph_distortion_equals_the_objective(self):
        rng = np.random.default_rng(123)
        for _ in range(6):
            space = random_euclidean_space(int(rng.integers(2, 7)),
                                           seed=int(rng.integers(2**31)))
            value, witness = nonlinearity_degree_exact(space)
            _, corr = line_image(space, witness)
            assert abs(distortion(corr) - value) <= 1e-12
