"""Degree of nonlinearity: how badly a space fails to embed in the line.

For a finite space X and a 1-Lipschitz assignment of reals f, the objective
is max over pairs of d(x, y) - |f(x) - f(y)|.  The degree of nonlinearity
is the infimum of the objective over all such assignments; it is 0 exactly
for spaces isometric to a subset of the line and never exceeds the
diameter.  Witnesses are normalized to min value 0.

The exact solver enumerates total orders of the values.  For a fixed
order, every |f(x) - f(y)| resolves to a signed difference, and checking
whether a threshold is feasible becomes a system of difference constraints,
decided by the absence of a negative cycle.  Bisection on the threshold
then yields the order's optimum, and the minimum over orders is global.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidWitness,
    NotAntipodalInvolution,
    NotLipschitz,
    TooLarge,
)
from .spaces import FiniteMetricSpace, _min_plus_closure, diameter

DEFAULT_OPT_TOL = 1e-9
DEFAULT_LIP_TOL = 1e-9


@dataclass(frozen=True)
class LipschitzWitness:
    """A 1-Lipschitz assignment of reals together with its objective value."""

    values: tuple[float, ...]
    objective: float

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


def witness_objective(space: FiniteMetricSpace, values, lip_tol: float = DEFAULT_LIP_TOL) -> float:
    """Objective of an assignment, rejecting non-Lipschitz input.

    Raises NotLipschitz with the worst offending pair when some value gap
    exceeds the corresponding distance by more than lip_tol.
    """
    v = np.asarray(values, dtype=float)
    if v.shape != (space.n,):
        raise InvalidWitness(f"expected {space.n} values, got shape {v.shape}")
    gaps = np.abs(v[:, None] - v[None, :])
    excess = gaps - space.dist
    worst = float(excess.max())
    if worst > lip_tol:
        i, j = np.unravel_index(int(excess.argmax()), excess.shape)
        raise NotLipschitz(int(i), int(j), worst)
    return float(np.maximum(space.dist - gaps, 0.0).max())


def normalized_witness(space: FiniteMetricSpace, values,
                       lip_tol: float = DEFAULT_LIP_TOL) -> LipschitzWitness:
    """Build a witness with min value 0 and a freshly computed objective."""
    v = np.asarray(values, dtype=float)
    v = v - v.min()
    return LipschitzWitness(tuple(float(x) for x in v), witness_objective(space, v, lip_tol))


def basepoint_witness(space: FiniteMetricSpace, base: int = 0) -> LipschitzWitness:
    """The distance-to-basepoint assignment; always 1-Lipschitz."""
    return normalized_witness(space, space.dist[base])


def _order_bounds(d: np.ndarray, order: tuple[int, ...]):
    """Upper-bound matrices split into a constant part and the threshold slot.

    Position variables s_0 <= ... <= s_{n-1} hold the ordered values.  The
    constraints are s_q - s_p <= d(p, q) for p < q, s_p - s_q <= thr - d(p, q),
    and adjacency s_p - s_{p+1} <= 0.  Returned as (upper, needs_thr) where
    the final matrix is upper + thr * needs_thr.
    """
    n = len(order)
    dd = d[np.ix_(order, order)]
    upper = np.full((n, n), np.inf)
    needs = np.zeros((n, n))
    np.fill_diagonal(upper, 0.0)
    iu = np.triu_indices(n, k=1)
    upper[iu] = dd[iu]
    il = (iu[1], iu[0])
    upper[il] = -dd[iu]
    needs[il] = 1.0
    return upper, needs


def _feasible(upper: np.ndarray, needs: np.ndarray, thr: float):
    """Negative-cycle test for the difference system at a threshold."""
    m = upper + thr * needs
    n = m.shape[0]
    for p in range(n - 1):
        if m[p + 1, p] > 0.0:
            m[p + 1, p] = 0.0
    closed = _min_plus_closure(m)
    if np.diagonal(closed).min() < 0.0:
        return None
    return closed


def _potentials(closed: np.ndarray) -> np.ndarray:
    s = closed.min(axis=0)
    return s - s.min()


def _min_threshold_for_order(d: np.ndarray, order: tuple[int, ...], tol: float,
                             cap: float):
    """Least feasible threshold for one order, or None when cap - tol fails."""
    upper, needs = _order_bounds(d, order)
    probe = _feasible(upper, needs, max(cap - tol, 0.0))
    if probe is None:
        return None
    closed0 = _feasible(upper, needs, 0.0)
    if closed0 is not None:
        return 0.0, _potentials(closed0)
    lo, hi = 0.0, max(cap - tol, 0.0)
    closed_hi = probe
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        closed = _feasible(upper, needs, mid)
        if closed is None:
            lo = mid
        else:
            hi = mid
            closed_hi = closed
    return hi, _potentials(closed_hi)


def _witness_from_positions(space: FiniteMetricSpace, order, positions) -> LipschitzWitness:
    v = np.empty(space.n)
    for pos, idx in enumerate(order):
        v[idx] = positions[pos]
    return normalized_witness(space, v, lip_tol=1e-6)


def nonlinearity_degree_exact(space: FiniteMetricSpace, tol: float = DEFAULT_OPT_TOL,
                              max_points: int = 8) -> tuple[float, LipschitzWitness]:
    """Global minimum of the objective, within tol, with an attaining witness.

    Enumerates value orders up to reversal; per order, bisection on the
    threshold with a shortest-path feasibility test.  The reported value is
    the objective recomputed from the returned witness, so it is always
    attained exactly.
    """
    n = space.n
    if n > max_points:
        raise TooLarge(f"exact solver is limited to {max_points} points, got {n}")
    if n == 1:
        return 0.0, LipschitzWitness((0.0,), 0.0)
    d = space.dist
    diam = diameter(space)

    best_witness = normalized_witness(space, np.zeros(n))  # objective = diameter
    best = best_witness.objective

    ecc_anchor = int(d.max(axis=1).argmax())
    seeded = tuple(int(i) for i in np.argsort(d[ecc_anchor], kind="stable"))
    orders = itertools.chain(
        [seeded],
        (p for p in itertools.permutations(range(n)) if p[0] < p[-1] and p != seeded),
    )
    for order in orders:
        found = _min_threshold_for_order(d, order, tol, best)
        if found is None:
            continue
        thr, positions = found
        witness = _witness_from_positions(space, order, positions)
        if witness.objective < best:
            best = witness.objective
            best_witness = witness
        if best <= tol:
            break
    return best, best_witness


def nonlinearity_degree_upper(space: FiniteMetricSpace, restarts: int = 32,
                              seed: int = 0, tol: float = DEFAULT_OPT_TOL
                              ) -> tuple[float, LipschitzWitness]:
    """Heuristic upper bound with witness: multistart local descent.

    Each start fixes a value order; the order's optimal assignment is solved
    exactly, then the order is improved by swap moves until no swap helps.
    Deterministic for a given seed.  The value is always attained by the
    returned witness, hence an upper bound for the degree.
    """
    n = space.n
    if n == 1:
        return 0.0, LipschitzWitness((0.0,), 0.0)
    rng = np.random.default_rng(seed)
    d = space.dist

    starts: list[tuple[int, ...]] = []
    ecc_order = np.argsort(-d.max(axis=1), kind="stable")
    for base in ecc_order[: max(1, min(n, restarts // 2))]:
        starts.append(tuple(int(i) for i in np.argsort(d[int(base)], kind="stable")))
    while len(starts) < restarts:
        starts.append(tuple(int(i) for i in rng.permutation(n)))

    if n <= 9:
        swaps = [(p, q) for p in range(n) for q in range(p + 1, n)]
    else:
        swaps = [(p, p + 1) for p in range(n - 1)]

    best = math.inf
    best_witness = None
    for order in starts:
        found = _min_threshold_for_order(d, order, tol, cap=diameter(space) + tol)
        if found is None:
            continue
        val, positions = found
        # a swap could gain at most tol on an order already within tol,
        # so such an order skips the swap rounds
        improved = val > tol
        rounds = 0
        while improved and rounds < 200:
            improved = False
            rounds += 1
            for p, q in swaps:
                cand = list(order)
                cand[p], cand[q] = cand[q], cand[p]
                cand = tuple(cand)
                got = _min_threshold_for_order(d, cand, tol, cap=val)
                if got is not None and got[0] < val - 1e-15:
                    val, positions = got
                    order = cand
                    improved = True
                    break
        witness = _witness_from_positions(space, order, positions)
        if witness.objective < best:
            best = witness.objective
            best_witness = witness
        if best <= tol:
            break
    assert best_witness is not None
    return best, best_witness


def validate_antipodal_involution(space: FiniteMetricSpace, involution,
                                  tol: float = DEFAULT_LIP_TOL) -> np.ndarray:
    """Check that a map is a fixed-point-free diametral involution.

    Returns the map as an index array.  Raises NotAntipodalInvolution when
    it is not a permutation, not order 2, has a fixed point, or sends some
    point to a non-diametral partner (beyond tol).
    """
    alpha = np.asarray(involution, dtype=int)
    n = space.n
    if alpha.shape != (n,) or sorted(alpha.tolist()) != list(range(n)):
        raise NotAntipodalInvolution("involution must be a permutation of the points")
    if n >= 2 and np.any(alpha == np.arange(n)):
        raise NotAntipodalInvolution("involution must be fixed-point free")
    if np.any(alpha[alpha] != np.arange(n)):
        raise NotAntipodalInvolution("map must be an involution")
    diam = diameter(space)
    pointwise = space.dist[np.arange(n), alpha]
    if np.any(np.abs(pointwise - diam) > tol):
        k = int(np.abs(pointwise - diam).argmax())
        raise NotAntipodalInvolution(
            f"point {k} maps to distance {pointwise[k]}, diameter is {diam}"
        )
    return alpha


def antipodal_lower_bound(space: FiniteMetricSpace, involution,
                          chain=None, tol: float = DEFAULT_LIP_TOL) -> float:
    """Certified lower bound for the degree from an antipodal involution.

    The involution must be a fixed-point-free order-2 permutation sending
    every point to a diametral partner.  Along a cyclic chain of points
    closed under the involution, g(x) = f(x) - f(involution(x)) flips sign
    somewhere, and between a sign change f(x) and f(involution(x)) differ
    by at most half the local chain gap; the bound is the diameter minus
    the largest such gap.  Without a chain the bound degenerates to 0.
    """
    alpha = validate_antipodal_involution(space, involution, tol)
    diam = diameter(space)
    d = space.dist
    if chain is None:
        warnings.warn("no cyclic chain supplied; antipodal bound degenerates to 0",
                      stacklevel=2)
        return 0.0
    chain = [int(c) for c in chain]
    if sorted(set(chain)) != sorted(chain):
        raise NotAntipodalInvolution("chain must not repeat points")
    in_chain = set(chain)
    if any(int(alpha[c]) not in in_chain for c in chain):
        raise NotAntipodalInvolution("chain must be closed under the involution")
    worst_gap = 0.0
    for pos, c in enumerate(chain):
        nxt = chain[(pos + 1) % len(chain)]
        gap = 0.5 * (d[c, nxt] + d[alpha[c], alpha[nxt]])
        worst_gap = max(worst_gap, float(gap))
    return max(0.0, diam - worst_gap)


def line_image(space: FiniteMetricSpace, witness: LipschitzWitness):
    """Realize witness values as a subset of the line, with the graph relation.

    Duplicate values merge; the returned correspondence matches each point
    to its value, and its distortion equals the witness objective.
    """
    from .correspondences import Correspondence

    values = witness.as_array()
    if values.shape != (space.n,):
        raise InvalidWitness(f"expected {space.n} values, got shape {values.shape}")
    unique = np.unique(values)
    image = FiniteMetricSpace(
        np.abs(unique[:, None] - unique[None, :]),
        [f"{u:.12g}" for u in unique],
    )
    where = np.searchsorted(unique, values)
    pairs = {(i, int(where[i])) for i in range(space.n)}
    return image, Correspondence(space, image, pairs)
