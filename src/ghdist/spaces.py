"""Finite metric spaces: validation, basic statistics, subsets, Hausdorff distance.

A space is a square numpy matrix of pairwise distances plus point labels.
Distances are plain floats; every predicate that has a tolerance takes it
explicitly, with 1e-9 as the shared default.
"""
from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import (
    AsymmetricMatrix,
    EmptySubset,
    IndexOutOfRange,
    NegativeDistance,
    NegativeScale,
    NonzeroDiagonal,
    SpacesDiffer,
    ToolkitError,
    TriangleViolation,
)

DEFAULT_TOL = 1e-9


class FiniteMetricSpace:
    """Immutable finite metric space.

    The constructor runs the cheap axioms (shape, symmetry, diagonal,
    positivity).  Use :func:`validate_metric` to additionally check the
    triangle inequality on untrusted input.
    """

    __slots__ = ("n", "labels", "dist")

    def __init__(self, dist, labels: Sequence[str] | None = None, tol: float = DEFAULT_TOL):
        matrix = np.asarray(dist, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise AsymmetricMatrix(f"distance matrix must be square, got shape {matrix.shape}")
        n = matrix.shape[0]
        if n < 1:
            raise EmptySubset("a space needs at least one point")
        if not np.all(np.isfinite(matrix)):
            raise ToolkitError("distance matrix has non-finite entries")
        asym = np.abs(matrix - matrix.T)
        if asym.size and asym.max() > tol:
            i, j = np.unravel_index(int(asym.argmax()), asym.shape)
            raise AsymmetricMatrix(f"d[{i}][{j}] = {matrix[i, j]} != d[{j}][{i}] = {matrix[j, i]}")
        diag = np.abs(np.diagonal(matrix))
        if diag.max() > tol:
            i = int(diag.argmax())
            raise NonzeroDiagonal(f"d[{i}][{i}] = {matrix[i, i]}")
        off = matrix.copy()
        np.fill_diagonal(off, 1.0)
        if off.min() <= 0.0:
            i, j = np.unravel_index(int(off.argmin()), off.shape)
            raise NegativeDistance(f"d[{i}][{j}] = {matrix[i, j]} is not positive for distinct points")
        matrix = matrix.copy()
        np.fill_diagonal(matrix, 0.0)
        matrix.flags.writeable = False
        object.__setattr__(self, "dist", matrix)
        object.__setattr__(self, "n", n)
        if labels is None:
            labels = tuple(f"p{k}" for k in range(n))
        else:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise ToolkitError(f"{len(labels)} labels for {n} points")
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteMetricSpace is immutable")

    def __repr__(self):
        return f"FiniteMetricSpace(n={self.n}, diameter={diameter(self):.6g})"

    def allclose(self, other: "FiniteMetricSpace", tol: float = DEFAULT_TOL) -> bool:
        """Equality of spaces is entrywise matrix equality within tol."""
        return self.n == other.n and bool(np.all(np.abs(self.dist - other.dist) <= tol))


def _triangle_witness(matrix: np.ndarray, tol: float):
    """Find one violating triple by direct scan.  Only used on failure paths."""
    n = matrix.shape[0]
    for j in range(n):
        via = matrix[:, None, j] + matrix[None, :, j].repeat(n, axis=0)
        bad = matrix > via + tol
        if bad.any():
            i, k = np.unravel_index(int(bad.argmax()), bad.shape)
            return int(i), int(j), int(k), float(matrix[i, k]), float(matrix[i, j] + matrix[j, k])
    return None


def _min_plus_closure(d: np.ndarray) -> np.ndarray:
    """Shortest-path closure of a dense weight matrix: Floyd-Warshall,
    one vectorized min-plus update per pivot."""
    closure = d.copy()
    for k in range(closure.shape[0]):
        np.minimum(closure, closure[:, k : k + 1] + closure[k : k + 1, :], out=closure)
    return closure


def validate_metric(matrix, labels: Sequence[str] | None = None, tol: float = DEFAULT_TOL) -> FiniteMetricSpace:
    """Check all four metric axioms and return the validated space.

    Symmetry, zero diagonal and positivity are checked entrywise; the
    triangle inequality is checked as d <= min-plus(d, d) + tol, which for
    large matrices runs through the compiled all-pairs shortest path in
    scipy.  The first violated axiom is reported with witnessing indices.
    """
    space = FiniteMetricSpace(matrix, labels, tol=tol)
    d = space.dist
    n = space.n
    if n <= 2:
        return space
    if n <= 192:
        closure = _min_plus_closure(d)
    else:
        from scipy.sparse.csgraph import shortest_path

        closure = shortest_path(d, method="FW", directed=False)
    if np.any(d > closure + tol):
        found = _triangle_witness(d, tol)
        if found is None:
            # tolerance boundary artifact of the closure; rescan says it holds
            return space
        i, j, k, lhs, rhs = found
        raise TriangleViolation(i, j, k, lhs, rhs)
    return space


def diameter(space: FiniteMetricSpace) -> float:
    return float(space.dist.max())


def eccentricity(space: FiniteMetricSpace, i: int) -> float:
    """Largest distance from point i to any point."""
    if not 0 <= i < space.n:
        raise IndexOutOfRange(f"point index {i} outside [0, {space.n})")
    return float(space.dist[i].max())


def min_eccentricity(space: FiniteMetricSpace) -> float:
    return float(space.dist.max(axis=1).min())


class PointSubset:
    """A nonempty subset of a space's points, by index."""

    __slots__ = ("space", "indices")

    def __init__(self, space: FiniteMetricSpace, indices: Iterable[int]):
        idx = tuple(sorted({int(i) for i in indices}))
        if not idx:
            raise EmptySubset("subset must contain at least one point")
        if idx[0] < 0 or idx[-1] >= space.n:
            raise IndexOutOfRange(f"subset indices {idx[0]}..{idx[-1]} outside [0, {space.n})")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "indices", idx)

    def __setattr__(self, name, value):
        raise AttributeError("PointSubset is immutable")

    def __len__(self):
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def subspace(self) -> FiniteMetricSpace:
        """The restricted space on this subset, labels preserved."""
        idx = list(self.indices)
        sub = self.space.dist[np.ix_(idx, idx)]
        return FiniteMetricSpace(sub, [self.space.labels[i] for i in idx])


def _require_same_space(space: FiniteMetricSpace, subset: PointSubset):
    if subset.space is not space:
        raise SpacesDiffer("subset belongs to a different space")


def point_set_distance(space: FiniteMetricSpace, i: int, subset: PointSubset) -> float:
    """min over a in the subset of d(i, a)."""
    _require_same_space(space, subset)
    if not 0 <= i < space.n:
        raise IndexOutOfRange(f"point index {i} outside [0, {space.n})")
    return float(space.dist[i, list(subset.indices)].min())


def hausdorff_distance(space: FiniteMetricSpace, a: PointSubset, b: PointSubset) -> float:
    """Hausdorff distance between two subsets of one ambient space."""
    _require_same_space(space, a)
    _require_same_space(space, b)
    sub = space.dist[np.ix_(list(a.indices), list(b.indices))]
    return float(max(sub.min(axis=1).max(), sub.min(axis=0).max()))


def is_separated(space: FiniteMetricSpace, subset: PointSubset, b: float,
                 strict: bool = False) -> bool:
    """True when all distinct pairs in the subset are at distance >= b.

    strict=True demands > b instead; the boundary b = diameter matters
    when deciding roundness-style questions, so both comparisons are
    exposed.
    """
    _require_same_space(space, subset)
    idx = list(subset.indices)
    if len(idx) == 1:
        return True
    sub = space.dist[np.ix_(idx, idx)].copy()
    np.fill_diagonal(sub, np.inf)
    low = float(sub.min())
    return low > b if strict else low >= b


def is_homogeneous(space: FiniteMetricSpace, b: float, n: int = 2,
                   strict: bool = False) -> bool:
    """Every point lies in some b-separated subset of n points.

    The n = 2 case reduces to b <= min eccentricity (strictly below, when
    strict).  For n > 2 a depth-first search over candidates ordered by
    decreasing eccentricity looks for a separated n-subset through each
    anchor, pruning branches that cannot reach n points.
    """
    if n < 2:
        raise ToolkitError(f"homogeneity needs n >= 2, got {n}")
    if b <= 0:
        raise ToolkitError(f"separation threshold must be positive, got {b}")
    if n > space.n:
        return False

    def apart(x: float) -> bool:
        return x > b if strict else x >= b

    if n == 2:
        return apart(min_eccentricity(space))
    d = space.dist
    order = np.argsort(-d.max(axis=1), kind="stable")

    def extend(chosen: list[int], candidates: list[int]) -> bool:
        if len(chosen) == n:
            return True
        if len(chosen) + len(candidates) < n:
            return False
        for pos, y in enumerate(candidates):
            rest = [z for z in candidates[pos + 1 :] if apart(d[y, z])]
            if extend(chosen + [y], rest):
                return True
        return False

    for x in range(space.n):
        cands = [int(y) for y in order if y != x and apart(d[x, y])]
        if not extend([x], cands):
            return False
    return True


def is_round(space: FiniteMetricSpace) -> bool:
    """True when every point has a diametral partner.

    Equivalent, on a finite space, to being (b, 2)-homogeneous for every
    b below the diameter.
    """
    if space.n < 2:
        raise ToolkitError("roundness needs at least 2 points")
    return min_eccentricity(space) == diameter(space)


def scale(space: FiniteMetricSpace, factor: float) -> FiniteMetricSpace:
    """Rescale all distances.  A zero factor collapses to a single point."""
    if factor < 0:
        raise NegativeScale(f"scale factor must be nonnegative, got {factor}")
    if factor == 0:
        return FiniteMetricSpace([[0.0]], [space.labels[0]])
    return FiniteMetricSpace(factor * space.dist, space.labels)
