"""Model spaces: segment grids, discrete circles, and whisker graphs."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DisconnectedGraph,
    LambdaOutOfRange,
    LambdaTooSmall,
    NegativeLength,
    OddOrder,
    TooFewPoints,
)
from .spaces import FiniteMetricSpace, PointSubset

TWO_PI = 2.0 * math.pi


def segment_space(length: float, m: int) -> FiniteMetricSpace:
    """Uniform m-point grid on a segment [0, length].

    A zero length collapses to a single point regardless of m.  The grid
    includes both endpoints, so the diameter equals the length exactly.
    """
    if length < 0:
        raise NegativeLength(f"segment length must be nonnegative, got {length}")
    if m < 1:
        raise TooFewPoints(f"segment grid needs at least 1 point, got {m}")
    if length == 0 or m == 1:
        if length > 0:
            raise TooFewPoints("a one-point grid can only represent length 0")
        return FiniteMetricSpace([[0.0]], ["t0"])
    # k/(m-1) first, so the midpoint of an odd grid is exactly length/2
    t = length * (np.arange(m) / (m - 1))
    dist = np.abs(t[:, None] - t[None, :])
    return FiniteMetricSpace(dist, [f"t{k}" for k in range(m)])


def segment_positions(length: float, m: int) -> np.ndarray:
    """Grid coordinates matching segment_space, as an array."""
    if length == 0 or m == 1:
        return np.zeros(1)
    return length * (np.arange(m) / (m - 1))


def circle_space(n: int) -> FiniteMetricSpace:
    """n equally spaced points on the unit circle with arc-length metric.

    Distances are pi * (2 * gap / n) with gap the hop count, so for even n
    the antipodal distance and the diameter are exactly pi.
    """
    if n < 3:
        raise TooFewPoints(f"circle grid needs at least 3 points, got {n}")
    idx = np.arange(n)
    gap = np.abs(idx[:, None] - idx[None, :])
    gap = np.minimum(gap, n - gap)
    dist = math.pi * (2.0 * gap / n)
    return FiniteMetricSpace(dist, [f"a{k}" for k in range(n)])


def circle_angles(n: int) -> np.ndarray:
    """Vertex angles of circle_space(n), in [0, 2*pi)."""
    return TWO_PI * (np.arange(n) / n)


def antipodal_map(n: int) -> np.ndarray:
    """The antipodal vertex permutation k -> k + n/2 of an even circle grid."""
    if n % 2 != 0:
        raise OddOrder(f"antipodal map needs an even vertex count, got {n}")
    if n < 3:
        raise TooFewPoints(f"circle grid needs at least 3 points, got {n}")
    return (np.arange(n) + n // 2) % n


@dataclass(frozen=True)
class MetricGraph:
    """Undirected weighted graph; vertices 0..n-1, edges (u, v, length)."""

    n_vertices: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.n_vertices < 1:
            raise TooFewPoints("graph needs at least one vertex")
        seen: dict[tuple[int, int], float] = {}
        for u, v, w in self.edges:
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise IndexError(f"edge ({u}, {v}) outside vertex range")
            if u == v:
                raise NegativeLength(f"loop edge at vertex {u}")
            if w <= 0:
                raise NegativeLength(f"edge ({u}, {v}) has nonpositive length {w}")
            key = (min(u, v), max(u, v))
            seen[key] = min(float(w), seen.get(key, math.inf))
        canonical = tuple((u, v, seen[(u, v)]) for u, v in sorted(seen))
        object.__setattr__(self, "edges", canonical)


def shortest_path_metric(graph: MetricGraph, labels=None) -> FiniteMetricSpace:
    """Realize a connected graph as a finite metric space of path lengths."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra

    n = graph.n_vertices
    if n == 1:
        return FiniteMetricSpace([[0.0]], labels or ["v0"])
    if graph.edges:
        rows = [u for u, _, _ in graph.edges]
        cols = [v for _, v, _ in graph.edges]
        vals = [w for _, _, w in graph.edges]
        adj = coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    else:
        adj = coo_matrix((n, n)).tocsr()
    dist = dijkstra(adj, directed=False)
    if not np.all(np.isfinite(dist)):
        raise DisconnectedGraph("graph has unreachable vertex pairs")
    dist = np.minimum(dist, dist.T)
    if labels is None:
        labels = [f"v{k}" for k in range(n)]
    return FiniteMetricSpace(dist, labels)


@dataclass(frozen=True)
class WhiskerComplex:
    """A circle with two antipodal whiskers, realized as a metric space.

    circle_points indexes the circle vertices; segment_points indexes the
    union of both whiskers and the lower semicircle, which unfolds to a
    segment of total length lam.
    """

    graph: MetricGraph
    space: FiniteMetricSpace
    circle_points: PointSubset
    segment_points: PointSubset
    whisker_length: float


def whisker_graph(lam: float, n_circle: int, n_whisker: int | None = None) -> WhiskerComplex:
    """Unit circle plus two whiskers of length (lam - pi)/2 at angles 0 and pi.

    For lam >= 2*pi the whisker tips dominate the top of the circle, so the
    Hausdorff distance between the circle vertices and the segment-like
    subset equals the whisker length.  When n_whisker is omitted, each
    whisker is subdivided to roughly the circle arc step.
    """
    if not math.isfinite(lam):
        raise LambdaOutOfRange(f"segment length must be finite, got {lam}")
    if lam < TWO_PI:
        raise LambdaTooSmall(f"whisker construction needs lam >= 2*pi, got {lam}")
    if n_circle < 4 or n_circle % 2 != 0:
        raise OddOrder(f"circle vertex count must be even and >= 4, got {n_circle}")
    half = (lam - math.pi) / 2.0
    arc = TWO_PI / n_circle
    if n_whisker is None:
        count = half / arc
        if not math.isfinite(count):
            raise LambdaOutOfRange(
                f"whiskers of length {half} at arc step {arc} need more points "
                "than a float can count"
            )
        n_whisker = max(1, math.ceil(count))
    if n_whisker < 1:
        raise TooFewPoints(f"whisker subdivision must be >= 1, got {n_whisker}")

    edges: list[tuple[int, int, float]] = []
    for k in range(n_circle):
        edges.append((k, (k + 1) % n_circle, arc))
    step = half / n_whisker
    # whisker at angle pi, attached to vertex n_circle/2
    left0 = n_circle
    prev = n_circle // 2
    for k in range(n_whisker):
        edges.append((prev, left0 + k, step))
        prev = left0 + k
    # whisker at angle 0, attached to vertex 0
    right0 = n_circle + n_whisker
    prev = 0
    for k in range(n_whisker):
        edges.append((prev, right0 + k, step))
        prev = right0 + k

    total = n_circle + 2 * n_whisker
    labels = [f"a{k}" for k in range(n_circle)]
    labels += [f"L{k + 1}" for k in range(n_whisker)]
    labels += [f"R{k + 1}" for k in range(n_whisker)]
    graph = MetricGraph(total, tuple(edges))
    space = shortest_path_metric(graph, labels)

    circle_points = PointSubset(space, range(n_circle))
    lower = [0] + list(range(n_circle // 2, n_circle))
    segment_points = PointSubset(space, lower + list(range(n_circle, total)))
    return WhiskerComplex(graph, space, circle_points, segment_points, half)
