"""Output checks that do not rely on ghdist's own code.

Closed forms, slack budgets, distortions and enumerations are recomputed
here with plain numpy, so a fault in the program cannot hide behind the
same fault in its checker.  Every check raises CheckFailed with the
offending numbers; it returns nothing when the output holds.
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np

TWO_PI = 2.0 * math.pi
CHUNK = 256            # rows per block, keeps check memory below the program's
EXHAUSTIVE_CELLS = 20  # largest pair grid enumerated exhaustively
LIP_TOL = 1e-6         # Lipschitz slack ghdist documents for its witnesses


class CheckFailed(Exception):
    """A program output contradicts an independently computed value."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- segment versus circle ---------------------------------------------------

def gh_formula(lam: float) -> float:
    """d_GH(segment of length lam, unit circle), the paper's three branches."""
    if lam <= 2 * math.pi / 3:
        return math.pi / 2 - lam / 4
    if lam <= 5 * math.pi / 3:
        return math.pi / 3
    return (lam - math.pi) / 2


def regime(lam: float) -> str:
    """The paper's regime of a length; interval upper ends inclusive."""
    if lam <= 2 * math.pi / 3:
        return "A"
    if lam <= 7 * math.pi / 6:
        return "B1"
    if lam <= 5 * math.pi / 3:
        return "B2"
    if lam <= 2 * math.pi:
        return "C1"
    return "C2"


def grid_slack(lam: float, step: float, n_circle: int, m_grid: int) -> float:
    """Discretization budget of the default grids: 4*step + 4*pi/n + 2*lam/m."""
    return 4 * step + 4 * math.pi / n_circle + 2 * lam / m_grid


def pairs_distortion(dl: np.ndarray, dr: np.ndarray, pairs) -> float:
    """max |dl[i, i'] - dr[j, j']| over all pairs of pairs, in row blocks."""
    pairs = np.asarray(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    li, ri = pairs[:, 0], pairs[:, 1]
    worst = 0.0
    for lo in range(0, len(pairs), CHUNK):
        block = np.abs(dl[li[lo:lo + CHUNK]][:, li] - dr[ri[lo:lo + CHUNK]][:, ri])
        worst = max(worst, float(block.max()))
    return worst


def grid_step(d: np.ndarray) -> float:
    """Largest nearest-neighbour distance: the grid's resolution."""
    n = d.shape[0]
    if n == 1:
        return 0.0
    step = 0.0
    for lo in range(0, n, CHUNK):
        block = d[lo:lo + CHUNK].copy()
        block[np.arange(block.shape[0]), np.arange(lo, lo + block.shape[0])] = np.inf
        step = max(step, float(block.min(axis=1).max()))
    return step


def require_covers(pairs, n_left: int, n_right: int) -> None:
    left = {int(i) for i, _ in pairs}
    right = {int(j) for _, j in pairs}
    require(left == set(range(n_left)),
            f"relation misses {n_left - len(left & set(range(n_left)))} left points")
    require(right == set(range(n_right)),
            f"relation misses {n_right - len(right & set(range(n_right)))} right points")


def wrap_angle(phi: np.ndarray) -> np.ndarray:
    """Angles into (-pi, pi]."""
    w = np.mod(phi + math.pi, TWO_PI) - math.pi
    return np.where(w == -math.pi, math.pi, w)


def sample_pl(segments, h: float) -> np.ndarray:
    """Points of a piecewise-linear relation in Q at spacing at most h."""
    chunks = []
    for (t0, p0), (t1, p1) in segments:
        pieces = max(1, math.ceil(math.hypot(t1 - t0, p1 - p0) / h))
        w = np.linspace(0.0, 1.0, pieces + 1)
        chunks.append(np.column_stack((t0 + w * (t1 - t0), p0 + w * (p1 - p0))))
    pts = np.concatenate(chunks)
    return np.column_stack((pts[:, 0], wrap_angle(pts[:, 1])))


def pl_points_distortion(pts: np.ndarray) -> float:
    """max over point pairs of ||t - t'| - circle distance(phi, phi')|."""
    t, phi = pts[:, 0], pts[:, 1]
    worst = 0.0
    for lo in range(0, len(pts), CHUNK):
        dphi = np.abs(phi[lo:lo + CHUNK, None] - phi[None, :])
        circ = np.minimum(dphi, TWO_PI - dphi)
        dt = np.abs(t[lo:lo + CHUNK, None] - t[None, :])
        worst = max(worst, float(np.abs(dt - circ).max()))
    return worst


def require_pl_covers(pts: np.ndarray, lam: float, h: float) -> None:
    """Both projections of the sampled relation leave no hole wider than h."""
    t = np.sort(pts[:, 0])
    holes = [t[0] + lam / 2, lam / 2 - t[-1], float(np.diff(t).max(initial=0.0))]
    require(max(holes) <= h + 1e-9, f"segment projection has a hole of {max(holes):.6g}")
    phi = np.sort(pts[:, 1])
    holes = [phi[0] + TWO_PI - phi[-1], float(np.diff(phi).max(initial=0.0))]
    require(max(holes) <= h + 1e-9, f"angle projection has a hole of {max(holes):.6g}")


def check_report_bounds(lam: float, lower: float, upper: float, slack: float) -> None:
    """lower - slack <= formula <= upper + slack, each side within slack."""
    f = gh_formula(lam)
    require(lower - slack <= f <= upper + slack,
            f"lam={lam!r}: [{lower}, {upper}] does not bracket {f} within {slack}")
    require(abs(lower - f) <= slack and abs(upper - f) <= slack,
            f"lam={lam!r}: bounds [{lower}, {upper}] stray more than {slack} from {f}")


def check_pairs_certificate(lam: float, upper: float, slack: float,
                            dl: np.ndarray, dr: np.ndarray, pairs) -> None:
    """A grid correspondence: exact recomputed distortion equals 2 * upper.

    Its distortion cannot fall below 2 * formula by more than the two grids'
    resolution, 4h with h the coarser grid step.
    """
    require_covers(pairs, dl.shape[0], dr.shape[0])
    measured = pairs_distortion(dl, dr, pairs)
    require(measured == 2 * upper,
            f"lam={lam!r}: recomputed distortion {measured!r} != 2 * upper {2 * upper!r}")
    h = max(grid_step(dl), grid_step(dr))
    f = gh_formula(lam)
    require(2 * f - 4 * h <= measured <= 2 * (f + slack),
            f"lam={lam!r}: distortion {measured} outside [{2 * f - 4 * h}, {2 * (f + slack)}]")


def check_pl_certificate(lam: float, upper: float, slack: float, segments,
                         h: float, program_step: float) -> None:
    """A piecewise-linear relation, resampled at the coarser step h.

    The coarse value is at most the continuous distortion, which the
    program's finer sample misses by at most 4 * program_step; the
    continuous distortion is at least 2 * formula.
    """
    pts = sample_pl(segments, h)
    require_pl_covers(pts, lam, h)
    coarse = pl_points_distortion(pts)
    f = gh_formula(lam)
    require(2 * f - 4 * h <= coarse <= 2 * (f + slack),
            f"lam={lam!r}: resampled distortion {coarse} outside "
            f"[{2 * f - 4 * h}, {2 * (f + slack)}]")
    require(coarse <= 2 * upper + 4 * program_step + 1e-12,
            f"lam={lam!r}: resampled distortion {coarse} above 2 * upper {2 * upper} "
            f"+ sampling error {4 * program_step}")


# -- exact search -------------------------------------------------------------

def diameter(d: np.ndarray) -> float:
    return float(d.max())


@functools.lru_cache(maxsize=16)
def _maps(n_from: int, n_to: int) -> np.ndarray:
    """Every map {0..n_from-1} -> {0..n_to-1}, one per row."""
    return np.array(list(itertools.product(range(n_to), repeat=n_from)), dtype=np.int64)


def min_distortion_fg(dx: np.ndarray, dy: np.ndarray, below: float = math.inf) -> float:
    """Minimum distortion over correspondences, enumerated as pairs of maps.

    Every correspondence contains graph(f) joined with the transpose of
    graph(g) for some f: X -> Y and g: Y -> X, and that union is itself a
    correspondence with distortion max(dis f, dis g, codis(f, g)); so the
    minimum over all (f, g) is the minimum distortion.  Maps whose own
    distortion is already at or above ``below`` cannot give a value under
    it and are skipped; the result is inf when nothing lies below.
    """
    nx, ny = dx.shape[0], dy.shape[0]
    require(nx * ny <= EXHAUSTIVE_CELLS, f"{nx}x{ny} grid is too large to enumerate")
    fs, gs = _maps(nx, ny), _maps(ny, nx)
    dis_f = np.zeros(len(fs))
    for a in range(nx):
        for b in range(a + 1, nx):
            np.maximum(dis_f, np.abs(dx[a, b] - dy[fs[:, a], fs[:, b]]), out=dis_f)
    dis_g = np.zeros(len(gs))
    for a in range(ny):
        for b in range(a + 1, ny):
            np.maximum(dis_g, np.abs(dx[gs[:, a], gs[:, b]] - dy[a, b]), out=dis_g)
    keep_f, keep_g = dis_f < below, dis_g < below
    fs, gs = fs[keep_f], gs[keep_g]
    if not len(fs) or not len(gs):
        return math.inf
    total = np.maximum(dis_f[keep_f][:, None], dis_g[keep_g][None, :])
    for x in range(nx):
        for y in range(ny):
            cross = np.abs(dx[x, gs[:, y]][None, :] - dy[fs[:, x], y][:, None])
            np.maximum(total, cross, out=total)
    best = float(total.min())
    return best if best < below else math.inf


def check_gh_exact(dx: np.ndarray, dy: np.ndarray, value: float, pairs) -> None:
    """Witness covers both spaces, attains 2 * value, and value is plausible."""
    require_covers(pairs, dx.shape[0], dy.shape[0])
    measured = pairs_distortion(dx, dy, pairs)
    require(measured == 2 * value,
            f"witness distortion {measured!r} != 2 * value {2 * value!r}")
    gap = abs(diameter(dx) - diameter(dy)) / 2
    top = max(diameter(dx), diameter(dy)) / 2
    require(gap <= value <= top, f"value {value} outside [{gap}, {top}]")
    if dx.shape[0] * dy.shape[0] <= EXHAUSTIVE_CELLS:
        # the witness attains 2 * value, so it is the minimum when nothing
        # in the enumeration falls below it
        better = min_distortion_fg(dx, dy, below=2 * value)
        require(better == math.inf, f"enumeration finds {better / 2!r} below value {value!r}")


def check_orientations(forward: float, backward: float) -> None:
    require(forward == backward,
            f"gh_exact(x, y) = {forward!r} but gh_exact(y, x) = {backward!r}")


# -- nonlinearity degree ------------------------------------------------------

def check_witness(d: np.ndarray, value: float, values) -> None:
    """The witness is 1-Lipschitz and its recomputed objective is the value."""
    v = np.asarray(values, dtype=float)
    require(v.shape == (d.shape[0],), f"witness has {v.size} values for {d.shape[0]} points")
    gaps = np.abs(v[:, None] - v[None, :])
    excess = float((gaps - d).max())
    require(excess <= LIP_TOL, f"witness stretches a distance by {excess}")
    objective = float(np.maximum(d - gaps, 0.0).max())
    require(abs(objective - value) <= 1e-12,
            f"witness objective {objective!r} != reported value {value!r}")


def check_exact_below_upper(exact: float, upper: float) -> None:
    require(exact <= upper + 1e-9, f"exact degree {exact} above heuristic {upper}")


# -- files ----------------------------------------------------------------------

def same_to_12_digits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= 1e-11 * np.maximum(1.0, np.abs(b))))


def check_matrix(written: np.ndarray, expected: np.ndarray, what: str) -> None:
    require(same_to_12_digits(written, expected),
            f"{what}: reloaded matrix differs from the expected one beyond 12 digits")


def check_bytes(first: bytes, second: bytes, what: str) -> None:
    require(first == second, f"{what}: rewriting the reloaded file changed its bytes")


def check_records(records: list[dict], diam_x: float, diam_y: float) -> dict:
    """Bounds records: sane kinds, lowers below uppers, the closed-form routes.

    Returns the records keyed by the rule name before any parenthesis.
    """
    require(records, "bounds printed no records")
    by_rule = {}
    for rec in records:
        require(rec["kind"] in ("lower", "upper", "exact"), f"unknown kind {rec['kind']!r}")
        by_rule[rec["source"].split("(")[0]] = rec
    lowers = [r["value"] - r["slack"] for r in records if r["kind"] != "upper"]
    uppers = [r["value"] for r in records if r["kind"] != "lower"]
    require(max(lowers) <= min(uppers) + 1e-9,
            f"lower {max(lowers)} above upper {min(uppers)}")
    close = lambda a, b: abs(a - b) <= 1e-11 * max(1.0, abs(b))  # noqa: E731
    require("diameter-difference" in by_rule and
            close(by_rule["diameter-difference"]["value"], abs(diam_x - diam_y) / 2),
            f"diameter route is not |{diam_x} - {diam_y}|/2")
    require("max-diameter" in by_rule and
            close(by_rule["max-diameter"]["value"], max(diam_x, diam_y) / 2),
            f"max-diameter route is not max({diam_x}, {diam_y})/2")
    return by_rule


def check_circle_segment_records(by_rule: dict, lam: float, involution: bool) -> None:
    """Circle against an odd segment grid: the routes have closed forms."""
    close = lambda a, b: abs(a - b) <= 1e-11 * max(1.0, abs(b))  # noqa: E731
    require(close(by_rule["diameter-difference"]["value"], abs(math.pi - lam) / 2),
            f"diameter route {by_rule['diameter-difference']['value']} != |pi - {lam}|/2")
    require("round" in by_rule and close(by_rule["round"]["value"], (math.pi - lam / 2) / 2),
            f"round route is not (pi - {lam}/2)/2")
    if involution:
        rec = by_rule.get("diametral-involution")
        require(rec is not None, "involution route missing under --involution auto")
        # a segment embeds in the line, so its witness objective is 0 up to
        # the solver's bisection tolerance, and the route is diam/3
        require(abs(rec["value"] - math.pi / 3) <= 1e-8,
                f"involution route {rec['value']} != pi/3")
