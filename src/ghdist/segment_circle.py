"""Closed-form GH distance between a length-lam segment and the unit circle.

The distance follows three branches: pi/2 - lam/4 while the segment is
short, a constant pi/3 plateau for 2*pi/3 <= lam <= 5*pi/3, and
(lam - pi)/2 once the segment dominates.  Every sampled lam is certified
from both sides: an upper bound comes from an explicit correspondence
whose distortion is measured (never trusted), and a lower bound comes
from one of three routes (roundness, diametral involution, diameter gap),
each a closed function of exact invariants of the continuous spaces.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .bounds import BoundRecord
from .correspondences import (
    Correspondence,
    PLCorrespondence,
    distortion,
    pl_distortion,
)
from .errors import (
    CertificateFailed,
    LambdaOutOfRange,
    NegativeLambda,
    OddOrder,
    TooFewPoints,
    ToolkitError,
)
from .models import TWO_PI, circle_space, segment_positions, segment_space

TWO_THIRDS_PI = 2.0 * math.pi / 3.0
SEVEN_SIXTHS_PI = 7.0 * math.pi / 6.0
FIVE_THIRDS_PI = 5.0 * math.pi / 3.0

# rounding room when an exactly measured distortion is compared with its target
EXACT_TOL = 1e-12


@dataclass(frozen=True)
class GridParams:
    """Discretization parameters of the certificates and of the slack budget."""

    n_circle: int = 720
    m_grid: int = 720
    pl_step: float = math.pi / 720

    def __post_init__(self):
        if self.n_circle < 4 or self.n_circle % 2 != 0:
            raise OddOrder(f"circle grid size must be even and >= 4, got {self.n_circle}")
        if self.m_grid < 1:
            raise TooFewPoints(f"segment grid size must be >= 1, got {self.m_grid}")
        if not (math.isfinite(self.pl_step) and self.pl_step > 0):
            raise ToolkitError(f"pl step must be finite and positive, got {self.pl_step}")

    def slack(self, lam: float) -> float:
        """Documented per-lam error budget of the discretized pipeline."""
        return 4 * self.pl_step + 4 * math.pi / self.n_circle + 2 * lam / self.m_grid


DEFAULT_GRIDS = GridParams()

_circle = lru_cache(maxsize=8)(circle_space)


def _require_length(lam: float) -> None:
    if not math.isfinite(lam):
        raise LambdaOutOfRange(f"segment length must be finite, got {lam}")
    if lam < 0:
        raise NegativeLambda(f"segment length must be nonnegative, got {lam}")


def _below_resolution(lam: float, m: int) -> bool:
    """True for lam = 0 and for lengths whose m-point grid is not strictly increasing.

    Such lengths are treated as lam = 0: the segment is one point.
    """
    return lam == 0.0 or not np.all(np.diff(segment_positions(lam, m)) > 0)


def gh_formula(lam: float) -> float:
    """The three-branch closed form; constant pi/3 on the plateau."""
    _require_length(lam)
    if TWO_THIRDS_PI <= lam <= FIVE_THIRDS_PI:
        return math.pi / 3
    if lam < TWO_THIRDS_PI:
        return math.pi / 2 - lam / 4
    return (lam - math.pi) / 2


def regime(lam: float) -> str:
    """Regime label; interval upper ends inclusive."""
    _require_length(lam)
    if lam <= TWO_THIRDS_PI:
        return "A"
    if lam <= SEVEN_SIXTHS_PI:
        return "B1"
    if lam <= FIVE_THIRDS_PI:
        return "B2"
    if lam <= TWO_PI:
        return "C1"
    return "C2"


def _anchored_segments(lam: float, cyan_to_center: bool = False) -> list:
    """Piecewise-linear relation for the long-segment regimes.

    Anchor points (half of them; the rest are origin reflections):
      A = (lam/2 - pi/2, pi)      top entry of the anti-diagonal
      B = (pi/2, pi/2)            on the main diagonal
      C = ((lam+pi)/4, (lam+pi)/4) crossing of the two diagonals
      D = (lam/2, pi/2)           right end of the anti-diagonal
    Segments: anti-diagonal A-C-D (on t + phi = lam/2 + pi/2), its mirror,
    the main diagonal C'-C, and two connectors A-B, A'-B' (attached at C
    instead of B when cyan_to_center is set).
    """
    a_pt = (lam / 2 - math.pi / 2, math.pi)
    b_pt = (math.pi / 2, math.pi / 2)
    c_pt = ((lam + math.pi) / 4, (lam + math.pi) / 4)
    d_pt = (lam / 2, math.pi / 2)

    def neg(p):
        return (-p[0], -p[1])

    attach = c_pt if cyan_to_center else b_pt
    return [
        (a_pt, d_pt),                # anti-diagonal through C
        (neg(a_pt), neg(d_pt)),      # mirrored anti-diagonal
        (neg(c_pt), c_pt),           # main diagonal through the origin
        (a_pt, attach),              # connector
        (neg(a_pt), neg(attach)),    # mirrored connector
    ]


def _clip_segments(segments, t_max: float) -> list:
    """Restrict each segment to |t| <= t_max, dropping empty leftovers."""
    out = []
    for (t0, p0), (t1, p1) in segments:
        if t0 > t1:
            t0, p0, t1, p1 = t1, p1, t0, p0
        lo, hi = max(t0, -t_max), min(t1, t_max)
        if lo > hi:
            continue
        if t1 == t0:
            out.append(((t0, p0), (t1, p1)))
            continue

        def at(t):
            w = (t - t0) / (t1 - t0)
            return (t, p0 + w * (p1 - p0))

        out.append((at(lo), at(hi)))
    return out


@dataclass(frozen=True)
class CertificateResult:
    lam: float
    regime: str
    kind: str       # full-product | wind-once | wind-triple | piecewise-linear | whisker
    relation: object
    measured: float  # distortion of the relation, as measured
    path: str = "direct"

    @property
    def half(self) -> float:
        return self.measured / 2


def _wind_once_segments(lam: float) -> list:
    """One full turn, phi = 2*pi*(t + lam/2)/lam, wrapped into (-pi, pi]."""
    half = lam / 2
    return [((-half, 0.0), (0.0, math.pi)), ((0.0, -math.pi), (half, 0.0))]


def _wind_triple_segments(lam: float) -> list:
    """phi = 3*(t + lam/2), wrapped into (-pi, pi] and split at each wrap."""
    half = lam / 2
    segs, t, phi = [], -half, 0.0
    while True:
        wrap = t + (math.pi - phi) / 3
        if wrap >= half:
            segs.append(((t, phi), (half, phi + 3 * (half - t))))
            return segs
        segs.append(((t, phi), (wrap, math.pi)))
        t, phi = wrap, -math.pi


def _whisker_segments(lam: float) -> list:
    """The whisker construction for lam >= 2*pi, drawn in Q.

    Each whisker maps to its attachment angle (-pi for the left one, 0 for
    the right one), the middle of the segment runs along the lower
    semicircle on phi = t - pi/2, and each upper quarter of the circle maps
    to the nearer end of that semicircle, t = -pi/2 or t = pi/2.
    """
    half, quarter = lam / 2, math.pi / 2
    return [
        ((-half, -math.pi), (-quarter, -math.pi)),
        ((-quarter, -math.pi), (quarter, 0.0)),
        ((quarter, 0.0), (half, 0.0)),
        ((quarter, 0.0), (quarter, quarter)),
        ((-quarter, quarter), (-quarter, math.pi)),
    ]


def _pl_certificate(lam: float) -> tuple[PLCorrespondence, float, str]:
    # the plateau certificates are clippings of the construction at 5*pi/3;
    # clipping cannot increase distortion, so the parent's target applies
    source = FIVE_THIRDS_PI if lam <= FIVE_THIRDS_PI else lam
    target = (source - math.pi) + EXACT_TOL
    best = None
    for path in ("anchored", "connector-at-center"):
        segs = _anchored_segments(source, cyan_to_center=(path != "anchored"))
        if lam < source:
            segs = _clip_segments(segs, lam / 2)
        pl = PLCorrespondence(lam, segs)
        measured = pl_distortion(pl)
        if measured <= target:
            return pl, measured, path
        if best is None or measured < best[1]:
            best = (pl, measured, path)
    return best


def certificate(lam: float, grids: Optional[GridParams] = None) -> CertificateResult:
    """Build and measure the upper-bound correspondence for one lam.

    Every lam > 0 gets a piecewise-linear relation in Q whose distortion
    pl_distortion evaluates exactly; a lam below the segment grid's
    resolution, lam = 0 included, gets the full product of one point with
    the circle grid.  The returned distortion is always measured.
    CertificateFailed means the measurement landed above
    2*formula + slack, which would indicate a broken construction, not bad
    input.
    """
    grids = grids or DEFAULT_GRIDS
    _require_length(lam)
    reg = regime(lam)
    path = "direct"
    if _below_resolution(lam, _odd(grids.m_grid)):
        circ = _circle(grids.n_circle)
        relation = Correspondence(
            segment_space(0.0, 1), circ, {(0, j) for j in range(circ.n)}
        )
        measured = distortion(relation)
        kind = "full-product"
    elif reg in ("B2", "C1"):
        relation, measured, path = _pl_certificate(lam)
        kind = "piecewise-linear"
    else:
        kind, build = {
            "A": ("wind-once", _wind_once_segments),
            "B1": ("wind-triple", _wind_triple_segments),
            "C2": ("whisker", _whisker_segments),
        }[reg]
        relation = PLCorrespondence(lam, build(lam))
        measured = pl_distortion(relation)

    target = 2 * gh_formula(lam) + grids.slack(lam)
    if measured > target:
        raise CertificateFailed(
            f"lam={lam}: measured distortion {measured} exceeds {target}"
        )
    return CertificateResult(lam, reg, kind, relation, measured, path)


def _odd(m: int) -> int:
    return m if m % 2 == 1 else m + 1


def lower_bound(lam: float) -> BoundRecord:
    """Best certified lower bound at one lam; route chosen by effective value.

    Each route is a closed function of exact invariants of the continuous
    spaces.  The circle has diameter pi, is round with minimum eccentricity
    pi, and carries the antipodal map as a diametral involution; the
    segment has diameter lam, minimum eccentricity lam/2 and nonlinearity
    degree 0, witnessed by the identity.  So the routes are roundness,
    (pi - lam/2)/2 clamped at 0 (wins while the segment is short); the
    diametral involution, (pi - 0)/3 = pi/3 (the plateau); and the diameter
    gap, |pi - lam|/2 (long segments).  None carries a slack.  The tests
    check the result against the same routes evaluated on grids by
    round_lower, involution_lower and diam_diff_lower.
    """
    _require_length(lam)
    a = lam / 2
    routes = [
        BoundRecord("lower", max(0.0, (math.pi - a) / 2), f"round(a={a:.12g})"),
        BoundRecord("lower", abs(math.pi - lam) / 2, "diameter-difference"),
        BoundRecord("lower", math.pi / 3, "diametral-involution(c=0)"),
    ]
    return max(routes, key=lambda r: (r.effective_lower(), r.source))


@dataclass(frozen=True)
class RegimeReport:
    lam: float
    formula_value: float
    lower: BoundRecord
    upper: BoundRecord
    regime: str
    slack: float

    def consistent(self) -> bool:
        return (
            self.lower.value - self.slack
            <= self.formula_value
            <= self.upper.value + self.slack
        )


def report(lam: float, grids: Optional[GridParams] = None) -> RegimeReport:
    grids = grids or DEFAULT_GRIDS
    cert = certificate(lam, grids)
    low = lower_bound(lam)
    upper = BoundRecord(
        "upper",
        cert.half,
        f"{cert.kind}({cert.path})",
        certificate=cert.relation,
    )
    rep = RegimeReport(
        lam=lam,
        formula_value=gh_formula(lam),
        lower=low,
        upper=upper,
        regime=cert.regime,
        slack=grids.slack(lam),
    )
    if not rep.consistent():
        raise CertificateFailed(
            f"lam={lam}: bounds [{low.value}, {upper.value}] do not bracket "
            f"{rep.formula_value} within {rep.slack}"
        )
    return rep


def sweep(lam_min: float, lam_max: float, steps: int,
          grids: Optional[GridParams] = None) -> list[RegimeReport]:
    """Reports over an even lam grid, in increasing lam."""
    if not (math.isfinite(lam_min) and math.isfinite(lam_max)):
        raise LambdaOutOfRange(f"sweep range must be finite, got [{lam_min}, {lam_max}]")
    if lam_min < 0:
        raise NegativeLambda(f"sweep range must be nonnegative, got {lam_min}")
    if lam_max < lam_min:
        raise NegativeLambda("sweep range must be nondecreasing")
    if steps < 1:
        raise ToolkitError(f"sweep needs at least one step, got {steps}")
    grids = grids or DEFAULT_GRIDS
    if steps == 1:
        lams = [lam_min]
    else:
        lams = list(np.linspace(lam_min, lam_max, steps))
    return [report(v, grids) for v in lams]
