"""End-to-end verification suite.

Eight independent criteria re-derive the toolkit's headline claims from
scratch at fixed seeds and fixed grids.  Each returns a CriterionResult;
verify_all runs them in order.  Nothing here trusts cached values: every
certificate is re-measured and every optimum is re-checked against an
independent oracle.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .bounds import diam_diff_lower, involution_lower, round_lower
from .correspondences import (
    distortion,
    distortion_bound_holds,
    nearest_point_correspondence,
    pair_distortion,
)
from .exact import SearchOptions, gh_exact, min_distortion_exhaustive
from .models import (
    TWO_PI,
    antipodal_map,
    circle_space,
    segment_positions,
    segment_space,
    whisker_graph,
)
from .nonlinearity import (
    line_image,
    nonlinearity_degree_exact,
    normalized_witness,
)
from .segment_circle import DEFAULT_GRIDS, certificate, gh_formula, sweep
from .spaces import PointSubset, hausdorff_distance, scale
from .testing import random_euclidean_space, random_rectangle_points


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} criterion {self.number} ({self.name}): {self.detail}"


def _result(number: int, name: str, failures: list[str], detail: str) -> CriterionResult:
    if failures:
        return CriterionResult(number, name, False, "; ".join(failures[:4]))
    return CriterionResult(number, name, True, detail)


def criterion_1_formula_reproduction() -> CriterionResult:
    """Sweep over [0, 3*pi]: bracketing within 0.02 rad, spot values, runtime."""
    failures: list[str] = []
    budget = 0.02
    started = time.perf_counter()
    reports = sweep(0.0, 3 * math.pi, 100)
    elapsed = time.perf_counter() - started
    for rep in reports:
        if not (rep.lower.value - budget <= rep.formula_value <= rep.upper.value + budget):
            failures.append(
                f"lam={rep.lam:.6f}: [{rep.lower.value:.6f}, {rep.upper.value:.6f}] "
                f"misses {rep.formula_value:.6f} at budget {budget}"
            )
    if gh_formula(0.0) != math.pi / 2:
        failures.append("formula at 0 is not exactly pi/2")
    if gh_formula(math.pi) != math.pi / 3:
        failures.append("formula at pi is not exactly pi/3")
    if gh_formula(3 * math.pi) != math.pi:
        failures.append("formula at 3*pi is not exactly pi")
    if elapsed > 60.0:
        failures.append(f"sweep took {elapsed:.1f}s, budget is 60s")
    worst = max(
        max(rep.lower.value - rep.formula_value, rep.formula_value - rep.upper.value)
        for rep in reports
    )
    return _result(
        1, "formula reproduction", failures,
        f"100 points bracketed, worst one-sided gap {worst:.4f} rad, {elapsed:.1f}s"
    )


def criterion_2_regime_a() -> CriterionResult:
    """Short segments: exact round-route lower bound, tight single wind."""
    failures: list[str] = []
    circ = circle_space(720)
    worst_gap = 0.0
    for lam in (math.pi / 6, math.pi / 3, math.pi / 2, 2 * math.pi / 3):
        target = math.pi / 2 - lam / 4
        low = round_lower(circ, segment_space(lam, 721))
        if abs(low.value - target) > 1e-12:
            failures.append(f"lam={lam:.6f}: round route {low.value!r} != {target!r}")
        cert = certificate(lam)
        tol = 4 * math.pi / 720 + 2 * lam / 720
        gap = abs(cert.half - target)
        worst_gap = max(worst_gap, gap)
        if gap > tol:
            failures.append(
                f"lam={lam:.6f}: wind certificate off by {gap:.6f} > {tol:.6f}"
            )
    return _result(
        2, "short-segment tightness", failures,
        f"round route exact to 1e-12, certificates within {worst_gap:.5f}"
    )


def criterion_3_plateau() -> CriterionResult:
    """Middle regime: certificates near pi/3, involution route exactly pi/3."""
    failures: list[str] = []
    circ = circle_space(720)
    alpha = antipodal_map(720)
    for lam in (2 * math.pi / 3, math.pi, 7 * math.pi / 6, 3 * math.pi / 2,
                5 * math.pi / 3):
        cert = certificate(lam)
        slack = DEFAULT_GRIDS.slack(lam)
        if cert.half > math.pi / 3 + slack:
            failures.append(
                f"lam={lam:.6f}: certificate half {cert.half:.6f} above pi/3 + {slack:.4f}"
            )
        seg = segment_space(lam, 721)
        witness = normalized_witness(seg, segment_positions(lam, 721))
        if witness.objective > 1e-9:
            failures.append(f"lam={lam:.6f}: segment witness objective {witness.objective}")
        rec = replace(
            involution_lower(circ, alpha, seg, witness.objective, witness),
            slack=TWO_PI / 720,
        )
        if rec.value != math.pi / 3:
            failures.append(f"lam={lam:.6f}: involution route {rec.value!r} != pi/3")
        if rec.slack != TWO_PI / 720 or "continuous-hypothesis" not in rec.flags:
            failures.append(f"lam={lam:.6f}: involution route missing slack or flag")
    return _result(
        3, "plateau", failures,
        "five lams certified at pi/3 within slack; involution route exact"
    )


def criterion_4_long_segments() -> CriterionResult:
    """Long segments: certificates near (lam-pi)/2, diameter route exact."""
    failures: list[str] = []
    circ = circle_space(720)
    for lam in (11 * math.pi / 6, 2 * math.pi, 5 * math.pi / 2, 3 * math.pi):
        target = (lam - math.pi) / 2
        cert = certificate(lam)
        slack = DEFAULT_GRIDS.slack(lam)
        if cert.half > target + slack:
            failures.append(
                f"lam={lam:.6f}: certificate half {cert.half:.6f} above {target:.6f}+{slack:.4f}"
            )
        low = diam_diff_lower(circ, segment_space(lam, 721))
        if abs(low.value - target) > TWO_PI / 720:
            failures.append(
                f"lam={lam:.6f}: diameter route {low.value:.8f} vs {target:.8f}"
            )
    return _result(
        4, "long segments", failures,
        "four lams certified at (lam-pi)/2 within slack; diameter route exact"
    )


def criterion_5_region_calculus() -> CriterionResult:
    """Region containment test == brute-force pairwise max, 200 random sets."""
    failures: list[str] = []
    rng = np.random.default_rng(20240514)
    eps = 1e-9
    for trial in range(200):
        count = int(rng.integers(1, 61))
        lam = float(rng.uniform(0.5, 3 * math.pi))
        points = random_rectangle_points(count, lam, seed=int(rng.integers(2**31)))
        pairwise = 0.0
        for i in range(count):
            for j in range(i, count):
                pairwise = max(pairwise, pair_distortion(points[i], points[j]))
        for a in (pairwise - eps, pairwise, pairwise + eps):
            expected = pairwise <= a
            got = distortion_bound_holds(points, a)
            if got != expected:
                failures.append(
                    f"trial {trial}: containment {got} but pairwise says {expected} "
                    f"at a={a!r}"
                )
    return _result(
        5, "region calculus", failures,
        "200 random sets, three thresholds each, zero disagreements"
    )


def criterion_6_exact_oracle() -> CriterionResult:
    """Branch-and-bound == exhaustive enumeration; metric axioms at small n."""
    failures: list[str] = []
    rng = np.random.default_rng(77001)
    for trial in range(100):
        nx = int(rng.integers(1, 9))
        ny = int(rng.integers(1, max(2, 16 // nx) + 1))
        if nx * ny > 16:
            ny = 16 // nx
        x = random_euclidean_space(nx, seed=int(rng.integers(2**31)))
        y = random_euclidean_space(ny, seed=int(rng.integers(2**31)))
        got = gh_exact(x, y, SearchOptions(max_points=16))
        want = min_distortion_exhaustive(x, y) / 2
        if got.value != want or got.status != "optimal":
            failures.append(f"trial {trial}: search {got.value!r} vs oracle {want!r}")
    for trial in range(50):
        spaces = [
            random_euclidean_space(int(rng.integers(1, 6)), seed=int(rng.integers(2**31)))
            for _ in range(3)
        ]
        d01 = gh_exact(spaces[0], spaces[1]).value
        d10 = gh_exact(spaces[1], spaces[0]).value
        if d01 != d10:
            failures.append(f"triple {trial}: asymmetry {d01!r} vs {d10!r}")
        d02 = gh_exact(spaces[0], spaces[2]).value
        d12 = gh_exact(spaces[1], spaces[2]).value
        if d02 > d01 + d12 + 1e-12:
            failures.append(f"triple {trial}: triangle violated by {d02 - d01 - d12}")
    return _result(
        6, "exact-solver oracle", failures,
        "100 exhaustive agreements, 50 symmetric triangle triples"
    )


def criterion_7_nonlinearity() -> CriterionResult:
    """Degree: zero on grids, bracketed on circles, scaling, line-image link."""
    failures: list[str] = []
    for m in range(2, 9):
        val, _ = nonlinearity_degree_exact(segment_space(1.0 + 0.3 * m, m))
        if val > 1e-9:
            failures.append(f"segment grid m={m}: degree {val}")
    for n in (4, 6, 8):
        val, _ = nonlinearity_degree_exact(circle_space(n))
        if not (math.pi - TWO_PI / n - 1e-9 <= val <= math.pi + 1e-9):
            failures.append(f"circle n={n}: degree {val} outside bracket")
    rng = np.random.default_rng(40213)
    for trial in range(5):
        x = random_euclidean_space(int(rng.integers(3, 7)), seed=int(rng.integers(2**31)))
        base, _ = nonlinearity_degree_exact(x)
        doubled, _ = nonlinearity_degree_exact(scale(x, 2.0))
        if abs(doubled - 2 * base) > 1e-8:
            failures.append(f"scaling trial {trial}: {doubled} vs 2*{base}")
    for trial in range(20):
        x = random_euclidean_space(int(rng.integers(2, 7)), seed=int(rng.integers(2**31)))
        val, witness = nonlinearity_degree_exact(x)
        image, _ = line_image(x, witness)
        got = gh_exact(x, image).value
        if got > val / 2 + 1e-8:
            failures.append(f"image trial {trial}: distance {got} above {val / 2}")
    return _result(
        7, "nonlinearity degree", failures,
        "grids at zero, circle brackets, scaling, and line-image link hold"
    )


def criterion_8_whisker_hausdorff() -> CriterionResult:
    """Whisker construction: measured Hausdorff distance and correspondence."""
    failures: list[str] = []
    step = TWO_PI / 720
    for lam in (TWO_PI, 3 * math.pi):
        target = (lam - math.pi) / 2
        complex_ = whisker_graph(lam, 720)
        circle_part = PointSubset(complex_.space, complex_.circle_points)
        segment_part = PointSubset(complex_.space, complex_.segment_points)
        dh = hausdorff_distance(complex_.space, circle_part, segment_part)
        if abs(dh - target) > 2 * step:
            failures.append(f"lam={lam:.6f}: Hausdorff {dh:.6f} vs {target:.6f}")
        corr = nearest_point_correspondence(complex_.space, circle_part, segment_part)
        dis = distortion(corr)
        if dis > (lam - math.pi) + 4 * step:
            failures.append(f"lam={lam:.6f}: correspondence distortion {dis:.6f}")
    return _result(
        8, "whisker Hausdorff construction", failures,
        "both lams within grid tolerance, correspondences within 4 steps"
    )


ALL_CRITERIA = (
    criterion_1_formula_reproduction,
    criterion_2_regime_a,
    criterion_3_plateau,
    criterion_4_long_segments,
    criterion_5_region_calculus,
    criterion_6_exact_oracle,
    criterion_7_nonlinearity,
    criterion_8_whisker_hausdorff,
)


def verify_all() -> list[CriterionResult]:
    return [fn() for fn in ALL_CRITERIA]


def render_table(results: list[CriterionResult]) -> str:
    lines = [r.line() for r in results]
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} criteria passed")
    return "\n".join(lines)
