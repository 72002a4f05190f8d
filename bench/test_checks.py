"""Each benchmark check passes ghdist's real output and rejects a wrong one.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench
"""
from __future__ import annotations

import math

import numpy as np
import pytest

import checks
import ghdist
from tracer import Tracer
from workloads import Files, euclidean_matrix

GRIDS = ghdist.DEFAULT_GRIDS


def slack(lam):
    return checks.grid_slack(lam, GRIDS.pl_step, GRIDS.n_circle, GRIDS.m_grid)


def rejects(fn, *args):
    with pytest.raises(checks.CheckFailed):
        fn(*args)


# -- curve ----------------------------------------------------------------------

def test_formula_branches():
    assert checks.gh_formula(0.0) == math.pi / 2
    assert checks.gh_formula(math.pi) == math.pi / 3
    assert checks.gh_formula(3 * math.pi) == math.pi


@pytest.fixture(scope="module")
def wind_once():
    return ghdist.report(1.0)


@pytest.fixture(scope="module")
def plateau():
    return ghdist.report(4.5)


def test_report_bounds_reject_a_shifted_side(wind_once):
    lam, low, up = 1.0, wind_once.lower.value, wind_once.upper.value
    checks.check_report_bounds(lam, low, up, slack(lam))
    rejects(checks.check_report_bounds, lam, low + 2 * slack(lam), up, slack(lam))
    rejects(checks.check_report_bounds, lam, low, up + 2 * slack(lam), slack(lam))


def test_pairs_certificate_rejects_tampered_value_and_dropped_pair(wind_once):
    rel, up = wind_once.upper.certificate, wind_once.upper.value
    args = (rel.left.dist, rel.right.dist)
    checks.check_pairs_certificate(1.0, up, slack(1.0), *args, rel.pairs)
    rejects(checks.check_pairs_certificate, 1.0, up * 1.001, slack(1.0), *args, rel.pairs)
    last_row = max(i for i, _ in rel.pairs)
    dropped = {p for p in rel.pairs if p[0] != last_row}
    rejects(checks.check_pairs_certificate, 1.0, up, slack(1.0), *args, dropped)


def test_pl_certificate_rejects_lowered_value_and_dropped_segment(plateau):
    rel, up = plateau.upper.certificate, plateau.upper.value
    h, step = math.pi / 180, GRIDS.pl_step
    checks.check_pl_certificate(4.5, up, slack(4.5), rel.segments, h, step)
    rejects(checks.check_pl_certificate, 4.5, up - 0.05, slack(4.5), rel.segments, h, step)
    rejects(checks.check_pl_certificate, 4.5, up, slack(4.5), rel.segments[1:], h, step)


# -- exact ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_pair():
    rng = np.random.default_rng(7)
    dx, dy = euclidean_matrix(rng, 4), euclidean_matrix(rng, 5)
    opts = ghdist.SearchOptions(max_points=8)
    res = ghdist.gh_exact(ghdist.FiniteMetricSpace(dx), ghdist.FiniteMetricSpace(dy), opts)
    assert res.status == "optimal"
    return dx, dy, res


def test_exhaustive_agrees_with_the_packaged_oracle():
    rng = np.random.default_rng(3)
    for nx, ny in ((2, 3), (3, 3), (4, 4), (4, 5)):
        dx, dy = euclidean_matrix(rng, nx), euclidean_matrix(rng, ny)
        want = ghdist.min_distortion_exhaustive(ghdist.FiniteMetricSpace(dx),
                                                ghdist.FiniteMetricSpace(dy))
        assert checks.min_distortion_fg(dx, dy) == want


def test_gh_exact_check_rejects_tampered_value(small_pair):
    dx, dy, res = small_pair
    pairs = res.correspondence.pairs
    checks.check_gh_exact(dx, dy, res.value, pairs)
    rejects(checks.check_gh_exact, dx, dy, res.value * 1.01, pairs)


def test_gh_exact_check_rejects_dropped_pair(small_pair):
    dx, dy, res = small_pair
    pairs = set(res.correspondence.pairs)
    pairs.discard(min(pairs))
    with pytest.raises(checks.CheckFailed):
        value = checks.pairs_distortion(dx, dy, pairs) / 2
        checks.check_gh_exact(dx, dy, value, pairs)


def test_gh_exact_check_rejects_a_worse_witness(small_pair):
    dx, dy, res = small_pair
    full = {(i, j) for i in range(len(dx)) for j in range(len(dy))}
    value = checks.pairs_distortion(dx, dy, full) / 2
    assert value > res.value
    rejects(checks.check_gh_exact, dx, dy, value, full)


def test_orientations_must_agree():
    checks.check_orientations(0.25, 0.25)
    rejects(checks.check_orientations, 0.25, 0.2500001)


# -- nonlinearity ---------------------------------------------------------------

@pytest.fixture(scope="module")
def degree():
    d = euclidean_matrix(np.random.default_rng(5), 5)
    space = ghdist.FiniteMetricSpace(d)
    return d, ghdist.nonlinearity_degree_exact(space), ghdist.nonlinearity_degree_upper(space)


def test_witness_check_rejects_stretch_and_tampered_value(degree):
    d, (value, witness), _ = degree
    checks.check_witness(d, value, witness.values)
    rejects(checks.check_witness, d, value + 1e-6, witness.values)
    stretched = list(witness.values)
    far = int(np.argmax(stretched))
    stretched[far] += 0.5
    rejects(checks.check_witness, d, value, stretched)


def test_exact_must_not_exceed_heuristic(degree):
    _, (exact, _), (upper, _) = degree
    checks.check_exact_below_upper(exact, upper)
    rejects(checks.check_exact_below_upper, upper + 1e-3, upper)


# -- files ----------------------------------------------------------------------

def test_matrix_check_rejects_a_digit_change():
    m = np.array([[0.0, 1.23456789012], [1.23456789012, 0.0]])
    checks.check_matrix(m.copy(), m, "m")
    bad = m.copy()
    bad[0, 1] += 1e-9
    rejects(checks.check_matrix, bad, m, "m")


def test_bytes_check_rejects_any_change():
    checks.check_bytes(b"abc", b"abc", "f")
    rejects(checks.check_bytes, b"abc", b"abd", "f")


def test_whisker_model_matches_the_package():
    complex_ = ghdist.whisker_graph(7.0, 16, 5)
    assert np.allclose(Files._whisker(7.0, 16, 5), complex_.space.dist, rtol=0, atol=1e-12)


def bounds_records(lam):
    circle = ghdist.circle_space(64)
    segment = ghdist.segment_space(lam, 65)
    witness = ghdist.normalized_witness(segment, ghdist.segment_positions(lam, 65))
    opts = ghdist.BoundOptions(involution=ghdist.find_diametral_involution(circle),
                               c_witness=witness)
    from ghdist.serialization import bound_record_to_dict

    return [bound_record_to_dict(r) for r in ghdist.best_bounds(circle, segment, opts)]


def test_bounds_checks_reject_wrong_routes():
    lam = 2.5
    records = bounds_records(lam)
    by_rule = checks.check_records(records, math.pi, lam)
    checks.check_circle_segment_records(by_rule, lam, involution=True)
    rejects(checks.check_records, records, math.pi, lam + 0.1)
    rejects(checks.check_circle_segment_records, by_rule, lam + 0.1, True)
    crossed = [dict(r, value=r["value"] + 10) if r["kind"] == "lower" else r for r in records]
    rejects(checks.check_records, crossed, math.pi, lam)
    no_involution = {k: v for k, v in by_rule.items() if k != "diametral-involution"}
    rejects(checks.check_circle_segment_records, no_involution, lam, True)


# -- tracer ---------------------------------------------------------------------

def test_tracer_spans_nest_and_uninstall_restores():
    original = ghdist.gh_exact
    tracer = Tracer(ghdist)
    tracer.install()
    try:
        rng = np.random.default_rng(1)
        x, y = (ghdist.FiniteMetricSpace(euclidean_matrix(rng, 4)) for _ in range(2))
        ghdist.gh_exact(x, y, ghdist.SearchOptions())
    finally:
        tracer.uninstall()
    assert ghdist.gh_exact is original
    names = [s[2] for s in tracer.spans]
    assert "exact.gh_exact" in names and "spaces.FiniteMetricSpace" in names
    top = next(s for s in tracer.spans if s[2] == "exact.gh_exact")
    children = [s for s in tracer.spans if s[1] == top[0]]
    assert children and all(top[3] <= c[3] <= c[4] <= top[4] for c in children)
    total = sum(s[4] - s[3] for s in tracer.spans if s[1] == -1)
    assert math.isclose(sum(tracer.layer_self.values()), total, rel_tol=1e-9)
    assert tracer.missing == []
