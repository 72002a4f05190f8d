import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghdist import (
    GridParams,
    PLCorrespondence,
    antipodal_map,
    certificate,
    circle_space,
    diam_diff_lower,
    gh_formula,
    involution_lower,
    lower_bound,
    normalized_witness,
    pl_distortion,
    regime,
    report,
    round_lower,
    segment_positions,
    segment_space,
    sweep,
)
from ghdist.errors import (
    LambdaOutOfRange,
    NegativeLambda,
    OddOrder,
    TooFewPoints,
    ToolkitError,
)

TWO_PI = 2.0 * math.pi
PLATEAU_LO = 2.0 * math.pi / 3.0
PLATEAU_HI = 5.0 * math.pi / 3.0

COARSE = GridParams(n_circle=180, m_grid=180, pl_step=math.pi / 180)

NON_FINITE = [math.nan, math.inf, -math.inf]

# lengths across A, B1, B2, C1 and C2, and the regime breakpoints
ORACLE_LENGTHS = [
    0.0, 0.3, 0.7, 1.0, 1.7, PLATEAU_LO,                    # A
    PLATEAU_LO + 1e-3, 2.5, math.pi, 3.6, 7 * math.pi / 6,  # B1
    3.8, 4.5, 5.0, 5.2, PLATEAU_HI,                         # B2
    PLATEAU_HI + 1e-3, 5.8, 6.1, TWO_PI,                    # C1
    TWO_PI + 1e-3, 7.5, 8.5, 3 * math.pi,                   # C2
]


class TestGridParams:
    @pytest.mark.parametrize("n", [7, 2, 0, -4])
    def test_circle_grid_must_be_even_and_at_least_four(self, n):
        with pytest.raises(OddOrder):
            GridParams(n_circle=n)

    def test_segment_grid_needs_a_point(self):
        with pytest.raises(TooFewPoints):
            GridParams(m_grid=0)

    @pytest.mark.parametrize("step", [0.0, -1.0, math.nan, math.inf])
    def test_pl_step_must_be_finite_and_positive(self, step):
        with pytest.raises(ToolkitError):
            GridParams(pl_step=step)


class TestFormula:
    def test_key_values(self):
        assert gh_formula(0.0) == math.pi / 2
        assert gh_formula(PLATEAU_LO) == math.pi / 3
        assert gh_formula(PLATEAU_HI) == math.pi / 3
        assert gh_formula(TWO_PI) == (TWO_PI - math.pi) / 2 == math.pi / 2

    def test_short_branch(self):
        assert gh_formula(1.0) == math.pi / 2 - 0.25

    def test_long_branch(self):
        assert gh_formula(7.0) == (7.0 - math.pi) / 2

    def test_negative_rejected(self):
        with pytest.raises(NegativeLambda):
            gh_formula(-0.1)

    @pytest.mark.parametrize("lam", NON_FINITE)
    def test_non_finite_rejected(self, lam):
        with pytest.raises(LambdaOutOfRange):
            gh_formula(lam)

    @given(st.floats(min_value=0.0, max_value=8 * math.pi,
                     allow_nan=False, allow_infinity=False))
    def test_continuity_and_floor(self, lam):
        value = gh_formula(lam)
        assert value >= math.pi / 3 - 1e-12
        eps = 1e-9
        assert abs(gh_formula(lam + eps) - value) <= eps

    @given(st.floats(min_value=PLATEAU_LO, max_value=PLATEAU_HI,
                     allow_nan=False))
    def test_plateau_is_flat(self, lam):
        assert gh_formula(lam) == math.pi / 3


class TestRegimeLabels:
    def test_boundaries_are_inclusive_on_the_left_piece(self):
        assert regime(PLATEAU_LO) == "A"
        assert regime(7 * math.pi / 6) == "B1"
        assert regime(PLATEAU_HI) == "B2"
        assert regime(TWO_PI) == "C1"

    def test_interior_labels(self):
        assert regime(0.0) == "A"
        assert regime(3.0) == "B1"
        assert regime(4.5) == "B2"
        assert regime(5.8) == "C1"
        assert regime(9.0) == "C2"

    def test_negative_rejected(self):
        with pytest.raises(NegativeLambda):
            regime(-1.0)

    @pytest.mark.parametrize("lam", NON_FINITE)
    def test_non_finite_rejected(self, lam):
        with pytest.raises(LambdaOutOfRange):
            regime(lam)


class TestCertificate:
    def test_zero_length_full_product(self):
        cert = certificate(0.0, COARSE)
        assert cert.kind == "full-product"
        assert abs(cert.half - math.pi / 2) <= 1e-12

    @pytest.mark.parametrize("lam,kind", [
        (1.0, "wind-once"),
        (3.0, "wind-triple"),
        (4.8, "piecewise-linear"),
        (6.0, "piecewise-linear"),
        (7.5, "whisker"),
    ])
    def test_regime_constructions_stay_within_slack(self, lam, kind):
        cert = certificate(lam, COARSE)
        assert cert.kind == kind
        assert isinstance(cert.relation, PLCorrespondence)
        assert cert.half <= gh_formula(lam) + COARSE.slack(lam)

    @pytest.mark.parametrize("lam", [
        1e-300, 0.5, 1.5, PLATEAU_LO,               # A
        PLATEAU_LO + 1e-9, 2.5, math.pi, 7 * math.pi / 6,   # B1
        7 * math.pi / 6 + 1e-9, 4.5, PLATEAU_HI,    # B2
        PLATEAU_HI + 1e-9, 5.8, TWO_PI,             # C1
        TWO_PI + 1e-9, 7.5, 3 * math.pi, 40.0,      # C2
    ])
    def test_measured_value_equals_the_formula(self, lam):
        cert = certificate(lam)
        assert isinstance(cert.relation, PLCorrespondence)
        assert abs(cert.measured - 2 * gh_formula(lam)) <= 1e-12

    def test_measured_value_is_reported_not_assumed(self):
        cert = certificate(1.0, COARSE)
        segs = list(cert.relation.segments)
        (t0, p0), (t1, p1) = segs[0]
        segs[0] = ((t0, p0), (t1 + 0.1, p1))  # finish the first half-turn later
        moved = PLCorrespondence(cert.lam, segs)
        assert pl_distortion(moved) != cert.measured
        assert cert.measured == pl_distortion(cert.relation)

    def test_length_below_grid_resolution_is_a_point(self):
        cert = certificate(5e-324, COARSE)
        assert cert.kind == "full-product"
        assert cert.half == math.pi / 2

    def test_negative_rejected(self):
        with pytest.raises(NegativeLambda):
            certificate(-2.0)

    @pytest.mark.parametrize("lam", NON_FINITE)
    def test_non_finite_rejected(self, lam):
        with pytest.raises(LambdaOutOfRange):
            certificate(lam)
        with pytest.raises(LambdaOutOfRange):
            report(lam)


class TestLowerBound:
    def test_short_segment_uses_the_round_route(self):
        rec = lower_bound(1.0)
        assert rec.source == "round(a=0.5)"
        assert abs(rec.value - (math.pi / 2 - 0.25)) <= 1e-15

    def test_plateau_uses_the_involution_route(self):
        rec = lower_bound(math.pi)
        assert rec.source == "diametral-involution(c=0)"
        assert rec.value == math.pi / 3
        assert rec.slack == 0.0

    def test_long_segment_uses_the_diameter_gap(self):
        rec = lower_bound(7.0)
        assert rec.source == "diameter-difference"
        assert rec.value == (7.0 - math.pi) / 2

    def test_involution_wins_just_past_the_plateau_ends(self):
        # with zero slack the pi/3 route beats both neighbours inside the plateau
        for lam in (PLATEAU_LO + 1e-3, PLATEAU_HI - 1e-3):
            rec = lower_bound(lam)
            assert rec.source == "diametral-involution(c=0)"
            assert rec.value == math.pi / 3

    @pytest.mark.parametrize("lam", ORACLE_LENGTHS)
    def test_value_is_the_formula(self, lam):
        assert abs(lower_bound(lam).value - gh_formula(lam)) <= 1e-15

    @pytest.mark.parametrize("lam", ORACLE_LENGTHS)
    def test_matches_the_best_grid_route(self, lam):
        # the same three routes evaluated on grids, as bounds.py computes them
        m = 721 if lam > 0 else 1
        circ = circle_space(720)
        seg = segment_space(lam, m)
        witness = normalized_witness(seg, segment_positions(lam, m))
        grid = max(
            round_lower(circ, seg).value,
            diam_diff_lower(circ, seg).value,
            involution_lower(circ, antipodal_map(720), seg,
                             witness.objective, witness).value,
        )
        assert abs(lower_bound(lam).value - grid) <= TWO_PI / 720 + 2 * lam / 720

    def test_negative_rejected(self):
        with pytest.raises(NegativeLambda):
            lower_bound(-0.5)

    @pytest.mark.parametrize("lam", NON_FINITE)
    def test_non_finite_rejected(self, lam):
        with pytest.raises(LambdaOutOfRange):
            lower_bound(lam)

    def test_length_below_grid_resolution_is_a_point(self):
        rec = lower_bound(5e-324)
        assert rec == lower_bound(0.0)


class TestReport:
    @pytest.mark.parametrize("lam", [0.0, 0.7, PLATEAU_LO, 2.5, math.pi,
                                     4.0, 4.9, PLATEAU_HI, 5.5, TWO_PI, 8.0])
    def test_consistent_across_regimes(self, lam):
        rep = report(lam, COARSE)
        assert rep.consistent()
        assert rep.regime == regime(lam)
        assert rep.lower.value - rep.slack <= rep.formula_value
        assert rep.formula_value <= rep.upper.value + rep.slack

    def test_brackets_are_tight_on_the_plateau(self):
        rep = report(math.pi, COARSE)
        assert abs(rep.lower.value - math.pi / 3) <= 1e-12
        assert rep.upper.value <= math.pi / 3 + rep.slack


class TestSweep:
    def test_rows_cover_the_grid_in_order(self):
        reports = sweep(0.0, TWO_PI, 9, COARSE)
        lams = [r.lam for r in reports]
        assert len(lams) == 9
        assert lams == sorted(lams)
        assert lams[0] == 0.0
        assert abs(lams[-1] - TWO_PI) <= 1e-12

    def test_single_step_emits_the_left_end(self):
        reports = sweep(1.0, 5.0, 1, COARSE)
        assert len(reports) == 1
        assert reports[0].lam == 1.0

    def test_formula_shape_over_a_wide_sweep(self):
        reports = sweep(0.0, 3 * math.pi, 61, COARSE)
        values = [r.formula_value for r in reports]
        lams = [r.lam for r in reports]
        for prev_lam, prev, lam, cur in zip(lams, values, lams[1:], values[1:]):
            if lam <= PLATEAU_LO:
                assert cur <= prev
            elif prev_lam >= PLATEAU_HI:
                assert cur >= prev
        assert min(values) == math.pi / 3

    def test_guards(self):
        with pytest.raises(NegativeLambda):
            sweep(-1.0, 2.0, 3, COARSE)
        with pytest.raises(NegativeLambda):
            sweep(2.0, 1.0, 3, COARSE)
        with pytest.raises(ToolkitError):
            sweep(0.0, 1.0, 0, COARSE)
        for bad in NON_FINITE:
            with pytest.raises(LambdaOutOfRange):
                sweep(0.0, bad, 3, COARSE)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.0, max_value=3 * math.pi, allow_nan=False))
@example(5e-324)
def test_report_never_fails_on_valid_lengths(lam):
    rep = report(lam, COARSE)
    assert rep.consistent()
