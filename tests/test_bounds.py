"""The theorem table's closed forms, certificate gating, and alpha=1 reductions."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import beta as scipy_beta

from fracineq import bounds
from fracineq.bounds import (
    CLASSICAL_IDS,
    FRACTIONAL_IDS,
    REDUCTION_TOL,
    THEOREM_IDS,
    THEOREMS,
    CertCache,
    reduction_check,
    _gamma_ratio,
)
from fracineq.errors import ConfigError
from fracineq.fracint import MAX_ALPHA, Estimate, FracParams
from fracineq.identity import _passes
from fracineq.funcatalog import (
    MODE_CONCAVE,
    MODE_CONVEX,
    TARGET_FPRIME,
    TARGET_FPRIME_POW,
    CatalogEntry,
    Function1D,
    certify_batch,
    get_entry,
)

from at_point import abs_lhs_of, pieces_of, rows_at

S_GRID = (0.25, 0.5, 0.75, 1.0)
# each theorem's right-hand side and alpha = 1 twin, unchecked: rhs(prm, f)
RHS = {tid: thm.rhs for tid, thm in THEOREMS.items()}
TWIN = {tid: thm.twin for tid, thm in THEOREMS.items()}
PQ_PAIRS = ((2.0, 2.0), (3.0, 1.5), (1.25, 5.0))
X_GRID = (0.0, 0.1, 0.35, 0.5, 0.8, 1.0)


def gamma_ratio(alpha: float, s: float) -> float:
    return math.gamma(alpha + 1.0) * math.gamma(s + 1.0) / math.gamma(alpha + s + 1.0)


class TestTheoremIds:
    def test_vocabulary(self):
        assert FRACTIONAL_IDS == ("E6", "E7", "E8proof", "E9")
        assert CLASSICAL_IDS == ("e1", "e13", "e14", "t5_146", "t6_147")
        assert THEOREM_IDS == FRACTIONAL_IDS + CLASSICAL_IDS


# the hand lists the theorem table replaced: each row's filled CSV cells, and
# the theorems whose rows need exponents
PARAM_FIELDS = {
    "E6": ("alpha", "s", "x"),
    "E7": ("alpha", "s", "p", "q", "x"),
    "E8proof": ("alpha", "s", "q", "x"),
    "E9": ("alpha", "s", "p", "q", "x"),
    "e1": ("x",),
    "e13": ("s",),
    "e14": ("s", "x"),
    "t5_146": ("s", "q", "x"),
    "t6_147": ("s", "p", "q", "x"),
}
EXPONENT_IDS = {"E7", "E8proof", "E9", "t5_146", "t6_147"}


class TestTheoremTable:
    def test_table_states_the_old_lists(self):
        assert tuple(THEOREMS) == THEOREM_IDS
        assert {tid: thm.fields for tid, thm in THEOREMS.items()} == PARAM_FIELDS
        assert {tid for tid, thm in THEOREMS.items() if thm.exponents} == EXPONENT_IDS

    @pytest.mark.parametrize("function", ["square", "pow150"])
    @pytest.mark.parametrize("tid", THEOREM_IDS)
    def test_listed_exponents_required_unlisted_ignored(self, tid, function):
        # a listed p or q that is unset is refused; an unlisted one that is
        # unset changes no bit of the row but its own parameter
        entry = get_entry(function)
        alpha = 0.5 if THEOREMS[tid].fractional else 1.0
        full = FracParams(0.0, 1.0, 0.3, alpha, s=0.5, p=3.0, q=1.5)

        def bits(rows):
            return repr([dataclasses.replace(r, prm=None) for r in rows])

        want = bits(rows_at(tid, entry, full))
        for name in ("p", "q"):
            prm = dataclasses.replace(full, **{name: None})
            if name in PARAM_FIELDS[tid]:
                with pytest.raises(ConfigError, match=f"^{tid} requires {name} to be set$"):
                    rows_at(tid, entry, prm)
            else:
                assert bits(rows_at(tid, entry, prm)) == want


def abs_lhs(f, prm):
    """The fractional rows' left-hand side, |identity LHS|."""
    return abs_lhs_of(pieces_of(f, prm))


def classical_lhs(f, prm, mean=None):
    """The classical rows' left-hand side, |f(x) - integral mean|, off e1's row."""
    entry = CatalogEntry(f, (), (), None, "")
    (row,) = rows_at("e1", entry, dataclasses.replace(prm, M=1.0), mean=mean)
    return Estimate(row.lhs, row.quad_error_budget)


class TestLhsFrac:
    def test_constant_vanishes(self):
        est = abs_lhs(get_entry("constant").func, FracParams(0.0, 1.0, 0.3, 0.75))
        assert est.value <= 1e-13
        assert est.error >= 0.0

    def test_square_classical_twelfth(self):
        # alpha=1 midpoint: |f(x) - mean| = |1/4 - 1/3| = 1/12
        est = abs_lhs(get_entry("square").func, FracParams(0.0, 1.0, 0.5, 1.0))
        assert est.value == pytest.approx(1.0 / 12.0, abs=1e-10)

    @pytest.mark.parametrize("x", [0.25, 0.5])
    def test_affine_matches_closed_form(self, x):
        # J-pair for f(t)=t on (0,1) in closed form, assembled independently
        g = math.gamma
        jm = x ** 1.5 / (1.5 * g(0.5))
        jp = (2.0 * math.sqrt(1.0 - x) - (2.0 / 3.0) * (1.0 - x) ** 1.5) / g(0.5)
        expr = (x ** 0.5 + (1.0 - x) ** 0.5) * x - g(1.5) * (jm + jp)
        est = abs_lhs(get_entry("affine").func, FracParams(0.0, 1.0, x, 0.5))
        assert est.value == pytest.approx(abs(expr), abs=1e-9)


    def test_pieces_give_the_same_estimate_on_every_read(self):
        f = get_entry("pow150").func
        prm = FracParams(0.0, 1.0, 0.3, 0.75)
        pieces = pieces_of(f, prm)
        first = abs_lhs_of(pieces)
        assert abs_lhs_of(pieces) == first
        assert first == abs_lhs(f, prm)

    def test_memoized_gamma_ratio_equals_a_fresh_evaluation(self):
        # the memo is keyed on both alpha and s; a swapped pair is a new entry
        for alpha, s in ((0.75, 0.5), (0.5, 0.75), (0.75, 1.0), (2.0, 0.5)):
            for _ in range(2):
                assert _gamma_ratio(alpha, s) == _gamma_ratio.__wrapped__(alpha, s)


class TestLhsClassical:
    def test_square_midpoint(self):
        est = classical_lhs(get_entry("square").func, FracParams(0.0, 1.0, 0.5, 1.0))
        assert est.value == pytest.approx(1.0 / 12.0, abs=1e-12)

    def test_affine_at_endpoint(self):
        est = classical_lhs(get_entry("affine").func, FracParams(0.0, 1.0, 0.0, 1.0))
        assert est.value == pytest.approx(0.5, abs=1e-12)

    def test_precomputed_mean_is_used(self):
        f = get_entry("square").func
        est = classical_lhs(f, FracParams(0.0, 1.0, 0.5, 1.0), mean=Estimate(1.0 / 3.0, 0.0))
        assert est.value == abs(0.25 - 1.0 / 3.0)
        assert est.error == 0.0


class TestRhsThm1:
    def test_hand_value_alpha_one(self):
        prm = FracParams(0.0, 1.0, 0.5, 1.0, s=1.0, M=2.0)
        assert RHS["E6"](prm) == pytest.approx(0.5, rel=1e-14)

    def test_endpoint_hand_value(self):
        # x=a, alpha=s=0.5, M=1: (1 + pi/4) / 2
        prm = FracParams(0.0, 1.0, 0.0, 0.5, s=0.5, M=1.0)
        assert RHS["E6"](prm) == pytest.approx((1.0 + math.pi / 4.0) / 2.0, rel=1e-13)

    def test_frozen_regression_point(self):
        prm = FracParams(0.0, 1.0, 0.5, 0.5, s=0.5, M=2.0)
        assert RHS["E6"](prm) == pytest.approx(1.2624671484563437, rel=1e-13)

    @pytest.mark.parametrize("s", S_GRID)
    @pytest.mark.parametrize("x", X_GRID)
    def test_alpha_one_equals_classical(self, s, x):
        prm = FracParams(0.0, 1.0, x, 1.0, s=s, M=2.0)
        assert TWIN["E6"] is RHS["e14"]
        assert abs(RHS["E6"](prm) - RHS["e14"](prm)) <= 1e-12

    @pytest.mark.parametrize("alpha", (0.25, 0.5, 1.5))
    @pytest.mark.parametrize("s", S_GRID)
    def test_gamma_ratio_against_beta(self, alpha, s):
        # 1 + ratio == 1 + (alpha+s+1) * B(alpha+1, s+1), B independent
        prm = FracParams(0.0, 1.0, 0.4, alpha, s=s, M=1.5)
        via_beta = (
            prm.M
            * (1.0 + (alpha + s + 1.0) * float(scipy_beta(alpha + 1.0, s + 1.0)))
            * ((0.4) ** (alpha + 1.0) + (0.6) ** (alpha + 1.0))
            / (alpha + s + 1.0)
        )
        assert RHS["E6"](prm) == pytest.approx(via_beta, rel=1e-12)


class TestRhsThm2:
    def test_hand_value_alpha_one(self):
        prm = FracParams(0.0, 1.0, 0.5, 1.0, s=1.0, p=2.0, q=2.0, M=2.0)
        assert RHS["E7"](prm) == pytest.approx(2.0 / math.sqrt(3.0) * 0.5, rel=1e-14)

    def test_endpoint_keeps_single_term(self):
        prm_a = FracParams(0.0, 1.0, 0.0, 0.75, s=0.5, p=2.0, q=2.0, M=1.0)
        expected = 1.0 / math.sqrt(1.0 + 2.0 * 0.75) * math.sqrt(2.0 / 1.5) * 1.0
        assert RHS["E7"](prm_a) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("s", S_GRID)
    @pytest.mark.parametrize("pq", PQ_PAIRS)
    def test_alpha_one_equals_hoelder_form(self, s, pq):
        p, q = pq
        for x in X_GRID:
            prm = FracParams(0.0, 1.0, x, 1.0, s=s, p=p, q=q, M=2.0)
            assert abs(RHS["E7"](prm) - TWIN["E7"](prm)) <= 1e-12

    def test_missing_exponents_rejected(self):
        with pytest.raises(ConfigError, match="^E7 requires p, q to be set$"):
            rows_at("E7", get_entry("square"), FracParams(0.0, 1.0, 0.5, 0.5, s=0.5))


class TestRhsThm3:
    def test_q_one_degenerates_to_thm1_exactly(self):
        prm = FracParams(0.0, 1.0, 0.3, 0.75, s=0.5, q=1.0, M=2.0)
        assert RHS["E8proof"](prm) == RHS["E6"](prm)

    def test_hand_value_alpha_one(self):
        prm = FracParams(0.0, 1.0, 0.5, 1.0, s=1.0, q=2.0, M=2.0)
        assert RHS["E8proof"](prm) == pytest.approx(0.5, rel=1e-14)

    @pytest.mark.parametrize("s", S_GRID)
    @pytest.mark.parametrize("q", (1.0, 1.5, 2.0, 3.0))
    def test_alpha_one_equals_powermean_form(self, s, q):
        assert TWIN["E8proof"] is RHS["t5_146"]
        for x in X_GRID:
            prm = FracParams(0.0, 1.0, x, 1.0, s=s, q=q, M=2.0)
            assert abs(RHS["E8proof"](prm) - RHS["t5_146"](prm)) <= 1e-12

    def test_missing_q_rejected(self):
        with pytest.raises(ConfigError, match="^E8proof requires q to be set$"):
            rows_at(
                "E8proof", get_entry("square"), FracParams(0.0, 1.0, 0.5, 0.5, s=0.5)
            )


class TestRhsThm4:
    def test_hand_value_alpha_one(self):
        f = get_entry("threehalf").func
        prm = FracParams(0.0, 1.0, 0.5, 1.0, s=1.0, p=2.0, q=2.0)
        expected = 0.25 * (0.5 + math.sqrt(0.75)) / math.sqrt(3.0)
        assert RHS["E9"](prm, f) == pytest.approx(expected, rel=1e-13)

    def test_frozen_regression_point(self):
        f = get_entry("threehalf").func
        prm = FracParams(0.0, 1.0, 0.5, 0.5, s=1.0, p=2.0, q=2.0)
        assert RHS["E9"](prm, f) == pytest.approx(0.3415063509461097, rel=1e-13)

    def test_endpoint_keeps_single_term(self):
        f = get_entry("threehalf").func
        prm = FracParams(0.0, 1.0, 0.0, 1.0, s=1.0, p=2.0, q=2.0)
        expected = abs(float(f.deriv(0.5))) / math.sqrt(3.0)
        assert RHS["E9"](prm, f) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("pq", PQ_PAIRS)
    def test_alpha_one_equals_classical(self, pq):
        p, q = pq
        f = get_entry("threehalf").func
        assert TWIN["E9"] is RHS["t6_147"]
        for x in (0.2, 0.5, 0.9):
            prm = FracParams(0.0, 1.0, x, 1.0, s=1.0, p=p, q=q)
            assert abs(RHS["E9"](prm, f) - RHS["t6_147"](prm, f)) <= 1e-12

    def test_missing_exponents_rejected(self):
        with pytest.raises(ConfigError, match="^E9 requires p, q to be set$"):
            rows_at(
                "E9", get_entry("threehalf"), FracParams(0.0, 1.0, 0.5, 0.5, s=1.0)
            )


class TestPrintedDiagnostic:
    def test_printed_form_duplicates_hoelder_route(self):
        # the E8 printed in circulation is E7's closed form, which reads p;
        # the table's E8proof is the proof's own bound, which reads no p
        prm = FracParams(0.0, 1.0, 0.35, 0.75, s=0.5, p=3.0, q=1.5, M=2.0)
        assert "p" in THEOREMS["E7"].fields and "p" not in THEOREMS["E8proof"].fields
        assert RHS["E8proof"](prm) != RHS["E7"](prm)
        assert RHS["E8proof"](prm) == RHS["E8proof"](dataclasses.replace(prm, p=None))


class TestStructuralProperties:
    @pytest.mark.parametrize(
        "tid", ["E6", "E7", "E8proof"], ids=["gamma-ratio", "hoelder", "power-mean"]
    )
    def test_endpoint_symmetry(self, tid):
        at_a = RHS[tid](FracParams(0.0, 1.0, 0.0, 0.75, s=0.5, p=2.0, q=2.0, M=2.0))
        at_b = RHS[tid](FracParams(0.0, 1.0, 1.0, 0.75, s=0.5, p=2.0, q=2.0, M=2.0))
        assert at_a == at_b

    @settings(max_examples=25, deadline=None)
    @given(m=st.floats(min_value=0.01, max_value=50.0))
    def test_linear_in_m(self, m):
        base = FracParams(0.0, 1.0, 0.3, 0.75, s=0.5, p=2.0, q=2.0, M=m)
        doubled = FracParams(0.0, 1.0, 0.3, 0.75, s=0.5, p=2.0, q=2.0, M=2.0 * m)
        for tid in ("E6", "E7", "E8proof"):
            assert RHS[tid](doubled) == pytest.approx(2.0 * RHS[tid](base), rel=1e-14)


@st.composite
def _points(draw, alpha=st.floats(min_value=1e-6, max_value=MAX_ALPHA)):
    """A FracParams with a <= x <= b, any accepted alpha and s, conjugate (p, q).

    [a, b] lies in [0, 1], the domain of the catalog's threehalf entry.
    """
    a = draw(st.floats(min_value=0.0, max_value=0.9))
    b = draw(st.floats(min_value=a + 0.05, max_value=1.0))
    x = min(b, a + draw(st.floats(min_value=0.0, max_value=1.0)) * (b - a))
    p = draw(st.floats(min_value=1.01, max_value=50.0))
    return FracParams(
        a, b, x, draw(alpha),
        s=draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True)),
        p=p, q=p / (p - 1.0), M=draw(st.floats(min_value=0.0, max_value=10.0)),
    )


class TestClosedFormProperties:
    @settings(max_examples=200, deadline=None)
    @given(prm=_points())
    def test_thm3_at_q_one_is_thm1(self, prm):
        prm = dataclasses.replace(prm, p=None, q=1.0)
        assert RHS["E8proof"](prm) == RHS["E6"](prm)

    @settings(max_examples=200, deadline=None)
    @given(prm=_points(alpha=st.just(1.0)))
    def test_each_fractional_rhs_is_its_twin_at_alpha_one(self, prm):
        f = get_entry("threehalf").func
        for tid in FRACTIONAL_IDS:
            thm = THEOREMS[tid]
            assert abs(thm.rhs(prm, f) - thm.twin(prm, f)) <= REDUCTION_TOL, tid


class TestClassicalRhs:
    def test_ostrowski_hand_value(self):
        assert RHS["e1"](FracParams(0.0, 1.0, 0.25, 1.0, M=2.0)) == pytest.approx(
            0.625, rel=1e-15
        )

    def test_ostrowski_minimal_at_midpoint(self):
        mid = RHS["e1"](FracParams(0.0, 1.0, 0.5, 1.0, M=1.0))
        off = RHS["e1"](FracParams(0.0, 1.0, 0.8, 1.0, M=1.0))
        assert mid == pytest.approx(0.25, rel=1e-15)
        assert off > mid

    def test_msconvex_hand_value(self):
        prm = FracParams(0.0, 1.0, 0.5, 1.0, s=1.0, M=2.0)
        assert RHS["e14"](prm) == pytest.approx(0.5, rel=1e-15)


class TestEvaluateTheorem:
    def test_unknown_id_rejected(self):
        with pytest.raises(ConfigError, match="unknown theorem id"):
            rows_at("E10", get_entry("square"), FracParams(0.0, 1.0, 0.5, 0.5))

    def test_frozen_certified_row(self):
        entry = get_entry("square")
        prm = FracParams(0.0, 1.0, 0.5, 0.5, s=0.5)
        (row,) = rows_at("E6", entry, prm)
        assert row.theorem_id == "E6"
        assert row.function == "square"
        assert row.prm.M == 2.0  # resolved from the catalog bound
        assert row.asserted and row.holds and row.note == ""
        assert row.lhs == pytest.approx(0.18856180831641306, rel=1e-10)
        assert row.rhs == pytest.approx(1.2624671484563437, rel=1e-13)
        assert row.margin == row.rhs - row.lhs

    def test_uncertified_hypothesis_is_informational(self):
        # |f'|^2 of t^2 is convex, so the concavity gate cannot pass
        entry = get_entry("square")
        prm = FracParams(0.0, 1.0, 0.5, 0.5, s=1.0, p=2.0, q=2.0)
        (row,) = rows_at("E9", entry, prm)
        assert not row.asserted
        assert "hypothesis not certified" in row.note
        assert math.isfinite(row.rhs) and math.isfinite(row.margin)

    def test_certified_concave_row_asserted(self):
        entry = get_entry("threehalf")
        prm = FracParams(0.0, 1.0, 0.5, 0.5, s=1.0, p=2.0, q=2.0)
        (row,) = rows_at("E9", entry, prm)
        assert row.asserted and row.holds

    def test_powermean_row_needs_no_p(self):
        entry = get_entry("square")
        prm = FracParams(0.0, 1.0, 0.5, 0.5, s=0.5, q=1.5)
        (row,) = rows_at("E8proof", entry, prm)
        assert row.asserted and row.holds

    def test_hoelder_row_missing_exponents_rejected(self):
        with pytest.raises(ConfigError):
            rows_at(
                "E7", get_entry("square"), FracParams(0.0, 1.0, 0.5, 0.5, s=0.5)
            )

    def test_false_bound_reported_as_violation(self):
        # deliberately undersized M: the certificate passes, the bound fails
        entry = get_entry("square")
        prm = FracParams(0.0, 1.0, 0.5, 0.5, s=0.5, M=1e-3)
        (row,) = rows_at("E6", entry, prm)
        assert row.asserted
        assert row.margin < 0.0
        assert not row.holds

    def test_margin_tolerance_couples_to_verdict(self):
        entry = get_entry("square")
        prm = FracParams(0.0, 1.0, 0.5, 0.5, s=0.5, M=1e-3)
        (row,) = rows_at("E6", entry, prm, margin_tol=1.0)
        assert row.holds  # same negative margin, wider tolerance

    def test_hh_pair_rows(self):
        entry = get_entry("square")
        prm = FracParams(0.0, 1.0, 0.5, 1.0, s=0.5, M=2.0)
        lower, upper = rows_at("e13", entry, prm)
        assert lower.note.endswith("hh-lower")
        assert upper.note.endswith("hh-upper")
        assert lower.lhs == pytest.approx(0.25 / math.sqrt(2.0), rel=1e-14)
        assert lower.rhs == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert upper.lhs == lower.rhs
        assert upper.rhs == pytest.approx(1.0 / 1.5, rel=1e-14)
        assert lower.asserted and upper.asserted
        assert lower.holds and upper.holds

    def test_hh_negative_function_not_asserted(self):
        dipped = CatalogEntry(
            func=Function1D(
                "dipped",
                lambda t: np.asarray(t, dtype=float) - 0.6,
                lambda t: np.ones_like(np.asarray(t, dtype=float)),
                0.0,
                1.0,
            ),
            s_convex=(),
            s_concave=(),
            analytic_m=1.0,
            summary="affine shifted below zero",
        )
        prm = FracParams(0.0, 1.0, 0.5, 1.0, s=1.0, M=1.0)
        lower, upper = rows_at("e13", dipped, prm)
        assert not lower.asserted and not upper.asserted
        assert "negative values" in lower.note

    def test_e1_uses_precomputed_mean(self):
        entry = get_entry("square")
        prm = FracParams(0.0, 1.0, 0.25, 1.0, M=2.0)
        (row,) = rows_at("e1", entry, prm, mean=Estimate(1.0 / 3.0, 0.0))
        assert row.lhs == abs(0.0625 - 1.0 / 3.0)
        assert row.quad_error_budget == 0.0

    @pytest.mark.parametrize("tid", ["e13"])  # the others read the points' |LHS|
    def test_classical_block_without_a_mean_names_it(self, tid):
        grid = THEOREMS[tid].grid((0.5,), ((2.0, 2.0),), (2.0,))
        with pytest.raises(ConfigError, match=f"^{tid} is a classical bound and needs mean, got None$"):
            bounds.evaluate_block(tid, get_entry("square"), (0.0, 1.0), 2.0, grid,
                                  bounds.Points((1.0,), (0.5,)), 1e-9, CertCache())

    @pytest.mark.parametrize("tid", [tid for tid in THEOREM_IDS if tid != "e13"])
    def test_fractional_point_without_pieces_names_it(self, tid):
        # points without the |LHS| each bound but e13 reads
        entry = get_entry("square")
        points = bounds.Points((0.5, 0.5), (0.25, 0.75))
        grid = THEOREMS[tid].grid((0.5,), ((2.0, 2.0),), (2.0,))
        with pytest.raises(ConfigError, match=fr"^{tid} needs the points' \|LHS\| and budget, got None$"):
            bounds.evaluate_block(tid, entry, (0.0, 1.0), 2.0, grid, points, 1e-9, CertCache())

    def test_t5_missing_q_rejected(self):
        with pytest.raises(ConfigError):
            rows_at(
                "t5_146", get_entry("square"), FracParams(0.0, 1.0, 0.5, 1.0, s=0.5, M=2.0)
            )

    @pytest.mark.parametrize(("M", "lhs", "budget", "tol", "margin", "expected"), [
        (2.0, np.nan, 0.0, 1e-9, np.nan, False),
        (2.0, 0.625, np.nan, 0.25, -0.125, True),
        (2.0, 1.0, np.nan, 0.25, -0.5, False),
        (-0.0, 0.0, 0.0, 0.0, -0.0, True),
        (2.0, 1e300, np.inf, 1e-9, -1e300, True),
    ], ids=["nan-value-fails", "nan-budget-leaves-the-tolerance", "nan-budget-past-the-tolerance",
            "margin-minus-zero-holds", "inf-budget-passes-a-finite-value"])
    def test_residuals_and_margins_share_the_tolerance_rule(self, M, lhs, budget, tol, margin,
                                                            expected):
        # e1 at the midpoint of [0, 1] has the RHS M / 4, so its margin is
        # M / 4 - lhs; a residual of -margin gets the same verdict
        assert bool(_passes(-margin, budget, tol)) is expected
        points = bounds.Points((1.0,), (0.5,), np.array([lhs]), np.array([budget]))
        block = bounds.evaluate_block("e1", get_entry("square"), (0.0, 1.0), M,
                                      THEOREMS["e1"].grid((), (), ()), points, tol, CertCache())
        assert repr(float(block.margin[0])) == repr(margin)
        assert block.holds.tolist() == [expected]


class TestTableGate:
    """A row's hypothesis gate is the certificate its THEOREMS entry names,
    at the row's s and, when the hypothesis reads it, the row's q."""

    GATED = tuple(tid for tid, thm in THEOREMS.items() if thm.target is not None)

    @staticmethod
    def point(tid, **changes):
        alpha = 0.5 if THEOREMS[tid].fractional else 1.0
        return dataclasses.replace(FracParams(0.0, 1.0, 0.3, alpha, s=0.5, p=3.0, q=1.5),
                                   **changes)

    @pytest.mark.parametrize("fname", ["square", "threehalf", "exp"])
    @pytest.mark.parametrize("tid", GATED)
    def test_row_gate_is_the_tables_certificate(self, tid, fname):
        # square fails E9's concavity gate at s = 1 and threehalf passes it;
        # a fresh certificate, not the cache's, decides what each row shows
        thm = THEOREMS[tid]
        entry = get_entry(fname)
        for s in (0.5, 1.0):
            prm = self.point(tid, s=s)
            q = prm.q if thm.q_in_hypothesis else 1.0
            cert = certify_batch(entry.func, (s,), q=q, modes=(thm.mode,), target=thm.target)[0]
            for row in rows_at(tid, entry, prm, certs=CertCache()):
                assert row.asserted == cert.passed, (s, row)
                if not cert.passed:
                    assert row.note.startswith(f"hypothesis not certified: {cert.describe()}")

    @pytest.mark.parametrize(
        "tid,name", [(tid, name) for tid, thm in THEOREMS.items() for name in thm.exponents]
    )
    def test_missing_exponent_rejected(self, tid, name):
        prm = self.point(tid, **{name: None})
        with pytest.raises(ConfigError, match=f"^{tid} requires {name} to be set$"):
            rows_at(tid, get_entry("threehalf"), prm)

    @pytest.mark.parametrize("tid", THEOREM_IDS)
    def test_unread_exponents_change_nothing(self, tid):
        # E8proof, for one, reads no p: its row is the same without one
        unread = {name: None for name in ("p", "q") if name not in THEOREMS[tid].exponents}
        entry = get_entry("threehalf")

        def sides(prm):
            return [(r.lhs, r.rhs, r.margin, r.asserted, r.holds, r.note)
                    for r in rows_at(tid, entry, prm)]

        assert sides(self.point(tid, **unread)) == sides(self.point(tid))


class TestCertCache:
    def test_memoizes_identical_requests(self):
        cache = CertCache()
        entry = get_entry("square")
        first = cache.get(entry, TARGET_FPRIME, MODE_CONVEX, 0.5)
        second = cache.get(entry, TARGET_FPRIME, MODE_CONVEX, 0.5)
        assert first is second

    def test_distinct_parameters_recertify(self):
        cache = CertCache()
        entry = get_entry("square")
        a = cache.get(entry, TARGET_FPRIME_POW, MODE_CONVEX, 0.5, q=1.5)
        b = cache.get(entry, TARGET_FPRIME_POW, MODE_CONVEX, 0.5, q=2.0)
        assert a is not b

    @pytest.fixture
    def batches(self, monkeypatch):
        """The (target, q, modes, s values) of each sample bounds takes for a
        batch of certificates."""
        seen = []
        real_sample = bounds._sample

        def counted_sample(f, s_values, q, modes, target, cert_tol):
            seen.append((target, q, tuple(modes), tuple(s_values)))
            return real_sample(f, s_values, q, modes, target, cert_tol)

        monkeypatch.setattr(bounds, "_sample", counted_sample)
        return seen

    @pytest.fixture
    def passes(self, monkeypatch):
        """The (s values, modes) of each worst-violation pass bounds runs."""
        seen = []
        real_worst = bounds._worst_violations

        def counted_worst(sample, s_values, modes):
            seen.append((tuple(s_values), tuple(modes)))
            return real_worst(sample, s_values, modes)

        monkeypatch.setattr(bounds, "_worst_violations", counted_worst)
        return seen

    def test_first_get_certifies_the_grid_in_every_table_mode(self, batches, monkeypatch):
        # one batch per (function, target, q) covers every grid s and every
        # mode THEOREMS asks of the target; every later get is a hit
        cache = CertCache(cert_tol=1e-6, s_values=S_GRID)
        entry = get_entry("threehalf")
        cache.get(entry, TARGET_FPRIME_POW, MODE_CONVEX, 0.5, q=2.0)
        cache.get(entry, TARGET_FPRIME, MODE_CONVEX, 1.0)
        both = (MODE_CONVEX, MODE_CONCAVE)
        assert batches == [
            (TARGET_FPRIME_POW, 2.0, both, S_GRID),
            (TARGET_FPRIME, 1.0, (MODE_CONVEX,), S_GRID),
        ]

        def no_batch(*args, **kwargs):
            raise AssertionError("CertCache.get missed after the first batch")

        monkeypatch.setattr(bounds, "_sample", no_batch)
        wanted = [
            (TARGET_FPRIME_POW, mode, s, 2.0) for s in S_GRID for mode in both
        ] + [(TARGET_FPRIME, MODE_CONVEX, s, 1.0) for s in S_GRID]
        got = [cache.get(entry, target, mode, s, q) for target, mode, s, q in wanted]
        fresh = [
            certify_batch(entry.func, (s,), q=q, modes=(mode,), target=target, cert_tol=1e-6)[0]
            for target, mode, s, q in wanted
        ]
        assert got == fresh

    def test_an_s_off_the_grid_is_certified_alone(self, batches):
        # E9 on a fresh cache, which has no s grid: one batch over (s,)
        prm = FracParams(0.0, 1.0, 0.5, 0.5, s=1.0, p=2.0, q=2.0)
        (row,) = rows_at("E9", get_entry("pow150"), prm, certs=CertCache())
        assert batches == [(TARGET_FPRIME_POW, 2.0, (MODE_CONVEX, MODE_CONCAVE), (1.0,))]
        assert row.asserted and row.holds

    QS = (1.0, 1.25, 1.5, 2.0, 3.0, 5.0)

    def wanted(self):
        """Each of constant's and affine's seven |f'| targets, in every mode
        THEOREMS asks of it, at every grid s."""
        both = (MODE_CONVEX, MODE_CONCAVE)
        return [(name, target, mode, s, q)
                for name in ("constant", "affine")
                for target, q, modes in ((TARGET_FPRIME, 1.0, (MODE_CONVEX,)),
                                         *((TARGET_FPRIME_POW, q, both) for q in self.QS))
                for s in S_GRID for mode in modes]

    def test_targets_with_one_sample_share_its_passes(self, batches, passes):
        # |f'|**q is 0 for constant and 1 for affine at every q, and |f'| has
        # those samples too: each function's seven targets are seven samples
        # but two worst-violation passes, one per mode set
        cache = CertCache(cert_tol=1e-6, s_values=S_GRID)
        got = [cache.get(get_entry(name), target, mode, s, q)
               for name, target, mode, s, q in self.wanted()]
        assert len(batches) == 2 * 7
        assert passes == [(S_GRID, (MODE_CONVEX,)), (S_GRID, (MODE_CONVEX, MODE_CONCAVE))] * 2
        fresh = [
            certify_batch(get_entry(name).func, (s,), q=q, modes=(mode,), target=target,
                          cert_tol=1e-6)[0]
            for name, target, mode, s, q in self.wanted()
        ]
        # field for field, and the violation bit for bit
        bits = lambda c: (tuple(c), np.float64(c.max_violation).tobytes())
        assert [bits(c) for c in got] == [bits(c) for c in fresh]

    def test_nothing_is_shared_across_caches(self, passes):
        for _ in range(2):
            cache = CertCache(s_values=S_GRID)
            for name, target, mode, s, q in self.wanted():
                cache.get(get_entry(name), target, mode, s, q)
        assert len(passes) == 2 * 4


class TestClassicalSuite:
    """Every classical theorem at one point."""

    def test_row_order_and_verdicts(self):
        entry = get_entry("square")
        prm = FracParams(0.0, 1.0, 0.25, 1.0, s=0.5, p=2.0, q=2.0, M=2.0)
        rows = [row for tid in CLASSICAL_IDS for row in rows_at(tid, entry, prm)]
        assert [r.theorem_id for r in rows] == [
            "e1", "e13", "e13", "e14", "t5_146", "t6_147",
        ]
        for row in rows:
            if row.asserted:
                assert row.holds, row


class TestReductionCheck:
    @pytest.mark.parametrize("tid", FRACTIONAL_IDS)
    def test_closed_forms_coincide_at_alpha_one(self, tid):
        assert reduction_check(tid) <= REDUCTION_TOL

    def test_custom_derivative_for_midpoint_bound(self):
        dev = reduction_check("E9", f=get_entry("exp").func)
        assert dev <= REDUCTION_TOL

    def test_unknown_id_rejected(self):
        with pytest.raises(ConfigError):
            reduction_check("e1")
