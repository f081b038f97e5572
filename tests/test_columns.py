"""Columnar sweep rows: every block column equals the scalar closed form.

``evaluate_block`` takes each power once per grid row or point, in Python,
and the rest of each right-hand side, the margins and the verdicts as numpy
broadcasts. Each row must still equal, bit for bit and zero sign included,
a scalar evaluation of that row: the theorem table's ``rhs(prm, f)``, then
``rhs - lhs``, then ``>= floor``. A literal transcription of each closed
form below checks the table's forms themselves, so a power taken with
``np.power``, which differs from Python's ``**`` in the last bit on some
inputs, fails here wherever it sits.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle

import pytest

from fracineq.bounds import THEOREM_IDS, THEOREMS, InequalityReport, ReportRows
from fracineq.fracint import QuadratureConfig
from fracineq.funcatalog import get_entry
from fracineq.harness import SweepConfig, render_csv, render_json, run_sweep
from fracineq.specfun import ln_gamma

from at_point import one_lane

SMALL = SweepConfig(
    functions=("affine", "square"),
    alphas=(0.5, 1.0),
    s_values=(0.5, 1.0),
    pq_pairs=((2.0, 2.0),),
    x_points=3,
    theorems=THEOREM_IDS,
)

# q = 1 sends E8proof to the E6 form, and E7's (1 + p alpha)**(1/p) is
# inf**0 at p = inf; x sits on both ends of the interval; both sides of
# every constant-function row are 0
EDGE = SweepConfig(
    functions=("constant", "affine", "square", "pow150"),
    alphas=(0.5, 2.0),
    s_values=(0.5, 1.0),
    pq_pairs=((math.inf, 1.0), (2.0, 2.0)),
    x_points=(0.2, 0.45, 0.9),
    interval=(0.2, 0.9),
    theorems=THEOREM_IDS,
)

# irregular alphas, s, exponents and x, so that many distinct powers are taken
DENSE = SweepConfig(
    functions=("square", "pow150", "threehalf", "exp"),
    alphas=(0.3, 0.7, 1.3, 2.9),
    s_values=(0.35, 0.8, 1.0),
    pq_pairs=((2.0, 2.0), (3.0, 1.5), (1.25, 5.0)),
    x_points=(0.0, 0.037, 0.11, 0.2345, 0.3, 0.41, 0.5, 0.577, 0.68, 0.7491, 0.83, 0.9, 0.96, 1.0),
    theorems=THEOREM_IDS,
)


def _ratio(alpha, s):
    return math.exp(ln_gamma(alpha + 1.0) + ln_gamma(s + 1.0) - ln_gamma(alpha + s + 1.0))


def _thm1(m, a, b, x, alpha, s, p, q, f):
    powers = (x - a) ** (alpha + 1.0) + (b - x) ** (alpha + 1.0)
    return m / (b - a) * (1.0 + _ratio(alpha, s)) * powers / (alpha + s + 1.0)


def _thm3(m, a, b, x, alpha, s, p, q, f):
    if q == 1.0:
        return _thm1(m, a, b, x, alpha, s, p, q, f)
    powers = (x - a) ** (alpha + 1.0) + (b - x) ** (alpha + 1.0)
    inv_q = 1.0 / q
    return (
        m * (1.0 / (1.0 + alpha)) ** (1.0 - inv_q) * (1.0 / (alpha + s + 1.0)) ** inv_q
        * (1.0 + _ratio(alpha, s)) ** inv_q * powers / (b - a)
    )


def _pair(f, a, b, x, k):
    da = abs(float(f.deriv(0.5 * (x + a))))
    db = abs(float(f.deriv(0.5 * (b + x))))
    return (x - a) ** k * da + (b - x) ** k * db


def _squares(a, b, x):
    return (x - a) ** 2 + (b - x) ** 2


# the closed forms as the scalar code wrote them, one operation at a time
LITERAL = {
    "E6": _thm1,
    "E7": lambda m, a, b, x, alpha, s, p, q, f: (
        m / (1.0 + p * alpha) ** (1.0 / p) * (2.0 / (s + 1.0)) ** (1.0 / q)
        * ((x - a) ** (alpha + 1.0) + (b - x) ** (alpha + 1.0)) / (b - a)
    ),
    "E8proof": _thm3,
    "E9": lambda m, a, b, x, alpha, s, p, q, f: (
        2.0 ** ((s - 1.0) / q) / ((1.0 + p * alpha) ** (1.0 / p) * (b - a))
        * _pair(f, a, b, x, alpha + 1.0)
    ),
    "e1": lambda m, a, b, x, alpha, s, p, q, f: (
        m * (b - a) * (0.25 + ((x - 0.5 * (a + b)) / (b - a)) * ((x - 0.5 * (a + b)) / (b - a)))
    ),
    "e14": lambda m, a, b, x, alpha, s, p, q, f: (
        m * _squares(a, b, x) / ((b - a) * (s + 1.0))
    ),
    "t5_146": lambda m, a, b, x, alpha, s, p, q, f: (
        m * (2.0 / (s + 1.0)) ** (1.0 / q) * _squares(a, b, x) / (2.0 * (b - a))
    ),
    "t6_147": lambda m, a, b, x, alpha, s, p, q, f: (
        2.0 ** ((s - 1.0) / q) / ((1.0 + p) ** (1.0 / p) * (b - a)) * _pair(f, a, b, x, 2)
    ),
}


def _same(got, want) -> bool:
    """Equal as floats, with 0.0 and -0.0 told apart and NaN equal to NaN."""
    if math.isnan(got) or math.isnan(want):
        return math.isnan(got) and math.isnan(want)
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def _scalar_rows(cfg: SweepConfig, reports) -> list[tuple[float, float, float, bool]]:
    """Each row's (lhs, rhs, margin, holds), evaluated one row at a time."""
    qcfg = QuadratureConfig(rel_tol=cfg.quad_rel_tol, abs_tol=cfg.quad_abs_tol)
    a, b = cfg.interval
    means = {}
    out = []
    for r in reports:
        prm, f = r.prm, get_entry(r.function).func
        if r.theorem_id == "e13":
            if r.function not in means:
                means[r.function] = one_lane(f, a, b, 1.0, b - a, qcfg).value / (b - a)
            mean = means[r.function]
            if r.note.endswith("hh-lower"):
                lhs, rhs = float(2.0 ** (prm.s - 1.0) * float(f.eval(0.5 * (a + b)))), mean
            else:
                lhs, rhs = mean, float((float(f.eval(a)) + float(f.eval(b))) / (prm.s + 1.0))
        else:
            lhs = r.lhs  # the point's |identity LHS| or |f(x) - mean|
            rhs = THEOREMS[r.theorem_id].rhs(prm, f)
            literal = LITERAL[r.theorem_id](
                prm.M, prm.a, prm.b, prm.x, prm.alpha, prm.s, prm.p, prm.q, f
            )
            assert _same(literal, rhs), (r.theorem_id, r.function, prm)
        margin = rhs - lhs
        holds = margin >= -max(cfg.margin_tol, 10.0 * r.quad_error_budget)
        out.append((lhs, rhs, margin, holds))
    return out


@pytest.mark.parametrize("cfg", [SMALL, EDGE, DENSE], ids=["small", "edge", "dense"])
def test_columns_equal_the_scalar_closed_forms(cfg):
    reports = run_sweep(cfg).reports
    assert isinstance(reports, ReportRows)
    want = _scalar_rows(cfg, reports)
    got = [(r.lhs, r.rhs, r.margin, r.holds) for r in reports]
    mismatches = [
        (i, g, w) for i, (g, w) in enumerate(zip(got, want))
        if not all(map(_same, g[:3], w[:3])) or g[3] is not w[3]
    ]
    assert len(want) == len(reports) and not mismatches, mismatches[:5]


def test_edge_config_takes_the_edge_branches():
    reports = run_sweep(EDGE).reports
    e8_q1 = [r for r in reports if r.theorem_id == "E8proof" and r.prm.q == 1.0]
    assert e8_q1 and all(r.rhs == THEOREMS["E6"].rhs(r.prm) for r in e8_q1)
    e7_inf = [r for r in reports if r.theorem_id == "E7" and r.prm.p == math.inf]
    assert e7_inf and all(math.isfinite(r.rhs) for r in e7_inf)
    assert {r.prm.x for r in reports if r.theorem_id == "E6"} == {0.2, 0.45, 0.9}
    flat = [r for r in reports if r.function == "constant" and r.theorem_id != "e13"]
    assert flat and all(r.lhs == r.rhs == r.margin == 0.0 for r in flat)


@pytest.fixture(scope="module")
def small():
    return run_sweep(SMALL)


class TestReportRows:
    """``run_sweep``'s reports read as the list of reports they stand for."""

    def test_reads_as_its_list(self, small):
        rows = small.reports
        listed = list(rows)
        assert len(rows) == len(listed) == small.summary["total"]
        assert all(isinstance(r, InequalityReport) for r in listed)
        assert rows[0] == listed[0] and rows[-1] == listed[-1]
        assert rows[-len(rows)] == listed[0]
        assert rows[5:17] == listed[5:17] and rows[::-7] == listed[::-7]
        assert rows[len(rows):] == []
        assert list(reversed(rows)) == listed[::-1]
        assert rows.index(listed[9]) == 9 and listed[9] in rows
        for i in (len(rows), -len(rows) - 1):
            with pytest.raises(IndexError):
                rows[i]

    def test_equals_a_list_of_the_same_reports(self, small):
        rows = small.reports
        listed = list(rows)
        assert rows == listed and listed == rows and rows == rows
        edited = [*listed[:-1], dataclasses.replace(listed[-1], holds=not listed[-1].holds)]
        assert rows != edited and edited != rows
        assert rows != listed[:-1]
        assert rows != tuple(listed)

    def test_pickles_and_copies(self, small):
        rows = small.reports
        for clone in (pickle.loads(pickle.dumps(rows)), copy.deepcopy(rows)):
            assert isinstance(clone, ReportRows) and clone == rows
        res = pickle.loads(pickle.dumps(small))
        assert render_csv(res) == render_csv(small)

    def test_a_plain_list_writes_the_same_reports(self, small):
        # the writers read the blocks' columns, or each report of a list
        res = dataclasses.replace(small, reports=list(small.reports))
        assert not isinstance(res.reports, ReportRows)
        assert render_csv(res) == render_csv(small)
        assert render_json(res) == render_json(small)
