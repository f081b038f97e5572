"""Residual checks for the central identity, its halves, and the alpha=1 twin.

Independent routes: hand-evaluated closed forms at alpha = 1, and pieces
built from the brute-force midpoint oracle (1e6 panels) and closed forms.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from fracineq import fracint, harness
from fracineq.cli import main
from fracineq.errors import ConfigError, ConvergenceError, FracIneqError
from fracineq.fracint import Estimate, FracParams, oracle
from fracineq.funcatalog import Function1D, builtin_catalog, get_entry
from fracineq.identity import (
    ALPHA_ONE_MATCH_TOL,
    DEFAULT_IDENTITY_TOL,
    IdentityResidual,
    LemmaPieces,
    check_classical_lemma,
    check_e4_from_pieces,
    check_e5_from_pieces,
    compute_pieces_batch,
)

from fracineq.specfun import gamma, ln_gamma

from at_point import classical_at, one_lane, pieces_of

ALPHAS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)


def halves(f, prm):
    """The two one-sided residuals (r4, r5) at prm, from one set of pieces."""
    pieces = pieces_of(f, prm)
    return check_e4_from_pieces(pieces), check_e5_from_pieces(pieces)


class TestResidualRecord:
    def test_from_sides_fields(self):
        res = IdentityResidual.from_sides(2.0, 1.5, 0.25)
        assert res.residual == 0.5
        assert res.scale == 2.0
        assert res.rel_residual == 0.25
        assert res.quad_error_budget == 0.125

    def test_scale_floor_is_one(self):
        res = IdentityResidual.from_sides(1e-3, -1e-3, 0.0)
        assert res.scale == 1.0
        assert res.rel_residual == pytest.approx(2e-3)

    def test_pass_couples_to_budget(self):
        # residual 5e-9 with a 1e-9 budget: the 10x budget floor saves it
        res = IdentityResidual.from_sides(1.0, 1.0 + 5e-9, 1e-9)
        assert res.passes(1e-10)
        # same residual with a tiny budget: the strict tolerance rejects it
        res = IdentityResidual.from_sides(1.0, 1.0 + 5e-9, 1e-12)
        assert not res.passes(1e-10)
        assert res.passes(1e-8)


class TestFullIdentity:
    def test_constant_gives_zero_both_sides(self):
        f = get_entry("constant").func
        for alpha in (0.5, 1.0, 1.7):
            res = pieces_of(f, FracParams(0.0, 1.0, 0.3, alpha)).e1
            assert res.rel_residual <= 1e-13
            assert abs(res.rhs) <= 1e-13

    def test_affine_midpoint_symmetry(self):
        prm = FracParams(0.0, 1.0, 0.5, 1.0)
        res = pieces_of(get_entry("affine").func, prm).e1
        assert abs(res.lhs) <= 1e-14
        assert abs(res.rhs) <= 1e-14

    def test_square_half_order(self):
        prm = FracParams(0.0, 1.0, 0.5, 0.5)
        res = pieces_of(get_entry("square").func, prm).e1
        assert res.rel_residual <= 1e-8
        assert res.passes()

    def test_square_half_order_against_oracle_rule(self):
        # both sides rebuilt from the brute-force midpoint oracle (the operator
        # pair) and closed forms (the moments of f' = 2t) must agree with the
        # adaptive evaluation
        a, b, x, alpha = 0.0, 1.0, 0.5, 0.5
        f = get_entry("square").func
        fast = pieces_of(f, FracParams(a, b, x, alpha)).e1
        ginv = 1.0 / math.gamma(alpha)
        slow = LemmaPieces(
            a, b, x, alpha, x**2,
            Estimate(ginv * oracle(f, a, x, alpha, "lo"), 0.0),
            Estimate(ginv * oracle(f, x, b, alpha, "hi"), 0.0),
            Estimate(2.0 * x / (alpha + 2.0), 0.0),
            Estimate(2.0 * (x - 1.0) / (alpha + 2.0) + 2.0 / (alpha + 1.0), 0.0),
        ).e1
        assert fast.lhs == pytest.approx(slow.lhs, rel=1e-8, abs=1e-10)
        assert fast.rhs == pytest.approx(slow.rhs, rel=1e-8, abs=1e-10)
        assert slow.passes()

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_catalog_grid_passes(self, alpha):
        for entry in builtin_catalog():
            for x in np.linspace(0.0, 1.0, 7):
                prm = FracParams(0.0, 1.0, float(x), alpha)
                res = pieces_of(entry.func, prm).e1
                assert res.passes(DEFAULT_IDENTITY_TOL), (
                    f"{entry.name} alpha={alpha} x={x}: rel={res.rel_residual}"
                )

    def test_endpoints_degenerate_consistently(self):
        # at x=a the toward-a terms vanish by convention; identity still holds
        f = get_entry("exp").func
        for x in (0.0, 1.0):
            res = pieces_of(f, FracParams(0.0, 1.0, x, 0.5)).e1
            assert res.passes()

    def test_off_unit_interval(self):
        f = Function1D(
            "wide", lambda t: np.asarray(t) ** 2, lambda t: 2.0 * np.asarray(t), -3.0, 5.0
        )
        res = pieces_of(f, FracParams(-2.0, 4.0, 1.0, 0.75)).e1
        assert res.passes()


class TestHalves:
    def test_constant_both_sides_zero(self):
        r4, r5 = halves(get_entry("constant").func, FracParams(0.0, 1.0, 0.5, 1.0))
        assert abs(r4.lhs) <= 1e-14 and abs(r4.rhs) <= 1e-14
        assert abs(r5.lhs) <= 1e-14 and abs(r5.rhs) <= 1e-14

    def test_affine_hand_values(self):
        # operator side (x-a)^a f(x)/(b-a) - Gamma(2) Jm /(b-a) = 0.25 - 0.125
        # and moment side 0.25 * integral_0^1 t dt both equal 0.125
        r4, r5 = halves(get_entry("affine").func, FracParams(0.0, 1.0, 0.5, 1.0))
        assert r4.lhs == pytest.approx(0.125, rel=1e-12)
        assert r4.rhs == pytest.approx(0.125, rel=1e-12)
        assert r5.rel_residual <= 1e-12

    def test_exponential_fractional(self):
        r4, r5 = halves(get_entry("exp").func, FracParams(0.0, 1.0, 0.3, 0.75))
        assert r4.rel_residual <= 1e-8
        assert r5.rel_residual <= 1e-8

    def test_requires_strict_interior(self, capsys):
        # check-identity --halves checks the halves only at a < x < b; the
        # endpoints get the full identity alone
        argv = ["check-identity", "--function", "square", "--alpha", "0.5",
                "--x", "0", "0.5", "1", "--halves"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines[:-1]] == [
            "square alpha=0.5 x=0",
            "square alpha=0.5 x=0.5",
            "  square alpha=0.5 x=0.5 half-a",
            "  square alpha=0.5 x=0.5 half-b",
            "square alpha=0.5 x=1",
        ]
        assert lines[-1] == "5 identity checks, 0 failures"

    @pytest.mark.parametrize("fname", ["square", "exp", "threehalf"])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_full_residual_is_difference_of_halves(self, fname, alpha):
        # r1 = r4 - r5 up to regrouping of the shared quadrature values
        f = get_entry(fname).func
        prm = FracParams(0.0, 1.0, 0.375, alpha)
        pieces = pieces_of(f, prm)
        r1 = pieces.e1
        r4 = check_e4_from_pieces(pieces)
        r5 = check_e5_from_pieces(pieces)
        slack = 1e-12 * max(r1.scale, r4.scale, r5.scale)
        assert abs(r1.residual - (r4.residual - r5.residual)) <= slack


class TestClassicalLemma:
    def test_square_hand_value(self):
        # f(x) - mean = 1/4 - 1/3 = -1/12
        res = classical_at(get_entry("square").func, 0.0, 1.0, 0.5)
        assert res.lhs == pytest.approx(-1.0 / 12.0, rel=1e-10)
        assert res.passes()

    def test_constant_trivial(self):
        res = classical_at(get_entry("constant").func, 0.0, 1.0, 0.25)
        assert abs(res.lhs) <= 1e-13
        assert abs(res.rhs) <= 1e-13

    def test_affine_at_left_endpoint(self):
        # f(t)=t at x=a: lhs = a - (a+b)/2 = -(b-a)/2, single surviving term
        res = classical_at(get_entry("affine").func, 0.0, 1.0, 0.0)
        assert res.lhs == pytest.approx(-0.5, rel=1e-12)
        assert res.rhs == pytest.approx(-0.5, rel=1e-12)

    @pytest.mark.parametrize("x", [0.1, 0.5, 0.9])
    def test_agrees_with_alpha_one_specialization(self, x):
        # the cross-assertion inside check_classical_lemma enforces the
        # 1e-12 match; verify it externally as well
        f = get_entry("exp").func
        classical = classical_at(f, 0.0, 1.0, x)
        fractional = pieces_of(f, FracParams(0.0, 1.0, x, 1.0)).e1
        tol = ALPHA_ONE_MATCH_TOL * max(classical.scale, fractional.scale)
        assert abs(classical.lhs - fractional.lhs) <= tol
        assert abs(classical.rhs - fractional.rhs) <= tol

    def test_all_catalog_functions_pass(self):
        for entry in builtin_catalog():
            res = classical_at(entry.func, 0.0, 1.0, 0.7)
            assert res.passes(), f"{entry.name}: rel={res.rel_residual}"

    def test_inconsistent_derivative_fails_residual(self):
        # a Function1D whose deriv lies about eval breaks the identity: both
        # routes agree with each other but the residual itself must FAIL
        liar = Function1D(
            "liar",
            lambda t: np.asarray(t, dtype=float) ** 2,
            lambda t: np.cos(np.asarray(t, dtype=float)),
            0.0,
            1.0,
        )
        res = classical_at(liar, 0.0, 1.0, 0.5)
        assert not res.passes()

    def test_twin_pieces_from_a_batch(self):
        # batch pieces give the one-x twin's result; pieces of another
        # point are refused rather than cross-checked against
        f = get_entry("exp").func
        xs = (0.0, 0.3, 1.0)
        cols = compute_pieces_batch(((f, 1.0),), 0.0, 1.0, xs, plain=[(f, x, 1.0) for x in xs])
        for x, pieces, ir in zip(xs, cols[0], cols.plain):
            assert check_classical_lemma(f, 0.0, 1.0, x, pieces, ir) == (
                classical_at(f, 0.0, 1.0, x)
            )
        with pytest.raises(ConfigError, match="twin pieces"):
            check_classical_lemma(f, 0.0, 1.0, 0.3, cols[0][0], cols.plain[1])
        ((half,),) = compute_pieces_batch(((f, 0.5),), 0.0, 1.0, (0.3,))
        with pytest.raises(ConfigError, match="twin pieces"):
            check_classical_lemma(f, 0.0, 1.0, 0.3, half, cols.plain[1])

    def test_an_empty_segment_gives_zero_and_runs_no_lane(self):
        # [b, b] is +0.0 bit for bit where f(b) < 0; a lane scaled by 0.0 gives -0.0
        neg = Function1D("neg", lambda t: -np.exp(t), lambda t: -np.exp(t), 0.0, 1.0)
        cols = compute_pieces_batch(((neg, 1.0),), 0.0, 1.0, (1.0,), plain=[(neg, 1.0, 1.0)])
        assert [v.hex() for v in cols.plain[0]] == [(0.0).hex()] * 2

    def test_route_disagreement_raises(self, monkeypatch):
        # skew the operator-route twin; the cross-assertion must detect it
        import fracineq.identity as ident

        real = ident.check_e1

        def skewed(cols):
            res = real(cols)
            return ident.ResidualColumns(*ident._residual_fields(
                res.lhs + 1e-6, res.rhs, res.quad_error_budget * res.scale
            ))

        monkeypatch.setattr(ident, "check_e1", skewed)
        with pytest.raises(FracIneqError):
            classical_at(get_entry("exp").func, 0.0, 1.0, 0.5)

    @pytest.mark.parametrize("entry", builtin_catalog(), ids=lambda e: e.name)
    def test_twin_pieces_hold_the_plain_route_integrals(self, entry):
        # the alpha = 1 pieces' ia and ib are the moment integrals of f',
        # and jm is the plain integral of f over [a, x], bit for bit
        f = entry.func
        a, b = f.domain_lo, f.domain_hi
        for x in (a, a + 0.3 * (b - a), 0.5 * (a + b), a + 0.7 * (b - a), b):
            pieces = pieces_of(f, FracParams(a, b, x, 1.0))
            assert pieces.ia == one_lane(f.deriv, a, x, 2.0), x
            assert pieces.ib == one_lane(f.deriv, b, x, 2.0), x
            assert pieces.jm == (one_lane(f, a, x, 1.0, x - a) if x > a else (0.0, 0.0)), x

    def test_shares_the_twins_moment_integrals(self, monkeypatch, capsys):
        # the moment integrals and the plain integral over [a, x] are the
        # twin pieces' ia, ib and jm, and the plain lanes over [x, b] join
        # them: one batch for the alpha = 0.5 grid, its alpha = 1 twins and
        # the 5 segments
        calls = []
        real = fracint._integrate

        def counted(sets, cfg):
            calls.append(len(sets))
            return real(sets, cfg)

        monkeypatch.setattr(fracint, "_integrate", counted)
        args = ["check-identity", "--function", "exp", "--alpha", "0.5", "--x-count", "5",
                "--classical"]
        assert main(args) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out.endswith("10 identity checks, 0 failures\n")


@pytest.mark.parametrize("entry", builtin_catalog(), ids=lambda e: e.name)
def test_grid_pieces_equal_one_x_pieces_bit_for_bit(entry):
    # all x of one (function, alpha) share a batch; no x may feel the others
    xs = tuple(float(v) for v in np.linspace(0.0, 1.0, 11))
    for alpha in (0.25, 1.0, 2.0):
        (grid,) = compute_pieces_batch(((entry.func, alpha),), 0.0, 1.0, xs)
        for x, pieces in zip(xs, grid):
            alone = pieces_of(entry.func, FracParams(0.0, 1.0, x, alpha))
            bits = [
                v.hex() for p in (pieces, alone)
                for e in (p.jm, p.jp, p.ia, p.ib) for v in e
            ]
            assert bits[:8] == bits[8:], (alpha, x)
            assert pieces == alone


def _bits(outcomes):
    return [
        str(p) if isinstance(p, ConvergenceError)
        else [v.hex() for e in (p.jm, p.jp, p.ia, p.ib) for v in e]
        for p in outcomes
    ]


class TestPiecesBatch:
    XS = tuple(float(v) for v in np.linspace(0.0, 1.0, 11))  # x = a and x = b included

    def test_batch_equals_per_job_pieces_bit_for_bit(self):
        jobs = [(e.func, alpha) for e in builtin_catalog() for alpha in (0.25, 1.0, 2.0)]
        batch = compute_pieces_batch(jobs, 0.0, 1.0, self.XS)
        assert len(batch) == len(jobs)
        for (f, alpha), got in zip(jobs, batch):
            (want,) = compute_pieces_batch(((f, alpha),), 0.0, 1.0, self.XS)
            assert _bits(got) == _bits(want), (f.name, alpha)
            assert got == want

    def test_a_nan_job_fails_its_own_points_only(self):
        broken = Function1D(
            "nan-past-half",
            lambda t: np.where(np.asarray(t) > 0.5, np.nan, t),
            lambda t: np.ones_like(np.asarray(t, dtype=float)),
            0.0,
            1.0,
        )
        good = [(get_entry("exp").func, 0.5), (get_entry("square").func, 2.0)]
        batch = compute_pieces_batch([good[0], (broken, 0.5), good[1]], 0.0, 1.0, self.XS)
        assert all(
            isinstance(p, ConvergenceError) and "not finite" in str(p) for p in batch[1]
        )
        for (f, alpha), got in zip(good, (batch[0], batch[2])):
            (want,) = compute_pieces_batch(((f, alpha),), 0.0, 1.0, self.XS)
            assert _bits(got) == _bits(want)
            assert not any(isinstance(p, ConvergenceError) for p in got)

    def test_default_grid_in_one_batch_does_the_same_work_in_fewer_rounds(
        self, monkeypatch
    ):
        # the default sweep's 54 jobs: 6,212 qk21 intervals (130,452
        # integrand evaluations) either way; one batch takes as many rounds
        # as its slowest job (26), where one batch per job takes 522 in total
        counts = []
        real = fracint._qk21

        def counted(fn, lane, lo, hi):
            counts[-1][0] += 1
            counts[-1][1] += lane.size
            return real(fn, lane, lo, hi)

        def work(call, *args):
            counts.append([0, 0])  # qk21 rounds, intervals
            call(*args)
            return counts[-1]

        monkeypatch.setattr(fracint, "_qk21", counted)
        jobs = [(e.func, alpha) for e in builtin_catalog() for alpha in ALPHAS]
        per_job = [work(compute_pieces_batch, ((f, alpha),), 0.0, 1.0, self.XS) for f, alpha in jobs]
        rounds, intervals = work(compute_pieces_batch, jobs, 0.0, 1.0, self.XS)
        assert sum(r for r, _ in per_job) == 522
        assert sum(n for _, n in per_job) == intervals == 6_212
        assert 21 * intervals == 130_452
        assert rounds == max(r for r, _ in per_job) == 26

    def test_default_sweep_builds_one_lane_set_per_integrand(self, monkeypatch):
        # one set per distinct callable, f for the operator lanes and f' for
        # the moment lanes, whatever the alpha: 17 for the 9 functions
        # (constant's f is affine's f'), where one set per (function, alpha)
        # and lane kind made 108
        built = []
        real = fracint._lanes

        def counted(h, start, end, beta):
            built.append((h, len(start)))
            return real(h, start, end, beta)

        monkeypatch.setattr(fracint, "_lanes", counted)
        cfg = harness.default_config()
        harness.run_sweep(cfg)
        funcs = [get_entry(name).func for name in cfg.functions]
        integrands = {h for f in funcs for h in (f.eval, f.deriv)}
        assert len(built) == len({h for h, _ in built}) == len(integrands) <= 18
        # per x and alpha both moments, and the operator pair but for jm at
        # x = a and jp at x = b
        assert sum(n for _, n in built) == len(funcs) * len(cfg.alphas) * (4 * 11 - 2)


def _scalar_point(p: LemmaPieces, identity_tol: float):
    """One point's full identity, |LHS| and budgets in Python floats, one
    operation at a time: (IdentityResidual's six fields, passes, |LHS|, its
    budget)."""
    a, b, x, alpha = p.a, p.b, p.x, p.alpha
    width = b - a
    ga1 = gamma(alpha + 1.0)
    wa, wb = (x - a) ** alpha, (b - x) ** alpha
    ka, kb = (x - a) ** (alpha + 1.0) / width, (b - x) ** (alpha + 1.0) / width
    lhs = (wa + wb) / width * p.fx - ga1 / width * (p.jm.value + p.jp.value)
    rhs = ka * p.ia.value - kb * p.ib.value
    budget = ga1 / width * (p.jm.error + p.jp.error) + ka * p.ia.error + kb * p.ib.error
    scale = max(1.0, abs(lhs), abs(rhs))
    residual = lhs - rhs
    fields = (lhs, rhs, residual, scale, abs(residual) / scale, budget / scale)
    passes = fields[4] <= max(identity_tol, 10.0 * fields[5])
    lhs_budget = math.exp(ln_gamma(alpha + 1.0)) * ((p.jm.error + p.jp.error) / width)
    return fields, passes, abs(lhs), lhs_budget


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("interval", [(0.0, 1.0), (0.1, 0.7)])
def test_sweep_columns_equal_a_scalar_evaluation_bit_for_bit(interval):
    # the residual records and every row's |LHS| and budget, from the sweep's
    # columns, against the identity evaluated in Python floats from the
    # point's own pieces; x = a and x = b leave one operator term empty, and
    # alpha spans the engine's range
    a, b = interval
    cfg = harness.SweepConfig(
        functions=("square", "pow150", "exp"), alphas=(1e-4, 0.5, 140.0),
        x_points=(a, a + 0.37 * (b - a), b), interval=interval, s_values=(1.0,),
        pq_pairs=((2.0, 2.0),), theorems=("E6", "E9"),
    )
    res = harness.run_sweep(cfg)
    cols = harness.identity_pass(cfg)
    want = {}
    for j, outcomes in enumerate(cols):
        name = cfg.functions[j // len(cfg.alphas)]
        for pieces in outcomes:
            want[name, pieces.alpha, pieces.x] = _scalar_point(pieces, cfg.identity_tol)
            fields, _, value, error = want[name, pieces.alpha, pieces.x]
            assert _hex(dataclasses.astuple(pieces.e1)) == _hex(fields)
            assert _hex(pieces.abs_lhs) == _hex((value, error))
    assert len(want) == len(res.residuals) == 27
    for rec in res.residuals:
        fields, passes, _, _ = want[rec.function, rec.alpha, rec.x]
        assert _hex(dataclasses.astuple(rec.residual)) == _hex(fields), rec
        assert rec.passed is passes
    assert len(res.reports) == 2 * 27
    for r in res.reports:
        _, _, value, error = want[r.function, r.prm.alpha, r.prm.x]
        assert _hex((r.lhs, r.quad_error_budget)) == _hex((value, error)), r
