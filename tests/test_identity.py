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
from fracineq.errors import ConfigError, ConvergenceError, DomainError, FracIneqError
from fracineq.fracint import Estimate, FracParams, oracle
from fracineq.funcatalog import Function1D, builtin_catalog, get_entry
from fracineq.identity import (
    ALPHA_ONE_MATCH_TOL,
    DEFAULT_IDENTITY_TOL,
    ResidualColumns,
    _residual_fields,
    check_classical,
    check_e1,
    check_halves,
    compute_pieces_batch,
)

from fracineq.specfun import gamma, ln_gamma

from at_point import (
    abs_lhs_of,
    classical_at,
    e1_of,
    estimates,
    one_lane,
    pieces_of,
    point_columns,
)

ALPHAS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)


def halves(f, prm):
    """The two one-sided residuals (r4, r5) at prm, from one set of pieces."""
    return tuple(half.at(0, 0) for half in check_halves(pieces_of(f, prm)))


def sides(lhs, rhs, abs_error) -> ResidualColumns:
    """One point's residual columns of the given sides and error."""
    return ResidualColumns(*_residual_fields(*(np.array([[v]]) for v in (lhs, rhs, abs_error))))


class TestResidualRecord:
    def test_residual_fields(self):
        res = sides(2.0, 1.5, 0.25).at(0, 0)
        assert res.residual == 0.5
        assert res.scale == 2.0
        assert res.rel_residual == 0.25
        assert res.quad_error_budget == 0.125

    def test_scale_floor_is_one(self):
        res = sides(1e-3, -1e-3, 0.0).at(0, 0)
        assert res.scale == 1.0
        assert res.rel_residual == pytest.approx(2e-3)

    def test_pass_couples_to_budget(self):
        # residual 5e-9 with a 1e-9 budget: the 10x budget floor saves it
        cols = sides(1.0, 1.0 + 5e-9, 1e-9)
        assert cols.at(0, 0).passes(1e-10) and cols.passes(1e-10)[0, 0]
        # same residual with a tiny budget: the strict tolerance rejects it
        cols = sides(1.0, 1.0 + 5e-9, 1e-12)
        assert not cols.at(0, 0).passes(1e-10) and not cols.passes(1e-10)[0, 0]
        assert cols.at(0, 0).passes(1e-8) and cols.passes(1e-8)[0, 0]


class TestFullIdentity:
    def test_constant_gives_zero_both_sides(self):
        f = get_entry("constant").func
        for alpha in (0.5, 1.0, 1.7):
            res = e1_of(pieces_of(f, FracParams(0.0, 1.0, 0.3, alpha)))
            assert res.rel_residual <= 1e-13
            assert abs(res.rhs) <= 1e-13

    def test_affine_midpoint_symmetry(self):
        prm = FracParams(0.0, 1.0, 0.5, 1.0)
        res = e1_of(pieces_of(get_entry("affine").func, prm))
        assert abs(res.lhs) <= 1e-14
        assert abs(res.rhs) <= 1e-14

    def test_square_half_order(self):
        prm = FracParams(0.0, 1.0, 0.5, 0.5)
        res = e1_of(pieces_of(get_entry("square").func, prm))
        assert res.rel_residual <= 1e-8
        assert res.passes()

    def test_square_half_order_against_oracle_rule(self):
        # both sides rebuilt from the brute-force midpoint oracle (the operator
        # pair) and closed forms (the moments of f' = 2t) must agree with the
        # adaptive evaluation
        a, b, x, alpha = 0.0, 1.0, 0.5, 0.5
        f = get_entry("square").func
        fast = e1_of(pieces_of(f, FracParams(a, b, x, alpha)))
        ginv = 1.0 / math.gamma(alpha)
        slow = e1_of(point_columns(
            a, b, x, alpha, x**2,
            Estimate(ginv * oracle(f, a, x, alpha, "lo"), 0.0),
            Estimate(ginv * oracle(f, x, b, alpha, "hi"), 0.0),
            Estimate(2.0 * x / (alpha + 2.0), 0.0),
            Estimate(2.0 * (x - 1.0) / (alpha + 2.0) + 2.0 / (alpha + 1.0), 0.0),
        ))
        assert fast.lhs == pytest.approx(slow.lhs, rel=1e-8, abs=1e-10)
        assert fast.rhs == pytest.approx(slow.rhs, rel=1e-8, abs=1e-10)
        assert slow.passes()

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_catalog_grid_passes(self, alpha):
        for entry in builtin_catalog():
            for x in np.linspace(0.0, 1.0, 7):
                prm = FracParams(0.0, 1.0, float(x), alpha)
                res = e1_of(pieces_of(entry.func, prm))
                assert res.passes(DEFAULT_IDENTITY_TOL), (
                    f"{entry.name} alpha={alpha} x={x}: rel={res.rel_residual}"
                )

    def test_endpoints_degenerate_consistently(self):
        # at x=a the toward-a terms vanish by convention; identity still holds
        f = get_entry("exp").func
        for x in (0.0, 1.0):
            res = e1_of(pieces_of(f, FracParams(0.0, 1.0, x, 0.5)))
            assert res.passes()

    def test_off_unit_interval(self):
        f = Function1D(
            "wide", lambda t: np.asarray(t) ** 2, lambda t: 2.0 * np.asarray(t), -3.0, 5.0
        )
        res = e1_of(pieces_of(f, FracParams(-2.0, 4.0, 1.0, 0.75)))
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
        r1 = e1_of(pieces_of(f, prm))
        r4, r5 = halves(f, prm)
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
        # the cross-assertion inside check_classical enforces the
        # 1e-12 match; verify it externally as well
        f = get_entry("exp").func
        classical = classical_at(f, 0.0, 1.0, x)
        fractional = e1_of(pieces_of(f, FracParams(0.0, 1.0, x, 1.0)))
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
        # a batch's alpha = 1 job, wherever it stands, and its [x, b]
        # segments give each x the one-x twin's result; a batch without an
        # alpha = 1 job, or without one [x, b] segment per x, is refused
        # rather than cross-checked against
        f = get_entry("exp").func
        xs = (0.0, 0.3, 1.0)
        segments = [(f, x, 1.0) for x in xs]
        cols = compute_pieces_batch(((f, 0.5), (f, 1.0)), 0.0, 1.0, xs, plain=segments)
        res = check_classical(cols, f.name)
        for i, x in enumerate(xs):
            assert res.at(0, i) == classical_at(f, 0.0, 1.0, x)
        half = compute_pieces_batch(((f, 0.5),), 0.0, 1.0, xs, plain=segments)
        with pytest.raises(ConfigError, match="needs an alpha = 1 job"):
            check_classical(half, f.name)
        short = compute_pieces_batch(((f, 1.0),), 0.0, 1.0, xs, plain=segments[1:2])
        with pytest.raises(ConfigError, match=r"one \[x, b\] segment per x"):
            check_classical(short, f.name)

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
        with pytest.raises(FracIneqError, match=r"specialization for exp at x=0\.5: lhs "):
            classical_at(get_entry("exp").func, 0.0, 1.0, 0.5)

    @pytest.mark.parametrize("entry", builtin_catalog(), ids=lambda e: e.name)
    def test_twin_pieces_hold_the_plain_route_integrals(self, entry):
        # the alpha = 1 pieces' ia and ib are the moment integrals of f',
        # and jm is the plain integral of f over [a, x], bit for bit
        f = entry.func
        a, b = f.domain_lo, f.domain_hi
        for x in (a, a + 0.3 * (b - a), 0.5 * (a + b), a + 0.7 * (b - a), b):
            jm, _, ia, ib = estimates(pieces_of(f, FracParams(a, b, x, 1.0)))
            assert ia == one_lane(f.deriv, a, x, 2.0), x
            assert ib == one_lane(f.deriv, b, x, 2.0), x
            assert jm == (one_lane(f, a, x, 1.0, x - a) if x > a else (0.0, 0.0)), x

    def test_shares_the_twins_moment_integrals(self, monkeypatch, capsys):
        # the moment integrals and the plain integral over [a, x] are the
        # twin pieces' ia, ib and jm, and the plain lanes over [x, b] join
        # them: one batch for the alpha = 0.5 grid, its alpha = 1 twins and
        # the 5 segments; f(x) is the batch's, so f is evaluated on arrays
        # alone, once at the x and once by its one converged lane round
        calls = []
        real = fracint._integrate

        def counted(sets, cfg):
            calls.append(len(sets))
            return real(sets, cfg)

        f = get_entry("exp").func
        evals = {"scalar": 0, "array": 0}
        real_eval = f.eval

        def counted_eval(t):
            evals["array" if np.ndim(t) else "scalar"] += 1
            return real_eval(t)

        monkeypatch.setattr(fracint, "_integrate", counted)
        monkeypatch.setitem(f.__dict__, "eval", counted_eval)  # a frozen dataclass's field
        args = ["check-identity", "--function", "exp", "--alpha", "0.5", "--x-count", "5",
                "--classical"]
        assert main(args) == 0
        assert len(calls) == 1
        assert evals == {"scalar": 0, "array": 2}
        assert capsys.readouterr().out.endswith("10 identity checks, 0 failures\n")


def _point(cols, j, i):
    """Job j's i-th point of ``cols``: its alpha, x, f(x), powers and pieces."""
    return (cols.alphas[j], cols.xs[i], float(cols.fx[j, i]), *cols.powers[:, j, i].tolist(),
            *estimates(cols, j, i))


@pytest.mark.parametrize("entry", builtin_catalog(), ids=lambda e: e.name)
def test_grid_pieces_equal_one_x_pieces_bit_for_bit(entry):
    # all x of one (function, alpha) share a batch; no x may feel the others
    xs = tuple(float(v) for v in np.linspace(0.0, 1.0, 11))
    for alpha in (0.25, 1.0, 2.0):
        grid = compute_pieces_batch(((entry.func, alpha),), 0.0, 1.0, xs)
        for i, x in enumerate(xs):
            alone = pieces_of(entry.func, FracParams(0.0, 1.0, x, alpha))
            bits = [v.hex() for p in (estimates(grid, 0, i), estimates(alone)) for e in p for v in e]
            assert bits[:8] == bits[8:], (alpha, x)
            assert _point(grid, 0, i) == _point(alone, 0, 0)


def _bits(cols, j):
    """Job j's pieces at each x as hex texts, or its ConvergenceError's text."""
    return [
        str(cols.failed[j, i]) if (j, i) in cols.failed
        else [v.hex() for e in estimates(cols, j, i) for v in e]
        for i in range(len(cols.xs))
    ]


class TestPiecesBatch:
    XS = tuple(float(v) for v in np.linspace(0.0, 1.0, 11))  # x = a and x = b included

    def test_batch_equals_per_job_pieces_bit_for_bit(self):
        jobs = [(e.func, alpha) for e in builtin_catalog() for alpha in (0.25, 1.0, 2.0)]
        batch = compute_pieces_batch(jobs, 0.0, 1.0, self.XS)
        assert batch.alphas == tuple(alpha for _, alpha in jobs)
        for j, (f, alpha) in enumerate(jobs):
            want = compute_pieces_batch(((f, alpha),), 0.0, 1.0, self.XS)
            assert _bits(batch, j) == _bits(want, 0), (f.name, alpha)
            assert [_point(batch, j, i) for i in range(len(self.XS))] == [
                _point(want, 0, i) for i in range(len(self.XS))
            ]

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
            isinstance(batch.failed.get((1, i)), ConvergenceError)
            and "not finite" in str(batch.failed[1, i]) for i in range(len(self.XS))
        )
        for j, (f, alpha) in zip((0, 2), good):
            want = compute_pieces_batch(((f, alpha),), 0.0, 1.0, self.XS)
            assert _bits(batch, j) == _bits(want, 0)
            assert not any((j, i) in batch.failed for i in range(len(self.XS)))

    @pytest.mark.parametrize("segment, error, match", [
        (("pow150", 0.5, 2.0), ConfigError, r"^plain: must lie in \[0.0, 1.0\], got 2.0$"),
        (("pow150", -1.0, 0.5), ConfigError, r"^plain: must lie in \[0.0, 1.0\], got -1.0$"),
        (("pow150", 0.7, 0.2), ConfigError, r"^plain: need lo <= hi, got \[0.7, 0.2\]$"),
        ((Function1D("narrow", np.exp, np.exp, 0.0, 0.4), 0.2, 0.6), DomainError,
         r"^plain: \[0.2, 0.6\] is outside the domain of narrow \(\[0.0, 0.4\]\)$"),
    ], ids=["past-b", "before-a", "reversed", "outside-its-domain"])
    def test_plain_segments_are_refused_before_any_lane_runs(
        self, segment, error, match, monkeypatch
    ):
        # a segment past b ran outside pow150's domain, one before a met
        # numpy's invalid power, and a reversed one gave a negative integral
        f, lo, hi = segment
        f = get_entry(f).func if isinstance(f, str) else f
        pow150 = get_entry("pow150").func
        monkeypatch.setattr(fracint, "_integrate", lambda *args: pytest.fail("a lane ran"))
        with np.errstate(all="raise"), pytest.raises(error, match=match):
            compute_pieces_batch(((pow150, 0.5),), 0.0, 1.0, (0.5,), plain=[(f, lo, hi)])

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


def _fields(lhs, rhs, budget):
    """``IdentityResidual``'s six fields of the given sides and budget."""
    scale = max(1.0, abs(lhs), abs(rhs))
    residual = lhs - rhs
    return lhs, rhs, residual, scale, abs(residual) / scale, budget / scale


def _scalar_point(cols, j, i, identity_tol: float):
    """Job j's i-th point of ``cols``: its full identity, |LHS| and budgets,
    and its two halves, in Python floats, one operation at a time:
    (IdentityResidual's six fields, passes, |LHS|, its budget, the half
    toward a's six fields, the half toward b's)."""
    a, b, x, alpha = cols.a, cols.b, cols.xs[i], cols.alphas[j]
    fx = float(cols.fx[j, i])
    jm, jp, ia, ib = estimates(cols, j, i)
    width = b - a
    ga1 = gamma(alpha + 1.0)
    wa, wb = (x - a) ** alpha, (b - x) ** alpha
    ka, kb = (x - a) ** (alpha + 1.0) / width, (b - x) ** (alpha + 1.0) / width
    fields = _fields((wa + wb) / width * fx - ga1 / width * (jm.value + jp.value),
                     ka * ia.value - kb * ib.value,
                     ga1 / width * (jm.error + jp.error) + ka * ia.error + kb * ib.error)
    passes = fields[4] <= max(identity_tol, 10.0 * fields[5])
    lhs_budget = math.exp(ln_gamma(alpha + 1.0)) * ((jm.error + jp.error) / width)
    half_a = _fields(wa * fx / width - ga1 / width * jm.value, ka * ia.value,
                     ka * ia.error + ga1 / width * jm.error)
    half_b = _fields(-wb * fx / width + ga1 / width * jp.value, kb * ib.value,
                     kb * ib.error + ga1 / width * jp.error)
    return fields, passes, abs(fields[0]), lhs_budget, half_a, half_b


def _scalar_classical(f, cols, i):
    """The classical identity's six fields at the i-th x of ``cols``, from
    its alpha = 1 job and its i-th plain segment, [x, b], in Python floats,
    one operation at a time, with f(x) from a scalar ``f.eval``."""
    a, b, x = cols.a, cols.b, cols.xs[i]
    il, _, ia, ib = estimates(cols, cols.alphas.index(1.0), i)
    ir = cols.plain[i]
    width = b - a
    fx = float(f.eval(x))
    lhs = fx - (il.value + ir.value) / width
    rhs = (x - a) ** 2 / width * ia.value - (b - x) ** 2 / width * ib.value
    budget = (
        (il.error + ir.error) / width
        + (x - a) ** 2 / width * ia.error
        + (b - x) ** 2 / width * ib.error
    )
    return _fields(lhs, rhs, budget)


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
    for j, alpha in enumerate(cols.alphas):
        name = cfg.functions[j // len(cfg.alphas)]
        for i, x in enumerate(cols.xs):
            want[name, alpha, x] = _scalar_point(cols, j, i, cfg.identity_tol)
            fields, _, value, error, _, _ = want[name, alpha, x]
            assert _hex(dataclasses.astuple(e1_of(cols, j, i))) == _hex(fields)
            assert _hex(abs_lhs_of(cols, j, i)) == _hex((value, error))
    assert len(want) == len(res.residuals) == 27
    for rec in res.residuals:
        fields, passes, _, _, _, _ = want[rec.function, rec.alpha, rec.x]
        assert _hex(dataclasses.astuple(rec.residual)) == _hex(fields), rec
        assert rec.passed is passes
    assert len(res.reports) == 2 * 27
    for r in res.reports:
        _, _, value, error, _, _ = want[r.function, r.prm.alpha, r.prm.x]
        assert _hex((r.lhs, r.quad_error_budget)) == _hex((value, error)), r


@pytest.mark.parametrize("interval", [(0.0, 1.0), (0.1, 0.7)])
def test_halves_and_classical_columns_equal_a_scalar_evaluation_bit_for_bit(interval):
    # one batch per function, with an alpha = 1 job among alpha 1e-4 to 140
    # and an [x, b] segment per x; x = a and x = b leave one operator term
    # of each half and of the classical form empty
    a, b = interval
    xs = (a, a + 0.37 * (b - a), b)
    for name in ("square", "pow150", "exp"):
        f = get_entry(name).func
        cols = compute_pieces_batch([(f, alpha) for alpha in (1e-4, 0.5, 1.0, 2.0, 140.0)],
                                    a, b, xs, plain=[(f, x, b) for x in xs])
        e1, (half_a, half_b) = check_e1(cols), check_halves(cols)
        classical = check_classical(cols, name)
        for j, alpha in enumerate(cols.alphas):
            for i, x in enumerate(xs):
                fields, _, _, _, toward_a, toward_b = _scalar_point(cols, j, i, DEFAULT_IDENTITY_TOL)
                assert _hex(dataclasses.astuple(e1.at(j, i))) == _hex(fields), (name, alpha, x)
                assert _hex(dataclasses.astuple(half_a.at(j, i))) == _hex(toward_a), (name, alpha, x)
                assert _hex(dataclasses.astuple(half_b.at(j, i))) == _hex(toward_b), (name, alpha, x)
        for i, x in enumerate(xs):
            assert _hex(dataclasses.astuple(classical.at(0, i))) == _hex(
                _scalar_classical(f, cols, i)), (name, x)
