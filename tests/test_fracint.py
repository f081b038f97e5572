"""Weighted-endpoint integral engine: closed forms, the oracle, error paths.

Closed-form oracles come from the power rule
Gamma(beta+1)/Gamma(alpha+beta+1) * (x-a)**(alpha+beta) with stdlib
math.gamma, so none of the expectations depend on the package's own
special-function kernels.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import hyp1f1

from fracineq import fracint
from fracineq.errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    EmptyIntervalError,
)
from fracineq.fracint import (
    MAX_ALPHA,
    MIN_ALPHA,
    _integrate,
    _lanes,
    _LaneSet,
    Estimate,
    FracParams,
    QuadratureConfig,
    oracle,
)
from fracineq.funcatalog import Function1D, builtin_catalog, get_entry
from fracineq.identity import compute_pieces_batch
from fracineq.specfun import gamma

from at_point import estimates, one_lane, pieces_of

TWO_OVER_SQRT_PI = 1.1283791670955126

one = lambda t: np.ones_like(np.asarray(t, dtype=float))
ident = lambda t: np.asarray(t, dtype=float)
square_fn = lambda t: np.asarray(t, dtype=float) ** 2


def _scaled(scale, value, error) -> Estimate:
    """The engine's one-ulp error floor in plain Python: scale * (value,
    error), the error at least ``math.ulp`` of a nonzero value."""
    value, error = scale * float(value), scale * float(error)
    return Estimate(value, max(error, math.ulp(value)) if value else error)


def left_operator(f, a, x, alpha):
    """J_{a+}^alpha f(x) = (1/Gamma(alpha)) integral_a^x (x-t)**(alpha-1) f(t) dt."""
    return _scaled(1.0 / gamma(alpha), *one_lane(f, x, a, alpha, (x - a) ** alpha))


def right_operator(f, x, b, alpha):
    """J_{b-}^alpha f(x) = (1/Gamma(alpha)) integral_x^b (t-x)**(alpha-1) f(t) dt."""
    return _scaled(1.0 / gamma(alpha), *one_lane(f, x, b, alpha, (b - x) ** alpha))


def power_rule(beta: float, alpha: float, width: float) -> float:
    return math.gamma(beta + 1.0) / math.gamma(alpha + beta + 1.0) * width ** (alpha + beta)


class TestConfigs:
    def test_quadrature_defaults(self):
        cfg = QuadratureConfig()
        assert cfg.rel_tol == 1e-10 and cfg.abs_tol == 1e-12
        assert cfg.max_subdivisions == 2000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel_tol": 0.0},
            {"abs_tol": -1e-12},
            {"max_subdivisions": 7},
        ],
    )
    def test_quadrature_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            QuadratureConfig(**kwargs)

    def test_params_accept_conjugate_pairs(self):
        for p, q in [(2.0, 2.0), (3.0, 1.5), (1.25, 5.0)]:
            prm = FracParams(0.0, 1.0, 0.5, 0.5, s=0.5, p=p, q=q, M=1.0)
            assert prm.p == p and prm.q == q

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"a": 1.0, "b": 0.0, "x": 0.5, "alpha": 1.0},
            {"a": 0.0, "b": 1.0, "x": 1.5, "alpha": 1.0},
            {"a": 0.0, "b": 1.0, "x": 0.5, "alpha": 0.0},
            {"a": 0.0, "b": 1.0, "x": 0.5, "alpha": 1.0, "s": 0.0},
            {"a": 0.0, "b": 1.0, "x": 0.5, "alpha": 1.0, "s": 1.2},
            {"a": 0.0, "b": 1.0, "x": 0.5, "alpha": 1.0, "p": 1.0, "q": 2.0},
            {"a": 0.0, "b": 1.0, "x": 0.5, "alpha": 1.0, "q": 0.9},
            {"a": 0.0, "b": 1.0, "x": 0.5, "alpha": 1.0, "p": 2.0, "q": 3.0},
            {"a": 0.0, "b": 1.0, "x": 0.5, "alpha": 1.0, "M": -1.0},
        ],
    )
    def test_params_reject(self, kwargs):
        with pytest.raises(ConfigError):
            FracParams(**kwargs)


class TestLeftOperator:
    def test_constant_half_order(self):
        est = left_operator(one, 0.0, 1.0, 0.5)
        assert est.value == pytest.approx(TWO_OVER_SQRT_PI, rel=1e-12)

    def test_square_classical(self):
        est = left_operator(square_fn, 0.0, 1.0, 1.0)
        assert est.value == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_identity_half_order(self):
        est = left_operator(ident, 0.0, 1.0, 0.5)
        assert est.value == pytest.approx(
            math.gamma(2.0) / math.gamma(2.5), rel=1e-12
        )

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_power_rule(self, beta, alpha):
        a = 0.3
        f = lambda t: (np.asarray(t, dtype=float) - a) ** beta
        for x in np.linspace(0.45, 1.3, 5):
            est = left_operator(f, a, float(x), alpha)
            want = power_rule(beta, alpha, float(x) - a)
            assert abs(est.value - want) <= 1e-9 * abs(want)

    def test_classical_reduction_matches_plain(self):
        for entry in builtin_catalog():
            got = left_operator(entry.func, 0.0, 0.7, 1.0)
            want = one_lane(entry.func, 0.0, 0.7, 1.0, 0.7)
            assert got.value == pytest.approx(want.value, rel=1e-10, abs=1e-12)

    def test_linearity(self):
        f, g = get_entry("square").func, get_entry("exp").func
        c1, c2 = 2.0, -0.5
        combo = lambda t: c1 * f.eval(t) + c2 * g.eval(t)
        lhs = left_operator(combo, 0.0, 0.8, 0.75).value
        rhs = (c1 * left_operator(f, 0.0, 0.8, 0.75).value
               + c2 * left_operator(g, 0.0, 0.8, 0.75).value)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_positivity(self):
        cfg = QuadratureConfig()
        for entry in builtin_catalog():
            est = left_operator(entry.func, 0.0, 1.0, 0.6)
            assert est.value >= -cfg.abs_tol

    def test_empty_interval(self):
        with pytest.raises(EmptyIntervalError):
            oracle(one, 0.5, 0.5, 1.0, "hi")
        with pytest.raises(ConfigError, match="need a < b"):
            compute_pieces_batch(((get_entry("square").func, 1.0),), 0.5, 0.5, (0.5,))

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            compute_pieces_batch(((get_entry("square").func, 1.0),), 0.0, 2.0, (1.0,))

    @settings(max_examples=20, deadline=None)
    @given(
        st.floats(min_value=0.3, max_value=2.0),
        st.floats(min_value=0.1, max_value=1.0),
    )
    def test_constant_power_rule_property(self, alpha, x):
        est = left_operator(one, 0.0, x, alpha)
        want = x**alpha / math.gamma(alpha + 1.0)
        assert abs(est.value - want) <= 1e-9 * abs(want)


class TestRightOperator:
    def test_constant_half_order(self):
        est = right_operator(one, 0.0, 1.0, 0.5)
        assert est.value == pytest.approx(TWO_OVER_SQRT_PI, rel=1e-12)

    def test_square_classical(self):
        est = right_operator(square_fn, 0.0, 1.0, 1.0)
        assert est.value == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_scaled_constant(self):
        two = lambda t: 2.0 * np.ones_like(np.asarray(t, dtype=float))
        est = right_operator(two, 0.25, 1.0, 0.75)
        want = 2.0 * 0.75**0.75 / math.gamma(1.75)
        assert est.value == pytest.approx(want, rel=1e-12)

    def test_empty_interval(self):
        with pytest.raises(EmptyIntervalError):
            oracle(one, 1.0, 1.0, 1.0, "lo")


def _pair(f, deriv, x, alpha):
    pieces = pieces_of(Function1D("f", f, deriv, 0.0, 1.0), FracParams(0.0, 1.0, x, alpha))
    return estimates(pieces)[:2]


zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))


class TestLemmaPair:
    def test_constant_classical(self):
        jm, jp = _pair(one, zero, 0.5, 1.0)
        assert jm.value == pytest.approx(0.5, rel=1e-12)
        assert jp.value == pytest.approx(0.5, rel=1e-12)

    def test_constant_half_order(self):
        jm, jp = _pair(one, zero, 0.5, 0.5)
        want = 0.5**0.5 / math.gamma(1.5)
        assert jm.value == pytest.approx(want, rel=1e-12)
        assert jp.value == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(0.7978845608028654, rel=1e-13)

    def test_identity_function_split(self):
        jm, jp = _pair(ident, one, 0.5, 1.0)
        assert jm.value == pytest.approx(0.125, rel=1e-12)
        assert jp.value == pytest.approx(0.375, rel=1e-12)

    def test_degenerate_endpoints(self):
        assert _pair(one, zero, 0.0, 0.5)[0] == Estimate(0.0, 0.0)
        assert _pair(one, zero, 1.0, 0.5)[1] == Estimate(0.0, 0.0)


class TestOracleAndRules:
    def test_oracle_constant_half_order(self):
        got = oracle(one, 0.0, 1.0, 0.5, "hi") / math.gamma(0.5)
        assert got == pytest.approx(TWO_OVER_SQRT_PI, rel=1e-8)

    def test_oracle_square_classical(self):
        got = oracle(square_fn, 0.0, 1.0, 1.0, "hi") / math.gamma(1.0)
        assert got == pytest.approx(1.0 / 3.0, rel=1e-10)

    def test_adaptive_vs_oracle_seeded(self):
        # small twin of the acceptance run: seeded random (f, alpha, x)
        rng = np.random.default_rng(7)
        entries = builtin_catalog()
        for _ in range(8):
            entry = entries[int(rng.integers(len(entries)))]
            alpha = float(rng.uniform(0.3, 2.2))
            x = float(rng.uniform(0.15, 1.0))
            got = left_operator(entry.func, 0.0, x, alpha).value
            want = oracle(entry.func, 0.0, x, alpha, "hi") / math.gamma(alpha)
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want))

    def test_oracle_rule_through_config(self):
        got = oracle(one, 0.0, 1.0, 0.5, "hi")
        assert got == pytest.approx(2.0, rel=1e-8)  # integral of (1-t)^(-1/2)

    def test_oracle_rule_matches_adaptive_on_polynomial(self):
        got = oracle(square_fn, 0.0, 1.0, 0.5, "hi")
        want = one_lane(square_fn, 1.0, 0.0, 0.5).value
        assert got == pytest.approx(want, rel=1e-12)

    def test_oracle_rule_cross_checks_smooth(self):
        f = get_entry("exp").func
        got = oracle(f, 0.0, 1.0, 0.75, "lo")
        want = one_lane(f, 0.0, 1.0, 0.75).value
        assert got == pytest.approx(want, rel=1e-10)

    def test_oracle_rejects_bad_arguments(self):
        with pytest.raises(ConfigError):
            oracle(one, 0.0, 1.0, 0.5, panels=1)
        with pytest.raises(DomainError):
            oracle(one, 0.0, 1.0, 0.0)
        with pytest.raises(EmptyIntervalError):
            oracle(one, 1.0, 1.0, 0.5)

    def test_bad_singular_flag(self):
        with pytest.raises(ConfigError, match="singular"):
            oracle(one, 0.0, 1.0, 0.5, "mid")


class TestMomentIntegral:
    def test_constant_derivative(self):
        # integral_0^1 t^alpha dt = 1/(alpha+1)
        for alpha in (0.25, 1.0, 1.75):
            est = one_lane(one, 0.0, 1.0, alpha + 1.0)
            assert est.value == pytest.approx(1.0 / (alpha + 1.0), rel=1e-12)

    def test_linear_derivative(self):
        # deriv(u)=2u along u = t: integral t^alpha * 2t dt = 2/(alpha+2)
        deriv = lambda t: 2.0 * np.asarray(t, dtype=float)
        est = one_lane(deriv, 0.0, 1.0, 1.5)
        assert est.value == pytest.approx(2.0 / 2.5, rel=1e-12)

    def test_collapsed_segment(self):
        # x == base: the derivative is sampled at a single point
        deriv = get_entry("exp").func.deriv
        est = one_lane(deriv, 0.5, 0.5, 2.5)
        assert est.value == pytest.approx(math.exp(0.5) / 2.5, rel=1e-12)

    def test_oracle_route_matches(self):
        # exp' = exp along u = 0.1 + 0.8 t: integral_0^1 t^alpha e^(0.1 + 0.8 t) dt
        # = e^0.1 M(alpha + 1, alpha + 2, 0.8) / (alpha + 1), Kummer's M
        alpha = 0.75
        got = one_lane(get_entry("exp").func.deriv, 0.1, 0.9, alpha + 1.0)
        want = math.exp(0.1) * hyp1f1(alpha + 1.0, alpha + 2.0, 0.8) / (alpha + 1.0)
        assert got.value == pytest.approx(want, rel=1e-10)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ConfigError, match="alpha"):
            compute_pieces_batch(((get_entry("exp").func, 0.0),), 0.0, 1.0, (0.5,))


class TestPlainIntegral:
    def test_exponential(self):
        est = one_lane(get_entry("exp").func, 0.0, 1.0, 1.0, 1.0)
        assert est.value == pytest.approx(math.e - 1.0, rel=1e-12)


class TestConvergenceFailure:
    def test_raises_with_estimate(self):
        nasty = lambda t: np.sin(1000.0 * np.asarray(t) ** 2) / (0.001 + np.asarray(t))
        cfg = QuadratureConfig(max_subdivisions=8)
        with pytest.raises(ConvergenceError) as err:
            one_lane(nasty, 1.0, 0.0, 0.5, 1.0, cfg)
        assert err.value.estimate is not None
        assert err.value.error_bound > 0.0


def _nasty(u):
    return np.sin(1000.0 * u**2) / (0.001 + u)


def _rows(rows) -> _LaneSet:
    # lane k integrates rows[k](u) over [0, 1], starting with a break at 1/2
    def fn(lane, u):
        return np.stack([rows[k](u[i]) for i, k in enumerate(lane)])

    return _LaneSet(fn, len(rows), np.full(len(rows), 0.5))


class TestLaneEngine:
    def test_a_failing_lane_fails_alone(self):
        smooth = (np.exp, np.cos, lambda u: u**3)
        cfg = QuadratureConfig(max_subdivisions=8)
        value, error, why = _integrate((_rows(smooth[:1] + (_nasty,) + smooth[1:]),), cfg)
        assert why[1] is not None and "8 subdivisions" in why[1]
        assert error[1] > 0.0
        for k, g in zip((0, 2, 3), smooth):
            assert why[k] is None
            v1, e1, w1 = _integrate((_rows((g,)),), cfg)
            assert (value[k], error[k], w1[0]) == (v1[0], e1[0], None)
        assert value[0] == pytest.approx(math.e - 1.0, rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_lane_raises_instead_of_passing(self, bad):
        f = lambda t: np.where(np.asarray(t) > 0.5, bad, np.asarray(t, dtype=float))
        with pytest.raises(ConvergenceError, match="not finite"):
            one_lane(f, 1.0, 0.0, 0.5)
        value, _, why = _integrate((_rows((lambda u: u, lambda u: u * bad)),), QuadratureConfig())
        assert why == [None, why[1]] and "not finite" in why[1]
        assert value[0] == 0.5

    def test_batch_equals_one_lane_calls_bit_for_bit(self):
        empty = Estimate(0.0, 0.0)
        for entry in builtin_catalog():
            f = entry.func
            for alpha in (0.25, 1.0, 2.0):
                ginv = 1.0 / gamma(alpha)
                xs = tuple(float(v) for v in np.linspace(0.0, 1.0, 11))
                cols = compute_pieces_batch(((f, alpha),), 0.0, 1.0, xs)
                for i, x in enumerate(xs):
                    want = (
                        _scaled(ginv, *one_lane(f, 0.0, x, alpha, x ** alpha))
                        if x > 0.0 else empty,
                        _scaled(ginv, *one_lane(f, 1.0, x, alpha, (1.0 - x) ** alpha))
                        if x < 1.0 else empty,
                        one_lane(f.deriv, 0.0, x, alpha + 1.0),
                        one_lane(f.deriv, 1.0, x, alpha + 1.0),
                    )
                    got = estimates(cols, 0, i)
                    assert [v.hex() for e in got for v in e] == [
                        v.hex() for e in want for v in e
                    ], (entry.name, alpha, x)
                    assert all(type(v) is float for e in got for v in e)

    def test_one_set_of_mixed_betas_equals_one_lane_sets_bit_for_bit(self):
        # beta sets each lane's m = ceil(4 / beta) and its first break; lanes
        # that converge, run out of subdivisions and meet NaN share the set
        h = lambda t: np.sqrt(t - 0.2) * np.sin(200.0 * t**2)
        segments = ((1.0, 0.25), (0.6, 0.65), (0.0, 1.0), (0.5, 0.5))
        lanes = [(start, end, beta) for beta in (1e-4, 0.5, 3.0, 141.0)
                 for start, end in segments]
        cfg = QuadratureConfig(max_subdivisions=16)
        with np.errstate(invalid="ignore"):
            value, error, why = _integrate((_lanes(h, *zip(*lanes)),), cfg)
            for k, (start, end, beta) in enumerate(lanes):
                v1, e1, w1 = _integrate((_lanes(h, (start,), (end,), (beta,)),), cfg)
                assert (value[k].hex(), error[k].hex(), why[k]) == (
                    v1[0].hex(), e1[0].hex(), w1[0]
                ), (start, end, beta)
        assert {w.split(" (")[0] if w else w for w in why} == {
            None,
            "did not converge within 16 subdivisions",
            "gave a value or error estimate that is not finite",
        }

    def test_many_sets_equal_one_call_per_set(self):
        # sets of mixed sizes, an empty one, break points and failing lanes:
        # each set's lanes come out as they do alone, to the bit
        pool = (np.exp, _nasty, np.sqrt, lambda u: u**3, np.cos, np.log1p)
        sizes = (3, 1, 0, 5, 2, 1, 4)
        sets = []
        for i, size in enumerate(sizes):
            lanes = _rows(tuple(pool[(i + j) % len(pool)] for j in range(size)))
            if i % 2:
                lanes = dataclasses.replace(lanes, brk=np.full(size, 0.3))
            sets.append(lanes)
        cfg = QuadratureConfig(max_subdivisions=40)
        value, error, why = _integrate(sets, cfg)
        k = 0
        for lanes in sets:
            v1, e1, w1 = _integrate((lanes,), cfg)
            got = value[k : k + lanes.size], error[k : k + lanes.size]
            assert [float(v).hex() for a in got for v in a] == [
                float(v).hex() for a in (v1, e1) for v in a
            ]
            assert why[k : k + lanes.size] == w1
            k += lanes.size
        assert k == len(value) == sum(sizes)
        assert 0 < sum(w is not None for w in why) < len(why)

    def test_tolerance_is_met_per_lane(self):
        cfg = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-300)
        value, error, why = _integrate((_rows((np.sqrt, lambda u: np.exp(-u))),), cfg)
        assert why == [None, None]
        assert error[0] <= 1e-13 * abs(value[0])
        assert abs(value[0] - 2.0 / 3.0) <= error[0]
        assert abs(value[1] - (1.0 - math.exp(-1.0))) <= error[1] + 1e-16


def _scalar_outcome(value, error, why, what, scale=1.0):
    """One lane's result by the scalar rule: scaled in Python floats, or its
    ConvergenceError."""
    got = _scaled(scale, value, error)
    if why is not None:
        return ConvergenceError(
            f"{what}: adaptive quadrature {why}", estimate=got.value, error_bound=got.error
        )
    return got


def _outcome_bits(got):
    if isinstance(got, ConvergenceError):
        return str(got), got.estimate.hex(), got.error_bound.hex()
    assert type(got) is Estimate and all(type(v) is float for v in got)
    return tuple(v.hex() for v in got)


_NAN_PAST_HALF = Function1D(
    "nan-past-half",
    lambda t: np.where(np.asarray(t) > 0.5, np.nan, t),
    lambda t: np.ones_like(np.asarray(t, dtype=float)),
    0.0,
    1.0,
)


class TestConversion:
    """The conversion of lane outcomes runs on arrays, once per batch, and
    gives what the scalar rule gives, lane by lane, to the bit."""

    _SPECIAL = (0.0, -0.0, 1.0, -2.5, 5e-324, 2.2250738585072014e-308, 1e-310,
                1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan)

    def test_scaled_floors_as_python_max_does(self):
        # every pair of special values, with scales that overflow, underflow,
        # flip no sign and leave the value alone
        rng = np.random.default_rng(7)
        values = list(self._SPECIAL) + list(np.exp(rng.uniform(-745.0, 709.0, 200)))
        pairs = [(v, e) for v in values for e in self._SPECIAL + (3e-17, 1e300)]
        value, error = (np.array(column) for column in zip(*pairs))
        for scale in (1.0, 0.5, 3.0, 1e300, 1e-300, 1.0 / gamma(0.25)):
            with np.errstate(all="ignore"):
                got = zip(*(a.tolist() for a in fracint._scaled(scale, value, error)))
            for (v, e), (gv, ge) in zip(pairs, got):
                want = _scaled(scale, v, e)
                assert (gv.hex(), ge.hex()) == (want.value.hex(), want.error.hex()), (scale, v, e)

    def test_outcomes_scale_twice_and_name_the_failed_lanes(self):
        value = np.array([1.0, math.nan, 2.0, math.inf, 0.0, 1e-310])
        error = np.array([1e-17, math.nan, 0.5, 1.0, 0.0, 0.0])
        why = [None, "gave a value or error estimate that is not finite", None,
               "did not converge", None, "ran into intervals too narrow to bisect"]
        scale = np.array([0.3**0.25, 1.0, 2.0, 1e300, 0.5, 1e10])
        factor = np.array([1.0 / gamma(0.25), 1.0, 1e308, 1e300, 3.0, 1.0])
        got_value, got_error, failed = fracint._outcomes(
            value, error, why, lambda k: f"lane {k}", scale, factor)
        got = [failed.get(k) or Estimate(v, e)
               for k, (v, e) in enumerate(zip(got_value.tolist(), got_error.tolist()))]
        for k, outcome in enumerate(got):
            want = _scalar_outcome(value[k], error[k], why[k], f"lane {k}", float(scale[k]))
            if not isinstance(want, ConvergenceError):
                want = _scaled(float(factor[k]), *want)
            assert _outcome_bits(outcome) == _outcome_bits(want), k

    @pytest.mark.parametrize(
        "cfg", [QuadratureConfig(), QuadratureConfig(max_subdivisions=8)], ids=["default", "stalled"]
    )
    def test_batch_equals_the_scalar_rule_on_every_lane_bit_for_bit(self, monkeypatch, cfg):
        # the default grid (x = a and x = b included) and a job whose lanes
        # meet NaN; with 8 subdivisions many lanes fail with finite values
        sets, raw, names = [], [], []
        real_lanes, real_integrate, real_outcomes = (
            fracint._lanes, fracint._integrate, fracint._outcomes
        )

        def lanes(h, start, end, beta):
            sets.append([(id(h), *lane) for lane in zip(start, end, beta)])
            return real_lanes(h, start, end, beta)

        def integrate(*args):
            raw.append(real_integrate(*args))
            return raw[-1]

        def outcomes(value, error, why, what, *args):
            names.extend(map(what, range(len(why))))
            return real_outcomes(value, error, why, what, *args)

        monkeypatch.setattr(fracint, "_lanes", lanes)
        monkeypatch.setattr(fracint, "_integrate", integrate)
        monkeypatch.setattr(fracint, "_outcomes", outcomes)
        xs = tuple(float(v) for v in np.linspace(0.0, 1.0, 11))
        jobs = [(e.func, alpha) for e in builtin_catalog() for alpha in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)]
        jobs.append((_NAN_PAST_HALF, 0.5))
        batch = compute_pieces_batch(jobs, 0.0, 1.0, xs, cfg)
        ((value, error, why),) = raw
        # a lane's raw outcome depends on its integrand, ends and beta alone
        by_lane = {lane: (value[k], error[k], why[k])
                   for k, lane in enumerate(lane for group in sets for lane in group)}
        failed = 0
        for j, (f, alpha) in enumerate(jobs):
            ginv = 1.0 / gamma(alpha)
            for i, x in enumerate(xs):
                got = batch.failed.get((j, i)) or estimates(batch, j, i)
                want = []
                for c, (lo, hi) in ((0.0, (0.0, x)), (1.0, (x, 1.0))):
                    if x == c:
                        want.append(Estimate(0.0, 0.0))
                        continue
                    op = _scalar_outcome(*by_lane[id(f.eval), c, x, alpha],
                                         f"weighted integral on [{lo}, {hi}]", (hi - lo) ** alpha)
                    want.append(op if isinstance(op, ConvergenceError) else _scaled(ginv, *op))
                for c in (0.0, 1.0):
                    want.append(_scalar_outcome(*by_lane[id(f.deriv), c, x, alpha + 1.0],
                                                f"moment integral (x={x}, base={c})"))
                errors = [w for w in want if isinstance(w, ConvergenceError)]
                failed += len(errors)
                if errors:
                    assert _outcome_bits(got) == _outcome_bits(errors[0]), (f.name, alpha, x)
                else:
                    assert [_outcome_bits(g) for g in got] == [
                        _outcome_bits(w) for w in want
                    ], (f.name, alpha, x)
                    assert batch.fx.dtype == float and batch.fx[j, i] == float(f.eval(x))
        assert len(names) == len(value) == sum(map(len, sets))
        assert failed > 0 and all((len(jobs) - 1, i) in batch.failed for i in range(len(xs)))
        stalled = [k for k, w in enumerate(why) if w is not None and np.isfinite(value[k])]
        if cfg.max_subdivisions == 8:
            assert len(stalled) > len(xs)
        else:  # only the NaN job fails
            assert not stalled and all(j == len(jobs) - 1 for j, _ in batch.failed)


class TestAlphaLimit:
    def test_params_reject_alpha_past_the_gamma_range(self):
        FracParams(0.0, 1.0, 0.5, MAX_ALPHA)
        with pytest.raises(ConfigError, match="140"):
            FracParams(0.0, 1.0, 0.5, MAX_ALPHA + 1.0)

    def test_params_reject_alpha_below_the_engine_range(self):
        FracParams(0.0, 1.0, 0.5, MIN_ALPHA)
        with pytest.raises(ConfigError, match="1e-300"):
            FracParams(0.0, 1.0, 0.5, 1e-307)

    @pytest.mark.parametrize("alpha", [5e-324, 1e-307])
    def test_integrals_refuse_alpha_below_the_engine_range(self, alpha):
        # no lane runs, so numpy has nothing to warn about
        with np.errstate(all="raise"):
            with pytest.raises(DomainError, match="1e-300"):
                oracle(lambda t: t, 0.0, 1.0, alpha, "lo")
            with pytest.raises(ConfigError, match="1e-300"):
                compute_pieces_batch(((get_entry("square").func, alpha),), 0.0, 1.0, (0.5,))
